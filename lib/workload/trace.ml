type event =
  | Access of int * int64
  | Switch of int
  | Mmap of int * int64 * int
  | Munmap of int * int64 * int
  | Protect of int * int64 * int * bool
  | Fork of int * int
  | Exit of int
  | Touch of int * int64

type t = event array

let format_version = 2

(* Emission buffer *)
type buf = { mutable events : event list; mutable n_accesses : int }

let emit b proc vpn =
  b.events <- Access (proc, vpn) :: b.events;
  b.n_accesses <- b.n_accesses + 1

let emit_switch b proc = b.events <- Switch proc :: b.events

(* Re-touch a page a few times: real code makes many references per
   page, so hits dominate and misses come from page transitions.  The
   workload's locality scales the revisit count. *)
let touch b proc rng ~locality ~reuse vpn =
  let reuse =
    max 1 (int_of_float (float_of_int reuse *. (0.4 +. (1.8 *. locality))))
  in
  for _ = 1 to 1 + Prng.int rng ~bound:reuse do
    emit b proc vpn
  done

let run_page (first, _pages) i = Int64.add first (Int64.of_int i)

(* Sweep a run from its start, [reuse] touches per page. *)
let sweep b proc rng ~locality ~reuse run =
  let _, pages = run in
  for i = 0 to pages - 1 do
    touch b proc rng ~locality ~reuse (run_page run i)
  done

let array_sweep (pr : Snapshot.proc) b proc rng ~locality ~length =
  let runs = Snapshot.dense_runs pr in
  let chunks = Snapshot.chunk_runs pr in
  if Array.length runs = 0 then ()
  else begin
    (* interleave the arrays with a block-sized stride, the way a
       stencil or FFT reads several operands together *)
    let cursors = Array.make (Array.length runs) 0 in
    let k = ref 0 in
    while b.n_accesses < length do
      let r = !k mod Array.length runs in
      let run = runs.(r) in
      let _, pages = run in
      let i = cursors.(r) in
      touch b proc rng ~locality ~reuse:6 (run_page run (i mod pages));
      cursors.(r) <- i + 8;
      (* occasional scalar / temp access *)
      if Array.length chunks > 0 && Prng.bool rng ~p:0.02 then begin
        let c = chunks.(Prng.int rng ~bound:(Array.length chunks)) in
        let _, cp = c in
        touch b proc rng ~locality ~reuse:2 (run_page c (Prng.int rng ~bound:cp))
      end;
      incr k
    done
  end

let pointer_chase (pr : Snapshot.proc) b proc rng ~locality ~length =
  let vpns = Snapshot.proc_vpns pr in
  let n = Array.length vpns in
  if n = 0 then ()
  else begin
    (* hot set drifting through the heap: tighter when locality is
       high, so it fits the TLB and misses come from drift *)
    let hot =
      max 16 (min (n - 1) (int_of_float (320.0 *. (1.05 -. locality))))
    in
    let p_hot = 0.80 +. (0.15 *. locality) in
    let base = ref 0 in
    while b.n_accesses < length do
      let vpn =
        if Prng.bool rng ~p:p_hot then
          vpns.((!base + Prng.int rng ~bound:hot) mod n)
        else vpns.(Prng.int rng ~bound:n)
      in
      touch b proc rng ~locality ~reuse:3 vpn;
      if Prng.bool rng ~p:0.002 then base := Prng.int rng ~bound:n
    done
  end

let join (pr : Snapshot.proc) b proc rng ~locality ~length =
  let runs = Snapshot.dense_runs pr in
  if Array.length runs < 2 then pointer_chase pr b proc rng ~locality ~length
  else begin
    (* nested-loop join: outer relation swept once per pass, inner
       relation fully re-swept for every outer segment *)
    let outer = runs.(Array.length runs - 1) in
    let inner = runs.(Array.length runs - 2) in
    let _, outer_pages = outer in
    let _, inner_pages = inner in
    let inner_window = min inner_pages 256 in
    let o = ref 0 in
    while b.n_accesses < length do
      touch b proc rng ~locality ~reuse:4 (run_page outer (!o mod outer_pages));
      let start = Prng.int rng ~bound:(max 1 (inner_pages - inner_window)) in
      for i = start to start + inner_window - 1 do
        if b.n_accesses < length then
          touch b proc rng ~locality ~reuse:2 (run_page inner i)
      done;
      incr o
    done
  end

let gc_scan (pr : Snapshot.proc) b proc rng ~locality ~length =
  let runs = Snapshot.dense_runs pr in
  if Array.length runs = 0 then ()
  else begin
    let heap = runs.(Array.length runs - 1) in
    let _, heap_pages = heap in
    let alloc = ref 0 in
    while b.n_accesses < length do
      (* allocation front: fresh pages, heavy reuse *)
      for _ = 1 to 32 do
        if b.n_accesses < length then begin
          touch b proc rng ~locality ~reuse:10 (run_page heap (!alloc mod heap_pages));
          incr alloc
        end
      done;
      (* minor collection: scan a window behind the front (a young
         generation sized by the workload's locality) *)
      let window = max 32 (int_of_float (320.0 *. (1.0 -. locality))) in
      let start = max 0 ((!alloc mod heap_pages) - window) in
      for i = start to (!alloc mod heap_pages) - 1 do
        if b.n_accesses < length then
          touch b proc rng ~locality ~reuse:1 (run_page heap i)
      done;
      (* occasional major collection: sweep everything *)
      if Prng.bool rng ~p:(0.012 *. (1.2 -. locality)) then
        Array.iter
          (fun run ->
            if b.n_accesses < length then sweep b proc rng ~locality ~reuse:1 run)
          runs
    done
  end

let for_proc kind (pr : Snapshot.proc) b proc rng ~locality ~length =
  match kind with
  | Spec.Array_sweep -> array_sweep pr b proc rng ~locality ~length
  | Spec.Pointer_chase -> pointer_chase pr b proc rng ~locality ~length
  | Spec.Join -> join pr b proc rng ~locality ~length
  | Spec.Gc_scan -> gc_scan pr b proc rng ~locality ~length
  | Spec.Multiprog -> assert false

let generate ?(quantum = 400) (spec : Spec.t) (snap : Snapshot.t) ~seed ~length =
  let rng = Prng.create ~seed in
  let locality = spec.Spec.locality in
  let b = { events = []; n_accesses = 0 } in
  (match spec.Spec.trace with
  | Spec.Multiprog ->
      (* quanta of the main process interleaved with its helpers; the
         TLB is flushed at every switch *)
      let procs = Array.of_list snap.Snapshot.procs in
      let n = Array.length procs in
      let current = ref 0 in
      while b.n_accesses < length do
        emit_switch b !current;
        let stop = min length (b.n_accesses + quantum) in
        let pr = procs.(!current) in
        let kind =
          (* the main program computes; the helpers behave like shells *)
          if !current = 0 then Spec.Array_sweep else Spec.Pointer_chase
        in
        for_proc kind pr b !current rng ~locality ~length:stop;
        current := (!current + 1) mod n
      done
  | kind -> (
      match snap.Snapshot.procs with
      | [ pr ] -> for_proc kind pr b 0 rng ~locality ~length
      | pr :: _ -> for_proc kind pr b 0 rng ~locality ~length
      | [] -> ()));
  Array.of_list (List.rev b.events)

let header_prefix = "# ptsim-trace v"

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s%d\n" header_prefix format_version;
      Array.iter
        (function
          | Access (p, vpn) -> Printf.fprintf oc "A %d %Lx\n" p vpn
          | Switch p -> Printf.fprintf oc "S %d\n" p
          | Mmap (p, vpn, pages) -> Printf.fprintf oc "M %d %Lx %d\n" p vpn pages
          | Munmap (p, vpn, pages) ->
              Printf.fprintf oc "U %d %Lx %d\n" p vpn pages
          | Protect (p, vpn, pages, w) ->
              Printf.fprintf oc "P %d %Lx %d %d\n" p vpn pages
                (if w then 1 else 0)
          | Fork (parent, child) -> Printf.fprintf oc "F %d %d\n" parent child
          | Exit p -> Printf.fprintf oc "X %d\n" p
          | Touch (p, vpn) -> Printf.fprintf oc "T %d %Lx\n" p vpn)
        t)

(* VPNs of a 64-bit address space with 4 KB pages *)
let vpn_limit = Int64.shift_left 1L 52

exception Malformed

let parse_line line =
  let proc p =
    match int_of_string_opt p with
    | Some p when p >= 0 -> p
    | _ -> raise Malformed
  and vpn v =
    match Int64.of_string_opt ("0x" ^ v) with
    | Some v when v >= 0L && v < vpn_limit -> v
    | _ -> raise Malformed
  and int n =
    match int_of_string_opt n with Some n -> n | None -> raise Malformed
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ "A"; p; v ] -> Some (Access (proc p, vpn v))
  | [ "S"; p ] -> Some (Switch (proc p))
  | [ "M"; p; v; pages ] -> Some (Mmap (proc p, vpn v, int pages))
  | [ "U"; p; v; pages ] -> Some (Munmap (proc p, vpn v, int pages))
  | [ "P"; p; v; pages; w ] ->
      Some (Protect (proc p, vpn v, int pages, int w <> 0))
  | [ "F"; parent; child ] -> Some (Fork (proc parent, proc child))
  | [ "X"; p ] -> Some (Exit (proc p))
  | [ "T"; p; v ] -> Some (Touch (proc p, vpn v))
  | [ "" ] | [] -> None
  | _ -> raise Malformed

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      let error n fmt =
        Printf.ksprintf
          (fun m -> Error (Printf.sprintf "%s:%d: %s" path n m))
          fmt
      in
      let rec events n acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | line :: rest -> (
            match parse_line line with
            | Some e -> events (n + 1) (e :: acc) rest
            | None -> events (n + 1) acc rest
            | exception Malformed -> error n "bad event %S" line)
      in
      let n = String.length header_prefix in
      match String.split_on_char '\n' text with
      | first :: rest
        when String.length first > n && String.sub first 0 n = header_prefix
        -> (
          (* versioned header: reject files written by a format we do
             not know how to read *)
          match
            int_of_string_opt
              (String.trim (String.sub first n (String.length first - n)))
          with
          | None -> error 1 "bad header %S" first
          | Some v when v < 1 || v > format_version ->
              error 1
                "unsupported trace format v%d (this build reads up to v%d)" v
                format_version
          | Some _ -> events 2 [] rest)
      (* a headerless v1 file: the first line is already an event *)
      | lines -> events 1 [] lines)

let accesses t =
  Array.fold_left
    (fun acc -> function Access _ -> acc + 1 | _ -> acc)
    0 t

let distinct_pages t =
  let seen = Hashtbl.create 1024 in
  Array.iter
    (function
      | Access (p, vpn) | Touch (p, vpn) -> Hashtbl.replace seen (p, vpn) ()
      | _ -> ())
    t;
  Hashtbl.length seen
