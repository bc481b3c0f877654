type seg_kind = Dense | Chunk | Sparse

type segment = { kind : seg_kind; first_vpn : int64; pages : int }

type proc = { pname : string; segments : segment list }

type t = { workload : string; procs : proc list }

(* Non-overlap bookkeeping: a sorted list of (first, last) VPN
   intervals.  Segment counts are a few hundred, so a list is fine. *)
module Intervals = struct
  let create () : (int64 * int64) list ref = ref []

  let overlaps t first last =
    List.exists
      (fun (f, l) ->
        Int64.unsigned_compare first l <= 0 && Int64.unsigned_compare f last <= 0)
      !t

  let add t first last = t := (first, last) :: !t
end

let place rng used ~base ~spread ~pages =
  let spread = Int64.to_int (Int64.min spread 0x4000000L) in
  let rec try_place attempts =
    if attempts > 200 then
      invalid_arg "Snapshot: cannot place segment (profile too crowded)"
    else begin
      let off = Prng.int rng ~bound:(max 1 spread) in
      let first = Int64.add base (Int64.of_int off) in
      let last = Int64.add first (Int64.of_int (pages - 1)) in
      if Intervals.overlaps used first last then try_place (attempts + 1)
      else begin
        Intervals.add used first last;
        first
      end
    end
  in
  try_place 0

let gen_proc rng (p : Spec.process) =
  let used = Intervals.create () in
  let target = p.Spec.target_pages in
  let prof = p.Spec.profile in
  let dense_total =
    min target (int_of_float (float_of_int target *. prof.Spec.dense_frac))
  in
  (* fractions are clamped so any profile hits its target exactly *)
  let sparse_total =
    min (target - dense_total)
      (int_of_float (float_of_int target *. prof.Spec.sparse_frac))
  in
  let chunk_total = target - dense_total - sparse_total in
  let segments = ref [] in
  (* dense part: text / data / heap, the classic Unix triple *)
  let dense_split = [ (0.10, 0x400L); (0.25, 0x20000L); (0.65, 0x80000L) ] in
  let placed = ref 0 in
  List.iteri
    (fun i (frac, base) ->
      let pages =
        if i = List.length dense_split - 1 then dense_total - !placed
        else int_of_float (float_of_int dense_total *. frac)
      in
      if pages > 0 then begin
        placed := !placed + pages;
        let first_vpn = place rng used ~base ~spread:0x1000L ~pages in
        segments := { kind = Dense; first_vpn; pages } :: !segments
      end)
    dense_split;
  (* bursty chunks: medium objects scattered through the space *)
  let chunk_base = 0x200000L in
  let lo, hi = prof.Spec.chunk_pages in
  let remaining = ref chunk_total in
  while !remaining > 0 do
    let pages = min !remaining (Prng.int_in rng ~lo ~hi) in
    let first_vpn =
      place rng used ~base:chunk_base ~spread:prof.Spec.spread_pages ~pages
    in
    segments := { kind = Chunk; first_vpn; pages } :: !segments;
    remaining := !remaining - pages
  done;
  (* isolated sparse pages *)
  let sparse_base = 0x4000000L in
  for _ = 1 to sparse_total do
    let first_vpn =
      place rng used ~base:sparse_base ~spread:prof.Spec.spread_pages ~pages:1
    in
    segments := { kind = Sparse; first_vpn; pages = 1 } :: !segments
  done;
  { pname = p.Spec.pname; segments = List.rev !segments }

let generate (spec : Spec.t) ~seed =
  let rng = Prng.create ~seed in
  {
    workload = spec.Spec.name;
    procs = List.map (gen_proc rng) spec.Spec.processes;
  }

let proc_pages p = List.fold_left (fun acc s -> acc + s.pages) 0 p.segments

let total_pages t = List.fold_left (fun acc p -> acc + proc_pages p) 0 t.procs

let proc_vpns p =
  let out = Array.make (proc_pages p) 0L in
  let i = ref 0 in
  List.iter
    (fun s ->
      for j = 0 to s.pages - 1 do
        out.(!i) <- Int64.add s.first_vpn (Int64.of_int j);
        incr i
      done)
    p.segments;
  Array.sort Int64.unsigned_compare out;
  out

let runs_of_kind kind p =
  p.segments
  |> List.filter (fun s -> s.kind = kind)
  |> List.map (fun s -> (s.first_vpn, s.pages))
  |> Array.of_list

let dense_runs = runs_of_kind Dense

let chunk_runs = runs_of_kind Chunk

let active_blocks ~subblock_factor p =
  let blocks = Hashtbl.create 256 in
  List.iter
    (fun s ->
      for j = 0 to s.pages - 1 do
        let vpn = Int64.add s.first_vpn (Int64.of_int j) in
        Hashtbl.replace blocks
          (Addr.Vaddr.vpbn_of_vpn ~subblock_factor vpn)
          ()
      done)
    p.segments;
  Hashtbl.length blocks

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "workload %s\n" t.workload;
      List.iter
        (fun p ->
          Printf.fprintf oc "proc %s\n" p.pname;
          List.iter
            (fun s ->
              let kind =
                match s.kind with
                | Dense -> "dense"
                | Chunk -> "chunk"
                | Sparse -> "sparse"
              in
              Printf.fprintf oc "seg %s %Lx %d\n" kind s.first_vpn s.pages)
            p.segments)
        t.procs)

(* VPNs of a 64-bit address space with 4 KB pages *)
let vpn_limit = Int64.shift_left 1L 52

exception Bad_line of int * string

let load path =
  let parse n line =
    let bad fmt = Printf.ksprintf (fun m -> raise (Bad_line (n, m))) fmt in
    match String.split_on_char ' ' (String.trim line) with
    | [ "workload"; name ] -> `Workload name
    | [ "proc"; pname ] -> `Proc pname
    | [ "seg"; kind; first; pages ] ->
        let kind =
          match kind with
          | "dense" -> Dense
          | "chunk" -> Chunk
          | "sparse" -> Sparse
          | k -> bad "bad segment kind %S" k
        in
        let first_vpn =
          match Int64.of_string_opt ("0x" ^ first) with
          | Some v -> v
          | None -> bad "bad VPN %S" first
        in
        let pages =
          match int_of_string_opt pages with
          | Some p when p >= 1 -> p
          | _ -> bad "bad page count %S" pages
        in
        if
          first_vpn < 0L
          || Int64.sub vpn_limit first_vpn < Int64.of_int pages
        then bad "segment outside the 52-bit VPN space";
        `Seg { kind; first_vpn; pages }
    | [ "" ] | [] -> `Blank
    | _ -> bad "bad line %S" line
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      let workload = ref "" and procs = ref [] and cur = ref None in
      let rec disjoint = function
        | (m, p) :: ((n, s) :: _ as rest) ->
            if Int64.add p.first_vpn (Int64.of_int p.pages) > s.first_vpn then
              raise (Bad_line (n, Printf.sprintf "segment overlaps line %d" m));
            disjoint rest
        | _ -> ()
      in
      (* [generate] never overlaps a process's segments; a file that
         does would count pages twice *)
      let flush_proc () =
        Option.iter
          (fun (pname, segs) ->
            disjoint
              (List.sort
                 (fun (n, a) (m, b) ->
                   compare (a.first_vpn, n) (b.first_vpn, m))
                 segs);
            procs := { pname; segments = List.rev_map snd segs } :: !procs)
          !cur
      in
      try
        List.iteri
          (fun i line ->
            match parse (i + 1) line with
            | `Workload name -> workload := name
            | `Proc pname ->
                flush_proc ();
                cur := Some (pname, [])
            | `Seg seg -> (
                match !cur with
                | Some (pname, segs) ->
                    cur := Some (pname, (i + 1, seg) :: segs)
                | None -> raise (Bad_line (i + 1, "segment before any proc")))
            | `Blank -> ())
          (String.split_on_char '\n' text);
        flush_proc ();
        Ok { workload = !workload; procs = List.rev !procs }
      with Bad_line (n, msg) -> Error (Printf.sprintf "%s:%d: %s" path n msg))

let pp ppf t =
  Format.fprintf ppf "%s:" t.workload;
  List.iter
    (fun p ->
      Format.fprintf ppf " %s=%dp/%dseg" p.pname (proc_pages p)
        (List.length p.segments))
    t.procs
