type site =
  | Alloc_node
  | Alloc_phys
  | Lock_timeout
  | Domain_crash
  | Torn_write
  | Seqlock_stall
  | Replica_write
  | Shard_crash

let all_sites =
  [
    Alloc_node;
    Alloc_phys;
    Lock_timeout;
    Domain_crash;
    Torn_write;
    Seqlock_stall;
    Replica_write;
    Shard_crash;
  ]

let site_name = function
  | Alloc_node -> "alloc_node"
  | Alloc_phys -> "alloc_phys"
  | Lock_timeout -> "lock_timeout"
  | Domain_crash -> "domain_crash"
  | Torn_write -> "torn_write"
  | Seqlock_stall -> "seqlock_stall"
  | Replica_write -> "replica_write"
  | Shard_crash -> "shard_crash"

let site_of_name = function
  | "alloc_node" -> Some Alloc_node
  | "alloc_phys" -> Some Alloc_phys
  | "lock_timeout" -> Some Lock_timeout
  | "domain_crash" -> Some Domain_crash
  | "torn_write" -> Some Torn_write
  | "seqlock_stall" -> Some Seqlock_stall
  | "replica_write" -> Some Replica_write
  | "shard_crash" -> Some Shard_crash
  | _ -> None

let site_code = function
  | Alloc_node -> 0
  | Alloc_phys -> 1
  | Lock_timeout -> 2
  | Domain_crash -> 3
  | Torn_write -> 4
  | Seqlock_stall -> 5
  | Replica_write -> 6
  | Shard_crash -> 7

exception Injected of { site : site; key : int }

let () =
  Printexc.register_printer (function
    | Injected { site; key } ->
        Some (Printf.sprintf "Fault.Injected(%s, key=%d)" (site_name site) key)
    | _ -> None)

type plan = { p_seed : int; p_rate_ppm : int; p_mask : int }

let plan ?(rate_ppm = 20_000) ?(sites = all_sites) ~seed () =
  if rate_ppm < 0 || rate_ppm > 1_000_000 then
    invalid_arg "Fault.plan: rate_ppm must be in [0, 1_000_000]";
  let mask = List.fold_left (fun m s -> m lor (1 lsl site_code s)) 0 sites in
  { p_seed = seed; p_rate_ppm = rate_ppm; p_mask = mask }

let seed p = p.p_seed

let rate_ppm p = p.p_rate_ppm

let sites p =
  List.filter (fun s -> p.p_mask land (1 lsl site_code s) <> 0) all_sites

(* One SplitMix64 finalizer per mixed-in integer: full avalanche over
   (seed, site, key, attempt), so arming is uncorrelated across sites
   and attempts and identical on every domain. *)
let decide p ~site ~key ~attempt =
  p.p_mask land (1 lsl site_code site) <> 0
  && p.p_rate_ppm > 0
  &&
  let h = Addr.Bits.mix64 (Int64.of_int p.p_seed) in
  let h = Addr.Bits.mix64 (Int64.add h (Int64.of_int (site_code site + 1))) in
  let h = Addr.Bits.mix64 (Int64.add h (Int64.of_int key)) in
  let h = Addr.Bits.mix64 (Int64.add h (Int64.of_int attempt)) in
  let v = Int64.rem (Int64.logand h Int64.max_int) 1_000_000L in
  Int64.to_int v < p.p_rate_ppm

(* --- the installed plan --- *)

let installed : plan option Atomic.t = Atomic.make None

let active () = Atomic.get installed <> None

(* --- per-site / degraded-mode tallies --- *)

let n_sites = List.length all_sites

let site_tallies = Array.init n_sites (fun _ -> Atomic.make 0)

let retries_c = Atomic.make 0

let aborts_c = Atomic.make 0

let restarts_c = Atomic.make 0

let repairs_c = Atomic.make 0

let reset_tallies () =
  Array.iter (fun a -> Atomic.set a 0) site_tallies;
  Atomic.set retries_c 0;
  Atomic.set aborts_c 0;
  Atomic.set restarts_c 0;
  Atomic.set repairs_c 0

let injected site = Atomic.get site_tallies.(site_code site)

let injected_total () =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 site_tallies

let note_retry () = ignore (Atomic.fetch_and_add retries_c 1)

let note_abort () = ignore (Atomic.fetch_and_add aborts_c 1)

let note_restart () = ignore (Atomic.fetch_and_add restarts_c 1)

let note_repair () = ignore (Atomic.fetch_and_add repairs_c 1)

let retries () = Atomic.get retries_c

let aborts () = Atomic.get aborts_c

let restarts () = Atomic.get restarts_c

let repairs () = Atomic.get repairs_c

let install p =
  reset_tallies ();
  Atomic.set installed (Some p)

let deactivate () = Atomic.set installed None

let with_plan p f =
  install p;
  Fun.protect ~finally:deactivate f

(* --- per-domain operation context --- *)

type context = { mutable key : int; mutable attempt : int }

let context_dls =
  Domain.DLS.new_key (fun () -> { key = -1; attempt = 0 })

let set_context ~key =
  let c = Domain.DLS.get context_dls in
  c.key <- key;
  c.attempt <- 0

let set_attempt a = (Domain.DLS.get context_dls).attempt <- a

let clear_context () =
  let c = Domain.DLS.get context_dls in
  c.key <- -1;
  c.attempt <- 0

let context_key () = (Domain.DLS.get context_dls).key

let suspended f =
  let c = Domain.DLS.get context_dls in
  let k = c.key and a = c.attempt in
  c.key <- -1;
  c.attempt <- 0;
  Fun.protect
    ~finally:(fun () ->
      let c = Domain.DLS.get context_dls in
      c.key <- k;
      c.attempt <- a)
    f

(* --- injection sites --- *)

let armed site =
  match Atomic.get installed with
  | None -> false
  | Some p ->
      let c = Domain.DLS.get context_dls in
      c.key >= 0 && decide p ~site ~key:c.key ~attempt:c.attempt

(* bit position = the site's index in [all_sites]; [armed] does not
   tally, so this records the plan's decision without consuming it *)
let armed_mask () =
  if not (active ()) then 0
  else
    List.fold_left
      (fun (mask, bit) site ->
        ((if armed site then mask lor bit else mask), bit lsl 1))
      (0, 1) all_sites
    |> fst

let trip site =
  armed site
  &&
  begin
    ignore (Atomic.fetch_and_add site_tallies.(site_code site) 1);
    true
  end

let fire site =
  if trip site then
    raise (Injected { site; key = (Domain.DLS.get context_dls).key })
