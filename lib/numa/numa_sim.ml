(* The `ptsim numa` / bench driver: throughput-style phased rounds
   over a NUMA-replicated service on {!Exec.Soak} streams, plus the
   per-address-space policy experiment.

   What keeps the output identical for any --domains, beyond the soak
   contract:

   - Stream [s] is pinned to node [s mod nodes], so stream-to-node
     binding never depends on the domain count.
   - Bucket-partitioned key pools: stream [s] only uses VPNs whose
     primary-table bucket satisfies [bucket mod streams = s].  Every
     chain holds one stream's mappings in that stream's program order,
     so chain contents AND order — hence walk line counts, with nodes
     on 256-byte boundaries and 256-byte model lines — are
     interleaving-invariant, the property the shared-pool throughput
     driver deliberately gives up.
   - Each round is a write phase, a staleness probe on the idle main
     domain, then a read phase.  Catch-up work observed by a read
     phase is fixed by the preceding write phases, not by scheduling.
   - Fault injection (the replica-write soak) keys every op by
     (stream, op ordinal). *)

module Service = Pt_service.Service

type config = {
  node_counts : int list;
  modes : Replicated.mode list;
  orgs : Service.org list;
  locking : Service.locking;
  domains : int;
  streams_per_node : int;
  rounds : int;
  reads_per_stream : int;  (** lookups per stream per round *)
  writes_per_stream : int;  (** mutations per stream per round *)
  vpns_per_stream : int;
  buckets : int;
  seed : int;
  local_cost : int;
  remote_cost : int;
  fault_rate_ppm : int;  (** 0 = no plan installed *)
  fault_sites : Fault.site list;
  policy_spaces : int;
  policy_reads : int;  (** reads per read-mostly space *)
  policy_writes : int;  (** writes per write-heavy space *)
}

let default_config =
  {
    node_counts = [ 2; 4 ];
    modes = [ Replicated.Single_home; Replicated.Eager; Replicated.Lazy ];
    orgs = [ Service.Clustered; Service.Hashed ];
    locking = Service.Seqlock;
    domains = 1;
    streams_per_node = 2;
    rounds = 4;
    reads_per_stream = 2_000;
    writes_per_stream = 400;
    vpns_per_stream = 512;
    buckets = 4096;
    seed = 42;
    local_cost = 1;
    remote_cost = 4;
    fault_rate_ppm = 0;
    fault_sites = [ Fault.Replica_write ];
    policy_spaces = 6;
    policy_reads = 1_500;
    policy_writes = 400;
  }

let quick_config =
  {
    default_config with
    streams_per_node = 1;
    rounds = 2;
    reads_per_stream = 600;
    writes_per_stream = 150;
    vpns_per_stream = 256;
    policy_reads = 500;
    policy_writes = 150;
  }

type row = {
  r_nodes : int;
  r_mode : Replicated.mode;
  r_org : Service.org;
  r_locking : Service.locking;
  r_streams : int;
  r_rounds : int;
  r_lookups : int;
  r_hits : int;
  r_local_lines : int;
  r_remote_lines : int;
  r_logical_writes : int;
  r_replica_writes : int;
  r_eager_skips : int;
  r_catchups : int;
  r_replayed_ops : int;
  r_max_catchup_pending : int;
  r_stale_pairs : int;  (** staleness probe sum over rounds *)
  r_sync_replayed : int;  (** pending drained at quiesce *)
  r_injected : int;  (** replica-write faults injected *)
  r_population : int;
  r_fsck_clean : bool;
}

let lines_per_miss lines lookups =
  if lookups = 0 then 0. else float_of_int lines /. float_of_int lookups

let write_amplification r =
  if r.r_logical_writes = 0 then 0.
  else float_of_int r.r_replica_writes /. float_of_int r.r_logical_writes

(* --- bucket-partitioned key pools --- *)

(* Stream [s] owns the VPNs (scanned in increasing order from a fixed
   base) whose bucket is congruent to [s] mod streams.  The scan is a
   pure function of the table configuration, so every run of a config
   builds identical pools. *)
let build_pools repl ~streams ~vpns_per_stream =
  let pools = Array.init streams (fun _ -> Array.make vpns_per_stream 0L) in
  let fill = Array.make streams 0 in
  let filled = ref 0 in
  let vpn = ref 0x10_0000L in
  let guard = ref 0 in
  while !filled < streams do
    incr guard;
    if !guard > 50_000_000 then
      failwith "Numa_sim.build_pools: key-pool scan did not converge";
    let s = Replicated.bucket_of repl ~vpn:!vpn mod streams in
    if fill.(s) < vpns_per_stream then begin
      pools.(s).(fill.(s)) <- !vpn;
      fill.(s) <- fill.(s) + 1;
      if fill.(s) = vpns_per_stream then incr filled
    end;
    vpn := Int64.add !vpn 1L
  done;
  pools

(* identity placement folded into the PTE's 28-bit PPN field *)
let ppn_for vpn = Int64.logand vpn 0xFFF_FFFFL

(* --- one (org, mode, nodes) run --- *)

let run_one cfg ~org ~mode ~nodes =
  let machine =
    Machine.make ~local_cost:cfg.local_cost ~remote_cost:cfg.remote_cost
      ~nodes ()
  in
  let repl =
    Replicated.create ~buckets:cfg.buckets ~machine ~org ~locking:cfg.locking
      ~mode ()
  in
  let streams = nodes * cfg.streams_per_node in
  let pools = build_pools repl ~streams ~vpns_per_stream:cfg.vpns_per_stream in
  let node_of s = s mod nodes in
  (* fault keys: one ordinal space per stream, wide enough for every
     phase of every round *)
  let key_budget =
    cfg.vpns_per_stream
    + (cfg.rounds * (cfg.writes_per_stream + cfg.reads_per_stream))
    + 16
  in
  let cursors = Array.make streams 0 in
  let op_key s =
    let k = (s * key_budget) + cursors.(s) in
    cursors.(s) <- cursors.(s) + 1;
    k
  in
  let hits = Array.make streams 0 in
  (* flight-recorder events: stream-owned rings, asid = the stream's
     node, fault = the armed-site bitmask for the op's context *)
  let lock = Service.lock_code cfg.locking in
  let rec_op ~s ~kind ~node ~vpn ~lat =
    Obs.Recorder.record ~stream:s ~kind ~asid:node ~vpn:(Int64.to_int vpn)
      ~pages:1 ~lock ~attempt:0 ~fault:(Fault.armed_mask ())
      ~lat
  in
  let prepopulate s =
    let node = node_of s in
    let pool = pools.(s) in
    let i = ref 0 in
    while !i < cfg.vpns_per_stream do
      let vpn = pool.(!i) in
      Fault.set_context ~key:(op_key s);
      rec_op ~s ~kind:Obs.Recorder.k_insert ~node ~vpn ~lat:0;
      Replicated.insert ~node repl ~vpn ~ppn:(ppn_for vpn)
        ~attr:Pte.Attr.default;
      i := !i + 2
    done;
    Fault.clear_context ()
  in
  let write_phase round s =
    let rng = Random.State.make [| cfg.seed; s; round; 0x57 |] in
    let node = node_of s in
    let pool = pools.(s) in
    for _ = 1 to cfg.writes_per_stream do
      let vpn = pool.(Random.State.int rng cfg.vpns_per_stream) in
      let r = Random.State.int rng 100 in
      Fault.set_context ~key:(op_key s);
      if r < 50 then begin
        rec_op ~s ~kind:Obs.Recorder.k_insert ~node ~vpn ~lat:0;
        Replicated.insert ~node repl ~vpn ~ppn:(ppn_for vpn)
          ~attr:Pte.Attr.default
      end
      else if r < 80 then begin
        rec_op ~s ~kind:Obs.Recorder.k_remove ~node ~vpn ~lat:0;
        Replicated.remove ~node repl ~vpn
      end
      else begin
        rec_op ~s ~kind:Obs.Recorder.k_protect ~node ~vpn ~lat:0;
        Replicated.protect_page ~node repl ~vpn ~writable:(r land 1 = 0)
      end
    done;
    Fault.clear_context ()
  in
  let read_phase round s =
    let rng = Random.State.make [| cfg.seed; s; round; 0x52 |] in
    let node = node_of s in
    let pool = pools.(s) in
    let counter = Mem.Cache_model.create_counter () in
    let acc = Mem.Walk_acc.create () in
    let h = ref 0 in
    for _ = 1 to cfg.reads_per_stream do
      let vpn = pool.(Random.State.int rng cfg.vpns_per_stream) in
      Fault.set_context ~key:(op_key s);
      let hit = Replicated.lookup_into repl counter acc ~node ~vpn in
      rec_op ~s ~kind:Obs.Recorder.k_lookup ~node ~vpn
        ~lat:(if hit then 1 else 0);
      if hit then Stdlib.incr h
    done;
    Fault.clear_context ();
    hits.(s) <- hits.(s) + !h
  in
  let stale_pairs = ref 0 in
  let series_label =
    Printf.sprintf "numa:%d/%s/%s" nodes
      (Replicated.mode_name mode)
      (Service.org_name org)
  in
  let body () =
    Exec.Soak.with_streams
      ~epochs:(Replicated.reader_epochs repl)
      ~domains:cfg.domains ~streams
    @@ fun soak ->
    Exec.Soak.each soak prepopulate;
    Replicated.sync repl;
    Replicated.reset_stats repl;
    let prev = ref (Replicated.stats repl) in
    for round = 0 to cfg.rounds - 1 do
      Exec.Soak.each soak (write_phase round);
      let stale_now = Replicated.stale_buckets repl in
      stale_pairs := !stale_pairs + stale_now;
      Exec.Soak.each soak (read_phase round);
      (* workers parked: the round's stat deltas are barrier-stable *)
      let s = Replicated.stats repl in
      let p = !prev in
      Obs.Series.push ~label:series_label ~index:round
        [
          ("numa.lookups", s.Replicated.lookups - p.Replicated.lookups);
          ("numa.local_lines", s.Replicated.local_lines - p.Replicated.local_lines);
          ("numa.remote_lines", s.Replicated.remote_lines - p.Replicated.remote_lines);
          ("numa.logical_writes", s.Replicated.logical_writes - p.Replicated.logical_writes);
          ("numa.replica_writes", s.Replicated.replica_writes - p.Replicated.replica_writes);
          ("numa.catchups", s.Replicated.catchups - p.Replicated.catchups);
          ("numa.stale_pairs", stale_now);
        ];
      prev := s
    done
  in
  (if cfg.fault_rate_ppm > 0 then
     Fault.with_plan
       (Fault.plan ~rate_ppm:cfg.fault_rate_ppm ~sites:cfg.fault_sites
          ~seed:cfg.seed ())
       body
   else body ());
  (* Fault.install zeroes the tallies, so the count after the run is
     this row's own; without a plan the stale global total is not ours *)
  let injected =
    if cfg.fault_rate_ppm > 0 then Fault.injected Fault.Replica_write else 0
  in
  Replicated.quiesce repl;
  let s = Replicated.stats repl in
  Replicated.stats_to_metrics repl;
  let report = Replicated.fsck repl in
  {
    r_nodes = nodes;
    r_mode = mode;
    r_org = org;
    r_locking = cfg.locking;
    r_streams = streams;
    r_rounds = cfg.rounds;
    r_lookups = s.Replicated.lookups;
    r_hits = Array.fold_left ( + ) 0 hits;
    r_local_lines = s.Replicated.local_lines;
    r_remote_lines = s.Replicated.remote_lines;
    r_logical_writes = s.Replicated.logical_writes;
    r_replica_writes = s.Replicated.replica_writes;
    r_eager_skips = s.Replicated.eager_skips;
    r_catchups = s.Replicated.catchups;
    r_replayed_ops = s.Replicated.replayed_ops;
    r_max_catchup_pending = s.Replicated.max_catchup_pending;
    r_stale_pairs = !stale_pairs;
    r_sync_replayed = s.Replicated.sync_replayed;
    r_injected = injected;
    r_population = Replicated.population repl;
    r_fsck_clean = Fsck.clean report;
  }

(* --- the per-address-space policy experiment ---

   Sequential by construction (placement decisions, not scaling, are
   under test), so it is trivially domain-count invariant.  Spaces
   cycle through two profiles: read-mostly (reads from every node,
   writes rare) and write-heavy (traffic dominated by one node).  Each
   space's op sequence is generated once and replayed three times: a
   profiling round on a single home to collect the policy's input
   counters, a baseline round (everything homed on node 0), and a
   placed round under the policy's decision. *)

type space_op = P_read of { node : int; idx : int } | P_write of { idx : int }

type policy_row = {
  p_org : Service.org;
  p_nodes : int;
  p_spaces : int;
  p_replicated : int;
  p_homed : int;
  p_baseline_remote_lines : int;
  p_policy_remote_lines : int;
  p_baseline_replica_writes : int;
  p_policy_replica_writes : int;
}

let remote_reduction_pct p =
  if p.p_baseline_remote_lines = 0 then 0.
  else
    100.
    *. float_of_int (p.p_baseline_remote_lines - p.p_policy_remote_lines)
    /. float_of_int p.p_baseline_remote_lines

let policy_pool_vpns = 192

let policy_buckets = 512

(* space [i]'s op sequence: a pure function of (seed, org-independent
   ints), shared by all three replays *)
let space_ops cfg ~nodes ~space =
  let read_mostly = space mod 3 < 2 in
  let dominant = space mod nodes in
  let rng = Random.State.make [| cfg.seed; space; 0x90 |] in
  let ops = ref [] in
  let n_reads = if read_mostly then cfg.policy_reads else cfg.policy_reads / 4
  and n_writes =
    if read_mostly then max 1 (cfg.policy_writes / 8) else cfg.policy_writes
  in
  for _ = 1 to n_reads do
    let node =
      if read_mostly then Random.State.int rng nodes
      else if Random.State.int rng 10 < 8 then dominant
      else Random.State.int rng nodes
    in
    ops := P_read { node; idx = Random.State.int rng policy_pool_vpns } :: !ops
  done;
  for _ = 1 to n_writes do
    ops := P_write { idx = Random.State.int rng policy_pool_vpns } :: !ops
  done;
  (* interleave deterministically: shuffle by sort over a hash of the
     position, keeping the generator order as tiebreak *)
  let arr = Array.of_list (List.rev !ops) in
  let keyed =
    Array.mapi
      (fun i op ->
        (Addr.Bits.mix64 (Int64.of_int ((cfg.seed * 1_000_003) + i)), i, op))
      arr
  in
  Array.sort compare keyed;
  (Array.map (fun (_, _, op) -> op) keyed, dominant)

let replay_space repl ~home_node ~space ops =
  (* pool vpns are private to the space: fold the space id in *)
  let vpn_of idx =
    Int64.add 0x20_0000L (Int64.of_int ((space * 4096) + idx))
  in
  for idx = 0 to policy_pool_vpns - 1 do
    Replicated.insert ~node:home_node repl ~vpn:(vpn_of idx)
      ~ppn:(ppn_for (vpn_of idx)) ~attr:Pte.Attr.default
  done;
  Replicated.sync repl;
  Replicated.reset_stats repl;
  let counter = Mem.Cache_model.create_counter () in
  let acc = Mem.Walk_acc.create () in
  Array.iter
    (fun op ->
      match op with
      | P_read { node; idx } ->
          ignore
            (Replicated.lookup_into repl counter acc ~node ~vpn:(vpn_of idx))
      | P_write { idx } ->
          Replicated.insert ~node:home_node repl ~vpn:(vpn_of idx)
            ~ppn:(ppn_for (vpn_of idx)) ~attr:Pte.Attr.default)
    ops;
  Replicated.quiesce repl;
  Replicated.stats repl

let run_policy cfg ~org ~nodes =
  let machine =
    Machine.make ~local_cost:cfg.local_cost ~remote_cost:cfg.remote_cost
      ~nodes ()
  in
  let fresh ?home mode =
    Replicated.create ~buckets:policy_buckets ?home ~machine ~org
      ~locking:cfg.locking ~mode ()
  in
  let replicated = ref 0 in
  let homed = ref 0 in
  let base_remote = ref 0 in
  let base_writes = ref 0 in
  let pol_remote = ref 0 in
  let pol_writes = ref 0 in
  for space = 0 to cfg.policy_spaces - 1 do
    let ops, dominant = space_ops cfg ~nodes ~space in
    (* profile on a single home at the dominant node (where the OS
       would have first-touched it) *)
    let profile =
      replay_space (fresh ~home:dominant Replicated.Single_home)
        ~home_node:dominant ~space ops
    in
    let decision =
      Policy.decide machine
        ~reads_per_node:profile.Replicated.reads_per_node
        ~writes:profile.Replicated.logical_writes
    in
    (* policy input counters, surfaced through the Obs registry *)
    let m = Obs.Ambient.get () in
    Obs.Metrics.add
      (Obs.Metrics.counter m "numa.policy.profile_reads")
      profile.Replicated.lookups;
    Obs.Metrics.add
      (Obs.Metrics.counter m "numa.policy.profile_writes")
      profile.Replicated.logical_writes;
    (* baseline: everything homed on node 0 *)
    let base =
      replay_space (fresh Replicated.Single_home) ~home_node:0 ~space ops
    in
    base_remote := !base_remote + base.Replicated.remote_lines;
    base_writes := !base_writes + base.Replicated.replica_writes;
    (* placed per the decision *)
    let placed =
      match decision with
      | Policy.Replicate ->
          Stdlib.incr replicated;
          Obs.Metrics.incr (Obs.Metrics.counter m "numa.policy.replicated");
          replay_space (fresh Replicated.Lazy) ~home_node:dominant ~space ops
      | Policy.Home n ->
          Stdlib.incr homed;
          Obs.Metrics.incr (Obs.Metrics.counter m "numa.policy.homed");
          replay_space (fresh ~home:n Replicated.Single_home) ~home_node:n
            ~space ops
    in
    pol_remote := !pol_remote + placed.Replicated.remote_lines;
    pol_writes := !pol_writes + placed.Replicated.replica_writes
  done;
  {
    p_org = org;
    p_nodes = nodes;
    p_spaces = cfg.policy_spaces;
    p_replicated = !replicated;
    p_homed = !homed;
    p_baseline_remote_lines = !base_remote;
    p_policy_remote_lines = !pol_remote;
    p_baseline_replica_writes = !base_writes;
    p_policy_replica_writes = !pol_writes;
  }

(* --- the full matrix --- *)

type outcome = { rows : row list; policy : policy_row list }

let run cfg =
  if cfg.domains < 1 then invalid_arg "Numa_sim.run: domains must be >= 1";
  if cfg.node_counts = [] then
    invalid_arg "Numa_sim.run: need at least one node count";
  if cfg.streams_per_node < 1 then
    invalid_arg "Numa_sim.run: streams per node must be >= 1";
  if cfg.rounds < 1 then invalid_arg "Numa_sim.run: rounds must be >= 1";
  let max_streams =
    List.fold_left (fun acc n -> max acc (n * cfg.streams_per_node)) 1
      cfg.node_counts
  in
  Obs.Recorder.arm ~streams:max_streams ~capacity:512;
  let rows =
    List.concat_map
      (fun nodes ->
        List.concat_map
          (fun org ->
            List.map
              (fun mode -> run_one cfg ~org ~mode ~nodes)
              cfg.modes)
          cfg.orgs)
      cfg.node_counts
  in
  let policy =
    List.concat_map
      (fun nodes ->
        List.map (fun org -> run_policy cfg ~org ~nodes) cfg.orgs)
      cfg.node_counts
  in
  { rows; policy }

(* --- rendering --- *)

let row_to_json r =
  let int = Jsonx.int and str = Jsonx.string in
  Jsonx.obj
    [
      ("nodes", int r.r_nodes); ("mode", str (Replicated.mode_name r.r_mode));
      ("org", str (Service.org_name r.r_org));
      ("locking", str (Service.locking_name r.r_locking));
      ("streams", int r.r_streams); ("rounds", int r.r_rounds);
      ("lookups", int r.r_lookups); ("hits", int r.r_hits);
      ("local_lines", int r.r_local_lines);
      ("remote_lines", int r.r_remote_lines);
      ( "local_lines_per_miss",
        Jsonx.fixed ~dp:4 (lines_per_miss r.r_local_lines r.r_lookups) );
      ( "remote_lines_per_miss",
        Jsonx.fixed ~dp:4 (lines_per_miss r.r_remote_lines r.r_lookups) );
      ("logical_writes", int r.r_logical_writes);
      ("replica_writes", int r.r_replica_writes);
      ("write_amplification", Jsonx.fixed ~dp:4 (write_amplification r));
      ("eager_skips", int r.r_eager_skips); ("catchups", int r.r_catchups);
      ("replayed_ops", int r.r_replayed_ops);
      ("max_catchup_pending", int r.r_max_catchup_pending);
      ("stale_pairs", int r.r_stale_pairs);
      ("sync_replayed", int r.r_sync_replayed); ("injected", int r.r_injected);
      ("population", int r.r_population);
      ("fsck_clean", Jsonx.bool r.r_fsck_clean);
    ]

let policy_row_to_json p =
  let int = Jsonx.int in
  Jsonx.obj
    [
      ("org", Jsonx.string (Service.org_name p.p_org));
      ("nodes", int p.p_nodes); ("spaces", int p.p_spaces);
      ("replicated", int p.p_replicated); ("homed", int p.p_homed);
      ("baseline_remote_lines", int p.p_baseline_remote_lines);
      ("policy_remote_lines", int p.p_policy_remote_lines);
      ("remote_reduction_pct", Jsonx.fixed ~dp:2 (remote_reduction_pct p));
      ("baseline_replica_writes", int p.p_baseline_replica_writes);
      ("policy_replica_writes", int p.p_policy_replica_writes);
    ]

(* The JSON deliberately omits the domain count: outputs must be
   byte-identical for any --domains (CI diffs them). *)
let outcome_to_json cfg o =
  Jsonx.obj
    [
      ("schema_version", Jsonx.int 1); ("experiment", Jsonx.string "numa");
      ("seed", Jsonx.int cfg.seed);
      ("locking", Jsonx.string (Service.locking_name cfg.locking));
      ("fault_rate_ppm", Jsonx.int cfg.fault_rate_ppm);
      ("rows", Jsonx.list (List.map row_to_json o.rows));
      ("policy", Jsonx.list (List.map policy_row_to_json o.policy));
    ]

let pp_outcome ppf o =
  Format.fprintf ppf
    "%-5s %-11s %-9s %8s %9s %9s %7s %8s %9s %6s@."
    "nodes" "mode" "org" "lookups" "loc/miss" "rem/miss" "w-amp"
    "catchups" "stale" "fsck";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-5d %-11s %-9s %8d %9.4f %9.4f %7.3f %8d %9d %6s@."
        r.r_nodes
        (Replicated.mode_name r.r_mode)
        (Service.org_name r.r_org)
        r.r_lookups
        (lines_per_miss r.r_local_lines r.r_lookups)
        (lines_per_miss r.r_remote_lines r.r_lookups)
        (write_amplification r) r.r_catchups r.r_stale_pairs
        (if r.r_fsck_clean then "clean" else "DIRTY"))
    o.rows;
  List.iter
    (fun p ->
      Format.fprintf ppf
        "policy %-9s nodes=%d spaces=%d replicated=%d homed=%d \
         remote lines %d -> %d (-%.1f%%)@."
        (Service.org_name p.p_org)
        p.p_nodes p.p_spaces p.p_replicated p.p_homed
        p.p_baseline_remote_lines p.p_policy_remote_lines
        (remote_reduction_pct p))
    o.policy

let all_clean o = List.for_all (fun r -> r.r_fsck_clean) o.rows
