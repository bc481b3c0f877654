(** The [ptsim numa] / bench driver: a phased multi-round workload
    over {!Replicated} across a (node count x mode x organization)
    matrix, plus the per-address-space {!Policy} experiment.

    Determinism: {!Exec.Soak} streams pinned to nodes (never to
    domains), bucket-partitioned key pools (each hash chain belongs to
    exactly one stream, so chain order — hence walk line counts — is
    interleaving-invariant), and barriered write/read phases (catch-up
    work is fixed by the preceding write phases).  {!outcome_to_json}
    deliberately omits the domain count and is byte-identical for any
    [domains]. *)

type config = {
  node_counts : int list;
  modes : Replicated.mode list;
  orgs : Pt_service.Service.org list;
  locking : Pt_service.Service.locking;
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

val default_config : config
(** nodes [2; 4], all three modes, both organizations, seqlock
    locking, 1 domain, seed 42, local/remote line costs 1/4, no
    faults. *)

val quick_config : config
(** CI-sized: fewer streams, rounds, ops and spaces. *)

type row = {
  r_nodes : int;
  r_mode : Replicated.mode;
  r_org : Pt_service.Service.org;
  r_locking : Pt_service.Service.locking;
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
  r_stale_pairs : int;  (** staleness probe summed over rounds *)
  r_sync_replayed : int;  (** pending ops drained at quiesce *)
  r_injected : int;  (** replica-write faults injected *)
  r_population : int;
  r_fsck_clean : bool;
}

val lines_per_miss : int -> int -> float
(** [lines lookups]: every lookup models one TLB-miss walk. *)

val write_amplification : row -> float
(** [replica_writes / logical_writes]. *)

type policy_row = {
  p_org : Pt_service.Service.org;
  p_nodes : int;
  p_spaces : int;
  p_replicated : int;
  p_homed : int;
  p_baseline_remote_lines : int;  (** all spaces homed on node 0 *)
  p_policy_remote_lines : int;
  p_baseline_replica_writes : int;
  p_policy_replica_writes : int;
}

val remote_reduction_pct : policy_row -> float

type outcome = { rows : row list; policy : policy_row list }

val run_one :
  config ->
  org:Pt_service.Service.org ->
  mode:Replicated.mode ->
  nodes:int ->
  row

val run_policy : config -> org:Pt_service.Service.org -> nodes:int -> policy_row

val run : config -> outcome
(** The full matrix: [node_counts x orgs x modes] throughput rows,
    then one policy row per [node_counts x orgs].  Raises
    [Invalid_argument] if [domains], [streams_per_node] or [rounds] is
    below 1, or [node_counts] is empty. *)

val outcome_to_json : config -> outcome -> Jsonx.t
(** Deterministic; omits the domain count (CI diffs runs across
    [--domains]). *)

val pp_outcome : Format.formatter -> outcome -> unit

val all_clean : outcome -> bool
(** Every row's replicas passed {!Replicated.fsck}. *)
