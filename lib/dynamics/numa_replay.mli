(** Churn replay across a NUMA-replicated service.

    Where {!Service_replay} drives a lifecycle trace at one shared
    {!Pt_service.Service.t}, this replay drives the same trace at a
    {!Numa.Replicated} table set through {!Fleet_replay.run_families}:
    process family [f] (pids connected by [Fork], in first-appearance
    order) is pinned to NUMA node [f mod nodes] — its mmap/touch/exit
    traffic originates on that node — and replayed on soak stream [f].
    The family-to-node binding depends only on the trace, never on the
    domain count.

    Families touch disjoint keys, so the tallies and final mapping set
    are interleaving-invariant; replica-write totals are read after
    quiesce, where every journaled op has applied to every replica
    exactly once ([replica_writes = logical_writes x replicas] in
    every mode).  The result is therefore bit-identical for any
    [domains], even under lazy replication whose mid-run catch-up
    schedule is scheduling-dependent — which is why catch-up episode
    counts and walk-line totals are deliberately absent here (families
    share hash chains; the bucket-partitioned {!Numa.Numa_sim} driver
    owns those figures). *)

type result = {
  events : int;  (** trace length, including ignored access events *)
  families : int;  (** process families replayed *)
  nodes : int;
  mode : Numa.Replicated.mode;
  inserts : int;
      (** pages mapped: [Mmap] regions, [Fork] copies and demand
          faults ([pages_mapped] of {!Fleet_replay.tally}) *)
  removes : int;
      (** pages unmapped: [Munmap] regions and [Exit] teardown
          ([pages_unmapped] of {!Fleet_replay.tally}) *)
  protects : int;  (** [Protect] range operations *)
  touch_hits : int;  (** [Touch] lookups that hit the local replica *)
  touch_faults : int;  (** [Touch] lookups that demand-faulted a page *)
  forks : int;
  exits : int;
  logical_writes : int;  (** service-level mutations requested *)
  replica_writes : int;  (** after quiesce: [logical x replicas] *)
  population : int;  (** mapped pages left in the primary replica *)
  fsck_clean : bool;  (** per-replica and cross-replica checks *)
}

val run :
  ?domains:int ->
  machine:Numa.Machine.t ->
  org:Pt_service.Service.org ->
  locking:Pt_service.Service.locking ->
  mode:Numa.Replicated.mode ->
  Workload.Trace.t ->
  result
(** Replay a {!Churn}-generated trace (default [domains:1]).  [Access]
    and [Switch] events are ignored, as in {!Engine}.  Raises
    [Invalid_argument] if [domains < 1]. *)
