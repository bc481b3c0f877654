(** Churn replay through the concurrent page-table service.

    Where {!Engine} interprets a lifecycle trace sequentially with one
    private table per process, this replay drives the same trace at a
    shared {!Pt_service.Service.t}: all processes' pages in ONE table
    (pid folded into the key, like an address-space id tag), with
    independent process families — pids connected by [Fork] —
    replayed concurrently by {!Fleet_replay.run_families}.  Region
    events and [Fork]/[Exit] runs take the service's batched range
    path.

    Families touch disjoint keys and each replays in trace order, so
    the result is deterministic: identical populations, tallies and
    lock totals for every [domains] count, while the bucket stripes
    underneath are genuinely contended. *)

type result = {
  events : int;  (** trace length, including ignored access events *)
  families : int;  (** process families replayed *)
  inserts : int;
      (** pages mapped: [Mmap] regions, [Fork] copies and demand
          faults ([pages_mapped] of {!Fleet_replay.tally}) *)
  removes : int;
      (** pages unmapped: [Munmap] regions and [Exit] teardown
          ([pages_unmapped] of {!Fleet_replay.tally}) *)
  protects : int;  (** [Protect] range operations *)
  touch_hits : int;  (** [Touch] lookups that hit *)
  touch_faults : int;  (** [Touch] lookups that demand-faulted a page *)
  forks : int;
  exits : int;
  final_population : int;  (** mapped pages left in the shared table *)
  read_locks : int;  (** total lock acquisitions over the replay *)
  write_locks : int;
}

val run :
  ?domains:int ->
  org:Pt_service.Service.org ->
  locking:Pt_service.Service.locking ->
  Workload.Trace.t ->
  result
(** Replay a {!Churn}-generated trace (default [domains:1]).  [Access]
    and [Switch] events are ignored, as in {!Engine}.  Raises
    [Invalid_argument] if [domains < 1]. *)
