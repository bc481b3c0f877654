(** The churn interpreter: resumable, over abstract backend callbacks.

    Interprets a {!Churn}-style lifecycle trace against an abstract
    {!ops} record of callbacks, so a backend — a fleet tenant's
    sharded service with ASID-tagged TLBs and eviction, one shared
    service, a NUMA-replicated table set — plugs in without this
    library depending on it.  Region events ([Mmap]/[Munmap]/[Protect])
    become one callback per region — the batched range-op submission
    shape — and [Fork]/[Exit] coalesce the pid's live pages into
    maximal runs submitted the same way.  [Touch] probes [ops.touch]
    and demand-faults the page back on a miss, so an evicted tenant
    transparently repopulates.

    Pids fold into bits 32..43 of the tenant-local key; the fleet owns
    the bits above. *)

type ops = {
  map : Addr.Region.t -> int;
      (** map every page of the region; returns lock sections taken *)
  unmap : Addr.Region.t -> int;
  protect : Addr.Region.t -> writable:bool -> int;
  touch : int64 -> bool;
      (** one store to a tenant-local key; [false] = not currently
          mapped (the interpreter then demand-faults it in) *)
}

type tally = {
  mutable events : int;  (** events consumed, ignored ones included *)
  mutable mmaps : int;
  mutable munmaps : int;
  mutable protects : int;
  mutable touches : int;
  mutable touch_hits : int;
  mutable touch_faults : int;  (** touches that demand-faulted a page *)
  mutable forks : int;
  mutable exits : int;
  mutable pages_mapped : int;
      (** pages submitted to [ops.map]: [Mmap] regions, [Fork] copies
          and demand faults *)
  mutable pages_unmapped : int;
      (** pages submitted to [ops.unmap]: [Munmap] regions and [Exit]
          teardown, whether or not the backend still held them *)
  mutable range_pages : int;  (** pages covered by range submissions *)
  mutable range_sections : int;
      (** lock sections those submissions took — [range_sections /
          range_pages] is the amortisation the batched path buys *)
}

type t
(** A cursor over one trace: interpretation state (per-pid live sets)
    plus a running {!tally}.  Step it from exactly one domain at a
    time. *)

val create : ops -> Workload.Trace.t -> t

val step : t -> max_events:int -> int
(** Interpret up to [max_events] further events; returns the number
    actually consumed (0 iff {!finished}). *)

val finished : t -> bool

val consumed : t -> int
(** Events interpreted so far. *)

val length : t -> int
(** Total events in the trace. *)

val tally : t -> tally

val interleave :
  t array ->
  tenants:int list ->
  round:int ->
  rounds:int ->
  switch_every:int ->
  switch:(int -> unit) ->
  event:(int -> t -> unit) ->
  unit
(** One stream's share of round [round] (of [rounds]): tenant [t] of
    [tenants] advances its cursor [cursors.(t)] to
    [length * (round + 1) / rounds] events, a fixed slice, so a round
    barrier cuts every trace identically for any interleaving.  The
    tenants take round-robin turns of at most [switch_every] events
    until every slice is done.  [switch t] runs at the start of each
    turn (a context switch); [event t cursor] runs once per event and
    must interpret exactly one event, i.e. call
    [step cursor ~max_events:1] bracketed by whatever per-event work
    the driver needs.  Raises [Invalid_argument] if
    [switch_every < 1]. *)

val tally_sum : t array -> tally
(** The field-by-field sum of the cursors' tallies. *)

val local_key : pid:int -> vpn:int64 -> int64
(** The tenant-local key: [vpn] with [pid] folded into bits 32..43. *)

val coalesce : int64 list -> (int64 * int) list
(** Maximal runs of consecutive keys, as [(first, pages)] in ascending
    order, whatever the order (and duplicates) of the input.  [Fork]
    and [Exit] submit a pid's live pages this way, and so does fleet
    eviction. *)

val families : Workload.Trace.t -> Workload.Trace.t array
(** Partition a trace into process families: pids connected by
    [Fork] events (union-find).  Families come in the order their
    first event appears, each holding its events in trace order.
    [Access] and [Switch] events belong to no family: the interpreter
    ignores them.  Families touch disjoint pids, hence disjoint keys. *)

val run_families :
  epochs:Exec.Epoch.t list ->
  domains:int ->
  (int -> ops) ->
  Workload.Trace.t ->
  t array
(** Interpret every family of the trace to its end: family [f] runs on
    {!Exec.Soak} stream [f] against [ops f], in one barriered round on
    a pool of [domains] workers registered with [epochs].  Returns the
    finished cursors, one per family (none, and no pool, for a trace
    without lifecycle events).  Each family's tally is a function of
    its events and ops alone, so {!tally_sum} of the result does not
    depend on [domains].  Raises [Invalid_argument] if [domains < 1]. *)
