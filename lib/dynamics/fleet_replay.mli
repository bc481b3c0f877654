(** Resumable churn interpretation for one fleet tenant.

    Interprets a {!Churn}-style lifecycle trace against an abstract
    {!ops} record of per-tenant callbacks, so the fleet layer can plug
    in sharded services, ASID-tagged TLBs and eviction without this
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
  mutable events : int;
  mutable mmaps : int;
  mutable munmaps : int;
  mutable protects : int;
  mutable touches : int;
  mutable touch_hits : int;
  mutable touch_faults : int;
  mutable forks : int;
  mutable exits : int;
  mutable pages_mapped : int;
  mutable pages_unmapped : int;
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

val run : ops -> Workload.Trace.t -> tally
(** One-shot interpretation of the whole trace. *)

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
