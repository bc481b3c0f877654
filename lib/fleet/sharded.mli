(** A fleet of tenant address spaces over sharded page-table services.

    N tenants dealt over M shards (independent {!Pt_service.Service}
    instances, any org × locking mode) by ASID: shard [asid mod M]
    holds every mapping of the tenant, keyed with the ASID folded into
    vpn bits 50..62 above the tenant-local key.  Range operations run
    the service's batched path (one write section per stripe group,
    each a single undo-journal unit) or the per-page path, per
    {!range_mode}.  A frame budget forces cross-tenant eviction,
    coldest first; evicted nodes drain through the epoch limbo path of
    seqlock shards.  The shard tables are the fleet's only record of a
    tenant's pages: residency and eviction walk the tenant's shard for
    its ASID prefix.

    Concurrency contract: each tenant is driven from one domain at a
    time; {!resident}, {!evict}, {!enforce_budget}, {!fsck} and the
    fleet-wide accounting run on the coordinating domain while workers
    are parked. *)

module Service = Pt_service.Service

type range_mode =
  | Batched  (** one submission per region: amortised stripe locking *)
  | Paged  (** one lock acquisition per page: the comparison baseline *)

val range_mode_name : range_mode -> string

val asid_shift : int
(** Bit position of the ASID in shard keys (50). *)

type t

val create :
  ?buckets:int ->
  ?subblock_factor:int ->
  org:Service.org ->
  locking:Service.locking ->
  shards:int ->
  tenants:int ->
  mode:range_mode ->
  unit ->
  t
(** Tenants get ASIDs [1 .. tenants].  Raises [Invalid_argument] if
    [shards < 1] or [tenants] is outside [1, 4094]. *)

val mode : t -> range_mode

val shard_count : t -> int

val tenant_count : t -> int

val shard : t -> int -> Service.t

(** {2 Per-tenant operations}

    Regions and keys are tenant-local (see
    {!Dynamics.Fleet_replay.local_key}); the fleet tags them with the
    ASID before touching the shard.  Each mutator returns the number
    of write-lock sections it took — the quantity the batched-vs-paged
    comparison measures. *)

val map : t -> asid:int -> Addr.Region.t -> int

val unmap : t -> asid:int -> Addr.Region.t -> int

val protect : t -> asid:int -> Addr.Region.t -> writable:bool -> int

val find : t -> asid:int -> int64 -> Pt_common.Types.translation option
(** Walk the tenant's shard; the returned translation is untagged back
    to tenant-local keys, ready for a TLB fill.  [None] iff the key is
    not mapped. *)

val resident : t -> asid:int -> int
(** Pages the tenant has mapped, counted by walking its whole shard
    for the ASID prefix: run at quiescence. *)

(** {2 Memory pressure} *)

val evict : t -> asid:int -> int
(** Unmap every page of the tenant, read back from its shard and
    coalesced into maximal runs ({!Dynamics.Fleet_replay.coalesce}),
    each a batched range op regardless of {!mode}; returns pages
    freed.  The tenant demand-faults back in afterwards.  Run at
    quiescence. *)

val evictions : t -> asid:int -> int

val enforce_budget : t -> budget:int -> activity:(int -> int) -> int * int
(** Evict coldest tenants ([activity asid] ascending, ties on ASID)
    until {!population} fits [budget]; no-op when [budget <= 0].
    Returns (tenants evicted, pages freed).  Walks every shard: run at
    quiescence.  The caller owns TLB shootdown for the evicted
    entries. *)

(** {2 Fleet-wide accounting and integrity} *)

val population : t -> int
(** Live mappings summed over shards. *)

val size_bytes : t -> int
(** Table footprint summed over shards. *)

val write_locks : t -> int
(** Write-lock acquisitions summed over shards. *)

val limbo_nodes : t -> int

val reader_epochs : t -> Exec.Epoch.t list
(** Reclamation domains of seqlock shards — pass to the worker pool. *)

val quiesce : t -> unit

type fsck_result = {
  shard_reports : Fsck.report list;
  placement : Fsck.report;
      (** cross-shard ASID disjointness + placement
          ({!Fsck.check_shards}) *)
}

val fsck : t -> fsck_result

val fsck_clean : fsck_result -> bool
