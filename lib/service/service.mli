(** A concurrent shared-memory page-table service (paper,
    Section 3.1).

    One page table — {!Hashed} or {!Clustered} — shared by N OCaml 5
    domains.  Locking follows the paper's protocol for multi-threaded
    operating systems: a readers-writer lock per hash bucket
    ({!Striped}, stripes keyed by the table's own buckets), a coarse
    single-mutex baseline ({!Global}), or a lock-free read path
    ({!Seqlock}): lookups walk optimistically under a per-bucket
    sequence counter with {e zero} lock acquisitions, validated by
    re-checking the counter, with epoch-based reclamation
    ([Exec.Epoch] stamping the tables' limbo lists) keeping removed
    nodes walkable until no reader can hold a pointer into them.
    Writers still serialize on the stripe, so the mutation path — and
    the linearizability argument for it — is unchanged from
    {!Striped}.

    Lock-acquisition accounting is part of the service so tests can
    verify the paper's granularity claim: a range {!protect} on a
    clustered table takes one write lock per page {e block} where a
    hashed table takes one per base {e page}.

    The hashed backend runs in [No_superpages] mode (single bucket per
    operation — the precondition for striping). *)

type org = Hashed | Clustered

val org_name : org -> string

type locking = Global | Striped | Seqlock

val locking_name : locking -> string

val lock_code : locking -> int
(** The {!Obs.Recorder} lock code of a mode, for flight-recorder
    events. *)

type t

val create :
  ?buckets:int -> ?subblock_factor:int -> org:org -> locking:locking -> unit -> t
(** Defaults: 4096 buckets, factor 16 (the paper's defaults). *)

val org : t -> org

val locking : t -> locking

val subblock_factor : t -> int

val bucket_of : t -> vpn:int64 -> int
(** The stripe serving [vpn] (the backing table's hash bucket). *)

val lookup : t -> vpn:int64 -> bool
(** Under a read lock on [vpn]'s stripe — except {!Seqlock}, where
    the walk is optimistic and lock-free: snapshot the bucket's
    sequence counter, walk, re-check; on writer interference retry up
    to {!seqlock_attempts} times, then fall back to the striped read
    lock.  Retries and fallbacks surface via {!seqlock_retries} /
    {!seqlock_fallbacks}, the [service.seqlock_*] ambient counters and
    [seqlock_retry] / [seqlock_fallback] trace events. *)

val lookup_into : t -> Mem.Walk_acc.t -> vpn:int64 -> bool
(** Allocation-free {!lookup} for benchmark hot loops: walk reads and
    probes append to the caller's accumulator.  The accumulator must
    be private to the calling domain. *)

val insert : t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Insert a base-page mapping under a write lock on [vpn]'s stripe. *)

val remove : t -> vpn:int64 -> unit

val find : t -> vpn:int64 -> Pt_common.Types.translation option
(** {!lookup}, but returning the translation — what a TLB refill
    needs.  Same locking as {!lookup}. *)

val range_lock_sections : t -> Addr.Region.t -> int
(** Number of write-lock acquisitions a batched range op over this
    region takes.  The region is cut into runs at multiples of the
    table's [pages_per_section] (a page block on a clustered table, one
    page on a hashed one), and runs whose buckets coincide share a
    section: one section per distinct stripe under striped/seqlock
    locking (the block count on a clustered table unless two blocks'
    buckets collide; on a hashed table pages share a section only on
    collisions), 1 under the global lock, 0 for an empty region. *)

val map_range : t -> Addr.Region.t -> ppn_of:(int64 -> int64) -> attr:Pte.Attr.t -> int
(** Batched mmap: insert a base mapping for every page of the region
    in {!range_lock_sections} write sections, sections in the order
    their stripes first appear, each applying its runs in region order
    (one table call per run, amortising lock traffic and chain searches
    versus per-page {!insert}).  Each section is a single undo-journal
    unit under fault injection: an injected failure rolls the whole
    section back and the heal path retries it.  Returns the number of
    write sections taken.  Plans its sections in per-domain scratch,
    allocating nothing per page. *)

val unmap_range : t -> Addr.Region.t -> int
(** Batched munmap, same sectioning and journalling as {!map_range}:
    one chain walk per run on a clustered table.  Unmapped pages of the
    region are skipped silently.  Returns the number of write sections
    taken. *)

val protect_range : t -> Addr.Region.t -> writable:bool -> int
(** Batched mprotect: same sectioning, journalling and return value as
    {!map_range} (sections taken, not hash searches), with one
    [set_attr_range] call per run. *)

val protect : t -> Addr.Region.t -> writable:bool -> int
(** Set the [writable] attribute across a region; returns the number
    of hash searches performed.  Striped locking acquires one write
    lock per run — page block (clustered) or base page (hashed) — even
    where two runs' stripes collide, unlike {!protect_range}; the
    global lock is taken once for the whole range. *)

val population : t -> int

val size_bytes : t -> int

type lock_stats = {
  read_acquisitions : int;
  write_acquisitions : int;
  read_contention : int;
      (** blocked read-acquisition attempts (striped and seqlock
          locking; the global mutex reports 0) *)
  currently_held : int;
}

val lock_stats : t -> lock_stats
(** Totals since {!create} (or the last {!reset_lock_stats}); exact
    when no operation is in flight.  [currently_held] must be zero at
    quiescence.  Global-lock acquisitions are tallied by intent
    (lookups as reads, mutations as writes) so the strategies'
    accounting is comparable.  Under {!Seqlock},
    [read_acquisitions] counts only fallback acquisitions — the
    optimistic path takes no locks. *)

val seqlock_attempts : int
(** Optimistic walks attempted per lookup before the {!Seqlock} read
    path falls back to the striped read lock. *)

val seqlock_retries : t -> int
(** Optimistic walks invalidated by writer interference and retried
    since {!create} / {!reset_lock_stats}.  0 unless {!Seqlock}. *)

val seqlock_fallbacks : t -> int
(** Lookups that exhausted {!seqlock_attempts} and took the striped
    read lock.  0 unless {!Seqlock}. *)

val reader_epoch : t -> Exec.Epoch.t option
(** The reclamation domain of a {!Seqlock} service — pass it (via
    [Option.to_list]) as a worker pool's [?epochs] so worker domains
    register for their lifetimes.  [None] for the locked modes. *)

val limbo_nodes : t -> int
(** Nodes retired by removals but not yet proven reader-free (always
    0 for the locked modes, which recycle immediately). *)

val quiesce : t -> unit
(** Reclaim every limbo node no longer reachable by a registered
    reader.  Call at quiescence (e.g. after worker domains
    unregister, when {!limbo_nodes} must drain to 0) and before
    integrity checks.  No-op for the locked modes.

    Reads leave the calling domain's epoch pin standing (amortized
    pinning).  A standing pin blocks only retirements made since the
    domain's last read: the next read republishes the advanced epoch
    and releases them, and [Exec.Epoch.unpin] or unregistering
    releases everything.  A domain pinned explicitly via
    [Exec.Epoch.pin] holds every later retirement in limbo until it
    unpins — the property the reclamation tests exercise. *)

val reset_lock_stats : t -> unit
(** Zero the acquisition counters of either locking strategy, leaving
    the service as freshly created as far as {!lock_stats} is
    concerned ([currently_held] is live state, not a counter).  Call
    at quiescence. *)

val probe : ?into:Obs.Probe.report -> t -> Obs.Probe.report
(** Structural telemetry of the backing table (chain lengths, bucket
    occupancy, node utilization).  Takes no locks: only run it while
    no other domain is mutating the service. *)

(** {2 Self-healing and integrity}

    While a {!Fault} plan is installed, every service operation runs
    self-healed: a guarded attempt journals its bucket image under the
    write lock and rolls back on any injected failure — allocation
    failure, lock-acquire timeout, torn multi-word PTE update — so a
    failed attempt is invisible to {!fsck}.  Failed operations retry
    up to {!heal_attempts} times with a deterministic attempt-clock
    backoff, then give up (degraded mode).  Incidents are tallied in
    the {!Fault} counters, mirrored as [fault.*] counters in
    {!Obs.Ambient}, and emitted as [fault_*] trace events.  With no
    plan installed the operations are exactly the unhealed versions.

    The fsck entry points take no locks: run them at quiescence. *)

val heal_attempts : int
(** Attempt budget per operation (including the first try). *)

val fsck_table : t -> Fsck.table
(** The backing table, packed with its implementation, as an {!Fsck}
    subject: what the cross-replica agreement check
    ([Fsck.check_replicas]) consumes when the same logical table is
    replicated across NUMA nodes, what [Fsck.corrupt_by_name]
    damages, and what a durable shard's checkpoint images and
    recovery relinks. *)

val fsck : t -> Fsck.report
(** Integrity-check the backing table. *)

val repair : t -> Fsck.repair_outcome
(** Rebuild the backing table from its surviving mappings; afterwards
    {!fsck} reports clean.  Tallied as a repair. *)
