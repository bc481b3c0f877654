(** A crash-consistent shard: a {!Pt_service.Service} fronted by a
    write-ahead log and periodic checkpoints.

    Write path: every mutation appends one checksummed {!Wal} record
    {e before} the table mutation commits, so any crash — an armed
    [Fault.Shard_crash] site or a planned torn append — loses at most
    the in-flight op, and loses it {e atomically} (a batched range op
    is one record).  A crash marks the shard down; operations on a
    down shard raise {!Down} until {!recover} rebuilds it.

    Checkpoints write the table's image ({!encode_image}: every
    non-empty bucket's chain, node by node, checksummed) at the current
    WAL offset and compact the log below it.  Recovery = newest
    checkpoint that decodes (torn or malformed ones are discarded — the
    fallback is an older checkpoint plus a longer WAL suffix), its
    nodes relinked bucket by bucket into a {e fresh} service, + replay
    of the WAL records after it, the service swapped in only on
    completion: a crash mid-replay leaves the log untouched and
    readable, and the next {!recover} converges.

    Progress is mirrored into the ambient [wal.*] / [recovery.*]
    observability counters. *)

module Service = Pt_service.Service

type t

exception Down
(** Raised by the write path while the shard is crashed. *)

val create :
  ?buckets:int ->
  ?subblock_factor:int ->
  ?attr:Pte.Attr.t ->
  org:Service.org ->
  locking:Service.locking ->
  ppn_of:(int64 -> int64) ->
  unit ->
  t
(** [ppn_of] is the placement function replay uses to rebuild PTEs
    from logged vpns; [attr] (default [Pte.Attr.default]) the
    attribute for mapped pages.  Both must be pure: a WAL record plus
    these functions must reconstruct the exact mutation. *)

val service : t -> Service.t
(** The live service.  Replaced by {!recover}. *)

val wal : t -> Wal.t

val up : t -> bool

(** {2 The write path}

    Each mutator returns the write-lock sections the table mutation
    took (the service's batched-path accounting).  All may raise
    [Fault.Injected] with site [Shard_crash] — from the armed fault
    site ahead of the append, or from a planned torn append — after
    which the shard is down. *)

val submit : t -> Wal.op -> int
(** Log then apply one op. *)

val map : t -> asid:int -> Addr.Region.t -> int

val unmap : t -> asid:int -> Addr.Region.t -> int

val protect : t -> asid:int -> Addr.Region.t -> writable:bool -> int

(** {2 Checkpoints} *)

val checkpoint : t -> unit
(** Write the table's image at the current WAL offset, then
    compact the log below it.  With a planned checkpoint crash the
    snapshot is left torn on "disk" (its checksum cannot verify), no
    compaction happens, the shard goes down, and [Fault.Injected]
    ([Shard_crash]) is raised — recovery must fall back to the
    previous complete checkpoint and a longer WAL suffix. *)

val plan_checkpoint_crash : t -> unit
(** Tear the next {!checkpoint} halfway. *)

val encode_image : Pt_common.Intf.concurrent -> Bytes.t
(** The checkpoint blob of a table: its non-empty buckets' images in
    ascending bucket order, checksummed.  Run at quiescence. *)

val decode_image :
  Pt_common.Intf.concurrent ->
  Bytes.t ->
  (int * (int * int64 array) list) list option
(** The [(bucket, image)] pairs of a blob, checked against the given
    table's shape, which it does not touch; [None] for a blob that
    fails its checksum, names a bucket out of range or out of order,
    holds a node whose tag is not of its bucket or whose word count the
    table never builds, ends short or has trailing bytes.  Never
    raises. *)

(** {2 Recovery} *)

val recover : t -> unit
(** Rebuild from the newest verifiable checkpoint plus the WAL suffix
    after it, truncating the torn tail, onto a fresh table; swap it in
    and bring the shard back up.  Idempotent; runs with the fault
    context suspended so recovery cannot inject new faults.  With a
    planned recovery crash it raises [Fault.Injected] ([Shard_crash])
    mid-replay, leaving the shard down, the WAL readable and the old
    table untouched — a second {!recover} converges. *)

val plan_recovery_crash : t -> after_records:int -> unit
(** Crash the next {!recover} after it has replayed that many
    records (never fires if the replay is shorter). *)

val live : t -> (int64 * int64 * Pte.Attr.t) list
(** The live mapping set [(vpn, ppn, attr)], sorted by vpn — the
    oracle-comparison view.  Run at quiescence. *)

(** {2 Accounting (monotonic since [create])} *)

val checkpoints : t -> int
(** Complete checkpoints taken. *)

val torn_checkpoints : t -> int

val recovery_attempts : t -> int

val recoveries : t -> int
(** Recoveries that completed. *)

val recovery_crashes : t -> int

val replayed_records : t -> int

val restored_mappings : t -> int
(** Pages restored from checkpoints across recoveries: the sum of the
    restored tables' populations, before WAL replay. *)

val checkpoints_discarded : t -> int
(** Torn checkpoints skipped by recoveries. *)
