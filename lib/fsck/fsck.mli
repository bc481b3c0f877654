(** Unified page-table integrity front-end (fsck) over every
    concurrent table.

    Wraps a {!Pt_common.Intf.CONCURRENT_TABLE}'s [check] behind one
    machine-readable report: each violation becomes a [finding] with a
    stable [code] shared across organizations (["chain_cycle"],
    ["bad_word"], ["coverage_overlap"], ...), so the CLI, CI gate and
    tests compare findings without caring which table produced them.
    Checks run at quiescence — no concurrent mutators. *)

type table = Pt_common.Intf.concurrent
(** A table packed with its implementation. *)

val org : table -> string
(** The table's [name], e.g. ["clustered"] or ["hashed"]. *)

type finding = { code : string; detail : string }

type report = { r_org : string; findings : finding list }

val check : table -> report
(** Findings in the underlying checker's deterministic order. *)

val clean : report -> bool

type repair_outcome = {
  pre : report;  (** what the integrity check found before repair *)
  kept : int;  (** PTE entries reinserted *)
  dropped : int;  (** corrupted or conflicting entries discarded *)
}

val repair : table -> repair_outcome
(** Rebuild in place from surviving mappings; afterwards {!check}
    reports clean. *)

val corruption_kinds : table -> string list
(** The corruption classes injectable into this organization — the
    matrix the no-false-negatives test walks.  Every name here, applied
    through {!corrupt_by_name}, must make {!check} report at least one
    finding. *)

val corrupt_by_name : table -> string -> bool
(** Inject one corruption by class name.  False when the name is
    unknown for this organization or the table has no applicable site
    (e.g. ["torn_replica"] with no multi-block superpage present). *)

(** {2 Cross-replica agreement (NUMA replication)}

    A NUMA-replicated table keeps one structurally independent replica
    of the same logical mapping set per node.  Beyond each replica's
    own structural {!check}, the replicated layer must prove the
    replicas {e agree}: same live (vpn → pte) set everywhere (the
    analogue of the clustered checker's multi-block superpage replica
    consistency, lifted from nodes within one table to whole tables),
    and — when the caller versions buckets — the same per-bucket
    generation on every replica. *)

val live_mappings : table -> (int64 * int64 * Pte.Attr.t) list
(** The live base-table mapping set [(vpn, ppn, attr)], sorted by vpn,
    enumerated through the table's own chains and lookup path.  Run at
    quiescence. *)

val check_replicas : ?generations:int array array -> table array -> report
(** Compare every replica's live mapping set against replica 0
    (finding code ["replica_divergence"]: a vpn missing, extra, or
    mapped differently) and, with [?generations], every replica's
    per-bucket generation row against row 0 (["replica_generation"]).
    Mixed organizations report ["replica_org"].  Clean when the
    replicas are exact copies.  Raises [Invalid_argument] on an empty
    array. *)

val check_shards :
  ?asid_shift:int -> ?expected_shard:(int -> int) -> table array -> report
(** Cross-shard ASID disjointness for a fleet of sharded tables: the
    ASID of every live mapping is its vpn shifted right by
    [asid_shift] (default 50, the fleet key layout), and an ASID live
    in two shards reports ["asid_overlap"].  With [?expected_shard],
    an ASID resident outside the shard the placement function assigns
    reports ["asid_misplaced"].  Clean when tenants are disjoint (and
    correctly placed).  Raises [Invalid_argument] on an empty
    array. *)

val report_to_json : report -> Jsonx.t
(** [{"org":...,"clean":...,"findings":[{"code":...,"detail":...}]}] —
    deterministic for a deterministic table state. *)

val pp_report : Format.formatter -> report -> unit
