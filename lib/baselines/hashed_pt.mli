(** Hashed (inverted-style) page table with chaining (paper,
    Section 2, Figure 4).

    Each PTE is a 24-byte node: an eight-byte VPN tag, an eight-byte
    next pointer and one eight-byte mapping word.  The [packed] option
    models the Section 7 optimization that squeezes tag and next into
    one word (16-byte PTEs, a 33% size reduction) without changing the
    access pattern.

    Superpage / partial-subblock storage follows the strategies of
    Section 4.2:

    - {!Two_tables}: a second logical table keyed by 64 KB page block
      holds superpage and partial-subblock PTEs; lookup probes the 4 KB
      table first (or the coarse table first with [coarse_first],
      the Section 6.3 suggestion for partial-subblock-heavy loads).
    - {!Superpage_index}: one table hashed on the 64 KB-block index for
      every PTE, so base and superpage PTEs share buckets at the cost
      of longer chains.
    - {!No_superpages}: a plain single-page-size table;
      [insert_superpage] and [insert_psb] raise. *)

type sp_mode =
  | No_superpages
  | Two_tables of { coarse_first : bool }
  | Superpage_index

type t

val create :
  ?arena:Mem.Sim_memory.t ->
  ?buckets:int ->
  ?subblock_factor:int ->
  ?packed:bool ->
  ?mode:sp_mode ->
  unit ->
  t
(** Defaults: 4096 buckets, factor 16, unpacked, [No_superpages]. *)

val mode : t -> sp_mode

val subblock_factor : t -> int

val load_factor : t -> float
(** Base-table nodes per bucket (the formulae's alpha). *)

(** {2 Integrity verification and repair (fsck)}

    Both tables (fine and coarse) are chain sets of
    {!Pt_common.Chain}, the engine the clustered table runs on, with
    one word per node held inline.  So fsck is the engine's
    chain-shape checks (cycles, cross-links, bucket residency for every
    tag kind of every mode, node counts, limbo disjointness) plus this
    table's word rules: word-format legality (a non-base word on a fine
    chain is the signature a torn update leaves), duplicate (tag, kind)
    nodes, coarse superpage replica consistency and representation
    exclusivity via a global page-coverage map.  [repair] is the
    engine's: harvest the mode-legal PTEs, abandon both tables, and
    reinsert first-wins. *)

type violation =
  | Chain_cycle of { coarse : bool; bucket : int }
  | Cross_link of { coarse : bool; bucket : int; first_bucket : int }
  | Wrong_bucket of { coarse : bool; bucket : int; tag : int64 }
  | Dup_node of { coarse : bool; bucket : int; tag : int64 }
  | Bad_word of { coarse : bool; bucket : int; tag : int64 }
  | Torn_replica of { bucket : int; tag : int64 }
      (** a multi-block superpage's coarse replica missing or diverged *)
  | Coverage_overlap of { vpn : int64 }
      (** base page reachable through two PTEs *)
  | Limbo_live_overlap of { bucket : int }
      (** a retired limbo node is still chained *)
  | Limbo_live_tag  (** a limbo node kept its live tag *)
  | Node_count_mismatch of { coarse : bool; counted : int; recorded : int }

include
  Pt_common.Intf.CONCURRENT_TABLE
    with type t := t
     and type violation := violation
(** The concurrent-table surface, over the fine (4 KB) table.
    [bucket_of] is the fine-table bucket serving [vpn]: sufficient for
    [No_superpages] and [Superpage_index] modes, whose entry points
    touch exactly one bucket; [Two_tables] mode also probes a coarse
    bucket and needs coarser exclusion (the service runs
    [No_superpages]).  [pages_per_section] is 1 and [set_attr_range]
    performs one hash search per base page — the Section 3.1 cost a
    clustered table amortizes to one per block.  [node_count] counts
    both tables.  The bucket images, the shape probes and
    [iter_mappings] cover the fine table.  Corruption classes:
    [cycle], [cross_link], [misplace], [duplicate], [torn] and
    [count]. *)
