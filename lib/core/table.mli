(** The clustered page table (the paper's central contribution,
    Sections 3 and 5).

    An open hash table keyed by virtual page-block number (VPBN).  Each
    node carries one eight-byte tag, one eight-byte next pointer, and
    either a full array of [subblock_factor] mapping words (a
    complete-subblock / clustered PTE) or a single word (a
    partial-subblock or superpage PTE).  Word formats self-describe
    through their S field, so the miss handler walks the chain exactly
    as a hashed page table would and only branches after a tag match —
    the property that keeps the TLB miss penalty flat (Section 5).

    A chain may carry several nodes with the same tag (e.g. one
    superpage node plus one node of base pages for the rest of the
    block); lookup continues past a tag match that yields no valid
    mapping, as Section 5 requires.

    Superpages larger than the page block are stored replicated once
    per covered block (one 24-byte node each — a factor-of-k saving
    over conventional replication).  Superpages smaller than the page
    block live inside a block node, their word replicated at each
    covered block offset.

    Tables with [page_shift] > 12 cluster superpages instead of base
    pages (the second table of the two-table scheme of Section 7, see
    {!Multi_size}); they accept only [insert_superpage]. *)

type t

val create : ?arena:Mem.Sim_memory.t -> Config.t -> t

val config : t -> Config.t

(** {2 Integrity verification and repair (fsck)}

    The chains, their limbo, images, fsck walks and repair live in
    {!Pt_common.Chain}, shared with the hashed table; a node's payload
    is its word array.  On top of the engine's chain-shape checks
    (cycles, cross-links, bucket residency, node count, limbo
    disjointness) the checker verifies the head-tag mirror, tag
    liveness, node shape and word formats (a psb word can only head a
    single node — the signature a torn multi-word update leaves),
    superpage replica consistency within and across buckets,
    representation exclusivity, the free lists (acyclic, retired,
    disjoint from chains and limbo, counted) and the byte count.

    [repair] harvests every decodable PTE cycle-safely, resets the
    chains and free lists, abandoning the old nodes' arena bytes, and
    reinserts the survivors first-wins, with injection sites
    suspended. *)

type violation =
  | Chain_cycle of { bucket : int }
  | Cross_link of { bucket : int; first_bucket : int }
      (** a node reached earlier from [first_bucket] is also linked
          from [bucket] *)
  | Wrong_bucket of { bucket : int; tag : int64 }
  | Stale_tag of { bucket : int }  (** reclaimed node on a live chain *)
  | Head_tag_mismatch of { bucket : int }
  | Dup_node of { bucket : int; tag : int64 }
      (** two nodes of the same class for one tag *)
  | Bad_word of { bucket : int; tag : int64; boff : int }
      (** malformed word or node shape; [boff] = -1 for a bad shape *)
  | Torn_replica of { bucket : int; tag : int64; boff : int }
      (** superpage replica run inconsistent (within a block node) or a
          cross-bucket sibling of a multi-block superpage missing or
          diverged *)
  | Coverage_overlap of { bucket : int; tag : int64; boff : int }
      (** a base page reachable through two representations *)
  | Free_list_cycle of { single : bool }
  | Free_list_live_tag of { single : bool }
  | Free_live_overlap of { bucket : int }
      (** a free-listed node is still chained (double free) *)
  | Free_count_mismatch of { single : bool; counted : int; recorded : int }
  | Limbo_live_overlap of { bucket : int }
      (** a retired limbo node is still chained *)
  | Limbo_free_overlap of { single : bool }
      (** a limbo node is also on a free list (double reclamation) *)
  | Limbo_live_tag  (** a limbo node kept its live tag *)
  | Node_count_mismatch of { counted : int; recorded : int }
  | Byte_count_mismatch of { counted : int; recorded : int }

include
  Pt_common.Intf.CONCURRENT_TABLE
    with type t := t
     and type violation := violation
(** The concurrent-table surface.  [bucket_of] names the chain of
    [vpn]'s page block, so [pages_per_section] is the subblock factor.
    [set_attr_range] performs one search per page block.
    [node_count] counts live nodes only, not reclaimed free-list ones.
    [restore_bucket] suspends injection sites and releases the current
    nodes (to limbo when a reclaim hook is installed).  Corruption
    classes: [cycle], [cross_link], [misplace], [duplicate], [stale]
    (a live node retagged as reclaimed), [torn], [torn_replica] (one
    replica of a multi-block superpage dropped), [head_tag] (the
    flattened head tag clobbered), [count], [free_reattach] (a live
    node double-freed) and [overlap] (a valid base word shadowed by a
    psb node). *)

(** {2 Structure inspection (policies, tests, reports)} *)

type block_summary = {
  base_vmask : int;  (** block offsets holding valid base-page words *)
  psb_vmask : int;  (** offsets valid through a partial-subblock node *)
  superpage_pages : int;  (** offsets covered by superpage words *)
  promotable_ppn : int64 option;
      (** when every base page is present, properly placed and
          attribute-compatible: the block-aligned PPN a promotion to a
          superpage or full partial-subblock PTE would use *)
}

val block_summary : t -> vpn:int64 -> block_summary
(** Inspect the page block containing [vpn]; the information an OS
    promotion policy gathers "for free" from a clustered node
    (Section 5). *)

val promote_block : t -> vpn:int64 -> bool
(** Replace a fully-populated, properly-placed block of base words with
    one block-sized superpage node.  Returns false (and does nothing)
    when the block is not promotable. *)

val demote_block : t -> vpn:int64 -> bool
(** Inverse of {!promote_block}: expand a block-sized superpage or
    partial-subblock node back into base-page words.  False when the
    block holds no such node. *)

val free_nodes : t -> int
(** Nodes parked on the reclamation free lists, awaiting reuse.  Their
    bytes stay allocated in the arena but are excluded from
    {!size_bytes}: they are capacity, not page-table state. *)

val load_factor : t -> float
(** Nodes per bucket. *)
