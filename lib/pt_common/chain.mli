(** The bucket chains both hashed page tables are built on.

    The clustered table is a hashed table whose node holds a page block
    (Section 3); with subblock factor 1 it is the hashed table.  So the
    two share one chain engine, parameterised by the node payload: one
    PTE word ([int64]) for a hashed node, a word array for a clustered
    one.  The engine owns what does not depend on what the words mean:
    the bucket heads and their flattened tag mirror, the live node and
    byte counts, the seqlock-safe unlink and the epoch limbo, bucket
    images, the cycle-safe fsck walks, repair's claims and reinsert,
    and the chain-shape corruption injectors.  Each table keeps its
    insert and lookup walks, its word rules and its allocation policy,
    which it hands over as [alloc] and [release]. *)

type 'w node = {
  mutable tag : int;
      (** a VPN, VPBN or block base; {!retired} once unlinked *)
  mutable w : 'w;  (** the payload: the node's mapping word(s) *)
  addr : int;  (** simulated address, unique per allocation *)
  mutable next : 'w node;  (** the chain's [nil] ends it *)
}

val retired : int
(** [min_int].  Every live tag is non-negative, so a reader holding an
    unlinked node never matches it and follows its intact [next]. *)

val sentinel : 'w -> 'w node
(** A fresh end-of-chain node; walks never read its payload. *)

(** What a node holds, seen as the words a bucket image stores. *)
type 'w payload =
  | Word : int -> int64 payload
      (** a hashed node's one PTE word, held inline; the int is the
          node's bytes (24, or 16 packed) *)
  | Words : int64 array payload
      (** a clustered node's word array: a 16-byte header and 8 bytes
          a word *)

val payload_bytes : 'w payload -> 'w -> int
(** Simulated bytes of a node holding the payload. *)

type 'w t = private {
  nil : 'w node;
  heads : 'w node array;  (** [nil] = empty bucket *)
  head_tags : int array;
      (** the head's tag ({!retired} when empty): a probe decides
          "empty / walk" without dereferencing a node *)
  payload : 'w payload;
  alloc : tag:int -> 'w -> 'w node;  (** a node, not yet linked *)
  release : 'w node -> unit;  (** where an unlinked node goes *)
  nodes : int Atomic.t;  (** live (linked) nodes *)
  bytes : int Atomic.t;  (** their bytes *)
  limbo : 'w node Mem.Limbo.t;
}

val create :
  nil:'w node ->
  buckets:int ->
  payload:'w payload ->
  alloc:(tag:int -> 'w -> 'w node) ->
  release:('w node -> unit) ->
  'w t

val buckets : 'w t -> int
val node_count : 'w t -> int
val bytes : 'w t -> int
val length : 'w t -> bucket:int -> int
val first_nonempty : 'w t -> int option

val set_head : 'w t -> int -> 'w node -> unit
(** Store a head and its tag mirror; counts nothing. *)

val link : 'w t -> int -> 'w node -> unit
(** Prepend a node to a bucket: it joins the live set. *)

val unlink : 'w t -> bucket:int -> 'w node -> 'w node -> unit
(** [unlink c ~bucket prev n] drops [n] ([prev] is [nil] at the head)
    by one store into [prev] or the head, so an optimistic reader sees
    the chain with [n] or without it.  [n] leaves the live set wearing
    {!retired}, into the limbo under a reclaim hook, else to
    [release]. *)

val unlink_first :
  'w t -> bucket:int -> ('w node -> [ `Unlink | `Updated | `Skip ]) -> bool
(** Walk to the first node the selector does not skip, {!unlink} it if
    asked; false if it skipped them all. *)

val iter_bucket : 'w t -> bucket:int -> ('w node -> unit) -> unit

val iter : 'w t -> ('w node -> unit) -> unit
(** Every live node, buckets ascending, each chain head first. *)

val clear : 'w t -> free:('w node -> unit) -> unit
(** Hand every live node to [free], last first, and empty the buckets
    and counts; the limbo is left alone. *)

val abandon : 'w t -> unit
(** Empty buckets, counts and limbo, handing nothing over: a corrupt
    chain is unsafe to walk for freeing. *)

(** {2 Deferred reclamation} *)

val set_reclaim_hook : 'w t -> (unit -> int) option -> unit
val limbo_nodes : 'w t -> int
val drain_limbo : 'w t -> ('w node -> unit) -> unit

val reclaim : 'w t -> upto:int -> unit
(** [release] every limbo node stamped strictly below [upto]. *)

(** {2 Bucket images} *)

val snapshot_bucket : 'w t -> bucket:int -> (int * int64 array) list

val iter_images : 'w t -> (int -> int -> int64 array -> unit) -> unit
(** [f bucket tag words] in {!iter} order; a clustered node passes its
    own array. *)

val restore_bucket : 'w t -> bucket:int -> (int * int64 array) list -> unit
(** Unlink the bucket's nodes as {!unlink} does, then [alloc] and link
    the image's in its order. *)

(** {2 Integrity (fsck)}

    Every walk is bounded by a visited set on node identity, so a
    corrupted chain cannot trap it. *)

type finding =
  | Cycle of { bucket : int }
  | Cross_link of { bucket : int; first_bucket : int }
  | Wrong_bucket of { bucket : int; tag : int }
  | Node_count of { counted : int; recorded : int }
  | Limbo_live_tag
  | Limbo_live_overlap of { bucket : int }

type audit = {
  seen : (int, int) Hashtbl.t;  (** node address -> first bucket *)
  mutable counted : int;
  mutable counted_bytes : int;
}

val audit : unit -> audit
val check_count : 'w t -> audit -> report:(finding -> unit) -> unit

val check_bucket :
  'w t -> audit -> home:(int -> int) -> report:(finding -> unit) -> int ->
  ('w node -> unit) -> unit
(** Walk one bucket.  A node met twice is a [Cycle], one reached from
    an earlier bucket a [Cross_link]; either ends the walk.  Any other
    node is counted, must sit in bucket [home tag] unless {!retired},
    and goes to the callback for the table's word rules. *)

val check_limbo :
  'w t -> audit -> report:(finding -> unit) -> ('w node -> unit) -> unit
(** A limbo node must wear {!retired} and be off the audited chains;
    the callback adds the table's own rules. *)

val find : 'w t -> bucket:int -> ('w node -> bool) -> 'w node option
(** The first node of a bucket passing the test, cycle-safely. *)

val check_replicas :
  tag:int -> blocks:int -> agrees:(int -> bool) -> torn:(int -> unit) ->
  unit
(** A superpage over [blocks] page blocks has one replica per block,
    tagged by block.  The first block's replica checks each sibling's
    and the others check the first's, so a missing or diverged replica
    is reported from whichever side survives: [torn i] for each
    disagreeing sibling [i] from the first, [torn 0] from a sibling. *)

(** {3 Repair} *)

(** A mapping that survived, to reinsert. *)
type candidate =
  | Base of int64 * int64 * Pte.Attr.t  (** vpn, ppn *)
  | Sp of int64 * Addr.Page_size.t * int64 * Pte.Attr.t  (** vpn, size *)
  | Psb of int64 * int * int64 * Pte.Attr.t  (** vpbn, vmask *)

type harvest

val harvest : unit -> harvest
val keep : harvest -> candidate -> unit

val drop : harvest -> unit
(** Count one mapping lost to corruption. *)

val keep_replica :
  harvest -> word:int64 -> block_vpn:int64 -> Pte.Superpage_pte.t -> unit
(** The replica in the block at [block_vpn] of a multi-block superpage:
    the superpage's first replica is kept, a later equal one folded in,
    a diverged one dropped. *)

val harvest_chains : harvest -> 'w t -> ('w node -> unit) -> unit
(** Every node reachable from the buckets, each once. *)

val reinsert :
  harvest ->
  factor_bits:int ->
  base:(vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit) ->
  superpage:
    (vpn:int64 -> size:Addr.Page_size.t -> ppn:int64 -> attr:Pte.Attr.t ->
    unit) ->
  psb:(vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit) ->
  int * int
(** Insert the candidates in harvest order, each unless an earlier one
    claimed one of its pages (first wins) or it raises
    [Invalid_argument].  Returns [(kept, dropped)]. *)

(** {3 Corruption injection} *)

type 'c corruption =
  | Tie_cycle  (** tie the first chain's tail to its head *)
  | Link_across  (** link the first chain's tail into the next chain *)
  | Misplace  (** move the first head to the next bucket *)
  | Duplicate  (** clone the first head into its bucket *)
  | Drift  (** drift the node count by 1 and the byte count by 8 *)
  | Own of 'c  (** the table's own *)

val corruptions : (string * 'c corruption) list -> (string * 'c corruption) list
(** [cycle], [cross_link], [misplace] and [duplicate], then the
    table's list. *)

val corrupt :
  'w t -> (string * 'c corruption) list -> ('c -> bool) -> string -> bool
(** Inject the named class; false when unknown or without a site. *)

val torn_word : int64
(** A psb-encoded word: illegal at a block-node offset or on a hashed
    fine chain, as a torn multi-word store leaves. *)
