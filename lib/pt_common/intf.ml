(** The interface every page table implements.

    The five organizations (linear, forward-mapped, hashed, inverted /
    software-TLB, clustered) all satisfy [PAGE_TABLE], so experiments,
    tests and benchmarks treat them uniformly through {!instance}
    first-class modules.

    Superpage and partial-subblock insertion follow the strategy the
    paper evaluates for each organization (Section 6.1): linear and
    forward-mapped page tables replicate the PTE at every base-page
    site; hashed page tables keep two logical tables (4 KB searched
    first, then 64 KB blocks); clustered page tables store the new
    formats natively in their nodes.

    A lookup charges its walk (the memory reads the TLB miss handler
    performs and the nodes or levels it visits) to a caller-owned
    {!Mem.Walk_acc.t}, the one walk representation; the access-time
    metric reads the walk's distinct cache lines out of it with
    {!Mem.Cache_model.record_acc}. *)

module type PAGE_TABLE = sig
  type t

  val name : string
  (** Short identifier used in reports, e.g. "clustered". *)

  val lookup_into :
    t -> Mem.Walk_acc.t -> vpn:int64 -> Types.translation option
  (** TLB-miss service: translate the faulting base page.  Every memory
      read the handler performs, successful or not, and every hash node
      or tree level it visits is appended to the caller's accumulator,
      which is not reset here: a replay loop allocates one accumulator,
      resets it per miss and reads the walk's lines out of it
      ({!Mem.Cache_model.record_acc}).  A caller that only wants the
      translation passes a scratch accumulator. *)

  val lookup_block :
    t ->
    Mem.Walk_acc.t ->
    vpn:int64 ->
    subblock_factor:int ->
    (int * Types.translation) list
  (** Complete-subblock prefetch (Section 4.4): return all valid
      translations in the faulting page's block as [(block offset,
      translation)] pairs, offsets ascending, charging the full cost of
      gathering them to the accumulator — one probe per base page for
      a hashed table, adjacent reads for linear and clustered tables. *)

  val insert_base :
    t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit

  val insert_superpage :
    t ->
    vpn:int64 ->
    size:Addr.Page_size.t ->
    ppn:int64 ->
    attr:Pte.Attr.t ->
    unit
  (** [vpn] and [ppn] must be aligned to [size]. *)

  val insert_psb :
    t -> vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit
  (** Insert a partial-subblock mapping for a whole page block.  [ppn]
      is the block-aligned base frame. *)

  val remove : t -> vpn:int64 -> unit
  (** Remove the base page [vpn].  Removing a page of a partial-
      subblock mapping clears its valid bit; removing a page of a
      superpage removes the whole superpage (demotion is an OS-level
      operation, see {!Os_policy}). *)

  val set_attr_range :
    t -> Addr.Region.t -> f:(Pte.Attr.t -> Pte.Attr.t) -> int
  (** Apply [f] to the attributes of every mapping in the region;
      returns the number of *page-table searches* performed, the cost
      the paper compares in Section 3.1 (hashed: one per base page;
      clustered: one per page block).  [f] must be pure: a table may
      apply it once per distinct attribute value rather than once per
      mapping. *)

  val size_bytes : t -> int
  (** Bytes of page-table memory currently in use, by the paper's
      Section 6.1 accounting for this organization. *)

  val population : t -> int
  (** Number of base pages currently mapped (each page under a
      superpage or valid psb bit counts once). *)

  val clear : t -> unit
end

type 'violation repair_report = {
  violations : 'violation list;  (** what [check] found before repair *)
  kept : int;  (** PTE entries reinserted *)
  dropped : int;  (** corrupted or conflicting entries discarded *)
}

(** A page table that serves concurrently behind per-bucket locks.

    The hashed and clustered tables share one bucket/chain protocol
    (the clustered table is a hashed table with subblocking, Sections
    3–3.1): every entry point that touches [vpn] touches only the chain
    of [bucket_of vpn], so holding a lock on that bucket makes the
    operation atomic.  This is everything the shared service, the
    integrity checker (fsck) and the structural probe need of a table;
    a backend that satisfies it serves through the whole stack. *)
module type CONCURRENT_TABLE = sig
  include PAGE_TABLE

  val buckets : t -> int

  val bucket_of : t -> vpn:int64 -> int
  (** The bucket whose chain holds (or would hold) [vpn] — the stripe
      an external per-bucket lock table keys by. *)

  val pages_per_section : t -> int
  (** Base pages whose operations share one bucket, hence one lock
      section: the subblock factor for a clustered table, 1 for a
      hashed one. *)

  val node_count : t -> int
  (** Live chain nodes. *)

  (** {2 Runs}

      A run is a span of base pages [\[vpn, vpn + pages)] inside one
      lock section: the pages a batched range op hands the table under
      one write lock.  Runs begin and end on any page, but never cross
      a multiple of {!pages_per_section}. *)

  val map_run :
    t ->
    vpn:int64 ->
    pages:int ->
    ppn_of:(int64 -> int64) ->
    attr:Pte.Attr.t ->
    unit
  (** [insert_base] of every page of the run, in ascending order, with
      PPN [ppn_of page]; same result.  The clustered table searches the
      chain once for the block node, then stores one word per page; a
      hashed table inserts page by page (its sections are one page).
      A run that crosses a section is a caller error: the clustered
      table raises [Invalid_argument]. *)

  val unmap_run : t -> vpn:int64 -> pages:int -> unit
  (** [remove] of every page of the run, in ascending order; same
      result.  The clustered table does it in one chain walk, matching
      every node of the block's tag in chain order and unlinking an
      emptied node by relinking its predecessor alone; [remove] is its
      one-page case.  A hashed table removes page by page.  Crossing a
      section is the same caller error as for {!map_run}. *)

  (** {2 Bucket images (undo journal and checkpoints)} *)

  type bucket_image = (int * int64 array) list
  (** One bucket's chain, head first: each node's tag and stored words
      ({!Chain.payload}).  A hashed node is a one-word node; a
      clustered node has one word (a partial-subblock or block-sized
      superpage node) or {!pages_per_section} words (a block node).  On
      a 4 KB base table (every table the service builds) a node's tag
      is the section it serves, so [bucket_of ~vpn:(tag *
      pages_per_section)] is its bucket.  One shape, one chain engine,
      one checkpoint codec for both. *)

  val snapshot_bucket : t -> bucket:int -> bucket_image
  (** Copy [bucket]'s chain.  Take it under the bucket's write lock,
      before mutating. *)

  val restore_bucket : t -> bucket:int -> bucket_image -> unit
  (** Put [bucket]'s chain back exactly as snapshotted (same node
      order, tags and words).  The table owns the image's word arrays
      from then on (a clustered node keeps its array and writes it in
      place), so the caller must not touch or restore the image again:
      {!snapshot_bucket} hands out copies, and the undo journal and a
      checkpoint decode each use an image once. *)

  val iter_images : t -> (int -> int -> int64 array -> unit) -> unit
  (** [f bucket tag words] for every chain node, buckets ascending,
      each chain head first: every image, read in place.  A clustered
      node passes its own word array, which [f] must neither keep nor
      mutate.  Run at quiescence. *)

  (** {2 Deferred reclamation (lock-free readers)}

      With a reclaim hook installed, an unlinked node is retired to a
      limbo stamped by the hook (an epoch clock) instead of being
      recycled: it keeps its [next] pointer and words, so an optimistic
      reader already past the unlink can finish its walk.  Both tables
      unlink and retire through one {!Chain} engine, each chain set
      into its own [Mem.Limbo]. *)

  val set_reclaim_hook : t -> (unit -> int) option -> unit
  (** Install or remove the hook.  Flip only at quiescence. *)

  val reclaim : t -> upto:int -> unit
  (** Recycle every limbo node stamped strictly below [upto]. *)

  val limbo_nodes : t -> int
  (** Nodes currently in limbo: unlinked, not yet recyclable. *)

  (** {2 Integrity (fsck)}

      Run at quiescence: no concurrent mutators. *)

  type violation

  val violation_code : violation -> string
  (** Stable machine-readable code, shared across organizations
      (["chain_cycle"], ["bad_word"], ...). *)

  val pp_violation : Format.formatter -> violation -> unit

  val check : t -> violation list
  (** All violations in deterministic order; [[]] on a healthy table. *)

  val repair : t -> violation repair_report
  (** Rebuild in place from the surviving mappings; afterwards {!check}
      returns [[]]. *)

  val corruption_kinds : string list
  (** The corruption classes {!corrupt} can inject.  Each must make
      {!check} report at least one violation. *)

  val corrupt : t -> string -> bool
  (** Inject one corruption by class name.  False when the name is
      unknown or the table has no applicable site. *)

  val tear : t -> vpn:int64 -> bool
  (** Plant in [vpn]'s bucket the illegal word a torn multi-word PTE
      store leaves behind (the ["torn"] class, at a chosen page). *)

  (** {2 Enumeration and shape} *)

  val iter_mappings : t -> (int64 -> Types.translation -> unit) -> unit
  (** Every live base-page mapping as [f vpn translation], in chain
      order, each page once, resolved through the table's own lookup
      path.  Run at quiescence. *)

  val chain_length : t -> bucket:int -> int
  (** Nodes on [bucket]'s chain. *)

  val iter_node_util : t -> bucket:int -> (int -> unit) -> unit
  (** Valid base pages mapped by each node on [bucket]'s chain (for a
      clustered table, by each distinct page block). *)
end

type concurrent =
  | Concurrent :
      (module CONCURRENT_TABLE with type t = 't) * 't
      -> concurrent

type instance =
  | Instance : (module PAGE_TABLE with type t = 't) * 't -> instance

let instance_name (Instance ((module P), _)) = P.name

let lookup_into (Instance ((module P), t)) acc ~vpn = P.lookup_into t acc ~vpn

let lookup_block (Instance ((module P), t)) acc ~vpn ~subblock_factor =
  P.lookup_block t acc ~vpn ~subblock_factor

let insert_base (Instance ((module P), t)) ~vpn ~ppn ~attr =
  P.insert_base t ~vpn ~ppn ~attr

let insert_superpage (Instance ((module P), t)) ~vpn ~size ~ppn ~attr =
  P.insert_superpage t ~vpn ~size ~ppn ~attr

let insert_psb (Instance ((module P), t)) ~vpbn ~vmask ~ppn ~attr =
  P.insert_psb t ~vpbn ~vmask ~ppn ~attr

let remove (Instance ((module P), t)) ~vpn = P.remove t ~vpn

let set_attr_range (Instance ((module P), t)) region ~f =
  P.set_attr_range t region ~f

let size_bytes (Instance ((module P), t)) = P.size_bytes t

let population (Instance ((module P), t)) = P.population t

let clear (Instance ((module P), t)) = P.clear t
