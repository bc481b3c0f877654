(** A clustered software TLB (TSB).

    Section 7: "constructing hashed or clustered page tables as a
    software TLB can reduce the number of cache lines accessed", and
    [Tall95] describes applying the clustering techniques to software
    TLBs.  This is that structure: a direct-mapped, memory-resident
    array of *clustered* entries — one VPBN tag plus a full block of
    mapping words per slot, no next pointers — indexed by low VPBN
    bits.  A hit costs exactly one slot read and covers a whole page
    block, so the TSB reach is [slots * factor] pages with one tag
    per block (a conventional TSB of equal byte size reaches about a
    third as far).  Conflicts evict to a backing clustered page table,
    probed on a TSB miss.

    Also Section 7's point that a software TLB in front of the page
    table "allows the choice of a larger subblock factor ... than the
    cache line size dictates": the slot is read as a unit regardless.

    Implements {!Pt_common.Intf.PAGE_TABLE}. *)

type t

val name : string

val create :
  ?arena:Mem.Sim_memory.t ->
  ?slots:int ->
  ?subblock_factor:int ->
  ?backing_buckets:int ->
  unit ->
  t
(** Defaults: 512 slots, factor 16 (reach: 8192 pages = 32 MB),
    4096 backing buckets. *)

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Charges the slot read; a miss also charges the backing table's
    block walk and refills the slot from it. *)

val lookup_block :
  t ->
  Mem.Walk_acc.t ->
  vpn:int64 ->
  subblock_factor:int ->
  (int * Pt_common.Types.translation) list

val insert_base : t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit

val insert_superpage :
  t -> vpn:int64 -> size:Addr.Page_size.t -> ppn:int64 -> attr:Pte.Attr.t -> unit

val insert_psb :
  t -> vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit

val remove : t -> vpn:int64 -> unit

val set_attr_range :
  t -> Addr.Region.t -> f:(Pte.Attr.t -> Pte.Attr.t) -> int

val size_bytes : t -> int
(** TSB array plus backing-table nodes. *)

val population : t -> int

val clear : t -> unit

val tsb_hits : t -> int

val tsb_misses : t -> int

val reach_pages : t -> int
(** Pages mapped when every slot is full: slots x factor. *)
