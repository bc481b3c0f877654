(** Inverted page table (paper, Section 2; IBM System/38 [IBM78], 801
    [Chan88] style).

    The authentic frame-table design: exactly one PTE per *physical*
    frame, stored at the frame's index, with a hash anchor array of
    frame pointers and chains linked through frame indices — "hash to
    an array of pointers that when dereferenced obtain the first
    element of the hash bucket".  Every lookup therefore pays the
    anchor dereference on top of the chain walk, and table size is
    fixed by physical memory (slots x 8 + frames x 16 bytes),
    independent of how many pages are mapped — the structural
    trade-off that distinguishes inverted tables from the chained
    hashed tables the paper builds on.

    A frame holds one mapping: inserting a new virtual page into an
    occupied frame replaces the frame's previous mapping (the OS freed
    or stole the frame).  Single page size only. *)

type t

val name : string

val create : ?arena:Mem.Sim_memory.t -> ?slots:int -> ?frames:int -> unit -> t
(** Default 4096 anchor slots, 65536 frames (256 MB of physical
    memory). *)

val frames : t -> int

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Charges the anchor read, then one entry read and probe per frame
    on the chain. *)

val lookup_block :
  t ->
  Mem.Walk_acc.t ->
  vpn:int64 ->
  subblock_factor:int ->
  (int * Pt_common.Types.translation) list

val insert_base : t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Raises [Invalid_argument] if [ppn >= frames]. *)

val insert_superpage :
  t -> vpn:int64 -> size:Addr.Page_size.t -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Always raises [Invalid_argument]. *)

val insert_psb :
  t -> vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Always raises [Invalid_argument]. *)

val remove : t -> vpn:int64 -> unit

val set_attr_range :
  t -> Addr.Region.t -> f:(Pte.Attr.t -> Pte.Attr.t) -> int

val size_bytes : t -> int
(** Anchor array plus the whole frame table: constant for a given
    physical memory. *)

val population : t -> int

val clear : t -> unit
