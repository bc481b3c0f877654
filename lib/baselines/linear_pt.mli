(** Multi-level linear page table (paper, Section 2, Figure 2).

    Conceptually a single virtual array of PTEs indexed by VPN,
    physically materialized one 4 KB page (512 PTEs) at a time.  A tree
    of upper-level linear tables maps the page-table pages themselves:
    six levels cover a 64-bit address space, three cover 32 bits.

    A TLB miss reads exactly one leaf PTE; reaching the leaf page
    relies on the page table's own mappings being TLB-resident (the
    paper reserves eight of 64 TLB entries for them — that opportunity
    cost is modeled by the access-time experiment, not here, which is
    why [lookup] walks report a single read).

    Size accounting variants per the paper's Figure 9 / Table 2:
    - [`Six_level]: every allocated page at every level counts.
    - [`One_level]: only leaf pages count ("intermediate nodes are
      stored in a data structure that takes zero space").
    - [`Leaf_plus_hash]: leaf pages plus a 24-byte hashed PTE per leaf
      page for the mappings to the page table itself ("Linear with
      Hashed" in Table 2).

    Superpage and partial-subblock PTEs are stored by replication at
    every (valid) base-page site (Section 4.2), so they cannot shrink a
    linear page table. *)

type size_variant = [ `Six_level | `One_level | `Leaf_plus_hash ]

type t

val name : string

val create :
  ?arena:Mem.Sim_memory.t ->
  ?levels:int ->
  ?bits_per_level:int ->
  ?size_variant:size_variant ->
  unit ->
  t
(** Defaults: 6 levels, 9 bits (512 entries per page), [`Six_level]. *)

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Charges one probe and the leaf PTE's read; the table's own
    mappings are taken as TLB-resident. *)

val lookup_block :
  t ->
  Mem.Walk_acc.t ->
  vpn:int64 ->
  subblock_factor:int ->
  (int * Pt_common.Types.translation) list
(** Adjacent leaf PTEs: the whole block is one contiguous read. *)

val insert_base : t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit

val insert_superpage :
  t -> vpn:int64 -> size:Addr.Page_size.t -> ppn:int64 -> attr:Pte.Attr.t -> unit

val insert_psb :
  t -> vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit

val remove : t -> vpn:int64 -> unit

val set_attr_range :
  t -> Addr.Region.t -> f:(Pte.Attr.t -> Pte.Attr.t) -> int
(** Direct indexing: one "search" per leaf page touched. *)

val size_bytes : t -> int

val population : t -> int

val clear : t -> unit

val leaf_pages : t -> int
(** Allocated leaf (level-1) pages: Nactive(512). *)

val pages_at_level : t -> level:int -> int

val leaf_page_vpn : t -> vpn:int64 -> int64
(** Virtual page (in the page table's own address space) holding the
    PTE for [vpn]; the access-time experiment uses this to model the
    reserved TLB entries for page-table mappings. *)
