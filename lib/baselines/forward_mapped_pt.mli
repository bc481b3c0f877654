(** Forward-mapped page table (paper, Section 2, Figure 3).

    A top-down n-ary tree: fixed VPN bit fields index each level; leaf
    nodes hold PTEs, intermediate nodes hold pointers (PTPs).  Seven
    levels cover a 64-bit space, which is why every TLB miss costs
    about seven memory reads — the paper's reason to call the design
    impractical for 64 bits.

    Superpage strategies (Section 4.2):
    - [`Replicate] (the paper's evaluated choice): the superpage word
      is stored at every covered base-page site.
    - [`Intermediate]: superpages whose size matches a subtree boundary
      are stored as PTEs in intermediate nodes (SPARC Reference MMU
      style), short-circuiting the walk; other sizes fall back to
      replication. *)

type sp_strategy = [ `Replicate | `Intermediate ]

type t

val name : string

val create :
  ?arena:Mem.Sim_memory.t ->
  ?bits_per_level:int array ->
  ?sp_strategy:sp_strategy ->
  ?guarded:bool ->
  unit ->
  t
(** Default levels: [|8;8;8;8;8;6;6|] root-to-leaf, covering 52 VPN
    bits; default strategy [`Replicate].

    [guarded] models guarded page tables [Lied95] (Section 2's
    "partially effective" short-circuit): an intermediate node with a
    single occupied slot is compressed away — its parent's pointer
    carries the skipped index bits as a guard — so neither its bytes
    nor its walk read are charged.  Dense trees have few single-child
    nodes, which is exactly why the technique only partially helps. *)

val levels : t -> int

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Charges one read per level descended (a failed walk stops at the
    first missing node). *)

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

val population : t -> int

val clear : t -> unit

val node_count : t -> int
