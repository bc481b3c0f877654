(** Clustered page table with varying subblock factors.

    Section 3: "to support address spaces with varying degree of
    sparseness, clustered page tables generalize to include PTEs with
    varying subblock factors with only a small increase in page table
    access time (a few extra instructions in the TLB miss handler) but
    with better memory utilization [Tall95]".

    This table hashes on the full page block (factor 16) exactly like
    {!Table}, but a block's mappings may live in *quarter nodes*: four
    mapping words covering an aligned quarter of the block (48 bytes
    instead of 144).  A sparse block with one mapped page costs 48
    bytes; when every quarter of a block fills up, the quarters merge
    into one full node, recovering the dense-case economy.  The miss
    handler's extra work is one comparison against the node's
    quarter offset after the tag match.

    Partial-subblock and superpage PTEs are stored exactly as in
    {!Table} (24-byte single nodes).  Implements
    {!Pt_common.Intf.PAGE_TABLE}. *)

type t

val name : string

val create : ?arena:Mem.Sim_memory.t -> ?buckets:int -> unit -> t
(** Factor is fixed at 16 (quarters of 4); default 4096 buckets. *)

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Charges each node's 16-byte tag read and probe, then the one
    mapping word read. *)

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

val quarter_nodes : t -> int
(** Live quarter (48-byte) nodes, for tests and reports. *)

val full_nodes : t -> int
