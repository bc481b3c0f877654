(** Two-table clustered configuration for many page sizes (Section 7).

    "Two clustered page tables suffice for all page sizes between 4KB
    and 1MB: one clustered page table stores mappings for page sizes
    from 4KB to 64KB and another for larger page sizes upto 1MB."

    The fine table clusters 4 KB pages (64 KB blocks); the coarse table
    clusters 64 KB superpages (1 MB blocks).  Lookup probes fine first
    — the size most likely to miss — then coarse, charging both
    walks. *)

type t

val name : string

val create : ?arena:Mem.Sim_memory.t -> ?buckets:int -> unit -> t

val fine : t -> Table.t

val coarse : t -> Table.t

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Walks the fine table, then the coarse one when the fine table has
    no mapping; both walks are charged. *)

val lookup_block :
  t ->
  Mem.Walk_acc.t ->
  vpn:int64 ->
  subblock_factor:int ->
  (int * Pt_common.Types.translation) list

val insert_base : t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit

val insert_superpage :
  t -> vpn:int64 -> size:Addr.Page_size.t -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Sizes up to 64 KB go to the fine table; larger sizes go to the
    coarse table (where a 1 MB superpage costs one node instead of
    sixteen). *)

val insert_psb :
  t -> vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit

val remove : t -> vpn:int64 -> unit

val set_attr_range :
  t -> Addr.Region.t -> f:(Pte.Attr.t -> Pte.Attr.t) -> int

val size_bytes : t -> int

val node_count : t -> int
(** Live nodes across both tables. *)

val population : t -> int

val clear : t -> unit
