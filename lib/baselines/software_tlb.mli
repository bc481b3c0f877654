(** Software TLB / translation storage buffer (paper, Section 2 and 7;
    swTLB [Huck93], UltraSPARC TSB [Yung95], PowerPC page table
    [Silh93]).

    A memory-resident array of pre-allocated (tag, PTE-word) pairs
    indexed by low VPN bits: a hit costs exactly one set read, there
    are no next pointers.  [ways] > 1 gives the set-associative layout
    of the PowerPC page table (a PTE group per index, searched
    linearly, LRU within the set).  Conflicting insertions evict to a
    backing hashed page table, probed on a TSB miss — "memory-resident
    level-two TLBs with overflow handled in many ways". *)

type t

val name : string

val create :
  ?arena:Mem.Sim_memory.t ->
  ?entries:int ->
  ?ways:int ->
  ?backing_buckets:int ->
  unit ->
  t
(** Default 4096 entries, direct-mapped (ways = 1), 4096 backing
    buckets.  [entries] must be a multiple of [ways], both powers of
    two. *)

val lookup_into :
  t -> Mem.Walk_acc.t -> vpn:int64 -> Pt_common.Types.translation option
(** Charges the set read; a miss also charges the backing table's walk
    and installs a base mapping it finds. *)

val lookup_block :
  t ->
  Mem.Walk_acc.t ->
  vpn:int64 ->
  subblock_factor:int ->
  (int * Pt_common.Types.translation) list

val insert_base : t -> vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> unit

val insert_superpage :
  t -> vpn:int64 -> size:Addr.Page_size.t -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Always raises [Invalid_argument] (the paper applies clustering, not
    the TSB, to superpage storage; see [Tall95]). *)

val insert_psb :
  t -> vpbn:int64 -> vmask:int -> ppn:int64 -> attr:Pte.Attr.t -> unit
(** Always raises [Invalid_argument]. *)

val remove : t -> vpn:int64 -> unit

val set_attr_range :
  t -> Addr.Region.t -> f:(Pte.Attr.t -> Pte.Attr.t) -> int

val size_bytes : t -> int

val population : t -> int

val clear : t -> unit

val tsb_hits : t -> int

val tsb_misses : t -> int
