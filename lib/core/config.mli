(** Clustered-page-table configuration. *)

type t = {
  subblock_factor : int;
      (** base pages per page block (power of two, 1..16; the paper's
          default is 16) *)
  buckets : int;  (** hash buckets (power of two; the paper uses 4096) *)
  page_shift : int;
      (** log2 of the "base page" this table clusters.  12 for an
          ordinary table of 4 KB pages; 16 for the second table of a
          two-table large-superpage configuration, whose "pages" are
          64 KB superpages (paper, Section 7) *)
  node_align : int;
      (** alignment of node placement in simulated memory; the paper's
          accounting puts each PTE on a cache-line boundary, so the
          default is 256 *)
}

val default : t
(** factor 16, 4096 buckets, 4 KB base pages, 256-byte alignment. *)

val make :
  ?subblock_factor:int ->
  ?buckets:int ->
  ?page_shift:int ->
  ?node_align:int ->
  unit ->
  t
(** Validates all fields. *)

val block_shift : t -> int
(** log2 bytes covered by one page block. *)

val block_node_bytes : t -> int
(** Bytes of a complete-subblock node: tag + next + factor words. *)

val single_node_bytes : int
(** 24: tag + next + one word (partial-subblock or superpage node). *)

val hash : t -> int64 -> int
(** Bucket index for a VPBN (full-avalanche SplitMix64 mix):
    [Addr.Bits.hash_index] of the VPBN as a node tag. *)

val hash_shift : t -> int
(** The [~shift] of {!Addr.Bits.hash_index} for this bucket count; a
    table computes it once, at create. *)
