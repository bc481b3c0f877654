(** Shared types for page-table implementations: the result a TLB miss
    handler loads.  A walk's cost is charged to a {!Mem.Walk_acc.t}. *)

(** Granularity of the mapping a lookup produced — this is what decides
    which TLB entry format the handler loads. *)
type kind =
  | Base  (** one 4 KB page *)
  | Superpage of Addr.Page_size.t
  | Partial_subblock of int  (** valid vector over the page block *)

type translation = {
  vpn : int64;  (** the faulting base page *)
  ppn : int64;  (** physical page backing [vpn] *)
  vpn_base : int64;  (** first VPN covered by the loaded entry *)
  ppn_base : int64;  (** PPN backing [vpn_base] *)
  kind : kind;
  attr : Pte.Attr.t;
}

val base_translation :
  vpn:int64 -> ppn:int64 -> attr:Pte.Attr.t -> translation

val covered_pages : translation -> int
(** Base pages covered by the loaded entry (1, superpage size, or the
    subblock factor). *)

val block_base : vpn:int64 -> subblock_factor:int -> int64
(** First page of [vpn]'s [subblock_factor]-page block. *)

val lookup_pages :
  (Mem.Walk_acc.t -> vpn:int64 -> translation option) ->
  Mem.Walk_acc.t ->
  vpn:int64 ->
  subblock_factor:int ->
  (int * translation) list
(** [lookup_pages lookup_into acc ~vpn ~subblock_factor] is a
    complete-subblock prefetch done page by page, for a table with no
    block-granular walk: [lookup_into] every page of [vpn]'s block,
    last page first, charging each walk to [acc], and return the pages
    found as [(block offset, translation)], offsets ascending. *)

val pp_translation : Format.formatter -> translation -> unit
