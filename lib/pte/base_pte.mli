(** Base-page PTE: the eight-byte mapping word of Figure 1.

    Maps one 4 KB virtual page to one 4 KB physical page. *)

type t = { valid : bool; ppn : int64; attr : Attr.t }

val make : ?valid:bool -> ppn:int64 -> attr:Attr.t -> unit -> t
(** Raises [Invalid_argument] if [ppn] exceeds 28 bits. *)

val invalid : t
(** An all-clear invalid word. *)

val encode : t -> int64
(** Encode with S = base. *)

val template : Attr.t -> int64
(** The valid base word of [attr] with PPN 0.  With {!with_ppn}, a run
    of pages sharing one attribute encodes with no record per page.
    Raises like {!Attr.to_bits}. *)

val with_ppn : int64 -> ppn:int64 -> int64
(** [with_ppn (template attr) ~ppn] is [encode (make ~ppn ~attr ())].
    Raises [Invalid_argument] if [ppn] exceeds 28 bits. *)

val with_attr_bits : int64 -> bits:int -> int64
(** A base word with its attribute field replaced by the low 12 bits
    [bits] ([0 <= bits < 4096]): [encode { (decode w) with attr }]
    without the records. *)

val decode : int64 -> t
(** Field-wise decode; ignores PAD and S. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
