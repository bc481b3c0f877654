(** The 12-bit attribute field of a PTE (Figure 1).

    The paper allocates "12 bits of software and hardware attributes".
    We pick a concrete assignment: six hardware bits (referenced,
    modified, writable, executable, user, cacheable), two OS bits
    (global, locked) and a 4-bit software-defined nibble.  TLB miss
    handlers update [referenced]/[modified] in place, so these live in
    the low bits where a hardware walker would put them. *)

type t = {
  referenced : bool;  (** set by hardware/handler on access (bit 0) *)
  modified : bool;  (** set on write (bit 1) *)
  writable : bool;  (** write permission (bit 2) *)
  executable : bool;  (** execute permission (bit 3) *)
  user : bool;  (** user-mode accessible (bit 4) *)
  cacheable : bool;  (** cacheable memory (bit 5) *)
  global : bool;  (** shared across address spaces (bit 6) *)
  locked : bool;  (** pinned, not pageable (bit 7) *)
  soft : int;  (** 4 software-defined bits (bits 8-11) *)
}

val width : int
(** 12. *)

val default : t
(** Readable, cacheable, user data page: referenced/modified clear,
    writable, not executable, user, cacheable, not global, not locked,
    soft 0. *)

val kernel_text : t
(** Executable, global, locked, not user. *)

val kernel_data : t
(** Writable, global, locked, not user. *)

val to_bits : t -> int64
(** Encode into the low 12 bits. Raises [Invalid_argument] if [soft] is
    outside [0, 15]. *)

val of_bits : int64 -> t
(** Decode from the low 12 bits of a word.  Returns one of 4096 shared
    records built once, so a decode allocates nothing. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
