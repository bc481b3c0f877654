(** Shared bit positions of the 64-bit PTE word formats (Figures 1, 6
    and 7 of the paper).

    Little-endian bit numbering.  Common to all formats: the PPN
    occupies bits 39..12 (28 bits: a 40-bit physical address space with
    4 KB pages) and the attributes occupy bits 11..0.

    {v
    base PTE (Fig 1):      | V63 | PAD 62..42 | S 41..40 | PPN 39..12 | ATTR 11..0 |
    superpage (Fig 6 top): | V63 | SZ 62..59 | PAD | S | PPN | ATTR |
    partial-subblock:      | V16 63..48 | PAD 47..42 | S | PPN | ATTR |
    v}

    The paper leaves the exact position of the S
    (subblock/superpage) discriminator unspecified ("consults the new S
    field"); we give it two bits at 41..40, in PAD space that every
    format has free, so a single read of the word classifies it:
    0 = base, 1 = partial-subblock, 2 = superpage. *)

val valid_bit : int
(** 63: V bit of base and superpage formats. *)

val sz_lo : int
(** 59: low bit of the 4-bit SZ field of superpage PTEs. *)

val sz_width : int
(** 4. *)

val vmask_lo : int
(** 48: low bit of the 16-bit valid vector of partial-subblock PTEs. *)

val vmask_width : int
(** 16. *)

val s_lo : int
(** 40: low bit of the 2-bit S discriminator. *)

val s_width : int
(** 2. *)

val ppn_lo : int
(** 12. *)

val ppn_width : int
(** 28. *)

val attr_lo : int
(** 0. *)

val attr_width : int
(** 12. *)

type s_class = S_base | S_partial_subblock | S_superpage

val s_class_to_code : s_class -> int64

val s_class_of_code : int64 -> s_class
(** Raises [Invalid_argument] on the reserved code 3. *)

val read_s : int64 -> s_class
(** Classify a PTE word by its S field. *)

val s_code : int64 -> int
(** The S field as an [int] (0 base, 1 partial-subblock, 2 superpage)
    read with shifts alone: the miss handlers' decode-free classifier.
    Raises [Invalid_argument] on the reserved code 3, like
    {!s_class_of_code}. *)

val sz_code : int64 -> int
(** The 4-bit SZ field of a superpage word, read with shifts alone. *)

val pte_bytes : int
(** 8: every mapping word is eight bytes (paper, Section 2). *)

val tag_bytes : int
(** 8: a hash-node tag is an eight-byte VPN/VPBN. *)

val next_bytes : int
(** 8: a hash-node next pointer is eight bytes. *)
