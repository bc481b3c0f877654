(** Turning a raw PTE word into the translation a miss handler loads.

    Shared by every page table that stores the {!Pte.Word} formats at
    base-page sites (linear, forward-mapped, hashed, clustered): given
    the faulting VPN and the word found at its site, produce the
    translation, or [None] when the word does not map the page. *)

val translation_of_word :
  subblock_factor:int ->
  vpn:int64 ->
  int64 ->
  Types.translation option
(** Decodes by S field.  A base word takes {!base_word_translation};
    the other formats go through {!Pte.Word.decode}.  For a superpage
    word the VPN base is the faulting VPN aligned down to the superpage
    size; for a partial-subblock word the block offset's valid bit
    decides.  Raises [Invalid_argument] on the reserved S code 3. *)

val base_word_translation : vpn:int64 -> int64 -> Types.translation option
(** The translation of a word whose S field is base, read straight from
    its V, PPN and attribute bits (the attribute record is shared, see
    {!Pte.Attr.of_bits}): [None] when V is clear.  Allocates only the
    returned translation.  The caller has checked the S field. *)

val translation_in_block :
  subblock_factor:int ->
  vpn:int64 ->
  words:int64 array ->
  Types.translation option
(** Interpret a clustered block of mapping words (a clustered node or
    TSB slot): the S field of word 0 decides whether the block is a
    single partial-subblock/superpage word or an array indexed by
    block offset (the Figure 8 dispatch). *)

val reencode_attr : int64 -> f:(Pte.Attr.t -> Pte.Attr.t) -> int64 option
(** Apply an attribute transform to a valid mapping word of any
    format, re-encoding in place; [None] for invalid words (range
    operations skip them). *)
