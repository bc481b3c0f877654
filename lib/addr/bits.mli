(** Bit-field manipulation on [int64] words.

    All page-table entry formats in this library are encoded into 64-bit
    words with explicit field layouts, so correctness of these helpers
    underpins everything else.  Bit positions use little-endian numbering:
    bit 0 is the least significant bit, as in the paper's Figure 1. *)

val mask : int -> int64
(** [mask n] is an [int64] with the low [n] bits set.  [n] must be in
    [0, 64]. *)

val extract : int64 -> lo:int -> width:int -> int64
(** [extract w ~lo ~width] reads the [width]-bit field whose least
    significant bit is at position [lo]. *)

val insert : int64 -> lo:int -> width:int -> int64 -> int64
(** [insert w ~lo ~width v] returns [w] with the [width]-bit field at
    [lo] replaced by the low [width] bits of [v]. *)

val test_bit : int64 -> int -> bool
(** [test_bit w i] is true iff bit [i] of [w] is set. *)

val set_bit : int64 -> int -> int64

val clear_bit : int64 -> int -> int64

val popcount : int64 -> int
(** Number of set bits. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is true iff [n] is a positive power of two. *)

val log2_exact : int -> int
(** [log2_exact n] is [k] such that [n = 2^k].  Raises [Invalid_argument]
    if [n] is not a positive power of two. *)

val align_down : int64 -> int -> int64
(** [align_down x shift] clears the low [shift] bits of [x]. *)

val align_up : int64 -> int -> int64
(** [align_up x shift] rounds [x] up to the next multiple of
    [2^shift]. *)

val is_aligned : int64 -> int -> bool
(** [is_aligned x shift] is true iff the low [shift] bits of [x] are
    zero. *)

val mix64 : int64 -> int64
(** Full-avalanche 64-bit mix (the SplitMix64 finalizer).  Hash
    functions over page numbers must avalanche: sequential VPNs fed to
    a bare multiplicative hash form aliasing arithmetic progressions
    that systematically double chain lengths. *)

val hash_index : int -> shift:int -> int
(** [hash_index key ~shift] is the top [64 - shift] bits of
    [mix64 (Int64.of_int key)]: the bucket of [key] in a table of
    [2^(64 - shift)] buckets, or 0 when [shift >= 64] (one bucket).
    Takes and returns immediates, so a hash table's probe never boxes;
    the table computes [shift] once, at create. *)

val pp_hex : Format.formatter -> int64 -> unit
(** Print as [0x%Lx]. *)
