(** The walk of a TLB miss: the reads and probes a page-table search
    charges, the only walk representation.

    Allocate one accumulator per replay loop, [reset] it per miss, and
    let the page table's [lookup_into] append reads and probes into the
    preallocated arrays.  Steady state allocates nothing: addresses are
    held unboxed (a simulated physical address is below 2^62), so
    recording a read never boxes. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the initial number of reads the accumulator holds
    without growing (default 64); it grows by doubling. *)

val reset : t -> unit
(** Forget all recorded reads, probes and nested misses. *)

val rewind : t -> count:int -> probes:int -> nested_misses:int -> unit
(** Truncate back to a previously observed state ([count] reads,
    [probes], [nested_misses]) without touching the arrays: the undo
    for an optimistic walk that failed validation and must re-run
    without double-charging its reads.  Raises [Invalid_argument] if
    [count] exceeds the current {!count}. *)

val read : t -> addr:int64 -> bytes:int -> unit
(** Append one memory read.  Raises [Invalid_argument] if [addr] is
    negative or does not fit a native [int]. *)

val read_int : t -> addr:int -> bytes:int -> unit
(** {!read} with the address as a native [int]: the page tables' miss
    paths keep node addresses unboxed and record them through this.
    Raises [Invalid_argument] if [addr] is negative. *)

val probe : t -> unit
(** Count one more node/level visit. *)

val add_nested : t -> int -> unit
(** Add nested TLB misses (linear page tables). *)

val count : t -> int
(** Number of reads recorded. *)

val probes : t -> int

val nested_misses : t -> int

val addr : t -> int -> int64
(** [addr t i] is the address of the [i]th read, in chronological
    order.  Raises [Invalid_argument] unless [0 <= i < count t]. *)

val addr_int : t -> int -> int
(** {!addr} unboxed. *)

val bytes : t -> int -> int

val iter : t -> (int64 -> int -> unit) -> unit
(** Iterate reads in chronological order as [f addr bytes]. *)
