(** Cache-line accounting: the paper's access-time metric.

    Section 6.1 measures "the average number of cache lines accessed to
    handle one TLB miss", assuming a 256-byte level-two line and that
    page-table data is not resident.  A walk charges the byte ranges it
    reads to a {!Walk_acc.t}; this module folds them into the number of
    distinct lines. *)

val default_line_size : int
(** 256 bytes, the paper's assumption. *)

type counter
(** Accumulates the per-miss metric over a run. *)

val create_counter : ?line_size:int -> unit -> counter

val record_acc : counter -> Walk_acc.t -> int
(** Record one TLB miss's walk; returns the distinct lines its reads
    touched.  Allocates nothing (an in-place scratch sort). *)

val record_lines : counter -> int -> unit
(** Record a walk whose line count was computed elsewhere (e.g. the
    linear page table's reserved-TLB-entry model). *)

val walks : counter -> int

val total_lines : counter -> int

val mean_lines : counter -> float
(** Average lines per recorded walk; 0 if none. *)

val line_size : counter -> int
