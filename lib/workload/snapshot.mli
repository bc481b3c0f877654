(** Address-space snapshots: the set of mapped pages of each process
    "at a point near the program's maximum memory use" (Section 6.1),
    generated from a {!Spec} profile.

    The page-table size experiments (Figures 9 and 10) consume
    snapshots directly; the trace generators walk their segment
    structure. *)

type seg_kind = Dense | Chunk | Sparse

type segment = { kind : seg_kind; first_vpn : int64; pages : int }

type proc = { pname : string; segments : segment list }

type t = { workload : string; procs : proc list }

val generate : Spec.t -> seed:int64 -> t
(** Deterministic in [seed].  Segment placement never overlaps; the
    total page count equals the spec's calibrated target exactly. *)

val proc_pages : proc -> int

val total_pages : t -> int

val proc_vpns : proc -> int64 array
(** All mapped VPNs of the process, ascending. *)

val dense_runs : proc -> (int64 * int) array
(** (first VPN, length) of each dense segment, for trace sweeps. *)

val chunk_runs : proc -> (int64 * int) array

val active_blocks : subblock_factor:int -> proc -> int
(** Number of page blocks with at least one mapped page:
    Nactive(factor) of the appendix formulae. *)

val save : t -> string -> unit
(** Write to a file in a line-oriented text format (one [proc] line
    per process, one [seg] line per segment). *)

val load : string -> (t, string) result
(** Inverse of {!save}.  Never raises: an unreadable file, a malformed
    line, a segment outside the 52-bit VPN space or one overlapping
    another of its process is an [Error] naming the file and line. *)

val pp : Format.formatter -> t -> unit
