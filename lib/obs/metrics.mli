(** A registry of named counters and {!Hist} histograms.

    One registry is a single-domain object: lookups hand back mutable
    handles ([counter], [hist]) that hot paths cache once and then bump
    without hashing, allocating, or locking.  Cross-domain use goes
    through {!Ambient}, which gives every domain its own shard and
    merges them after the joins.

    JSON output sorts entries by name, so two registries holding the
    same data serialize identically regardless of insertion order. *)

type t

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Find or register the named counter.  Allocates only on first
    registration — cache the handle outside loops. *)

val hist : t -> string -> Hist.t
(** Find or register the named histogram. *)

val incr : counter -> unit
(** Zero allocation. *)

val add : counter -> int -> unit
(** Zero allocation. *)

val value : counter -> int

val clear : t -> unit
(** Zero every counter and histogram, keeping registrations. *)

val merge_into : src:t -> dst:t -> unit
(** Add [src]'s counters and histograms into [dst], registering any
    names [dst] lacks.  Order-independent: merging shards in any order
    yields the same registry. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val hists : t -> (string * Hist.t) list
(** Sorted by name. *)

val equal : t -> t -> bool
(** Equality of contents, ignoring zero-valued counters and empty
    histograms (a registered-but-untouched name is not data). *)

val json_fields : t -> (string * Jsonx.t) list
(** The ["counters"] and ["histograms"] fields of the metrics JSON
    document, for embedding in a larger object.  Counters are
    [{"name", "value"}] rows; histograms carry their exact moments and
    their nonzero [{"lo", "hi", "count"}] buckets in ascending order. *)

val to_openmetrics : t -> string
(** Prometheus/OpenMetrics text exposition: each counter as a
    [_total] sample, each histogram as cumulative [_bucket{le="..."}]
    samples (one per nonzero log2 bucket, plus [+Inf]) with [_sum] and
    [_count], terminated by [# EOF].  Dotted metric names are
    sanitized to [[a-zA-Z0-9_:]] and prefixed ["ptsim_"].  Entries are
    sorted by name, so output is deterministic. *)

val pp : Format.formatter -> t -> unit
