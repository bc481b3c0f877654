(** Per-round / per-phase time-series sampler over the ambient
    metrics.

    Long-running drivers call {!mark} at every round barrier: it
    snapshots the merged ambient registry and stores counter deltas
    since the previous mark plus cumulative p50/p90/p99 per histogram.
    Because the merge at a barrier is domain-invariant and timing
    metrics (names ending [_ns] or containing [_ns.]) and the seqlock
    diagnostics ([service.seqlock_*]) are excluded, the emitted series
    is byte-identical for any [--domains] count.

    Drivers without barriers (churn's independent per-row jobs) use
    {!push} with values they computed deterministically themselves.

    State is global and single-writer: call {!mark}/{!push} only from
    the main domain at a barrier, and {!reset} at the start of a CLI
    run (the telemetry wrapper does). *)

val reset : unit -> unit

val mark : label:string -> index:int -> unit
(** Record one point for [label] at position [index]: nonzero counter
    deltas since the previous [mark] (of any label) and cumulative
    histogram quantiles.  Only call at a barrier. *)

val push : label:string -> index:int -> (string * int) list -> unit
(** Record a driver-computed point: [(name, value)] pairs stored
    verbatim (no delta against ambient state). *)

val point_count : unit -> int

val to_json : unit -> Jsonx.t
(** The ["series"] value of the metrics JSON document:
    [[{"label", "points": [{"i", "counters", "quantiles"}]}]].  Each
    label's points are downsampled to at most 64 (even stride, final
    point kept); labels appear in first-recorded order, points in
    record order. *)
