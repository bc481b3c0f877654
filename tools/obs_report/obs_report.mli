(** The anomaly gate behind [ptsim report].

    Reads two JSON artifacts — telemetry metrics dumps
    ([--metrics-out]), simulation outcomes ([ptsim fleet --json], ...)
    or whole benchmark files (BENCH_PR10.json) — normalizes both to a
    flat [dotted.key -> number] view, and compares the shared keys
    against declarative anomaly thresholds:

    - p99 keys ([.p99] / [p99_ns]): breach when current exceeds 1.5x
      baseline and the floor of 64;
    - lock-contention keys ([write_locks], [read_contention],
      [seqlock_fallbacks]): 1.5x over a floor of 128;
    - eviction keys ([evictions], [evicted_pages]): 2x over a floor
      of 16;
    - recovery keys ([replayed_records]): 2x over a floor of 64 — a
      recovery storm means shards are crash-looping or checkpoints
      stopped compacting;
    - [obs.trace.dropped] > 0 in the current file breaches
      unconditionally — the tracer ring must never saturate in CI;
    - [degraded_rejections] > 0 breaches even with no baseline
      counterpart (tenant-visible unavailability a baseline run never
      showed has no ratio to judge); with one, an established count
      may at most double (crash soaks that expect a fixed rejection
      count are also gated by bench_diff's exact row equality).

    Every other shared key that changed becomes an [Info] finding;
    keys present on only one side are counted, not reported, so a
    metrics dump can be gated against a richer benchmark file.
    Stdlib only, plus {!Jsonx} for reading and writing JSON. *)

val bucket_quantile :
  count:int ->
  vmin:int ->
  vmax:int ->
  (int * int * int) list ->
  q:float ->
  int
(** The q-quantile of a serialized log2 histogram, from its
    [(lo, hi, count)] buckets in ascending order plus the observed
    [vmin]/[vmax] — the same clamped within-bucket interpolation as
    [Obs.Hist.quantile], so a quantile computed from a metrics JSON
    dump equals the one the live histogram would report. *)

val flatten : Jsonx.t -> (string * float) list
(** Normalize a document to flat [key -> number] pairs, in document
    order:

    - a top-level ["experiments"] object is inlined, so
      [experiments.fleet.*] in a benchmark file and a bare
      [ptsim fleet --json] outcome (prefixed by its ["experiment"]
      tag) flatten to the same keys;
    - [{"name": n, "value": v}] rows (telemetry counters) flatten to
      [n = v]; histogram rows flatten to [n.count] and interpolated
      [n.p50]/[n.p90]/[n.p99];
    - other object lists key each row by its string-valued fields
      joined with ['/'], e.g. [fleet.rows[batched/clustered/...]];
    - booleans become 0/1; strings are row discriminators, not
      values; [schema_version], [command], [experiment] and [series]
      are skipped. *)

type severity = Info | Breach

type finding = {
  severity : severity;
  key : string;
  baseline : float option;  (** [None] for current-only breaches *)
  current : float option;
  note : string;  (** which rule fired, or the delta *)
}

type report = {
  findings : finding list;  (** breaches first, then info, stable *)
  compared : int;  (** shared keys examined *)
  baseline_only : int;  (** keys ignored: absent from current *)
  current_only : int;  (** keys ignored: absent from baseline *)
}

val compare_files : baseline:Jsonx.t -> current:Jsonx.t -> report

val has_breach : report -> bool

val render_table :
  baseline_path:string -> current_path:string -> report -> string
(** The human rendering: one aligned row per finding, breaches
    first, with a header and a summary line. *)

val render_json :
  baseline_path:string -> current_path:string -> report -> Jsonx.t
(** One JSON object ({["kind":"obs_report"]}) with the finding list
    and the ignored-key counts. *)
