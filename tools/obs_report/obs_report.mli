(** The one CI gate behind [ptsim report].

    Reads two JSON artifacts — telemetry metrics dumps
    ([--metrics-out]), simulation outcomes ([ptsim fleet --json], ...),
    whole benchmark files ([bench/baseline/bench.json]) or perfbench
    result lines — normalizes both to a flat [dotted.key -> number]
    view, and judges every key by the first rule of one table (OCaml
    data, in document order) whose glob pattern matches it:

    - ignore: what another host cannot reproduce — [*ops_per_sec],
      [*elapsed_s], [*wall_clock_s], micro [ns], the seqlock and
      contention diagnostics ([*read_contention], [*seqlock_retries],
      [*seqlock_fallbacks], [read_locks] on seqlock throughput rows,
      [service.seqlock_*]) and the [fleet.op_ns.*] latency histograms;
    - exact: the benchmark's deterministic sections (claims,
      lines_per_miss, churn tables, throughput rows, NUMA, fleet and
      chaos outcomes, micro [minor_words], [quick], [domains]) must be
      equal, and perfbench's counted metrics ([core.walk_lines],
      [baselines.hashed_walk_lines], [pt_bytes_per_page],
      [durable.{restored_mappings,replayed_records,wal_bytes_per_page}])
      equal at 6 significant digits.  A key such a rule matches that
      only one file holds is drift — unless the other file is a bare
      outcome (tagged by ["experiment"]) and the key lies outside its
      section, which is what lets [ptsim fleet --json] gate against a
      whole benchmark file;
    - cap: [core.walk_words] <= 40, [service.range_words_per_page] <=
      20, [obs.trace.dropped] <= 0, judged on the current file alone;
    - ratio: p99 ([.p99] / [p99_ns]) 1.5x over a floor of 64;
      [write_locks] 1.5x over 128; [evictions]/[evicted_pages] 2x
      over 16; [replayed_records] 2x over 64; [degraded_rejections] 2x
      over 1, where a current count with no baseline counterpart is
      judged against 0.

    Every other shared key that changed becomes an [Info] finding;
    other one-sided keys are counted, not reported, so a metrics dump
    can be gated against a richer benchmark file.  Stdlib only, plus
    {!Jsonx} for reading and writing JSON. *)

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
    - lists of numbers flatten to [key[i]];
    - booleans become 0/1; strings are row discriminators, not
      values; [schema_version], [command], [experiment] and [series]
      are skipped. *)

type severity = Info | Breach

type finding = {
  severity : severity;
  key : string;
  baseline : float option;  (** [None] for current-only breaches *)
  current : float option;  (** [None] for baseline-only breaches *)
  note : string;  (** which rule fired, or the delta *)
}

type report = {
  findings : finding list;  (** breaches first, then info, stable *)
  compared : int;  (** shared keys examined *)
  baseline_only : int;  (** judged keys absent from current *)
  current_only : int;  (** judged keys absent from baseline *)
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
    and the one-sided key counts. *)
