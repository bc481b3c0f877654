(** One entry point per table or figure of the paper's evaluation,
    each printing its reproduction to stdout and returning the data for
    programmatic use (benchmarks, tests, EXPERIMENTS.md).

    Every entry point takes [?domains]: its independent workloads fan
    out over {!Exec.Soak.map} on that many domains (default
    [Domain.recommended_domain_count ()]).  Results are deterministic —
    identical for every domain count, including [~domains:1], which
    runs the jobs in order on the calling domain. *)

type options = {
  seed : int64;
  length : int;  (** trace accesses per workload *)
  placement_p : float;
  quick : bool;  (** restrict trace workloads for fast smoke runs *)
}

val default_options : options

val fixture : ?quantum:int -> options -> Workload.Spec.t -> Builder.fixture
(** {!Builder.fixture} at the options' seed, placement and trace
    length. *)

val table1 :
  ?options:options -> ?domains:int -> unit ->
  (string * int * float * int) list
(** Per workload: (name, measured 64-entry TLB misses, measured % time
    in miss handling at a 40-cycle penalty, measured hashed-table
    bytes); prints paper values alongside. *)

val figure9 : ?options:options -> ?domains:int -> unit -> Size_exp.row list

val figure10 : ?options:options -> ?domains:int -> unit -> Size_exp.row list

val figure11 :
  ?options:options -> ?domains:int -> design:Access_exp.design -> unit ->
  Access_exp.workload_run list

val table2 : ?options:options -> ?domains:int -> unit -> unit
(** Cross-checks simulated sizes against the appendix formulae and
    prints simulated/analytic ratios. *)

val ablation_line_size :
  ?options:options -> ?domains:int -> unit -> (int * float) list
(** Clustered cache-lines-per-miss at 64/128/256-byte lines
    (Section 6.3's sensitivity discussion). *)

val ablation_subblock : ?options:options -> ?domains:int -> unit -> unit
(** Clustered size ratio at subblock factors 2..16 per workload. *)

val ablation_buckets :
  ?options:options -> ?domains:int -> unit -> (int * float * float) list
(** Hash-bucket sweep on the densest workload: (buckets, load factor,
    mean lines per miss) — the Section 7 load-factor discussion. *)

val ablation_residency :
  ?options:options -> ?domains:int -> unit -> Access_exp.residency list
(** Replay Figure 11a's miss stream through a 1 MB 4-way L2 holding
    page-table data: quantifies the cache-residency effect the metric
    ignores (Section 6.1's first drawback). *)

val ablation_reverse_order : ?options:options -> ?domains:int -> unit -> unit
(** Section 6.3: probing the 64 KB table before the 4 KB table under a
    partial-subblock TLB. *)

val ablation_asid :
  ?options:options -> ?domains:int -> unit -> (string * int * int) list
(** Section 7's multiprogramming discussion: TLB misses of the
    multiprogrammed workloads with flush-on-switch vs an ASID-tagged
    TLB.  Returns (workload, flush misses, tagged misses). *)

val ablation_placement : ?options:options -> ?domains:int -> unit -> unit
(** Figure 10's clustered+psb column as reservation success degrades —
    memory pressure per the Section 7 discussion. *)

val ablation_tlb_size : ?options:options -> ?domains:int -> unit -> unit
(** Miss counts at 32/64/128/256 TLB entries (Section 6.1 sensitivity). *)

val ablation_software_tlb : ?options:options -> unit -> unit
(** Section 7: a memory-resident software TLB between the hardware TLB
    and the page table.  Compares a conventional direct-mapped TSB
    against the clustered TSB at a similar byte budget: one tag per
    page block triples the reach, so the clustered TSB's hit ratio and
    lines-per-miss win on block-local workloads.  (Serial: a single
    spec whose software TLBs mutate as the trace runs.) *)

val ablation_guarded : ?options:options -> ?domains:int -> unit -> unit
(** Section 2's guarded page tables [Lied95]: path compression helps
    forward-mapped tables on sparse spaces but remains "partially
    effective" — many levels survive wherever the tree branches. *)

val ablation_shared_table : ?options:options -> ?domains:int -> unit -> unit
(** Section 7: a single page table shared by all processes (VPNs
    tagged with the process id in high bits) vs per-process tables.
    The shared table's chain distribution depends on the whole process
    mix; per-process tables keep it predictable. *)

val ablation_nested_linear : ?options:options -> ?domains:int -> unit -> unit
(** The appendix's linear-table cost formula 1 + r*m, measured: eight
    reserved TLB entries hold the page table's own mappings (footnote
    2: sufficient for the 32-bit workloads, so r = 0), and the
    synthetic 64-bit workload overflows them, paying nested misses
    resolved through a hashed side table ("Linear with Hashed"). *)

val ablation_variable_factor : ?options:options -> ?domains:int -> unit -> unit
(** Section 3 / [Tall95]: PTEs with varying subblock factors.  Sparse
    blocks ride 48-byte quarter nodes, dense blocks merge into full
    nodes — "better memory utilization" across the whole density
    range. *)

val ablation_replacement : ?options:options -> ?domains:int -> unit -> unit
(** TLB replacement policy (the paper assumes LRU; the MIPS R4000
    replaces at random): miss counts under LRU / FIFO / random for a
    64-entry conventional TLB.  The page-table comparison is
    insensitive to this — the metric normalizes per miss — but the
    absolute miss counts move. *)

val extension_future64 : ?options:options -> ?domains:int -> unit -> unit
(** Section 6.2's prediction, instantiated: a large sparse 64-bit
    object store, where linear and forward-mapped tables blow up and
    "both hashed and clustered page tables [become] more
    attractive". *)

type churn_row = {
  churn_name : string;  (** table label, e.g. "clustered-16" *)
  churn_policy : string;  (** "base", "sp" or "psb" *)
  churn_seeds : int;
  churn_peak_kb : float;  (** mean over seeds of the sampled peak footprint *)
  churn_final_bytes : float;  (** mean over seeds, after the drain suffix *)
  churn_insert_lines : float;  (** mean cache lines per insert's walk *)
  churn_delete_lines : float;  (** mean cache lines per delete's walk *)
  churn_promotions : int;  (** summed over seeds *)
  churn_demotions : int;
  churn_cow_breaks : int;
  churn_final_nodes : int;
      (** live nodes left after the drain (seed 0); 0 for organizations
          without a node probe *)
  churn_series : (int * int * int) list;
      (** seed-0 time series: (op index, live pages, page-table bytes) *)
}

val churn_row_to_json : churn_row -> Jsonx.t
(** The row shape of [ptsim churn --json] and the bench JSON's churn
    table (the series is omitted). *)

val churn :
  ?options:options ->
  ?domains:int ->
  ?seeds:int ->
  ?ops:int ->
  ?procs:int ->
  ?sample_every:int ->
  unit ->
  churn_row list
(** The {!Dynamics} extension: run a seeded mmap/munmap/fork/exit/COW
    churn stream (see {!Dynamics.Churn}) against every page-table
    organization, reporting modify-op cache-line costs, promotion /
    demotion / COW activity, and a footprint-over-time series — the
    dynamic counterpart of Figure 9's static sizes.  One engine run per
    (organization, seed) fans out over the domain pool; results are
    bit-identical for every [domains].  [sample_every <= 0] (the
    default) picks ops/16. *)

val churn_for_suite :
  ?options:options -> ?domains:int -> unit -> churn_row list
(** {!churn} at the suite's standard scale (2 seeds x 6k ops; 1 x 2k
    under [--quick]) — what [ptsim all] and the benchmark harness
    append after the paper suite. *)

val ablations : ?options:options -> ?domains:int -> unit -> unit
(** Every ablation above and {!extension_future64}, in order. *)

val all : ?options:options -> ?domains:int -> unit -> unit
(** Every table and figure in paper order (the churn extension is
    separate — see {!churn_for_suite}). *)

type verify_report = {
  claims : (string * bool) list;
      (** the paper's headline claims, in presentation order:
          (claim name, holds?) *)
  lines_per_miss : (string * string * float) list;
      (** deterministic cache-lines-per-miss numbers backing the
          claims: (design, page table, mean lines) on the nasa7
          workload, designs "single" / "superpage" / "csb" *)
}

val verify_report : ?options:options -> ?domains:int -> unit -> verify_report
(** Re-derive the paper's headline claims (Figure 9's
    clustered-wins-everywhere, Figure 10's compaction magnitudes,
    Figure 11's per-design orderings, the Table 2 formula equalities)
    without printing.  Every field is deterministic for fixed
    [options] — the benchmark JSON embeds this report and CI diffs it
    across commits. *)

val verify : ?options:options -> ?domains:int -> unit -> bool
(** {!verify_report}, printed as PASS/FAIL lines.  Returns true iff
    every claim holds — the release-user analogue of the test
    suite. *)

type throughput_row = {
  tp_org : string;  (** "clustered" or "hashed" *)
  tp_locking : string;  (** "striped", "global" or "seqlock" *)
  tp_domains : int;
  tp_total_ops : int;
  tp_elapsed_s : float;
  tp_ops_per_sec : float;
  tp_read_locks : int;
      (** lock acquisitions inside the timed region; deterministic for
          a fixed config, unlike the timing fields — except under
          seqlock locking, where reads acquire a lock only on
          contention fallback (interleaving-dependent) *)
  tp_write_locks : int;
  tp_read_contention : int;
      (** blocked read acquisitions (interleaving-dependent) *)
  tp_sq_retries : int;
      (** invalidated optimistic walks; 0 outside seqlock locking *)
  tp_sq_fallbacks : int;
  tp_population : int;  (** final mapped pages; deterministic *)
}

val throughput_row_to_json : throughput_row -> Jsonx.t
(** The row shape of [ptsim throughput --json] and the bench JSON:
    the timing fields ([ops_per_sec], [elapsed_s]) last. *)

val throughput :
  ?domains_list:int list ->
  ?streams:int ->
  ?ops_per_domain:int ->
  ?vpns_per_domain:int ->
  ?seed:int ->
  ?pairs:(Pt_service.Service.org * Pt_service.Service.locking) list ->
  unit ->
  throughput_row list
(** The {!Pt_service} extension: N worker domains issue mixed
    lookup/insert/remove/protect traffic against one shared page table
    (see {!Pt_service.Throughput}), for each (organization, locking)
    pair and each domain count.  Defaults: domains 1/2/4/8, 100k ops
    per domain, all four pairs.  Prints ops/sec and the speedup over
    the pair's first domain count.  [streams] fixes the logical stream
    count across the domain sweep (0, the default, runs one stream per
    domain); fixing it makes the merged telemetry identical for every
    domain count. *)

val throughput_for_suite : ?options:options -> unit -> throughput_row list
(** {!throughput} at the suite's standard scale (1/2/4/8 domains x
    100k ops; 1/2 x 20k under [--quick]) — what the benchmark harness
    appends after churn. *)

val throughput_curve :
  ?domains_list:int list ->
  ?streams:int ->
  ?ops_per_domain:int ->
  ?vpns_per_domain:int ->
  ?buckets:int ->
  ?seed:int ->
  ?reps:int ->
  unit ->
  throughput_row list
(** Lookup-throughput-vs-domains under
    {!Pt_service.Throughput.read_mostly_mix}: the lock-free
    ({!Pt_service.Service.Seqlock}) read path against the striped lock
    on both organizations, over deliberately few buckets (default 256)
    so stripes are genuinely contended.  Each row reports the
    median-rate rep of [reps] (default 5) runs — with domains
    oversubscribed on few cores, a single sub-second sample is noise.
    Logical columns are identical across reps.  Defaults: domains
    1/2/4/8, 8 streams, 50k ops per stream. *)

val throughput_curve_for_suite :
  ?options:options -> unit -> throughput_row list
(** {!throughput_curve} at suite scale; [--quick] keeps 4 domains
    (1/2/4 x 30k ops) because the seqlock-beats-striped claim the
    bench gate checks lives at >= 4 domains. *)

(** {1 Structural inspection (PR 4 telemetry)} *)

type inspect_row = {
  ins_workload : string;
  ins_nodes : int;  (** table nodes summed over the per-process tables *)
  ins_bucket_obs : int;  (** chain-length observations = buckets x procs *)
  ins_chain_mean : float;  (** mean of the probed chain-length histogram *)
  ins_alpha : float;  (** analytic load factor, Nactive(s) / buckets *)
  ins_lines : float;  (** appendix lines-per-miss at [ins_alpha] *)
  ins_report : Obs.Probe.report;
}

val inspect :
  ?options:options ->
  ?domains:int ->
  ?org:[ `Clustered | `Hashed ] ->
  unit ->
  inspect_row list
(** Build each Table 1 workload's per-process tables (Base policy, the
    size experiments' construction), probe their structure with
    {!Obs.Probe}, print the chain-length / occupancy / node-utilization
    histograms, and tabulate the measured chain-length mean against the
    appendix's load factor alpha = Nactive(s)/buckets — the two agree
    within 5% (a tier-1 test holds this).  Also merges each workload's
    histograms into the ambient metrics under [inspect.<workload>.*]
    so [--metrics-out] captures them. *)
