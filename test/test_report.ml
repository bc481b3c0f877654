(* The anomaly gate (tools/obs_report) and the end-to-end observability
   invariants it rides on: flattening of metrics dumps, outcomes and
   benchmark files to one key space; quantiles recomputed from
   serialized buckets matching the live histogram; the threshold rules
   (p99 regression, contention spike, eviction storm, tracer drops);
   and the domain-count byte-identity of the flight-recorder dump and
   the per-phase series. *)

module R = Obs_report
module H = Obs.Hist

let parse s = Jsonx.parse s

(* --- flattening --- *)

let test_flatten_shapes () =
  (* a telemetry dump: counters by name, histograms to quantiles *)
  let metrics =
    parse
      {|{"schema_version":2,"command":"fleet",
         "counters":[{"name":"fleet.mmaps","value":42}],
         "histograms":[{"name":"svc.cost","count":3,"sum":15,"min":3,"max":9,
                        "buckets":[{"lo":2,"hi":3,"count":2},
                                   {"lo":8,"hi":15,"count":1}]}],
         "series":[{"label":"x","points":[]}]}|}
  in
  let flat = R.flatten metrics in
  Alcotest.(check (option (float 1e-9)))
    "counter row flattens to its name" (Some 42.0)
    (List.assoc_opt "fleet.mmaps" flat);
  Alcotest.(check (option (float 1e-9)))
    "histogram row contributes count" (Some 3.0)
    (List.assoc_opt "svc.cost.count" flat);
  Alcotest.(check bool)
    "histogram row contributes p99" true
    (List.mem_assoc "svc.cost.p99" flat);
  Alcotest.(check bool)
    "series is skipped" true
    (List.for_all (fun (k, _) -> not (String.starts_with ~prefix:"series" k)) flat);
  (* an outcome file: prefixed by its experiment tag; a benchmark
     file: experiments inlined — both land on the same keys *)
  let outcome =
    parse
      {|{"schema_version":1,"experiment":"fleet","seed":7,
         "rows":[{"mode":"batched","org":"clustered","evictions":5}]}|}
  in
  let bench =
    parse
      {|{"schema_version":3,
         "experiments":{"fleet":{"experiment":"fleet","seed":7,
           "rows":[{"mode":"batched","org":"clustered","evictions":5}]}}}|}
  in
  let key = "fleet.rows[batched/clustered].evictions" in
  Alcotest.(check (option (float 1e-9)))
    "outcome flattens under its tag" (Some 5.0)
    (List.assoc_opt key (R.flatten outcome));
  Alcotest.(check (option (float 1e-9)))
    "benchmark section flattens to the same key" (Some 5.0)
    (List.assoc_opt key (R.flatten bench));
  (* rows differing only in numeric fields stay distinct *)
  let sweep =
    parse
      {|{"experiment":"tp","rows":[
          {"table":"clustered","locking":"striped","domains":1,"walks":10},
          {"table":"clustered","locking":"striped","domains":4,"walks":40}]}|}
  in
  let flat = R.flatten sweep in
  Alcotest.(check (option (float 1e-9)))
    "first colliding row ordinal 0" (Some 10.0)
    (List.assoc_opt "tp.rows[clustered/striped#0].walks" flat);
  Alcotest.(check (option (float 1e-9)))
    "second colliding row ordinal 1" (Some 40.0)
    (List.assoc_opt "tp.rows[clustered/striped#1].walks" flat)

(* quantiles recomputed from a dump's buckets equal the live
   histogram's — the property that lets the gate read p99 off disk *)
let prop_bucket_quantile_matches_hist =
  QCheck.Test.make ~name:"bucket_quantile matches Hist.quantile" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) small_nat)
        (map (fun n -> float_of_int n /. 100.0) (int_range 1 100)))
    (fun (values, q) ->
      let h = H.create () in
      List.iter (H.observe h) values;
      let buckets = ref [] in
      H.iter_nonzero h (fun k c ->
          buckets := (H.bucket_lo k, H.bucket_hi k, c) :: !buckets);
      R.bucket_quantile ~count:(H.count h) ~vmin:(H.min_value h)
        ~vmax:(H.max_value h) (List.rev !buckets) ~q
      = H.quantile h ~q)

(* --- the threshold rules --- *)

let doc fields =
  parse
    (Printf.sprintf {|{"experiment":"t","rows":[{"org":"a",%s}]}|} fields)

let compare_rows base cur =
  R.compare_files ~baseline:(doc base) ~current:(doc cur)

let breaches r =
  List.filter (fun f -> f.R.severity = R.Breach) r.R.findings

let test_rules () =
  let self = compare_rows {|"p99_ns":1000|} {|"p99_ns":1000|} in
  Alcotest.(check int) "self-compare is clean" 0
    (List.length self.R.findings);
  Alcotest.(check bool) "no breach" false (R.has_breach self);
  (* p99 regression: ratio 1.5, floor 64 *)
  Alcotest.(check int) "p99 4x breaches" 1
    (List.length (breaches (compare_rows {|"p99_ns":1000|} {|"p99_ns":4000|})));
  Alcotest.(check int) "p99 under floor never breaches" 0
    (List.length (breaches (compare_rows {|"p99_ns":10|} {|"p99_ns":60|})));
  Alcotest.(check int) "p99 1.2x stays info" 0
    (List.length (breaches (compare_rows {|"p99_ns":1000|} {|"p99_ns":1200|})));
  (* contention: ratio 1.5, floor 128 *)
  Alcotest.(check int) "write_locks 3x breaches" 1
    (List.length
       (breaches (compare_rows {|"write_locks":200|} {|"write_locks":600|})));
  Alcotest.(check int) "write_locks under floor passes" 0
    (List.length
       (breaches (compare_rows {|"write_locks":10|} {|"write_locks":100|})));
  (* evictions: ratio 2, floor 16 *)
  Alcotest.(check int) "eviction storm breaches" 1
    (List.length
       (breaches (compare_rows {|"evictions":8|} {|"evictions":40|})));
  Alcotest.(check int) "eviction wiggle passes" 0
    (List.length
       (breaches (compare_rows {|"evictions":8|} {|"evictions":12|})));
  (* recovery storm: ratio 2, floor 64 *)
  Alcotest.(check int) "replayed_records 3x breaches" 1
    (List.length
       (breaches
          (compare_rows {|"replayed_records":100|} {|"replayed_records":300|})));
  Alcotest.(check int) "replayed_records under floor passes" 0
    (List.length
       (breaches
          (compare_rows {|"replayed_records":10|} {|"replayed_records":50|})));
  Alcotest.(check int) "replayed_records wiggle passes" 0
    (List.length
       (breaches
          (compare_rows {|"replayed_records":100|} {|"replayed_records":150|})));
  (* an info delta is reported but does not gate *)
  let info = compare_rows {|"walks":10|} {|"walks":11|} in
  Alcotest.(check int) "changed key is one info finding" 1
    (List.length info.R.findings);
  Alcotest.(check bool) "info does not breach" false (R.has_breach info)

let test_degraded_rejection_rule () =
  (* breaches without a baseline counterpart, like tracer drops *)
  let base = parse {|{"counters":[],"histograms":[]}|} in
  let cur =
    parse
      {|{"counters":[{"name":"fleet.degraded_rejections","value":2}],"histograms":[]}|}
  in
  Alcotest.(check bool) "rejections > 0 breach baseline-absent" true
    (R.has_breach (R.compare_files ~baseline:base ~current:cur));
  (* with a baseline, an unchanged soak passes (self-compare must stay
     clean) but a surge past 2x breaches *)
  Alcotest.(check bool) "unchanged rejections pass" false
    (R.has_breach
       (compare_rows {|"degraded_rejections":2|} {|"degraded_rejections":2|}));
  Alcotest.(check bool) "rejection surge breaches" true
    (R.has_breach
       (compare_rows {|"degraded_rejections":2|} {|"degraded_rejections":9|}));
  Alcotest.(check bool) "first rejection over a zero baseline breaches" true
    (R.has_breach
       (compare_rows {|"degraded_rejections":0|} {|"degraded_rejections":1|}));
  Alcotest.(check bool) "rejections = 0 pass" false
    (R.has_breach
       (compare_rows {|"degraded_rejections":0|} {|"degraded_rejections":0|}))

let test_tracer_drop_rule () =
  let base = parse {|{"counters":[],"histograms":[]}|} in
  let cur =
    parse
      {|{"counters":[{"name":"obs.trace.dropped","value":3}],"histograms":[]}|}
  in
  let r = R.compare_files ~baseline:base ~current:cur in
  (* breaches even though the baseline has no such key *)
  Alcotest.(check bool) "dropped > 0 breaches" true (R.has_breach r);
  let clean =
    parse
      {|{"counters":[{"name":"obs.trace.dropped","value":0}],"histograms":[]}|}
  in
  Alcotest.(check bool) "dropped = 0 passes" false
    (R.has_breach (R.compare_files ~baseline:base ~current:clean))

let test_one_sided_keys_ignored () =
  let base = doc {|"walks":10,"only_base":1|} in
  let cur = doc {|"walks":10,"only_cur":2|} in
  let r = R.compare_files ~baseline:base ~current:cur in
  Alcotest.(check int) "shared keys compared" 1 r.R.compared;
  Alcotest.(check int) "baseline-only counted" 1 r.R.baseline_only;
  Alcotest.(check int) "current-only counted" 1 r.R.current_only;
  Alcotest.(check int) "neither is a finding" 0 (List.length r.R.findings)

let test_render () =
  let r = compare_rows {|"p99_ns":1000|} {|"p99_ns":4000|} in
  let table = R.render_table ~baseline_path:"a.json" ~current_path:"b.json" r in
  let json =
    Jsonx.to_string
      (R.render_json ~baseline_path:"a.json" ~current_path:"b.json" r)
  in
  let contains hay sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "table names the breach" true
    (contains table "BREACH");
  Alcotest.(check bool) "table names the rule" true
    (contains table "p99 regression");
  Alcotest.(check bool) "json is an obs_report" true
    (contains json "\"kind\":\"obs_report\"");
  Alcotest.(check bool) "json counts breaches" true
    (contains json "\"breaches\":1");
  (* the rendered JSON parses back *)
  match parse json with
  | Jsonx.Obj _ -> ()
  | _ -> Alcotest.fail "render_json did not produce an object"

(* --- end-to-end: the dump and the series are domain-invariant --- *)

let test_faultsim_dump_domain_invariant () =
  let module F = Pt_service.Faultsim in
  let cfg = { F.default_config with F.seed = 3; ops = 400 } in
  let episode domains =
    let outcome = F.run { cfg with F.domains } in
    Alcotest.(check bool) "soak ends clean" true outcome.F.fsck_clean;
    Jsonx.to_string (Obs.Recorder.dump_json ~last:64 ~label:"faultsim" ())
  in
  let d1 = episode 1 in
  let d2 = episode 2 in
  Alcotest.(check bool) "dump is nonempty" true (String.length d1 > 100);
  Alcotest.(check string) "crash dump byte-identical across domains" d1 d2;
  Obs.Recorder.disarm ()

let series_json () =
  let doc = Jsonx.to_string (Jsonx.obj [ ("series", Obs.Series.to_json ()) ]) in
  String.sub doc 1 (String.length doc - 2)

let test_fleet_series_domain_invariant () =
  let module FS = Fleet.Fleet_sim in
  let tiny =
    {
      FS.quick_config with
      FS.tenants = 6;
      shards = 2;
      streams = 4;
      ops_per_tenant = 400;
      orgs = [ Pt_service.Service.Clustered ];
    }
  in
  let episode domains =
    Obs.Ambient.reset ();
    Obs.Series.reset ();
    ignore (FS.run { tiny with FS.domains });
    series_json ()
  in
  let d1 = episode 1 in
  let d4 = episode 4 in
  Alcotest.(check bool) "series is nonempty" true
    (String.length d1 > String.length "\"series\":[]");
  Alcotest.(check string) "fleet series byte-identical across domains" d1 d4;
  Obs.Recorder.disarm ()

let test_churn_series_domain_invariant () =
  let episode domains =
    Obs.Ambient.reset ();
    Obs.Series.reset ();
    ignore (Sim.Runner.churn ~domains ~seeds:1 ~ops:400 ());
    series_json ()
  in
  let d1 = episode 1 in
  let d4 = episode 4 in
  Alcotest.(check bool) "series is nonempty" true
    (String.length d1 > String.length "\"series\":[]");
  Alcotest.(check string) "churn series byte-identical across domains" d1 d4

let suite =
  ( "report",
    [
      Alcotest.test_case "flatten: metrics, outcomes, benchmarks" `Quick
        test_flatten_shapes;
      QCheck_alcotest.to_alcotest prop_bucket_quantile_matches_hist;
      Alcotest.test_case "threshold rules" `Quick test_rules;
      Alcotest.test_case "tracer drop rule" `Quick test_tracer_drop_rule;
      Alcotest.test_case "degraded rejection rule" `Quick
        test_degraded_rejection_rule;
      Alcotest.test_case "one-sided keys are ignored" `Quick
        test_one_sided_keys_ignored;
      Alcotest.test_case "renderings" `Quick test_render;
      Alcotest.test_case "faultsim dump domain-invariant" `Slow
        test_faultsim_dump_domain_invariant;
      Alcotest.test_case "fleet series domain-invariant" `Slow
        test_fleet_series_domain_invariant;
      Alcotest.test_case "churn series domain-invariant" `Slow
        test_churn_series_domain_invariant;
    ] )
