(* The telemetry layer (lib/obs): log2 histograms, the metrics
   registry, per-domain ambient shards, the ring-buffer tracer, and
   structural probes.  The load-bearing property throughout is that
   merging per-domain observations is a commutative, associative sum —
   that is what makes the merged telemetry of a parallel run equal to
   the serial run's. *)

module H = Obs.Hist
module M = Obs.Metrics

let hist_of values =
  let h = H.create () in
  List.iter (H.observe h) values;
  h

(* --- histogram bucketing and exact moments --- *)

let test_hist_buckets () =
  let h = hist_of [ 0; 1; 2; 3; 4; 7; 8; 1000 ] in
  Alcotest.(check int) "count" 8 (H.count h);
  Alcotest.(check int) "sum" 1025 (H.sum h);
  Alcotest.(check int) "min" 0 (H.min_value h);
  Alcotest.(check int) "max" 1000 (H.max_value h);
  Alcotest.(check (float 1e-9)) "mean is exact" (1025.0 /. 8.0) (H.mean h);
  let buckets = ref [] in
  H.iter_nonzero h (fun k c -> buckets := (k, c) :: !buckets);
  (* 0 | 1 | 2,3 | 4..7 | 8..15 | 512..1023 *)
  Alcotest.(check (list (pair int int)))
    "log2 bucket placement"
    [ (0, 1); (1, 1); (2, 2); (3, 2); (4, 1); (10, 1) ]
    (List.rev !buckets);
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d bounds ordered" k)
        true
        (H.bucket_lo k <= H.bucket_hi k))
    !buckets

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (H.mean h);
  Alcotest.(check bool) "equal to fresh" true (H.equal h (H.create ()));
  H.observe h 5;
  H.clear h;
  Alcotest.(check bool) "cleared = fresh" true (H.equal h (H.create ()))

(* quantiles resolve to the upper bound of the bucket holding the
   rank, clamped to the observed maximum *)
let test_hist_quantile () =
  let h = hist_of [ 0; 1; 2; 3; 4; 7; 8; 1000 ] in
  Alcotest.(check int) "p12.5 lands in bucket {0}" 0 (H.quantile h ~q:0.125);
  Alcotest.(check int) "median = hi of bucket {2,3}" 3 (H.quantile h ~q:0.5);
  Alcotest.(check int) "p100 clamps to observed max" 1000 (H.quantile h ~q:1.0);
  Alcotest.(check int)
    "p99 of 8 samples is the max rank" 1000 (H.quantile h ~q:0.99);
  let one = hist_of [ 5 ] in
  Alcotest.(check int)
    "singleton clamps below bucket hi" 5 (H.quantile one ~q:0.99);
  Alcotest.(check int) "empty histogram" 0 (H.quantile (H.create ()) ~q:0.99);
  List.iter
    (fun q ->
      Alcotest.check_raises
        (Printf.sprintf "q = %g rejected" q)
        (Invalid_argument "Hist.quantile: q must be in (0, 1]")
        (fun () -> ignore (H.quantile h ~q)))
    [ 0.0; -0.5; 1.5 ]

(* --- merge is a commutative, associative sum (satellite 3) --- *)

let small_lists =
  QCheck.(triple (list small_nat) (list small_nat) (list small_nat))

let prop_merge_commutative =
  QCheck.Test.make ~name:"hist merge is commutative" ~count:200 small_lists
    (fun (a, b, _) ->
      let ab = hist_of a and ba = hist_of b in
      H.merge_into ~src:(hist_of b) ~dst:ab;
      H.merge_into ~src:(hist_of a) ~dst:ba;
      H.equal ab ba)

let prop_merge_associative =
  QCheck.Test.make ~name:"hist merge is associative" ~count:200 small_lists
    (fun (a, b, c) ->
      (* (a + b) + c *)
      let left = hist_of a in
      H.merge_into ~src:(hist_of b) ~dst:left;
      H.merge_into ~src:(hist_of c) ~dst:left;
      (* a + (b + c) *)
      let bc = hist_of b in
      H.merge_into ~src:(hist_of c) ~dst:bc;
      let right = hist_of a in
      H.merge_into ~src:bc ~dst:right;
      H.equal left right)

let prop_shard_merge_equals_serial =
  QCheck.Test.make
    ~name:"sharded observation + merge = single-domain histogram" ~count:200
    QCheck.(pair (list small_nat) (int_range 1 8))
    (fun (values, shards) ->
      (* deal the observation stream round-robin over [shards] hists,
         exactly as streams are dealt over domains, then merge *)
      let parts = Array.init shards (fun _ -> H.create ()) in
      List.iteri (fun i v -> H.observe parts.(i mod shards) v) values;
      let merged = H.create () in
      Array.iter (fun p -> H.merge_into ~src:p ~dst:merged) parts;
      H.equal merged (hist_of values))

(* --- quantile interpolation properties (PR 9 satellite) --- *)

let nonempty_values = QCheck.(list_of_size Gen.(int_range 1 40) small_nat)

let qs = QCheck.(map (fun n -> float_of_int n /. 100.0) (int_range 1 100))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:300
    QCheck.(triple nonempty_values qs qs)
    (fun (values, qa, qb) ->
      let h = hist_of values in
      let lo = min qa qb and hi = max qa qb in
      H.quantile h ~q:lo <= H.quantile h ~q:hi)

let prop_quantile_bounded =
  QCheck.Test.make ~name:"quantile stays within [min, max]" ~count:300
    QCheck.(pair nonempty_values qs)
    (fun (values, q) ->
      let h = hist_of values in
      let v = H.quantile h ~q in
      H.min_value h <= v && v <= H.max_value h)

let prop_quantile_exact_single =
  QCheck.Test.make ~name:"quantile is exact on a single distinct value"
    ~count:300
    QCheck.(triple small_nat (int_range 1 50) qs)
    (fun (v, n, q) ->
      let h = hist_of (List.init n (fun _ -> v)) in
      H.quantile h ~q = v)

(* --- metrics registry --- *)

let test_metrics_equal_ignores_zero () =
  let a = M.create () and b = M.create () in
  ignore (M.counter a "touched.but.zero");
  ignore (M.hist a "empty.hist");
  Alcotest.(check bool)
    "zero counters and empty hists don't break equality" true (M.equal a b);
  M.incr (M.counter a "x");
  Alcotest.(check bool) "nonzero counter breaks it" false (M.equal a b)

let test_metrics_merge_and_json () =
  let a = M.create () and b = M.create () in
  M.add (M.counter a "b.counter") 2;
  M.incr (M.counter a "a.counter");
  H.observe (M.hist a "h") 3;
  M.add (M.counter b "b.counter") 5;
  H.observe (M.hist b "h") 3;
  M.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "merged counter" 7 (M.value (M.counter a "b.counter"));
  Alcotest.(check int) "merged hist" 2 (H.count (M.hist a "h"));
  let json = Jsonx.to_string (Jsonx.obj (M.json_fields a)) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    "counter emitted" true
    (contains "{\"name\":\"b.counter\",\"value\":7}");
  Alcotest.(check bool)
    "hist emitted with exact moments" true
    (contains "{\"name\":\"h\",\"count\":2,\"sum\":6,\"min\":3,\"max\":3");
  (* names sorted: a.counter before b.counter *)
  let idx sub =
    let n = String.length sub in
    let rec go i = if String.sub json i n = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool)
    "counters sorted by name" true
    (idx "a.counter" < idx "b.counter")

(* --- ambient shards: per-domain, merged after join --- *)

let test_ambient_parallel_merge () =
  Obs.Ambient.reset ();
  let domains =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            let shard = Obs.Ambient.get () in
            M.add (M.counter shard "test.ambient.ctr") (i + 1);
            H.observe (M.hist shard "test.ambient.hist") i))
  in
  Array.iter Domain.join domains;
  let merged = Obs.Ambient.merged () in
  Alcotest.(check int)
    "counter summed over shards" 10
    (M.value (M.counter merged "test.ambient.ctr"));
  let h = M.hist merged "test.ambient.hist" in
  Alcotest.(check int) "hist count" 4 (H.count h);
  Alcotest.(check int) "hist sum" 6 (H.sum h);
  Alcotest.(check bool)
    "equals the serial histogram" true
    (H.equal h (hist_of [ 0; 1; 2; 3 ]));
  Obs.Ambient.reset ()

(* --- tracer: one-branch when off, bounded ring when on --- *)

let test_tracer_ring () =
  Obs.Tracer.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.Tracer.enabled ());
  Obs.Tracer.instant Obs.Tracer.ev_walk_read 8;
  Alcotest.(check int) "disabled emit records nothing" 0
    (Obs.Tracer.event_count ());
  Obs.Tracer.enable ~capacity:8 ();
  for i = 1 to 2 do
    Obs.Tracer.begin_ Obs.Tracer.ev_miss i;
    Obs.Tracer.instant Obs.Tracer.ev_walk_read (8 * i);
    Obs.Tracer.end_ Obs.Tracer.ev_miss
  done;
  Alcotest.(check int) "six events recorded" 6 (Obs.Tracer.event_count ());
  Alcotest.(check int) "no drops yet" 0 (Obs.Tracer.dropped_count ());
  for _ = 1 to 14 do
    Obs.Tracer.instant Obs.Tracer.ev_churn_touch 1
  done;
  Alcotest.(check int)
    "ring wraps at capacity" 8
    (Obs.Tracer.event_count ());
  Alcotest.(check int) "drops counted" 12 (Obs.Tracer.dropped_count ());
  let json = Jsonx.to_string (Obs.Tracer.to_chrome_json ()) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "chrome JSON has %s" field)
        true (contains field))
    [ "\"traceEvents\""; "\"ph\""; "\"ts\""; "\"pid\""; "\"tid\"";
      "\"churn_touch\"" ];
  Obs.Tracer.disable ();
  Obs.Tracer.reset ();
  Alcotest.(check int) "reset drops events" 0 (Obs.Tracer.event_count ())

(* a saturated tracer ring must be visible in the exported metrics,
   not only the trace summary — the report gate breaches on it *)
let test_tracer_drop_counter () =
  Obs.Tracer.reset ();
  Obs.Tracer.enable ~capacity:8 ();
  for _ = 1 to 20 do
    Obs.Tracer.instant Obs.Tracer.ev_churn_touch 1
  done;
  Alcotest.(check int) "ring dropped the overflow" 12
    (Obs.Tracer.dropped_count ());
  let m = M.create () in
  Obs.Tracer.export_drop_counter m;
  Alcotest.(check int)
    "obs.trace.dropped mirrors the ring's tally"
    (Obs.Tracer.dropped_count ())
    (M.value (M.counter m "obs.trace.dropped"));
  Obs.Tracer.disable ();
  Obs.Tracer.reset ()

(* --- OpenMetrics exposition --- *)

let contains_sub hay sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1))
  in
  go 0

let test_openmetrics () =
  let m = M.create () in
  M.add (M.counter m "fleet.touch.1") 7;
  H.observe (M.hist m "walk.lines") 3;
  H.observe (M.hist m "walk.lines") 3;
  H.observe (M.hist m "walk.lines") 9;
  let text = M.to_openmetrics m in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition has %S" line)
        true
        (contains_sub text (line ^ "\n")))
    [
      "# TYPE ptsim_fleet_touch_1 counter";
      "ptsim_fleet_touch_1_total 7";
      "# TYPE ptsim_walk_lines histogram";
      (* log2 buckets, cumulative: {2,3} holds both 3s, {8..15} adds 9 *)
      "ptsim_walk_lines_bucket{le=\"3\"} 2";
      "ptsim_walk_lines_bucket{le=\"15\"} 3";
      "ptsim_walk_lines_bucket{le=\"+Inf\"} 3";
      "ptsim_walk_lines_sum 15";
      "ptsim_walk_lines_count 3";
    ];
  Alcotest.(check bool)
    "terminated by # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n")

(* --- the flight recorder ring --- *)

let record_n stream n =
  for i = 1 to n do
    Obs.Recorder.record ~stream ~kind:Obs.Recorder.k_insert ~asid:stream
      ~vpn:(100 + i) ~pages:1 ~lock:Obs.Recorder.l_striped ~attempt:0 ~fault:0
      ~lat:i
  done

let test_recorder_ring () =
  Obs.Recorder.disarm ();
  record_n 0 3;
  Alcotest.(check int) "disarmed record is a no-op" 0
    (Obs.Recorder.event_count ());
  Obs.Recorder.arm ~streams:2 ~capacity:4;
  Alcotest.(check bool) "armed" true (Obs.Recorder.armed ());
  record_n 0 6;
  record_n 1 2;
  (* stream 0 wrapped: 4 retained of 6 recorded; stream 1 kept both *)
  Alcotest.(check int) "retained = min(total, cap) per ring" 6
    (Obs.Recorder.event_count ());
  let dump = Jsonx.to_string (Obs.Recorder.dump_json ~label:"test" ()) in
  Alcotest.(check bool)
    "dump reports all recorded events" true
    (contains_sub dump "\"recorded\":6");
  Alcotest.(check bool)
    "oldest surviving stream-0 event is vpn 103" true
    (contains_sub dump "{\"kind\":\"insert\",\"asid\":0,\"vpn\":103");
  Alcotest.(check bool)
    "overwritten head is gone" false
    (contains_sub dump "\"asid\":0,\"vpn\":102");
  (* out-of-range streams are dropped, not an error *)
  record_n 9 1;
  Alcotest.(check int) "out-of-range stream ignored" 6
    (Obs.Recorder.event_count ());
  let tail =
    Jsonx.to_string (Obs.Recorder.dump_json ~last:1 ~label:"test" ())
  in
  Alcotest.(check bool)
    "?last keeps only the newest per stream" true
    (contains_sub tail "\"vpn\":106" && not (contains_sub tail "\"vpn\":105"));
  Obs.Recorder.disarm ();
  Alcotest.(check bool) "disarmed again" false (Obs.Recorder.armed ())

let test_recorder_dump_deterministic () =
  let episode () =
    Obs.Recorder.arm ~streams:3 ~capacity:8;
    record_n 0 12;
    record_n 2 5;
    Jsonx.to_string (Obs.Recorder.dump_json ~last:4 ~label:"episode" ())
  in
  let a = episode () in
  let b = episode () in
  Alcotest.(check string) "same events => byte-identical dump" a b;
  Obs.Recorder.disarm ()

(* --- the per-phase series sampler --- *)

let series_json () =
  let doc = Jsonx.to_string (Jsonx.obj [ ("series", Obs.Series.to_json ()) ]) in
  String.sub doc 1 (String.length doc - 2)

let count_sub hay sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length hay then acc
    else go (i + 1) (if String.sub hay i n = sub then acc + 1 else acc)
  in
  go 0 0

let test_series_push_and_mark () =
  Obs.Ambient.reset ();
  Obs.Series.reset ();
  Obs.Series.push ~label:"churn:test" ~index:0 [ ("churn.live_pages", 10) ];
  Obs.Series.push ~label:"churn:test" ~index:16 [ ("churn.live_pages", 14) ];
  M.add (Obs.Ambient.counter "test.series.ops") 5;
  H.observe (Obs.Ambient.hist "test.series.cost") 4;
  Obs.Series.mark ~label:"fleet:test" ~index:0;
  M.add (Obs.Ambient.counter "test.series.ops") 3;
  Obs.Series.mark ~label:"fleet:test" ~index:1;
  (* timing metrics never enter a series *)
  M.add (Obs.Ambient.counter "test.op_ns.skipme") 99;
  Obs.Series.mark ~label:"fleet:test" ~index:2;
  let json = series_json () in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "series has %s" sub)
        true (contains_sub json sub))
    [
      "\"series\":[";
      "{\"label\":\"churn:test\"";
      "{\"name\":\"churn.live_pages\",\"delta\":14}";
      "{\"label\":\"fleet:test\"";
      (* mark 0: cumulative 5; mark 1: delta 3 *)
      "{\"name\":\"test.series.ops\",\"delta\":5}";
      "{\"name\":\"test.series.ops\",\"delta\":3}";
      "{\"name\":\"test.series.cost\",\"p50\":4,\"p90\":4,\"p99\":4}";
    ];
  Alcotest.(check bool) "timing counters excluded" false
    (contains_sub json "op_ns");
  Obs.Series.reset ();
  Obs.Ambient.reset ();
  Alcotest.(check string) "reset empties the series" "\"series\":[]"
    (series_json ())

let test_series_downsample () =
  Obs.Series.reset ();
  for i = 0 to 199 do
    Obs.Series.push ~label:"dense" ~index:i [ ("v", i) ]
  done;
  Alcotest.(check int) "all points retained internally" 200
    (Obs.Series.point_count ());
  let json = series_json () in
  let points = count_sub json "{\"i\":" in
  Alcotest.(check bool)
    (Printf.sprintf "downsampled to <= 65 points (got %d)" points)
    true
    (points <= 65);
  Alcotest.(check bool) "first point kept" true (contains_sub json "{\"i\":0,");
  Alcotest.(check bool)
    "final point kept" true
    (contains_sub json "{\"i\":199,");
  Obs.Series.reset ()

(* --- structural probes --- *)

let attr = Pte.Attr.default

let test_probe_hashed () =
  let t = Baselines.Hashed_pt.create ~buckets:64 () in
  (* 200 mappings over 64 buckets: every bucket observed, mean chain =
     nodes/buckets *)
  for i = 0 to 199 do
    Baselines.Hashed_pt.insert_base t ~vpn:(Int64.of_int (i * 97))
      ~ppn:(Int64.of_int i) ~attr
  done;
  let r = Obs.Probe.table (module Baselines.Hashed_pt) t in
  Alcotest.(check int)
    "one chain observation per bucket" 64
    (H.count r.Obs.Probe.chain_length);
  Alcotest.(check int)
    "chains sum to node count"
    (Baselines.Hashed_pt.node_count t)
    (H.sum r.Obs.Probe.chain_length);
  Alcotest.(check int)
    "occupancy sums to population" 200
    (H.sum r.Obs.Probe.occupancy);
  Alcotest.(check int)
    "one utilization observation per node"
    (Baselines.Hashed_pt.node_count t)
    (H.count r.Obs.Probe.node_util);
  Alcotest.(check (float 1e-9))
    "mean chain = load factor"
    (Baselines.Hashed_pt.load_factor t)
    (H.mean r.Obs.Probe.chain_length)

let test_probe_clustered () =
  let t =
    Clustered_pt.Table.create (Clustered_pt.Config.make ~buckets:64 ())
  in
  (* 30 full blocks of 16 base pages: 30 nodes, 480 mappings, every
     node fully utilized *)
  for b = 0 to 29 do
    for off = 0 to 15 do
      let vpn = Int64.of_int ((b * 41 * 16) + off) in
      Clustered_pt.Table.insert_base t ~vpn ~ppn:vpn ~attr
    done
  done;
  let r = Obs.Probe.table (module Clustered_pt.Table) t in
  Alcotest.(check int)
    "one chain observation per bucket" 64
    (H.count r.Obs.Probe.chain_length);
  Alcotest.(check int)
    "chains sum to node count"
    (Clustered_pt.Table.node_count t)
    (H.sum r.Obs.Probe.chain_length);
  Alcotest.(check int)
    "occupancy sums to mappings" 480
    (H.sum r.Obs.Probe.occupancy);
  Alcotest.(check int)
    "full blocks fully utilized" 16
    (H.min_value r.Obs.Probe.node_util);
  Alcotest.(check int) "node_util max" 16 (H.max_value r.Obs.Probe.node_util)

(* --- the inspect acceptance: measured chain mean within 5% of the
   analytic load factor, per Table 1 workload --- *)

let inspect_options =
  { Sim.Runner.default_options with Sim.Runner.quick = true }

let test_inspect_matches_analytic () =
  List.iter
    (fun org ->
      let rows = Sim.Runner.inspect ~options:inspect_options ~org () in
      Alcotest.(check bool) "has rows" true (rows <> []);
      List.iter
        (fun (row : Sim.Runner.inspect_row) ->
          let rel =
            abs_float (row.Sim.Runner.ins_chain_mean -. row.Sim.Runner.ins_alpha)
            /. row.Sim.Runner.ins_alpha
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s chain mean %.4f within 5%% of alpha %.4f"
               row.Sim.Runner.ins_workload row.Sim.Runner.ins_chain_mean
               row.Sim.Runner.ins_alpha)
            true (rel <= 0.05))
        rows)
    [ `Clustered; `Hashed ]

let suite =
  ( "obs",
    [
      Alcotest.test_case "hist bucketing and moments" `Quick test_hist_buckets;
      Alcotest.test_case "hist empty and clear" `Quick test_hist_empty;
      Alcotest.test_case "hist quantile" `Quick test_hist_quantile;
      QCheck_alcotest.to_alcotest prop_quantile_monotone;
      QCheck_alcotest.to_alcotest prop_quantile_bounded;
      QCheck_alcotest.to_alcotest prop_quantile_exact_single;
      QCheck_alcotest.to_alcotest prop_merge_commutative;
      QCheck_alcotest.to_alcotest prop_merge_associative;
      QCheck_alcotest.to_alcotest prop_shard_merge_equals_serial;
      Alcotest.test_case "metrics equality ignores zeros" `Quick
        test_metrics_equal_ignores_zero;
      Alcotest.test_case "metrics merge and JSON" `Quick
        test_metrics_merge_and_json;
      Alcotest.test_case "ambient shards merge to serial" `Quick
        test_ambient_parallel_merge;
      Alcotest.test_case "tracer ring wrap and export" `Quick test_tracer_ring;
      Alcotest.test_case "tracer drop counter exported" `Quick
        test_tracer_drop_counter;
      Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
      Alcotest.test_case "recorder ring wrap and dump" `Quick
        test_recorder_ring;
      Alcotest.test_case "recorder dump is deterministic" `Quick
        test_recorder_dump_deterministic;
      Alcotest.test_case "series push, mark and reset" `Quick
        test_series_push_and_mark;
      Alcotest.test_case "series downsampling" `Quick test_series_downsample;
      Alcotest.test_case "probe hashed structure" `Quick test_probe_hashed;
      Alcotest.test_case "probe clustered structure" `Quick
        test_probe_clustered;
      Alcotest.test_case "inspect matches analytic load factor" `Slow
        test_inspect_matches_analytic;
    ] )
