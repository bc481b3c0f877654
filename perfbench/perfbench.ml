(* perfbench: the layer-cost benchmark.

   perfbench --workload tlb-walk|fleet-churn|durable-churn --seed N
             --seconds S --trace 0|1 [--size full|tiny] [--out DIR]

   One client, one process, one domain, no think time.  --trace 0 runs
   the workload and reports the end-to-end metrics; --trace 1 runs it
   again with every layer call timed, replays its op stream through the
   rungs and reports the per-layer metrics, writing the spans it kept
   to DIR.  The last line of standard output is one JSON object; the
   exit code is 1 when any correctness gate failed. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("heap_peak_mb", "MB");
    ("lines_per_miss", "lines");
    ("pt_bytes_per_page", "bytes");
    ("range_p50_us", "us");
    ("range_p99_us", "us");
    ("touch_p50_ns", "ns");
    ("touch_p99_ns", "ns");
  ]

(* A layer the workload does not run reports 0. *)
let per_layer =
  [
    ("tlb.access_ns", "ns");
    ("tlb.fill_ns", "ns");
    ("tlb.words_per_access", "words");
    ("tlb.miss_ratio", "ratio");
    ("core.walk_ns", "ns");
    ("core.walk_words", "words");
    ("core.walk_probes", "count");
    ("core.walk_lines", "lines");
    ("core.range_ns_per_page", "ns");
    ("baselines.hashed_walk_ns", "ns");
    ("baselines.hashed_walk_lines", "lines");
    ("mem.line_count_ns", "ns");
    ("service.range_ns_per_page", "ns");
    ("service.overhead_ns_per_page", "ns");
    ("service.range_words_per_page", "words");
    ("service.find_ns", "ns");
    ("service.write_sections_per_page", "count");
    ("service.seqlock_retries", "count");
    ("service.seqlock_fallbacks", "count");
    ("fleet.dispatch_ns", "ns");
    ("fleet.find_overhead_ns", "ns");
    ("durable.wal_append_ns", "ns");
    ("durable.submit_overhead_ns", "ns");
    ("durable.checkpoint_ms", "ms");
    ("durable.checkpoint_share", "ratio");
    ("durable.replayed_records", "count");
    ("durable.restored_mappings", "count");
    ("durable.recover_ns_per_mapping", "ns");
    ("durable.wal_bytes_per_page", "bytes");
    ("durable.recovery_p50_ms", "ms");
    ("workload.trace_gen_s", "s");
    ("dynamics.churn_gen_s", "s");
    ("sim.populate_s", "s");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.ops_per_s", "ops/s");
    ("trace.untraced_ops_per_s", "ops/s");
    ("trace.overhead_frac", "ratio");
  ]

let workloads = [ "tlb-walk"; "fleet-churn"; "durable-churn" ]

(* trace accesses per tlb-walk set; churn stream shape *)
type size = { length : int; churn : Churn.size }

let size_of = function
  | "full" ->
      {
        length = 200_000;
        churn = { ops_per_tenant = 1_500; checkpoint_every = 200 };
      }
  | "tiny" ->
      {
        length = 5_000;
        churn = { ops_per_tenant = 150; checkpoint_every = 20 };
      }
  | s -> failwith ("unknown --size " ^ s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_gc_settings () =
  let g = Gc.get () in
  Printf.printf
    "# gc settings: minor_heap_size=%d words space_overhead=%d \
     max_overhead=%d window_size=%d custom_major_ratio=%d OCAMLRUNPARAM=%s\n"
    g.minor_heap_size g.space_overhead g.max_overhead g.window_size
    g.custom_major_ratio
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"<unset>")

(* Run one workload; prints its report and returns its JSON line. *)
let run_workload name ~seed ~seconds ~traced ~size ~out =
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" name
    seed seconds (if traced then 1 else 0);
  let r = Meter.result () in
  let names, run =
    match name with
    | "tlb-walk" -> (Tlb_walk.names, Tlb_walk.run ~length:size.length)
    | "fleet-churn" ->
        (Churn.span_names Churn.Fleet, Churn.run Churn.Fleet ~size:size.churn)
    | _ ->
        ( Churn.span_names Churn.Durable,
          Churn.run Churn.Durable ~size:size.churn )
  in
  let spans = Meter.Spans.create ~capacity:(1 lsl 16) ~names in
  (try run ~seed ~seconds ~traced ~spans r
   with e -> Meter.fail r ("workload raised " ^ Printexc.to_string e));
  let catalogue =
    if traced then per_layer
    else begin
      Meter.set r "heap_peak_mb" (Meter.heap_peak_mb ());
      end_to_end
    end
  in
  if traced then begin
    mkdir_p out;
    let path =
      Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" name seed)
    in
    Meter.Spans.write spans path;
    Printf.printf "# spans: %d kept, %d dropped, written to %s\n"
      (Meter.Spans.length spans) (Meter.Spans.dropped spans) path
  end;
  List.iter print_endline (List.rev r.notes);
  List.iter (Printf.printf "FAILED: %s\n") (List.rev r.failures);
  let value m = Option.value (Hashtbl.find_opt r.metrics m) ~default:0. in
  let failed_frac =
    Meter.ratio (float_of_int r.failed) (float_of_int (max 1 r.attempted))
  in
  List.iter
    (fun (m, v, unit) -> Printf.printf "metric  %s = %.6g %s\n" m v unit)
    (List.map (fun (m, unit) -> (m, value m, unit)) catalogue
    @ List.rev r.extra
    @ [ ("failed_frac", failed_frac, "fraction") ]);
  let metrics =
    List.map
      (fun (m, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m
          (json_float (value m)) unit)
      catalogue
  in
  let json =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (r.failed = 0) (max 1 r.attempted) r.failed
      (String.concat ", " metrics)
  in
  (r.failed = 0, json)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and size = ref "full" and out = ref ".bench_build/spans" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " tlb-walk|fleet-churn|durable-churn" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per run");
      ( "--trace",
        Arg.Set_int trace,
        " 0: end-to-end metrics, 1: per-layer metrics" );
      ("--size", Arg.Set_string size, " full|tiny");
      ("--out", Arg.Set_string out, " directory for span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench [options]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  print_gc_settings ();
  let ok, json =
    run_workload !workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
      ~size:(size_of !size) ~out:!out
  in
  print_endline json;
  exit (if ok then 0 else 1)
