(* ptsim: reproduce the tables and figures of "A New Page Table for
   64-bit Address Spaces" (Talluri, Hill, Khalidi; SOSP '95). *)

open Cmdliner

let options seed length placement quick csv =
  Sim.Report.set_csv_dir csv;
  {
    Sim.Runner.seed = Int64.of_int seed;
    length;
    placement_p = placement;
    quick;
  }

let options_term =
  let seed =
    Arg.(
      value
      & opt int 0x19955051
      & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for all generators.")
  in
  let length =
    Arg.(
      value
      & opt int 80_000
      & info [ "length" ] ~docv:"N" ~doc:"Trace accesses per workload.")
  in
  let placement =
    Arg.(
      value
      & opt float 0.95
      & info [ "placement" ] ~docv:"P"
          ~doc:
            "Probability a page block's physical reservation succeeds \
             (memory-pressure model).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Run trace experiments on three workloads only.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write every table as CSV into $(docv).")
  in
  Term.(const options $ seed $ length $ placement $ quick $ csv)

let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= 1 -> Ok d
    | Some _ -> Error (`Msg "domain count must be >= 1")
    | None -> Error (`Msg (Printf.sprintf "invalid domain count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* The CLI contract for enum-valued flags, generalized from
   throughput's --locking: an unknown value names the offending token
   and the accepted set on stderr and exits 2 — never cmdliner's
   generic usage error, never a silent fallback to a mode that was not
   asked for.  Pinned by test/cli/ptsim_errors.t. *)
let strict_enum ~flag ~cmd choices =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None ->
        Printf.eprintf "unknown %s %S for %s (have: %s)\n%!" flag s cmd
          (String.concat ", " (List.map fst choices));
        exit 2
  in
  let print ppf v =
    match List.find_opt (fun (_, w) -> w = v) choices with
    | Some (n, _) -> Format.pp_print_string ppf n
    | None -> ()
  in
  Arg.conv (parse, print)

(* a count that must be >= 1, under the same contract: zero or garbage
   is named on stderr, never run as a soak that does nothing or never
   ends *)
let positive_int ~what ~cmd =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Printf.eprintf "invalid %s %S for %s (want an integer >= 1)\n%!" what
          s cmd;
        exit 2
  in
  Arg.conv (parse, Format.pp_print_int)

(* comma-separated fault sites, under the same contract *)
let strict_sites ~cmd =
  let have = String.concat ", " (List.map Fault.site_name Fault.all_sites) in
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          let n = String.trim n in
          match Fault.site_of_name n with
          | Some site -> go (site :: acc) rest
          | None ->
              Printf.eprintf "unknown site %S for %s (have: %s)\n%!" n cmd
                have;
              exit 2)
    in
    go [] (String.split_on_char ',' s)
  in
  let print ppf sites =
    Format.pp_print_string ppf
      (String.concat "," (List.map Fault.site_name sites))
  in
  Arg.conv (parse, print)

let domains_term =
  Arg.(
    value
    & opt (some domains_conv) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains for the experiment pool (default: the host's \
           recommended count; 1 runs the serial path).  Results are \
           identical for every value.")

(* the run header: which pool the experiments fan out over *)
let announce_pool domains =
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  Printf.printf "domain pool: %d domain%s (host recommends %d)\n%!" n
    (if n = 1 then "" else "s")
    (Domain.recommended_domain_count ())

let run_table1 options domains =
  announce_pool domains;
  ignore (Sim.Runner.table1 ~options ?domains ())

let run_figure9 options domains =
  announce_pool domains;
  ignore (Sim.Runner.figure9 ~options ?domains ())

let run_figure10 options domains =
  announce_pool domains;
  ignore (Sim.Runner.figure10 ~options ?domains ())

let design_conv =
  strict_enum ~flag:"tlb" ~cmd:"figure11"
    [
      ("single", Sim.Access_exp.Single);
      ("superpage", Sim.Access_exp.Superpage);
      ("psb", Sim.Access_exp.Psb);
      ("csb", Sim.Access_exp.Csb);
      ("a", Sim.Access_exp.Single);
      ("b", Sim.Access_exp.Superpage);
      ("c", Sim.Access_exp.Psb);
      ("d", Sim.Access_exp.Csb);
    ]

let run_figure11 options domains design =
  announce_pool domains;
  ignore (Sim.Runner.figure11 ~options ?domains ~design ())

let run_table2 options domains =
  announce_pool domains;
  Sim.Runner.table2 ~options ?domains ()

let run_ablations options domains =
  announce_pool domains;
  ignore (Sim.Runner.ablation_line_size ~options ?domains ());
  Sim.Runner.ablation_subblock ~options ?domains ();
  ignore (Sim.Runner.ablation_buckets ~options ?domains ());
  ignore (Sim.Runner.ablation_residency ~options ?domains ());
  Sim.Runner.ablation_reverse_order ~options ?domains ();
  ignore (Sim.Runner.ablation_asid ~options ?domains ());
  Sim.Runner.ablation_placement ~options ?domains ();
  Sim.Runner.ablation_tlb_size ~options ?domains ();
  Sim.Runner.ablation_software_tlb ~options ();
  Sim.Runner.ablation_shared_table ~options ?domains ();
  Sim.Runner.ablation_guarded ~options ?domains ();
  Sim.Runner.ablation_nested_linear ~options ?domains ();
  Sim.Runner.ablation_variable_factor ~options ?domains ();
  Sim.Runner.ablation_replacement ~options ?domains ();
  Sim.Runner.extension_future64 ~options ?domains ()

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* the churn and throughput result files are read by people as well
   as tools, so they are indented *)
let write_json_file path v =
  write_file path (Jsonx.to_string ~layout:Indented v ^ "\n")

let run_churn options domains ops seeds procs sample json =
  announce_pool domains;
  let rows =
    Sim.Runner.churn ~options ?domains ~seeds ~ops ~procs
      ~sample_every:sample ()
  in
  match json with
  | None -> ()
  | Some path ->
      write_json_file path
        (Jsonx.obj
           [
             ("schema_version", Jsonx.int 2);
             ("experiment", Jsonx.string "churn"); ("ops", Jsonx.int ops);
             ("seeds", Jsonx.int seeds);
             ("rows", Jsonx.list (List.map Sim.Runner.churn_row_to_json rows));
           ]);
      Printf.printf "\nwrote %s\n%!" path

let run_throughput domains_list streams ops vpns seed org lockings json =
  let orgs =
    match org with
    | `All -> [ Pt_service.Service.Clustered; Pt_service.Service.Hashed ]
    | `One o -> [ o ]
  in
  let pairs =
    List.concat_map (fun o -> List.map (fun l -> (o, l)) lockings) orgs
  in
  let rows =
    Sim.Runner.throughput ~domains_list ~streams ~ops_per_domain:ops
      ~vpns_per_domain:vpns ~seed ~pairs ()
  in
  match json with
  | None -> ()
  | Some path ->
      write_json_file path
        (Jsonx.obj
           [
             ("schema_version", Jsonx.int 2);
             ("experiment", Jsonx.string "throughput");
             ("ops_per_domain", Jsonx.int ops);
             ("vpns_per_domain", Jsonx.int vpns); ("seed", Jsonx.int seed);
             ( "rows",
               Jsonx.list (List.map Sim.Runner.throughput_row_to_json rows) );
           ]);
      Printf.printf "\nwrote %s\n%!" path

let run_all options domains =
  announce_pool domains;
  Sim.Runner.all ~options ?domains ();
  ignore (Sim.Runner.churn_for_suite ~options ?domains ());
  ignore (Sim.Runner.throughput_for_suite ~options ())

let run_verify options domains =
  announce_pool domains;
  if not (Sim.Runner.verify ~options ?domains ()) then exit 1

let run_workload options name =
  match Workload.Table1.find name with
  | None ->
      Printf.eprintf "unknown workload %S; try one of: %s\n" name
        (String.concat ", "
           (List.map
              (fun s -> s.Workload.Spec.name)
              Workload.Table1.all_with_kernel));
      exit 1
  | Some spec ->
      let snap = Workload.Snapshot.generate spec ~seed:options.Sim.Runner.seed in
      Printf.printf "workload %s: %d processes, %d pages (hashed PT %.1fKB)\n"
        spec.Workload.Spec.name
        (List.length snap.Workload.Snapshot.procs)
        (Workload.Snapshot.total_pages snap)
        (float_of_int (Workload.Snapshot.total_pages snap) *. 24.0 /. 1024.0);
      List.iter
        (fun proc ->
          let pages = Workload.Snapshot.proc_pages proc in
          let blocks = Workload.Snapshot.active_blocks ~subblock_factor:16 proc in
          let dense = Array.length (Workload.Snapshot.dense_runs proc) in
          let chunks = Array.length (Workload.Snapshot.chunk_runs proc) in
          Printf.printf
            "  %-10s %5d pages in %4d blocks (%.1f pages/block): %d dense \
             runs, %d chunks\n"
            proc.Workload.Snapshot.pname pages blocks
            (float_of_int pages /. float_of_int blocks)
            dense chunks)
        snap.Workload.Snapshot.procs;
      let trace =
        Workload.Trace.generate spec snap
          ~seed:(Int64.add options.Sim.Runner.seed 0x77L)
          ~length:options.Sim.Runner.length
      in
      Printf.printf
        "trace: %d accesses over %d distinct pages (locality %.2f, %s)\n"
        (Workload.Trace.accesses trace)
        (Workload.Trace.distinct_pages trace)
        spec.Workload.Spec.locality
        (match spec.Workload.Spec.trace with
        | Workload.Spec.Array_sweep -> "array sweep"
        | Workload.Spec.Pointer_chase -> "pointer chase"
        | Workload.Spec.Join -> "nested-loop join"
        | Workload.Spec.Gc_scan -> "GC scan"
        | Workload.Spec.Multiprog -> "multiprogrammed")

let run_dump options name dir =
  match Workload.Table1.find name with
  | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 1
  | Some spec ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let snap = Workload.Snapshot.generate spec ~seed:options.Sim.Runner.seed in
      let trace =
        Workload.Trace.generate spec snap
          ~seed:(Int64.add options.Sim.Runner.seed 0x77L)
          ~length:options.Sim.Runner.length
      in
      let snap_path = Filename.concat dir (name ^ ".snapshot") in
      let trace_path = Filename.concat dir (name ^ ".trace") in
      Workload.Snapshot.save snap snap_path;
      Workload.Trace.save trace trace_path;
      Printf.printf "wrote %s (%d pages) and %s (%d accesses)\n" snap_path
        (Workload.Snapshot.total_pages snap)
        trace_path
        (Workload.Trace.accesses trace)

let run_replay options snap_path trace_path =
  let snap = Workload.Snapshot.load snap_path in
  let trace = Workload.Trace.load trace_path in
  Printf.printf "replaying %s: %d pages, %d accesses\n\n"
    snap.Workload.Snapshot.workload
    (Workload.Snapshot.total_pages snap)
    (Workload.Trace.accesses trace);
  let assignments =
    List.mapi
      (fun i proc ->
        Sim.Builder.assign proc
          ~placement_p:options.Sim.Runner.placement_p
          ~seed:(Int64.add options.Sim.Runner.seed (Int64.of_int (i + 1)))
          ())
      snap.Workload.Snapshot.procs
    |> Array.of_list
  in
  let kinds =
    [
      Sim.Factory.Linear1;
      Sim.Factory.Forward_mapped;
      Sim.Factory.Hashed;
      Sim.Factory.clustered16;
      Sim.Factory.Clustered_variable;
    ]
  in
  let build kind =
    Array.map
      (fun a ->
        let pt = Sim.Factory.make kind in
        Sim.Builder.populate pt a ~policy:`Base;
        pt)
      assignments
  in
  let reference = build Sim.Factory.clustered16 in
  (* record the 64-entry single-page-size miss stream once *)
  let tlb = Tlb.Intf.fa ~entries:64 () in
  let misses = ref [] in
  Array.iter
    (function
      | Workload.Trace.Switch _ -> Tlb.Intf.flush tlb
      | Workload.Trace.Access (proc, vpn) -> (
          match Tlb.Intf.access tlb ~vpn with
          | `Hit -> ()
          | `Block_miss | `Subblock_miss -> (
              misses := (proc, vpn) :: !misses;
              match Pt_common.Intf.lookup reference.(proc) ~vpn with
              | Some tr, _ -> Tlb.Intf.fill tlb tr
              | None, _ -> ()))
      | _ -> ())
    trace;
  let misses = List.rev !misses in
  let n = List.length misses in
  Printf.printf "%d TLB misses (64-entry conventional TLB)\n" n;
  List.iter
    (fun kind ->
      let tables = build kind in
      let counter = Mem.Cache_model.create_counter () in
      List.iter
        (fun (proc, vpn) ->
          let _, w = Pt_common.Intf.lookup tables.(proc) ~vpn in
          ignore
            (Mem.Cache_model.record_walk counter w.Pt_common.Types.accesses))
        misses;
      let size =
        Array.fold_left
          (fun acc pt -> acc + Pt_common.Intf.size_bytes pt)
          0 tables
      in
      Printf.printf "  %-14s %8.1fKB   %.2f lines/miss\n"
        (Sim.Factory.name kind)
        (float_of_int size /. 1024.0)
        (Mem.Cache_model.mean_lines counter))
    kinds

let run_inspect options domains org =
  announce_pool domains;
  ignore (Sim.Runner.inspect ~options ?domains ~org ())

(* --- fsck / faultsim: breaking the table on purpose --- *)

(* A deterministic demo population with every representation the
   checker knows: base pages, one-block and multi-block superpages
   (the latter give torn_replica a site), and partial subblocks. *)
let fsck_build org seed =
  let buckets = 512 and subblock_factor = 16 in
  let rand i =
    Addr.Bits.mix64 (Int64.logxor (Int64.of_int seed) (Int64.of_int (i + 1)))
  in
  let attr = Pte.Attr.default in
  let populate (type a) (module T : Pt_common.Intf.CONCURRENT_TABLE
      with type t = a) (t : a) =
    for i = 0 to 383 do
      let r = rand i in
      let vpn = Int64.logand r 0xFFFFL in
      let ppn = Int64.logand (Int64.shift_right_logical r 16) 0xFFFFFL in
      T.insert_base t ~vpn ~ppn ~attr
    done;
    Pt_common.Intf.Concurrent ((module T), t)
  in
  match org with
  | Pt_service.Service.Clustered ->
      let t =
        Clustered_pt.Table.create
          (Clustered_pt.Config.make ~buckets ~subblock_factor ())
      in
      let table = populate (module Clustered_pt.Table) t in
      Clustered_pt.Table.insert_superpage t ~vpn:0x40000L
        ~size:Addr.Page_size.kb64 ~ppn:0x1000L ~attr;
      Clustered_pt.Table.insert_superpage t ~vpn:0x80000L
        ~size:Addr.Page_size.kb256 ~ppn:0x2000L ~attr;
      Clustered_pt.Table.insert_psb t ~vpbn:0x3000L ~vmask:0b101
        ~ppn:0x4000L ~attr;
      table
  | Pt_service.Service.Hashed ->
      populate
        (module Baselines.Hashed_pt)
        (Baselines.Hashed_pt.create ~buckets ~subblock_factor
           ~mode:Baselines.Hashed_pt.No_superpages ())

let run_fsck seed org corruptions repair json =
  let table = fsck_build org seed in
  List.iter
    (fun kind ->
      if not (List.mem kind (Fsck.corruption_kinds table)) then (
        Printf.eprintf "unknown corruption %S for %s (have: %s)\n%!" kind
          (Pt_service.Service.org_name org)
          (String.concat ", " (Fsck.corruption_kinds table));
        exit 2);
      if not (Fsck.corrupt_by_name table kind) then
        Printf.eprintf "corruption %S found no applicable site\n%!" kind)
    corruptions;
  let report = Fsck.check table in
  let report =
    if repair && not (Fsck.clean report) then begin
      let r = Fsck.repair table in
      Printf.printf "repair: %d kept, %d dropped\n%!" r.Fsck.kept
        r.Fsck.dropped;
      Fsck.check table
    end
    else report
  in
  if json then print_endline (Jsonx.to_string (Fsck.report_to_json report))
  else Format.printf "%a@." Fsck.pp_report report;
  if not (Fsck.clean report) then exit 1

(* --- crash dumps: the flight recorder's event tail as JSON --- *)

(* With --dump-dir the dump is written unconditionally — the recorder
   tail is a pure function of (seed, streams), so tests and CI can
   byte-diff it across --domains; on an unclean exit the path is named
   on stderr so the operator knows where the last events went. *)
let dump_last = 64

let write_crash_dump dir ~cmd =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (cmd ^ "-crash.json") in
  write_file path
    (Jsonx.to_string (Obs.Recorder.dump_json ~last:dump_last ~label:cmd ()));
  path

let finish_with_dump dump_dir ~cmd ~clean =
  let dump = Option.map (fun dir -> write_crash_dump dir ~cmd) dump_dir in
  if not clean then begin
    Option.iter (fun p -> Printf.eprintf "crash dump: %s\n%!" p) dump;
    exit 1
  end

let run_faultsim seed rate sites domains streams ops org locking dump_dir json
    =
  let module F = Pt_service.Faultsim in
  let cfg =
    {
      F.default_config with
      seed;
      rate_ppm = rate;
      sites;
      domains;
      streams;
      ops;
      org;
      locking;
    }
  in
  let outcome = F.run cfg in
  if json then print_endline (Jsonx.to_string (F.outcome_to_json outcome))
  else Format.printf "@[<v>%a@]@." F.pp_outcome outcome;
  finish_with_dump dump_dir ~cmd:"faultsim" ~clean:outcome.F.fsck_clean

(* --- numa: per-node replicas, locality-aware walks, migration policy --- *)

let run_numa quick nodes modes orgs locking domains streams rounds reads
    writes vpns seed remote_cost rate sites spaces dump_dir json =
  let module NS = Numa.Numa_sim in
  let base = if quick then NS.quick_config else NS.default_config in
  let upd field v cfg = match v with None -> cfg | Some x -> field cfg x in
  let cfg =
    { base with NS.locking; domains; fault_rate_ppm = rate }
    |> upd (fun c x -> { c with NS.node_counts = x }) nodes
    |> upd (fun c x -> { c with NS.modes = x }) modes
    |> upd (fun c x -> { c with NS.orgs = x }) orgs
    |> upd (fun c x -> { c with NS.streams_per_node = x }) streams
    |> upd (fun c x -> { c with NS.rounds = x }) rounds
    |> upd (fun c x -> { c with NS.reads_per_stream = x }) reads
    |> upd (fun c x -> { c with NS.writes_per_stream = x }) writes
    |> upd (fun c x -> { c with NS.vpns_per_stream = x }) vpns
    |> upd (fun c x -> { c with NS.seed = x }) seed
    |> upd (fun c x -> { c with NS.remote_cost = x }) remote_cost
    |> upd (fun c x -> { c with NS.fault_sites = x }) sites
    |> upd (fun c x -> { c with NS.policy_spaces = x }) spaces
  in
  let outcome = NS.run cfg in
  if json then print_endline (Jsonx.to_string (NS.outcome_to_json cfg outcome))
  else Format.printf "@[<v>%a@]@." NS.pp_outcome outcome;
  finish_with_dump dump_dir ~cmd:"numa" ~clean:(NS.all_clean outcome)

(* --- fleet: tenants over shards, tagged TLBs, batched range ops --- *)

let run_fleet quick tenants shards streams rounds ops switch budget modes orgs
    locking domains seed dump_dir json =
  let module FS = Fleet.Fleet_sim in
  let base = if quick then FS.quick_config else FS.default_config in
  let upd field v cfg = match v with None -> cfg | Some x -> field cfg x in
  let cfg =
    { base with FS.locking; domains }
    |> upd (fun c x -> { c with FS.tenants = x }) tenants
    |> upd (fun c x -> { c with FS.shards = x }) shards
    |> upd (fun c x -> { c with FS.streams = x }) streams
    |> upd (fun c x -> { c with FS.rounds = x }) rounds
    |> upd (fun c x -> { c with FS.ops_per_tenant = x }) ops
    |> upd (fun c x -> { c with FS.switch_every = x }) switch
    |> upd (fun c x -> { c with FS.frame_budget = x }) budget
    |> upd (fun c x -> { c with FS.modes = x }) modes
    |> upd (fun c x -> { c with FS.orgs = x }) orgs
    |> upd (fun c x -> { c with FS.seed = x }) seed
  in
  let outcome = FS.run cfg in
  if json then print_endline (Jsonx.to_string (FS.outcome_to_json cfg outcome))
  else Format.printf "@[<v>%a@]@." FS.pp_outcome outcome;
  finish_with_dump dump_dir ~cmd:"fleet" ~clean:(FS.all_clean outcome)

(* --- chaos: WAL + checkpoint shards, crash/recovery soak --- *)

let run_chaos quick tenants shards rounds ops switch ckpt crash_at orgs
    locking domains sites rate seed dump_dir json =
  let module CS = Fleet.Chaos_sim in
  let base = if quick then CS.quick_config else CS.default_config in
  let upd field v cfg = match v with None -> cfg | Some x -> field cfg x in
  let cfg =
    { base with CS.locking; domains; checkpoint_every = ckpt }
    |> upd (fun c x -> { c with CS.tenants = x }) tenants
    |> upd (fun c x -> { c with CS.shards = x }) shards
    |> upd (fun c x -> { c with CS.rounds = x }) rounds
    |> upd (fun c x -> { c with CS.ops_per_tenant = x }) ops
    |> upd (fun c x -> { c with CS.switch_every = x }) switch
    |> upd (fun c x -> { c with CS.crash_offsets = x }) crash_at
    |> upd (fun c x -> { c with CS.orgs = x }) orgs
    |> upd (fun c x -> { c with CS.sites = x }) sites
    |> upd (fun c x -> { c with CS.rate_ppm = x }) rate
    |> upd (fun c x -> { c with CS.seed = x }) seed
  in
  let outcome = CS.run cfg in
  if json then print_endline (Jsonx.to_string (CS.outcome_to_json cfg outcome))
  else Format.printf "@[<v>%a@]@." CS.pp_outcome outcome;
  finish_with_dump dump_dir ~cmd:"chaos" ~clean:(CS.all_clean outcome)

(* --- report: the anomaly gate over two JSON artifacts --- *)

let run_report baseline current json =
  let load path =
    match Jsonx.load_file path with
    | Ok v -> v
    | Error e ->
        Printf.eprintf "ptsim report: %s\n%!" e;
        exit 2
  in
  let b = load baseline and c = load current in
  let r = Obs_report.compare_files ~baseline:b ~current:c in
  if json then
    print_endline
      (Jsonx.to_string
         (Obs_report.render_json ~baseline_path:baseline ~current_path:current
            r))
  else
    print_string
      (Obs_report.render_table ~baseline_path:baseline ~current_path:current r);
  if Obs_report.has_breach r then exit 1

(* --- unified telemetry: --metrics-out / --trace-out on every subcommand --- *)

let telemetry_term cmd_name =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's merged metrics registry (counters and log2 \
             histograms) to $(docv), in the format picked by \
             --metrics-format.")
  in
  let format =
    Arg.(
      value
      & opt
          (strict_enum ~flag:"metrics-format" ~cmd:cmd_name
             [ ("json", `Json); ("openmetrics", `Openmetrics) ])
          `Json
      & info [ "metrics-format" ] ~docv:"FORMAT"
          ~doc:
            "Metrics file format: json (structured dump with per-phase \
             series) or openmetrics (Prometheus text exposition, \
             scrape-ready).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record events and write Chrome trace-event JSON \
             (Perfetto-loadable) to $(docv).")
  in
  let capacity =
    Arg.(
      value & opt int 65_536
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Events kept per domain ring before the trace wraps (with \
             --trace-out).")
  in
  Term.(const (fun m f t c -> (m, f, t, c)) $ metrics $ format $ trace $ capacity)

let telemetry_start ((_, _, trace_out, capacity) as tele) =
  Obs.Ambient.reset ();
  Obs.Series.reset ();
  Obs.Recorder.disarm ();
  Obs.Tracer.reset ();
  if trace_out <> None then Obs.Tracer.enable ~capacity ();
  tele

let telemetry_finish name (metrics_out, metrics_format, trace_out, _) =
  (match metrics_out with
  | None -> ()
  | Some path ->
      let m = Obs.Ambient.merged () in
      (* a saturated tracer ring must be visible in the metrics file,
         not only in the trace summary line *)
      if Obs.Tracer.enabled () then Obs.Tracer.export_drop_counter m;
      (match metrics_format with
      | `Openmetrics -> write_file path (Obs.Metrics.to_openmetrics m)
      | `Json ->
          let header =
            [ ("schema_version", Jsonx.int 2); ("command", Jsonx.string name) ]
          in
          let series = [ ("series", Obs.Series.to_json ()) ] in
          write_file path
            (Jsonx.to_string
               (Jsonx.obj (header @ Obs.Metrics.json_fields m @ series))
            ^ "\n"));
      Printf.printf "wrote %s\n%!" path);
  match trace_out with
  | None -> ()
  | Some path ->
      write_file path (Jsonx.to_string (Obs.Tracer.to_chrome_json ()));
      Printf.printf "wrote %s (%d events, %d dropped)\n%!" path
        (Obs.Tracer.event_count ())
        (Obs.Tracer.dropped_count ());
      Obs.Tracer.disable ()

(* cmdliner evaluates the function side of [$] before the argument
   side, so [telemetry_start] runs before the experiment term's side
   effects and [telemetry_finish] after — giving every subcommand
   --metrics-out/--trace-out without touching its run function *)
let cmd name doc term =
  let finish tele () = telemetry_finish name tele in
  let tele = telemetry_term name in
  Cmd.v (Cmd.info name ~doc)
    Term.(const finish $ (const telemetry_start $ tele) $ term)

(* shared by the simulation drivers that arm the flight recorder *)
let dump_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-dir" ] ~docv:"DIR"
        ~doc:
          "Write the flight recorder's last events (per logical stream, \
           byte-identical for any --domains) as a JSON crash dump to \
           $(docv), created if missing.  On an unclean exit the dump \
           path is also named on stderr.")

let () =
  let table1 =
    cmd "table1" "Workload characteristics (Table 1)"
      Term.(const run_table1 $ options_term $ domains_term)
  in
  let figure9 =
    cmd "figure9" "Page table sizes, single page size (Figure 9)"
      Term.(const run_figure9 $ options_term $ domains_term)
  in
  let figure10 =
    cmd "figure10" "Sizes with superpage/partial-subblock PTEs (Figure 10)"
      Term.(const run_figure10 $ options_term $ domains_term)
  in
  let figure11 =
    let design =
      Arg.(
        value
        & opt design_conv Sim.Access_exp.Single
        & info [ "tlb" ] ~docv:"DESIGN"
            ~doc:"TLB design: single|superpage|psb|csb (or a|b|c|d).")
    in
    cmd "figure11" "Cache lines per TLB miss (Figure 11a-d)"
      Term.(const run_figure11 $ options_term $ domains_term $ design)
  in
  let table2 =
    cmd "table2" "Analytic-formula cross-check (Appendix Table 2)"
      Term.(const run_table2 $ options_term $ domains_term)
  in
  let ablations =
    cmd "ablations" "Line-size, subblock-factor and bucket sweeps"
      Term.(const run_ablations $ options_term $ domains_term)
  in
  let churn =
    let ops =
      Arg.(
        value & opt int 8_000
        & info [ "ops" ] ~docv:"N" ~doc:"Lifecycle ops per churn stream.")
    in
    let seeds =
      Arg.(
        value & opt int 3
        & info [ "seeds" ] ~docv:"S"
            ~doc:"Independent streams per organization (averaged).")
    in
    let procs =
      Arg.(
        value & opt int 8
        & info [ "procs" ] ~docv:"P" ~doc:"Cap on simultaneous processes.")
    in
    let sample =
      Arg.(
        value & opt int 0
        & info [ "sample" ] ~docv:"K"
            ~doc:"Ops between footprint samples (0 picks ops/16).")
    in
    let json =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Also write the summary rows as JSON to $(docv).")
    in
    cmd "churn"
      "Dynamic churn: mmap/munmap/fork/exit/COW streams against every \
       page table"
      Term.(
        const run_churn $ options_term $ domains_term $ ops $ seeds $ procs
        $ sample $ json)
  in
  let throughput =
    let domains_list =
      Arg.(
        value
        & opt (list domains_conv) [ 1; 2; 4; 8 ]
        & info [ "domains" ] ~docv:"N[,N...]"
            ~doc:
              "Worker-domain counts to sweep (comma-separated), each \
               driving mixed traffic against one shared table.")
    in
    let streams =
      Arg.(
        value & opt int 0
        & info [ "streams" ] ~docv:"N"
            ~doc:
              "Logical work streams dealt round-robin over the domains (0 \
               = one per domain).  Fix it across a domain sweep to make \
               the merged telemetry domain-count invariant.")
    in
    let ops =
      Arg.(
        value & opt int 100_000
        & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker stream.")
    in
    let vpns =
      Arg.(
        value & opt int 4_096
        & info [ "vpns" ] ~docv:"N"
            ~doc:"Pages in each domain's (disjoint) working set.")
    in
    let seed =
      Arg.(
        value & opt int 42
        & info [ "seed" ] ~docv:"SEED" ~doc:"Per-domain traffic PRNG seed.")
    in
    let org_conv =
      strict_enum ~flag:"org" ~cmd:"throughput"
        [
          ("all", `All);
          ("clustered", `One Pt_service.Service.Clustered);
          ("hashed", `One Pt_service.Service.Hashed);
        ]
    in
    let org =
      Arg.(
        value & opt org_conv `All
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization: all|clustered|hashed.")
    in
    let locking_conv =
      strict_enum ~flag:"locking" ~cmd:"throughput"
        [
          ( "all",
            [
              Pt_service.Service.Striped;
              Pt_service.Service.Global;
              Pt_service.Service.Seqlock;
            ] );
          ("striped", [ Pt_service.Service.Striped ]);
          ("global", [ Pt_service.Service.Global ]);
          ("seqlock", [ Pt_service.Service.Seqlock ]);
        ]
    in
    let locking =
      Arg.(
        value
        & opt locking_conv
            [
              Pt_service.Service.Striped;
              Pt_service.Service.Global;
              Pt_service.Service.Seqlock;
            ]
        & info [ "locking" ] ~docv:"LOCKING"
            ~doc:
              "Lock strategy: all|striped (per-bucket readers-writer) \
               |global (one mutex)|seqlock (lock-free optimistic reads). \
               Anything else exits 2.")
    in
    let json =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Also write the rows as JSON to $(docv).")
    in
    cmd "throughput"
      "Concurrent service: mixed ops/sec from N domains sharing one page \
       table"
      Term.(
        const run_throughput $ domains_list $ streams $ ops $ vpns $ seed
        $ org $ locking $ json)
  in
  let inspect =
    let org_conv =
      strict_enum ~flag:"org" ~cmd:"inspect"
        [ ("clustered", `Clustered); ("hashed", `Hashed) ]
    in
    let org =
      Arg.(
        value & opt org_conv `Clustered
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization to probe: clustered|hashed.")
    in
    cmd "inspect"
      "Probe built tables: chain-length, occupancy and node-utilization \
       histograms vs the analytic load factor"
      Term.(const run_inspect $ options_term $ domains_term $ org)
  in
  let all =
    cmd "all" "Every table and figure, in paper order"
      Term.(const run_all $ options_term $ domains_term)
  in
  let verify =
    cmd "verify" "Check the paper's headline claims hold on this build"
      Term.(const run_verify $ options_term $ domains_term)
  in
  let dump =
    let workload_name =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"NAME" ~doc:"Workload name.")
    in
    let dir =
      Arg.(
        value & opt string "."
        & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
    in
    cmd "dump" "Write a workload's snapshot and trace to text files"
      Term.(const run_dump $ options_term $ workload_name $ dir)
  in
  let replay =
    let snap_file =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file from 'ptsim dump'.")
    in
    let trace_file =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"TRACE" ~doc:"Trace file from 'ptsim dump'.")
    in
    cmd "replay"
      "Replay a dumped snapshot+trace against every page table"
      Term.(const run_replay $ options_term $ snap_file $ trace_file)
  in
  let workload =
    let workload_name =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"NAME" ~doc:"Workload name (coral, nasa7, ...).")
    in
    cmd "workload" "Inspect a workload model: snapshot and trace statistics"
      Term.(const run_workload $ options_term $ workload_name)
  in
  let service_org_conv cmd =
    strict_enum ~flag:"org" ~cmd
      [
        ("clustered", Pt_service.Service.Clustered);
        ("hashed", Pt_service.Service.Hashed);
      ]
  in
  let service_locking_conv cmd =
    strict_enum ~flag:"locking" ~cmd
      [
        ("striped", Pt_service.Service.Striped);
        ("global", Pt_service.Service.Global);
        ("seqlock", Pt_service.Service.Seqlock);
      ]
  in
  let fsck =
    let seed =
      Arg.(
        value & opt int 7
        & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the demo population.")
    in
    let org =
      Arg.(
        value
        & opt (service_org_conv "fsck") Pt_service.Service.Clustered
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization to check: clustered|hashed.")
    in
    let corruptions =
      Arg.(
        value & opt_all string []
        & info [ "corrupt" ] ~docv:"KIND"
            ~doc:
              "Deliberately corrupt the table before checking \
               (repeatable).  Kinds: cycle, cross_link, misplace, \
               duplicate, torn, count, ... (per organization).")
    in
    let repair =
      Arg.(
        value & flag
        & info [ "repair" ]
            ~doc:
              "Rebuild the table from surviving mappings when the check \
               finds violations, then re-check.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ] ~doc:"Print the report as one JSON object.")
    in
    cmd "fsck"
      "Build a table, optionally corrupt it, and run the integrity \
       checker (exit 1 on findings)"
      Term.(const run_fsck $ seed $ org $ corruptions $ repair $ json)
  in
  let faultsim =
    let seed =
      Arg.(
        value & opt int 1
        & info [ "seed" ] ~docv:"SEED"
            ~doc:"Fault-plan and workload seed.")
    in
    let rate =
      Arg.(
        value & opt int 20_000
        & info [ "rate" ] ~docv:"PPM"
            ~doc:"Per-site fault arming rate, parts per million.")
    in
    let sites =
      Arg.(
        value
        & opt (strict_sites ~cmd:"faultsim") Fault.all_sites
        & info [ "sites" ] ~docv:"SITE[,SITE...]"
            ~doc:
              "Fault sites to arm: alloc_node, alloc_phys, lock_timeout, \
               domain_crash, torn_write, seqlock_stall, replica_write \
               (default: all).")
    in
    let domains =
      Arg.(
        value & opt domains_conv 1
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains.  The outcome (and --json byte stream) is \
               identical for every value.")
    in
    let streams =
      Arg.(
        value
        & opt (positive_int ~what:"stream count" ~cmd:"faultsim") 4
        & info [ "streams" ] ~docv:"N" ~doc:"Logical operation streams.")
    in
    let ops =
      Arg.(
        value
        & opt (positive_int ~what:"op count" ~cmd:"faultsim") 2_000
        & info [ "ops" ] ~docv:"N" ~doc:"Operations per stream.")
    in
    let org =
      Arg.(
        value
        & opt (service_org_conv "faultsim") Pt_service.Service.Clustered
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization: clustered|hashed.")
    in
    let locking =
      Arg.(
        value
        & opt (service_locking_conv "faultsim") Pt_service.Service.Striped
        & info [ "locking" ] ~docv:"LOCKING"
            ~doc:"Lock strategy: striped|global|seqlock.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Print the outcome as one JSON object (byte-identical for \
               any --domains).")
    in
    cmd "faultsim"
      "Fault soak: inject allocation failures, lock timeouts, torn PTEs \
       and domain crashes under churn; exit 1 unless the table ends \
       fsck-clean"
      Term.(
        const run_faultsim $ seed $ rate $ sites $ domains $ streams $ ops
        $ org $ locking $ dump_dir_term $ json)
  in
  let numa =
    let quick =
      Arg.(
        value & flag
        & info [ "quick" ]
            ~doc:"CI-sized defaults (fewer streams, rounds and ops).")
    in
    let nodes =
      Arg.(
        value
        & opt (some (list int)) None
        & info [ "nodes" ] ~docv:"N[,N...]"
            ~doc:"NUMA node counts to sweep (default 2,4; 1,2 --quick).")
    in
    let modes_conv =
      strict_enum ~flag:"mode" ~cmd:"numa"
        [
          ( "all",
            [
              Numa.Replicated.Single_home;
              Numa.Replicated.Eager;
              Numa.Replicated.Lazy;
            ] );
          ("single_home", [ Numa.Replicated.Single_home ]);
          ("eager", [ Numa.Replicated.Eager ]);
          ("lazy", [ Numa.Replicated.Lazy ]);
        ]
    in
    let modes =
      Arg.(
        value
        & opt (some modes_conv) None
        & info [ "mode" ] ~docv:"MODE"
            ~doc:
              "Replication mode: all|single_home (one replica, remote \
               walks)|eager (write fan-out)|lazy (pull-on-read catch-up).")
    in
    let orgs_conv =
      strict_enum ~flag:"org" ~cmd:"numa"
        [
          ( "all",
            [ Pt_service.Service.Clustered; Pt_service.Service.Hashed ] );
          ("clustered", [ Pt_service.Service.Clustered ]);
          ("hashed", [ Pt_service.Service.Hashed ]);
        ]
    in
    let orgs =
      Arg.(
        value
        & opt (some orgs_conv) None
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization: all|clustered|hashed.")
    in
    let locking =
      Arg.(
        value
        & opt (service_locking_conv "numa") Pt_service.Service.Seqlock
        & info [ "locking" ] ~docv:"LOCKING"
            ~doc:
              "Lock strategy for every replica: striped|global|seqlock \
               (default seqlock — lock-free local walks).")
    in
    let domains =
      Arg.(
        value & opt domains_conv 1
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains.  The outcome (and --json byte stream) is \
               identical for every value.")
    in
    let streams =
      Arg.(
        value
        & opt (some (positive_int ~what:"stream count" ~cmd:"numa")) None
        & info [ "streams" ] ~docv:"N" ~doc:"Logical streams per node.")
    in
    let rounds =
      Arg.(
        value
        & opt (some (positive_int ~what:"round count" ~cmd:"numa")) None
        & info [ "rounds" ] ~docv:"N" ~doc:"Write/read phase rounds.")
    in
    let reads =
      Arg.(
        value
        & opt (some int) None
        & info [ "reads" ] ~docv:"N" ~doc:"Lookups per stream per round.")
    in
    let writes =
      Arg.(
        value
        & opt (some int) None
        & info [ "writes" ] ~docv:"N" ~doc:"Mutations per stream per round.")
    in
    let vpns =
      Arg.(
        value
        & opt (some int) None
        & info [ "vpns" ] ~docv:"N"
            ~doc:"Pages in each stream's (bucket-disjoint) working set.")
    in
    let seed =
      Arg.(
        value
        & opt (some int) None
        & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic PRNG seed.")
    in
    let remote_cost =
      Arg.(
        value
        & opt (some int) None
        & info [ "remote-cost" ] ~docv:"C"
            ~doc:"Modeled cost of a remote line (local is 1; default 4).")
    in
    let rate =
      Arg.(
        value & opt int 0
        & info [ "rate" ] ~docv:"PPM"
            ~doc:
              "Replica-write fault arming rate, parts per million (0 = no \
               plan).")
    in
    let sites =
      Arg.(
        value
        & opt (some (strict_sites ~cmd:"numa")) None
        & info [ "sites" ] ~docv:"SITE[,SITE...]"
            ~doc:"Fault sites to arm with --rate (default replica_write).")
    in
    let spaces =
      Arg.(
        value
        & opt (some int) None
        & info [ "spaces" ] ~docv:"N"
            ~doc:"Address spaces in the migration-policy experiment.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Print the outcome as one JSON object (byte-identical for \
               any --domains).")
    in
    cmd "numa"
      "NUMA-replicated service: per-node replicas, locality-aware walks \
       (remote vs local lines per miss), eager/lazy write fan-out and the \
       per-space migration policy; exit 1 unless every replica set ends \
       fsck-clean"
      Term.(
        const run_numa $ quick $ nodes $ modes $ orgs $ locking $ domains
        $ streams $ rounds $ reads $ writes $ vpns $ seed $ remote_cost
        $ rate $ sites $ spaces $ dump_dir_term $ json)
  in
  let fleet =
    let quick =
      Arg.(
        value & flag
        & info [ "quick" ]
            ~doc:"CI-sized defaults (fewer tenants, rounds and events).")
    in
    let tenants =
      Arg.(
        value
        & opt (some (positive_int ~what:"tenant count" ~cmd:"fleet")) None
        & info [ "tenants" ] ~docv:"N"
            ~doc:"Tenant address spaces (default 12; 8 --quick).")
    in
    let shards =
      Arg.(
        value
        & opt (some (positive_int ~what:"shard count" ~cmd:"fleet")) None
        & info [ "shards" ] ~docv:"N"
            ~doc:"Service shards the tenants are dealt over (default 4).")
    in
    let streams =
      Arg.(
        value
        & opt (some (positive_int ~what:"stream count" ~cmd:"fleet")) None
        & info [ "streams" ] ~docv:"N"
            ~doc:"Logical streams multiplexing the tenants (default 4).")
    in
    let rounds =
      Arg.(
        value
        & opt (some (positive_int ~what:"round count" ~cmd:"fleet")) None
        & info [ "rounds" ] ~docv:"N"
            ~doc:"Rounds between frame-budget enforcements.")
    in
    let ops =
      Arg.(
        value
        & opt (some int) None
        & info [ "ops" ] ~docv:"N" ~doc:"Churn events per tenant.")
    in
    let switch =
      Arg.(
        value
        & opt (some (positive_int ~what:"switch quantum" ~cmd:"fleet")) None
        & info [ "switch-every" ] ~docv:"N"
            ~doc:"Context-switch quantum, in events (default 48).")
    in
    let budget =
      Arg.(
        value
        & opt (some int) None
        & info [ "budget" ] ~docv:"PAGES"
            ~doc:
              "Fleet-wide frame budget; exceeding it at a round barrier \
               evicts coldest tenants (0 = unlimited).")
    in
    let modes_conv =
      strict_enum ~flag:"mode" ~cmd:"fleet"
        [
          ("all", [ Fleet.Sharded.Batched; Fleet.Sharded.Paged ]);
          ("batched", [ Fleet.Sharded.Batched ]);
          ("paged", [ Fleet.Sharded.Paged ]);
        ]
    in
    let modes =
      Arg.(
        value
        & opt (some modes_conv) None
        & info [ "mode" ] ~docv:"MODE"
            ~doc:
              "Range-op mode: all|batched (one submission per region, \
               amortised stripe locks)|paged (one lock per page).")
    in
    let orgs_conv =
      strict_enum ~flag:"org" ~cmd:"fleet"
        [
          ( "all",
            [ Pt_service.Service.Clustered; Pt_service.Service.Hashed ] );
          ("clustered", [ Pt_service.Service.Clustered ]);
          ("hashed", [ Pt_service.Service.Hashed ]);
        ]
    in
    let orgs =
      Arg.(
        value
        & opt (some orgs_conv) None
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization: all|clustered|hashed.")
    in
    let locking =
      Arg.(
        value
        & opt (service_locking_conv "fleet") Pt_service.Service.Seqlock
        & info [ "locking" ] ~docv:"LOCKING"
            ~doc:
              "Lock strategy for every shard: striped|global|seqlock \
               (default seqlock — evictions drain through epoch limbo).")
    in
    let domains =
      Arg.(
        value & opt domains_conv 1
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains.  The outcome (and --json byte stream) is \
               identical for every value.")
    in
    let seed =
      Arg.(
        value
        & opt (some int) None
        & info [ "seed" ] ~docv:"SEED" ~doc:"Churn PRNG seed.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Print the outcome as one JSON object (byte-identical for \
               any --domains; timing appears only in the human table).")
    in
    cmd "fleet"
      "Multi-tenant fleet: churn tenants dealt over sharded services with \
       ASID-tagged TLBs, batched range ops and frame-budget eviction; exit \
       1 unless every shard ends fsck-clean with cross-shard ASIDs \
       disjoint"
      Term.(
        const run_fleet $ quick $ tenants $ shards $ streams $ rounds $ ops
        $ switch $ budget $ modes $ orgs $ locking $ domains $ seed
        $ dump_dir_term $ json)
  in
  let chaos =
    let quick =
      Arg.(
        value & flag
        & info [ "quick" ]
            ~doc:"CI-sized defaults (fewer tenants, rounds and events).")
    in
    let tenants =
      Arg.(
        value
        & opt (some (positive_int ~what:"tenant count" ~cmd:"chaos")) None
        & info [ "tenants" ] ~docv:"N"
            ~doc:"Tenant address spaces (default 8; 6 --quick).")
    in
    let shards =
      Arg.(
        value
        & opt (some (positive_int ~what:"shard count" ~cmd:"chaos")) None
        & info [ "shards" ] ~docv:"N"
            ~doc:
              "Durable shards, one write-ahead log each (default 4).  Also \
               the logical stream count: tenant asid runs on stream asid \
               mod shards, which is what keeps WAL offsets independent of \
               --domains.")
    in
    let rounds =
      Arg.(
        value
        & opt (some (positive_int ~what:"round count" ~cmd:"chaos")) None
        & info [ "rounds" ] ~docv:"N"
            ~doc:
              "Rounds between supervision barriers (recovery, checkpoints).")
    in
    let ops =
      Arg.(
        value
        & opt (some int) None
        & info [ "ops" ] ~docv:"N" ~doc:"Churn events per tenant.")
    in
    let switch =
      Arg.(
        value
        & opt (some (positive_int ~what:"switch quantum" ~cmd:"chaos")) None
        & info [ "switch-every" ] ~docv:"N"
            ~doc:"Context-switch quantum, in events (default 48).")
    in
    let ckpt =
      Arg.(
        value
        & opt (positive_int ~what:"checkpoint cadence" ~cmd:"chaos") 1
        & info [ "checkpoint-every" ] ~docv:"ROUNDS"
            ~doc:
              "Checkpoint cadence: write every shard's table image (and \
               compact its WAL) every $(docv) rounds.")
    in
    let offsets_conv =
      let parse s =
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | tok :: rest -> (
              let tok = String.trim tok in
              match int_of_string_opt tok with
              | Some n when n >= 0 -> go (n :: acc) rest
              | _ ->
                  Printf.eprintf
                    "invalid crash offset %S for chaos (want comma-separated \
                     byte offsets >= 0)\n\
                     %!"
                    tok;
                  exit 2)
        in
        go [] (String.split_on_char ',' s)
      in
      let print ppf l =
        Format.pp_print_string ppf
          (String.concat "," (List.map string_of_int l))
      in
      Arg.conv (parse, print)
    in
    let crash_at =
      Arg.(
        value
        & opt (some offsets_conv) None
        & info [ "crash-at" ] ~docv:"OFFSETS"
            ~doc:
              "Planned crash points: comma-separated absolute WAL byte \
               offsets, dealt round-robin over shards; an append reaching \
               one flushes a torn partial record and kills the shard.  \
               Default: a seed-derived schedule, one mid-record offset per \
               shard.")
    in
    let orgs_conv =
      strict_enum ~flag:"org" ~cmd:"chaos"
        [
          ( "all",
            [ Pt_service.Service.Clustered; Pt_service.Service.Hashed ] );
          ("clustered", [ Pt_service.Service.Clustered ]);
          ("hashed", [ Pt_service.Service.Hashed ]);
        ]
    in
    let orgs =
      Arg.(
        value
        & opt (some orgs_conv) None
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization: all|clustered|hashed.")
    in
    let locking =
      Arg.(
        value
        & opt (service_locking_conv "chaos") Pt_service.Service.Striped
        & info [ "locking" ] ~docv:"LOCKING"
            ~doc:"Lock strategy for every shard: striped|global|seqlock.")
    in
    let domains =
      Arg.(
        value & opt domains_conv 1
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains.  The outcome (and --json byte stream) is \
               identical for every value.")
    in
    let sites =
      Arg.(
        value
        & opt (some (strict_sites ~cmd:"chaos")) None
        & info [ "sites" ] ~docv:"SITES"
            ~doc:
              "Random fault plan, comma-separated (default shard_crash — \
               the only site the equivalence oracle models; others \
               exercise the service's self-healing instead).")
    in
    let rate =
      Arg.(
        value
        & opt (some int) None
        & info [ "rate" ] ~docv:"PPM"
            ~doc:"Random fault rate, parts per million (default 2000).")
    in
    let seed =
      Arg.(
        value
        & opt (some int) None
        & info [ "seed" ] ~docv:"SEED"
            ~doc:"Soak seed: churn, fault plan and crash schedule.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Print the outcome as one JSON object (byte-identical for \
               any --domains; timing appears only in the human table).")
    in
    cmd "chaos"
      "Crash/recovery soak: churn tenants over crash-consistent shards \
       (per-shard write-ahead log + checkpoints) while shards are killed \
       at planned WAL offsets, at random, mid-checkpoint and mid-recovery; \
       every recovery must rebuild exactly the acknowledged state; exit 1 \
       unless all recoveries converge, the fleet ends fsck-clean and every \
       shard equals the never-crashed oracle"
      Term.(
        const run_chaos $ quick $ tenants $ shards $ rounds $ ops $ switch
        $ ckpt $ crash_at $ orgs $ locking $ domains $ sites $ rate $ seed
        $ dump_dir_term $ json)
  in
  let report =
    let baseline =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"BASELINE"
            ~doc:
              "Baseline JSON artifact: a --metrics-out dump, a --json \
               outcome, or a benchmark file.")
    in
    let current =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"CURRENT" ~doc:"Current JSON artifact to gate.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Print the findings as one JSON object instead of a table.")
    in
    cmd "report"
      "Anomaly gate: flatten two JSON artifacts (metrics dumps, --json \
       outcomes or benchmark files), diff the shared keys, and flag p99 \
       regressions, lock-contention spikes, eviction storms and tracer \
       drops against declarative thresholds; exit 1 on any breach, 2 on \
       unreadable input"
      Term.(const run_report $ baseline $ current $ json)
  in
  let info =
    Cmd.info "ptsim" ~version:"1.0"
      ~doc:
        "Reproduction of 'A New Page Table for 64-bit Address Spaces' \
         (SOSP '95): clustered page tables vs linear, forward-mapped and \
         hashed, under conventional, superpage, partial-subblock and \
         complete-subblock TLBs."
  in
  (* a bare "ptsim" is an error, not a successful usage dump: without a
     default term, Cmd.group prints help and exits 0, which lets typo'd
     scripts (and CI steps) sail through green *)
  let default =
    Term.(ret (const (fun () -> `Error (true, "missing subcommand")) $ const ()))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            table1; figure9; figure10; figure11; table2; ablations; churn;
            throughput; inspect; fsck; faultsim; numa; fleet; chaos; report;
            workload; dump; replay; verify; all;
          ]))
