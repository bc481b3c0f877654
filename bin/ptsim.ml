(* ptsim: reproduce the tables and figures of "A New Page Table for
   64-bit Address Spaces" (Talluri, Hill, Khalidi; SOSP '95). *)

open Cmdliner

let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= 1 -> Ok d
    | Some _ -> Error (`Msg "domain count must be >= 1")
    | None -> Error (`Msg (Printf.sprintf "invalid domain count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* The CLI contract for enum-valued flags and names, generalized from
   throughput's --locking: an unknown value names the offending token
   and the accepted set on stderr and exits 2 — never cmdliner's
   generic usage error, never a silent fallback to a mode that was not
   asked for.  Pinned by test/cli/ptsim_errors.t. *)
let reject ~flag ~cmd ~have token =
  Printf.eprintf "unknown %s %S for %s (have: %s)\n%!" flag token cmd
    (String.concat ", " have);
  exit 2

let strict_enum ~flag ~cmd choices =
  let parse s =
    match List.assoc_opt s choices with
    | Some v -> Ok v
    | None -> reject ~flag ~cmd ~have:(List.map fst choices) s
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
  let have = List.map Fault.site_name Fault.all_sites in
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          let n = String.trim n in
          match Fault.site_of_name n with
          | Some site -> go (site :: acc) rest
          | None -> reject ~flag:"site" ~cmd ~have n)
    in
    go [] (String.split_on_char ',' s)
  in
  let print ppf sites =
    Format.pp_print_string ppf
      (String.concat "," (List.map Fault.site_name sites))
  in
  Arg.conv (parse, print)

(* a workload by name (case-insensitive), under the same contract *)
let workload_arg ~cmd =
  let have =
    List.map
      (fun s -> s.Workload.Spec.name)
      (Workload.Table1.all_with_kernel @ [ Workload.Table1.future64 ])
  in
  let parse s =
    match Workload.Table1.find s with
    | Some spec -> Ok spec
    | None -> reject ~flag:"workload" ~cmd ~have s
  in
  let print ppf spec = Format.pp_print_string ppf spec.Workload.Spec.name in
  Arg.(
    required
    & pos 0 (some (conv (parse, print))) None
    & info [] ~docv:"NAME"
        ~doc:("Workload name: " ^ String.concat ", " have ^ "."))

let all_orgs = [ Pt_service.Service.Clustered; Pt_service.Service.Hashed ]

let orgs_arg ~cmd =
  Arg.(
    value
    & opt
        (some
           (strict_enum ~flag:"org" ~cmd
              [
                ("all", all_orgs);
                ("clustered", [ Pt_service.Service.Clustered ]);
                ("hashed", [ Pt_service.Service.Hashed ]);
              ]))
        None
    & info [ "org" ] ~docv:"ORG" ~absent:"all"
        ~doc:"Table organization: all|clustered|hashed.")

let service_org_conv cmd =
  strict_enum ~flag:"org" ~cmd
    [
      ("clustered", Pt_service.Service.Clustered);
      ("hashed", Pt_service.Service.Hashed);
    ]

let service_locking_conv cmd =
  strict_enum ~flag:"locking" ~cmd
    [
      ("striped", Pt_service.Service.Striped);
      ("global", Pt_service.Service.Global);
      ("seqlock", Pt_service.Service.Seqlock);
    ]

let quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "CI-sized run: the trace experiments on three workloads only; \
           the soaks with fewer streams, tenants, rounds and events.")

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* the churn and throughput result files are read by people as well
   as tools, so they are indented *)
let write_json_file path v =
  write_file path (Jsonx.to_string ~layout:Indented v ^ "\n")

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

(* --- the paper suite --- *)

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
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write every table as CSV into $(docv).")
  in
  Term.(const options $ seed $ length $ placement $ quick_flag $ csv)

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

(* A paper-suite command: [run] gets the experiment options and the
   pool size, after the pool header. *)
let paper name doc run =
  let go options domains run =
    announce_pool domains;
    run options domains
  in
  cmd name doc Term.(const go $ options_term $ domains_term $ run)

(* the same, for a runner entry point taking nothing else *)
let paper0 name doc run =
  paper name doc
    (Term.const (fun options domains ->
         ignore (run ?options:(Some options) ?domains ())))

let run_all ?options ?domains () =
  Sim.Runner.all ?options ?domains ();
  ignore (Sim.Runner.churn_for_suite ?options ?domains ());
  ignore (Sim.Runner.throughput_for_suite ?options ())

let run_verify ?options ?domains () =
  if not (Sim.Runner.verify ?options ?domains ()) then exit 1

let run_churn ops seeds procs sample json options domains =
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

let run_throughput domains_list streams ops vpns seed orgs lockings json =
  let pairs =
    List.concat_map
      (fun o -> List.map (fun l -> (o, l)) lockings)
      (Option.value orgs ~default:all_orgs)
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

(* --- workload models: inspect, dump, replay --- *)

let run_workload options spec =
  let fx = Sim.Runner.fixture options spec in
  let snap = fx.Sim.Builder.snap in
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
  let trace = Lazy.force fx.Sim.Builder.trace in
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

let run_dump options spec dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let fx = Sim.Runner.fixture options spec in
  let trace = Lazy.force fx.Sim.Builder.trace in
  let name = spec.Workload.Spec.name in
  let snap_path = Filename.concat dir (name ^ ".snapshot") in
  let trace_path = Filename.concat dir (name ^ ".trace") in
  Workload.Snapshot.save fx.Sim.Builder.snap snap_path;
  Workload.Trace.save trace trace_path;
  Printf.printf "wrote %s (%d pages) and %s (%d accesses)\n" snap_path
    (Workload.Snapshot.total_pages fx.Sim.Builder.snap)
    trace_path
    (Workload.Trace.accesses trace)

(* Replay walks the 64-entry single-page-size TLB's miss stream against
   every page table.  Unreadable input is refused with exit 2. *)
let run_replay options snap_path trace_path =
  let refuse fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "ptsim replay: %s\n%!" msg;
        exit 2)
      fmt
  in
  let loaded = function Ok v -> v | Error e -> refuse "%s" e in
  let snap = loaded (Workload.Snapshot.load snap_path) in
  let trace = loaded (Workload.Trace.load trace_path) in
  let nprocs = List.length snap.Workload.Snapshot.procs in
  Array.iteri
    (fun i -> function
      | Workload.Trace.Access (p, _) | Workload.Trace.Switch p
        when p >= nprocs ->
          refuse "%s: event %d names process %d; %s has %d process%s"
            trace_path (i + 1) p snap_path nprocs
            (if nprocs = 1 then "" else "es")
      | _ -> ())
    trace;
  Printf.printf "replaying %s: %d pages, %d accesses\n\n"
    snap.Workload.Snapshot.workload
    (Workload.Snapshot.total_pages snap)
    (Workload.Trace.accesses trace);
  let assignments =
    Sim.Builder.assignments snap ~seed:options.Sim.Runner.seed
      ~placement_p:options.Sim.Runner.placement_p
  in
  let tables kind = Sim.Builder.tables kind ~policy:`Base assignments in
  let misses, n =
    Sim.Access_exp.record_misses trace (Tlb.Intf.fa ~entries:64 ())
      ~reference:(tables Sim.Factory.clustered16)
  in
  Printf.printf "%d TLB misses (64-entry conventional TLB)\n" n;
  List.iter
    (fun kind ->
      let tables = tables kind in
      let lines = Sim.Access_exp.replay_misses misses tables in
      let size =
        Array.fold_left
          (fun acc pt -> acc + Pt_common.Intf.size_bytes pt)
          0 tables
      in
      Printf.printf "  %-14s %8.1fKB   %.2f lines/miss\n"
        (Sim.Factory.name kind)
        (float_of_int size /. 1024.0)
        (if n = 0 then 0.0 else float_of_int lines /. float_of_int n))
    [
      Sim.Factory.Linear1;
      Sim.Factory.Forward_mapped;
      Sim.Factory.Hashed;
      Sim.Factory.clustered16;
      Sim.Factory.Clustered_variable;
    ]

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


(* --- soaks: faultsim, numa, fleet and chaos --- *)

type soak_flags = {
  domains : int;
  json : bool;
  dump_dir : string option;
  locking : Pt_service.Service.locking;
}

(* The flags every soak shares; [locking] is the command's default lock
   strategy. *)
let soak_flags ~cmd ~locking ~locking_doc =
  let domains =
    Arg.(
      value & opt domains_conv 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains.  The outcome (and --json byte stream) is \
             identical for every value.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the outcome as one JSON object (byte-identical for any \
             --domains).")
  in
  let dump_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:
            "Write the flight recorder's last events (per logical stream, \
             byte-identical for any --domains) as a JSON crash dump to \
             $(docv), created if missing.  On an unclean exit the dump \
             path is also named on stderr.")
  in
  let locking =
    Arg.(
      value
      & opt (service_locking_conv cmd) locking
      & info [ "locking" ] ~docv:"LOCKING" ~doc:locking_doc)
  in
  Term.(
    const (fun domains json dump_dir locking ->
        { domains; json; dump_dir; locking })
    $ domains $ json $ dump_dir $ locking)

(* Run a soak and end the command: the outcome as JSON or as a table,
   the crash dump, and exit 1 unless the run ended clean. *)
let soak (flags : soak_flags) ~cmd ~run ~to_json ~pp ~clean cfg =
  let outcome = run cfg in
  if flags.json then print_endline (Jsonx.to_string (to_json cfg outcome))
  else Format.printf "@[<v>%a@]@." pp outcome;
  finish_with_dump flags.dump_dir ~cmd ~clean:(clean outcome)

(* a config field set from a flag, when the flag was given *)
let override v set cfg = match v with None -> cfg | Some x -> set cfg x

let run_faultsim seed rate sites streams ops org (flags : soak_flags) =
  let module F = Pt_service.Faultsim in
  soak flags ~cmd:"faultsim" ~run:F.run
    ~to_json:(fun _ -> F.outcome_to_json)
    ~pp:F.pp_outcome
    ~clean:(fun o -> o.F.fsck_clean)
    {
      F.default_config with
      seed;
      rate_ppm = rate;
      sites;
      domains = flags.domains;
      streams;
      ops;
      org;
      locking = flags.locking;
    }

(* numa: per-node replicas, locality-aware walks, migration policy *)
let run_numa quick nodes modes orgs streams rounds reads writes vpns seed
    remote_cost rate sites spaces (flags : soak_flags) =
  let module NS = Numa.Numa_sim in
  let base = if quick then NS.quick_config else NS.default_config in
  {
    base with
    NS.locking = flags.locking;
    domains = flags.domains;
    fault_rate_ppm = rate;
  }
  |> override nodes (fun c x -> { c with NS.node_counts = x })
  |> override modes (fun c x -> { c with NS.modes = x })
  |> override orgs (fun c x -> { c with NS.orgs = x })
  |> override streams (fun c x -> { c with NS.streams_per_node = x })
  |> override rounds (fun c x -> { c with NS.rounds = x })
  |> override reads (fun c x -> { c with NS.reads_per_stream = x })
  |> override writes (fun c x -> { c with NS.writes_per_stream = x })
  |> override vpns (fun c x -> { c with NS.vpns_per_stream = x })
  |> override seed (fun c x -> { c with NS.seed = x })
  |> override remote_cost (fun c x -> { c with NS.remote_cost = x })
  |> override sites (fun c x -> { c with NS.fault_sites = x })
  |> override spaces (fun c x -> { c with NS.policy_spaces = x })
  |> soak flags ~cmd:"numa" ~run:NS.run ~to_json:NS.outcome_to_json
       ~pp:NS.pp_outcome ~clean:NS.all_clean

(* fleet: tenants over shards, tagged TLBs, batched range ops *)
let run_fleet quick tenants shards streams rounds ops switch budget modes orgs
    seed (flags : soak_flags) =
  let module FS = Fleet.Fleet_sim in
  let base = if quick then FS.quick_config else FS.default_config in
  { base with FS.locking = flags.locking; domains = flags.domains }
  |> override tenants (fun c x -> { c with FS.tenants = x })
  |> override shards (fun c x -> { c with FS.shards = x })
  |> override streams (fun c x -> { c with FS.streams = x })
  |> override rounds (fun c x -> { c with FS.rounds = x })
  |> override ops (fun c x -> { c with FS.ops_per_tenant = x })
  |> override switch (fun c x -> { c with FS.switch_every = x })
  |> override budget (fun c x -> { c with FS.frame_budget = x })
  |> override modes (fun c x -> { c with FS.modes = x })
  |> override orgs (fun c x -> { c with FS.orgs = x })
  |> override seed (fun c x -> { c with FS.seed = x })
  |> soak flags ~cmd:"fleet" ~run:FS.run ~to_json:FS.outcome_to_json
       ~pp:FS.pp_outcome ~clean:FS.all_clean

(* chaos: WAL + checkpoint shards, crash/recovery soak *)
let run_chaos quick tenants shards rounds ops switch ckpt crash_at orgs sites
    rate seed (flags : soak_flags) =
  let module CS = Fleet.Chaos_sim in
  let base = if quick then CS.quick_config else CS.default_config in
  {
    base with
    CS.locking = flags.locking;
    domains = flags.domains;
    checkpoint_every = ckpt;
  }
  |> override tenants (fun c x -> { c with CS.tenants = x })
  |> override shards (fun c x -> { c with CS.shards = x })
  |> override rounds (fun c x -> { c with CS.rounds = x })
  |> override ops (fun c x -> { c with CS.ops_per_tenant = x })
  |> override switch (fun c x -> { c with CS.switch_every = x })
  |> override crash_at (fun c x -> { c with CS.crash_offsets = x })
  |> override orgs (fun c x -> { c with CS.orgs = x })
  |> override sites (fun c x -> { c with CS.sites = x })
  |> override rate (fun c x -> { c with CS.rate_ppm = x })
  |> override seed (fun c x -> { c with CS.seed = x })
  |> soak flags ~cmd:"chaos" ~run:CS.run ~to_json:CS.outcome_to_json
       ~pp:CS.pp_outcome ~clean:CS.all_clean

(* --- report: the CI gate over two JSON artifacts --- *)

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


let () =
  let table1 =
    paper0 "table1" "Workload characteristics (Table 1)" Sim.Runner.table1
  in
  let figure9 =
    paper0 "figure9" "Page table sizes, single page size (Figure 9)"
      Sim.Runner.figure9
  in
  let figure10 =
    paper0 "figure10" "Sizes with superpage/partial-subblock PTEs (Figure 10)"
      Sim.Runner.figure10
  in
  let figure11 =
    let design =
      Arg.(
        value
        & opt
            (strict_enum ~flag:"tlb" ~cmd:"figure11"
               [
                 ("single", Sim.Access_exp.Single);
                 ("superpage", Sim.Access_exp.Superpage);
                 ("psb", Sim.Access_exp.Psb);
                 ("csb", Sim.Access_exp.Csb);
                 ("a", Sim.Access_exp.Single);
                 ("b", Sim.Access_exp.Superpage);
                 ("c", Sim.Access_exp.Psb);
                 ("d", Sim.Access_exp.Csb);
               ])
            Sim.Access_exp.Single
        & info [ "tlb" ] ~docv:"DESIGN"
            ~doc:"TLB design: single|superpage|psb|csb (or a|b|c|d).")
    in
    paper "figure11" "Cache lines per TLB miss (Figure 11a-d)"
      Term.(
        const (fun design options domains ->
            ignore (Sim.Runner.figure11 ~options ?domains ~design ()))
        $ design)
  in
  let table2 =
    paper0 "table2" "Analytic-formula cross-check (Appendix Table 2)"
      Sim.Runner.table2
  in
  let ablations =
    paper0 "ablations" "Line-size, subblock-factor and bucket sweeps"
      Sim.Runner.ablations
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
    paper "churn"
      "Dynamic churn: mmap/munmap/fork/exit/COW streams against every \
       page table"
      Term.(const run_churn $ ops $ seeds $ procs $ sample $ json)
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
    let all_lockings =
      Pt_service.Service.[ Striped; Global; Seqlock ]
    in
    let locking =
      Arg.(
        value
        & opt
            (strict_enum ~flag:"locking" ~cmd:"throughput"
               [
                 ("all", all_lockings);
                 ("striped", [ Pt_service.Service.Striped ]);
                 ("global", [ Pt_service.Service.Global ]);
                 ("seqlock", [ Pt_service.Service.Seqlock ]);
               ])
            all_lockings
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
        $ orgs_arg ~cmd:"throughput" $ locking $ json)
  in
  let inspect =
    let org =
      Arg.(
        value
        & opt
            (strict_enum ~flag:"org" ~cmd:"inspect"
               [ ("clustered", `Clustered); ("hashed", `Hashed) ])
            `Clustered
        & info [ "org" ] ~docv:"ORG"
            ~doc:"Table organization to probe: clustered|hashed.")
    in
    paper "inspect"
      "Probe built tables: chain-length, occupancy and node-utilization \
       histograms vs the analytic load factor"
      Term.(
        const (fun org options domains ->
            ignore (Sim.Runner.inspect ~options ?domains ~org ()))
        $ org)
  in
  let all = paper0 "all" "Every table and figure, in paper order" run_all in
  let verify =
    paper0 "verify" "Check the paper's headline claims hold on this build"
      run_verify
  in
  let dump =
    let dir =
      Arg.(
        value & opt string "."
        & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
    in
    cmd "dump" "Write a workload's snapshot and trace to text files"
      Term.(const run_dump $ options_term $ workload_arg ~cmd:"dump" $ dir)
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
      "Replay a dumped snapshot+trace against every page table; exit 2 on \
       malformed input"
      Term.(const run_replay $ options_term $ snap_file $ trace_file)
  in
  let workload =
    cmd "workload" "Inspect a workload model: snapshot and trace statistics"
      Term.(const run_workload $ options_term $ workload_arg ~cmd:"workload")
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
    cmd "faultsim"
      "Fault soak: inject allocation failures, lock timeouts, torn PTEs \
       and domain crashes under churn; exit 1 unless the table ends \
       fsck-clean"
      Term.(
        const run_faultsim $ seed $ rate $ sites $ streams $ ops $ org
        $ soak_flags ~cmd:"faultsim" ~locking:Pt_service.Service.Striped
            ~locking_doc:"Lock strategy: striped|global|seqlock.")
  in
  let numa =
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
    cmd "numa"
      "NUMA-replicated service: per-node replicas, locality-aware walks \
       (remote vs local lines per miss), eager/lazy write fan-out and the \
       per-space migration policy; exit 1 unless every replica set ends \
       fsck-clean"
      Term.(
        const run_numa $ quick_flag $ nodes $ modes $ orgs_arg ~cmd:"numa"
        $ streams $ rounds $ reads $ writes $ vpns $ seed $ remote_cost
        $ rate $ sites $ spaces
        $ soak_flags ~cmd:"numa" ~locking:Pt_service.Service.Seqlock
            ~locking_doc:
              "Lock strategy for every replica: striped|global|seqlock \
               (default seqlock — lock-free local walks).")
  in
  let fleet =
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
    let seed =
      Arg.(
        value
        & opt (some int) None
        & info [ "seed" ] ~docv:"SEED" ~doc:"Churn PRNG seed.")
    in
    cmd "fleet"
      "Multi-tenant fleet: churn tenants dealt over sharded services with \
       ASID-tagged TLBs, batched range ops and frame-budget eviction; exit \
       1 unless every shard ends fsck-clean with cross-shard ASIDs \
       disjoint"
      Term.(
        const run_fleet $ quick_flag $ tenants $ shards $ streams $ rounds
        $ ops $ switch $ budget $ modes $ orgs_arg ~cmd:"fleet" $ seed
        $ soak_flags ~cmd:"fleet" ~locking:Pt_service.Service.Seqlock
            ~locking_doc:
              "Lock strategy for every shard: striped|global|seqlock \
               (default seqlock — evictions drain through epoch limbo).")
  in
  let chaos =
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
    cmd "chaos"
      "Crash/recovery soak: churn tenants over crash-consistent shards \
       (per-shard write-ahead log + checkpoints) while shards are killed \
       at planned WAL offsets, at random, mid-checkpoint and mid-recovery; \
       every recovery must rebuild exactly the acknowledged state; exit 1 \
       unless all recoveries converge, the fleet ends fsck-clean and every \
       shard equals the never-crashed oracle"
      Term.(
        const run_chaos $ quick_flag $ tenants $ shards $ rounds $ ops
        $ switch $ ckpt $ crash_at $ orgs_arg ~cmd:"chaos" $ sites $ rate
        $ seed
        $ soak_flags ~cmd:"chaos" ~locking:Pt_service.Service.Striped
            ~locking_doc:
              "Lock strategy for every shard: striped|global|seqlock.")
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
      "The CI gate: flatten two JSON artifacts (metrics dumps, --json \
       outcomes, benchmark files or perfbench result lines) and judge \
       each key by one rule table -- host-dependent timing ignored, \
       deterministic fields held equal, allocation capped, p99s, lock \
       contention, evictions and tracer drops held to thresholds; exit 1 \
       on any breach, 2 on unreadable input"
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
