(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Table 1, Figures 9/10/11a-d, the appendix Table 2 cross-check, and
   the Section 6.3/7 ablations) through Sim.Runner.

   Part 2 runs micro-benchmarks — one group per experiment family —
   over the real data-structure operations the figures proxy: lookups,
   inserts, block prefetches and range operations on every page-table
   organization, plus the TLB models.  Each micro's minor-heap words
   per call are counted exactly over a fixed number of calls, then
   Bechamel times it.  Pass --quick to restrict the trace-driven
   experiments to three workloads. *)

open Bechamel
open Toolkit

module Intf = Pt_common.Intf

let attr = Pte.Attr.default

(* --- fixtures: tables populated with the nasa7 snapshot --- *)

let seed = 0xBE7CL

let assignments =
  lazy
    (let snap = Workload.Snapshot.generate Workload.Table1.nasa7 ~seed in
     List.mapi
       (fun i proc ->
         Sim.Builder.assign proc ~seed:(Int64.add seed (Int64.of_int i)) ())
       snap.Workload.Snapshot.procs)

let populated kind ~policy =
  let pt = Sim.Factory.make kind in
  List.iter (fun a -> Sim.Builder.populate pt a ~policy) (Lazy.force assignments);
  pt

let sample_vpns =
  lazy
    (let out = ref [] in
     List.iter
       (fun a ->
         List.iter
           (fun (b : Sim.Builder.block_info) ->
             match b.Sim.Builder.boffs_ppns with
             | (boff, _) :: _ ->
                 out :=
                   Int64.add
                     (Int64.shift_left b.Sim.Builder.vpbn 4)
                     (Int64.of_int boff)
                   :: !out
             | [] -> ())
           a.Sim.Builder.blocks)
       (Lazy.force assignments);
     Array.of_list !out)

let lookup_bench kind ~policy =
  let pt = populated kind ~policy in
  let vpns = Lazy.force sample_vpns in
  (* warm caching structures (the TSBs) so the estimate is the hit
     path, comparable across organizations *)
  Array.iter (fun vpn -> ignore (Intf.lookup pt ~vpn)) vpns;
  let n = Array.length vpns in
  let i = ref 0 in
  (* the miss path every experiment runs: one reused accumulator, reset
     per walk, no walk record built *)
  let acc = Mem.Walk_acc.create () in
  Staged.stage (fun () ->
      let vpn = vpns.(!i) in
      i := (!i + 1) mod n;
      Mem.Walk_acc.reset acc;
      Sys.opaque_identity (ignore (Intf.lookup_into pt acc ~vpn)))

let lookup_block_bench kind =
  let pt = populated kind ~policy:`Base in
  let vpns = Lazy.force sample_vpns in
  let n = Array.length vpns in
  let i = ref 0 in
  Staged.stage (fun () ->
      let vpn = vpns.(!i) in
      i := (!i + 1) mod n;
      Sys.opaque_identity (ignore (Intf.lookup_block pt ~vpn ~subblock_factor:16)))

let insert_remove_bench kind =
  let pt = Sim.Factory.make kind in
  let i = ref 0 in
  Staged.stage (fun () ->
      let vpn = Int64.of_int (!i land 0xFFFF) in
      incr i;
      Intf.insert_base pt ~vpn ~ppn:(Int64.of_int (!i land 0xFFFFF)) ~attr;
      Intf.remove pt ~vpn)

(* Section 3.1: "Clustered page tables amortize the overhead of
   allocating memory for a PTE and inserting in the hash list over
   multiple PTE insertions for the same page block" — so the fair
   insertion benchmark is a whole block at a time. *)
let insert_block_bench kind =
  let pt = Sim.Factory.make kind in
  let i = ref 0 in
  Staged.stage (fun () ->
      let base = Int64.of_int ((!i land 0xFFF) * 16) in
      incr i;
      for j = 0 to 15 do
        Intf.insert_base pt
          ~vpn:(Int64.add base (Int64.of_int j))
          ~ppn:(Int64.of_int j) ~attr
      done;
      for j = 0 to 15 do
        Intf.remove pt ~vpn:(Int64.add base (Int64.of_int j))
      done)

let range_op_bench kind =
  let pt = populated kind ~policy:`Base in
  let region = Addr.Region.make ~first_vpn:0x80000L ~pages:64 in
  Staged.stage (fun () ->
      Sys.opaque_identity
        (ignore
           (Intf.set_attr_range pt region ~f:(fun a ->
                { a with Pte.Attr.referenced = true }))))

let tlb_bench make_tlb =
  let tlb = make_tlb () in
  let pt = populated Sim.Factory.clustered16 ~policy:`Base in
  let vpns = Lazy.force sample_vpns in
  let n = Array.length vpns in
  let i = ref 0 in
  let acc = Mem.Walk_acc.create () in
  Staged.stage (fun () ->
      let vpn = vpns.(!i) in
      i := (!i + 1) mod n;
      match Tlb.Intf.access tlb ~vpn with
      | `Hit -> ()
      | `Block_miss | `Subblock_miss -> (
          Mem.Walk_acc.reset acc;
          match Intf.lookup_into pt acc ~vpn with
          | Some tr -> Tlb.Intf.fill tlb tr
          | None -> ()))

let grouped group elts =
  List.map (fun (name, fn) -> (group ^ "/" ^ name, fn)) elts

let micros =
  lazy
    (List.concat
       [
         (* Figure 11a's primitive: one TLB-miss walk per organization *)
         grouped "fig11a-lookup"
           [
             ("clustered", lookup_bench Sim.Factory.clustered16 ~policy:`Base);
             ("hashed", lookup_bench Sim.Factory.Hashed ~policy:`Base);
             ("linear", lookup_bench Sim.Factory.Linear1 ~policy:`Base);
             ( "fwd-mapped",
               lookup_bench Sim.Factory.Forward_mapped ~policy:`Base );
             ("inverted", lookup_bench Sim.Factory.Inverted ~policy:`Base);
             ( "software-tlb",
               lookup_bench Sim.Factory.Software_tlb ~policy:`Base );
             ( "clustered-tsb",
               lookup_bench Sim.Factory.Clustered_tsb ~policy:`Base );
             ( "fwd-guarded",
               lookup_bench Sim.Factory.Forward_guarded ~policy:`Base );
             ( "clustered-var",
               lookup_bench Sim.Factory.Clustered_variable ~policy:`Base );
           ];
         (* Figure 11b/c: lookups against superpage/psb-bearing tables *)
         grouped "fig11bc-lookup"
           [
             ( "clustered+sp",
               lookup_bench Sim.Factory.clustered16 ~policy:`Superpage );
             ( "clustered+psb",
               lookup_bench Sim.Factory.clustered16 ~policy:`Psb );
             ( "hashed-2t+sp",
               lookup_bench
                 (Sim.Factory.Hashed_two_tables { coarse_first = false })
                 ~policy:`Superpage );
             ( "hashed-2t+psb",
               lookup_bench
                 (Sim.Factory.Hashed_two_tables { coarse_first = false })
                 ~policy:`Psb );
           ];
         (* Figure 11d's primitive: whole-block prefetch *)
         grouped "fig11d-prefetch"
           [
             ("clustered", lookup_block_bench Sim.Factory.clustered16);
             ("linear", lookup_block_bench Sim.Factory.Linear1);
             ("hashed", lookup_block_bench Sim.Factory.Hashed);
           ];
         (* Figures 9/10 exercise construction: insert/remove cycles *)
         grouped "fig9-insert-remove"
           [
             ("clustered", insert_remove_bench Sim.Factory.clustered16);
             ("hashed", insert_remove_bench Sim.Factory.Hashed);
             ("linear", insert_remove_bench Sim.Factory.Linear1);
             ("fwd-mapped", insert_remove_bench Sim.Factory.Forward_mapped);
             ( "clustered-var",
               insert_remove_bench Sim.Factory.Clustered_variable );
           ];
         (* Section 3.1: block-at-a-time insertion (the amortization claim) *)
         grouped "sec3.1-insert-block16"
           [
             ("clustered", insert_block_bench Sim.Factory.clustered16);
             ("hashed", insert_block_bench Sim.Factory.Hashed);
             ("linear", insert_block_bench Sim.Factory.Linear1);
           ];
         (* Section 3.1: range operations *)
         grouped "sec3.1-range-op"
           [
             ("clustered", range_op_bench Sim.Factory.clustered16);
             ("clustered-var", range_op_bench Sim.Factory.Clustered_variable);
             ("hashed", range_op_bench Sim.Factory.Hashed);
           ];
         (* Table 1's instrument: the TLB models themselves *)
         grouped "tlb-access"
           [
             ("fa-64", tlb_bench (fun () -> Tlb.Intf.fa ~entries:64 ()));
             ( "superpage",
               tlb_bench (fun () -> Tlb.Intf.superpage ~entries:64 ()) );
             ("psb", tlb_bench (fun () -> Tlb.Intf.psb ~entries:64 ()));
             ("csb", tlb_bench (fun () -> Tlb.Intf.csb ~entries:64 ()));
           ];
       ])

(* Minor-heap words per call, counted: [counted_calls] calls between two
   Gc.minor_words reads.  Every fixture is deterministic, so the figure
   repeats exactly from run to run (a regression estimate of the same
   quantity drifts by hundreds of words). *)
let counted_calls = 4096

let words_per_call fn =
  let fn = Staged.unstage fn in
  let before = Gc.minor_words () in
  for _ = 1 to counted_calls do
    fn ()
  done;
  (Gc.minor_words () -. before) /. float_of_int counted_calls

let run_micro () =
  (* no GC stabilization between samples: it eats the quota and leaves
     only tiny run counts, letting per-sample overhead dominate the
     regression *)
  let cfg =
    Benchmark.cfg ~limit:3000 ~stabilize:false
      ~sampling:(`Geometric 1.3) ~quota:(Time.second 0.4) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf
    "\n== Microbenchmarks (ns and minor-heap words per operation) ==\n%!";
  List.filter_map
    (fun (name, fn) ->
      (* counted first, so the fixture's state is the same every run *)
      let words = words_per_call fn in
      let elt = List.hd (Test.elements (Test.make ~name fn)) in
      let m = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
      match
        Analyze.OLS.estimates (Analyze.one ols Instance.monotonic_clock m)
      with
      | Some (ns :: _) ->
          Printf.printf "%-36s %10.1f ns/op %10.3f words/op\n%!" name ns words;
          Some (name, ns, words)
      | _ ->
          Printf.printf "%-36s (no estimate)\n%!" name;
          None)
    (Lazy.force micros)

(* --json FILE: machine-readable results for cross-commit comparison.
   schema_version 4: results grouped per experiment name under
   "experiments" — the paper-claim booleans and cache-lines-per-miss
   values ("claims", "lines_per_miss"), the churn tables, the
   concurrent-service throughput rows, the NUMA, fleet and chaos
   outcomes and the merged telemetry — plus the flat micro list, whose
   "minor_words" are exact counts.  CI gates this file against the
   committed bench/baseline/bench.json with `ptsim report`, whose rule
   table (tools/obs_report) holds every deterministic field equal and
   ignores the timing fields (wall clocks, ops/sec, ns/op) emitted for
   humans. *)
let emit_json path ~quick ~domains ~experiments_s ~churn_s ~churn_rows
    ~(report : Sim.Runner.verify_report) ~throughput_rows ~curve_rows
    ~(numa : Sim.Runner.numa_suite) ~(fleet : Sim.Runner.fleet_suite)
    ~(chaos : Sim.Runner.chaos_suite) ~micro =
  let tp_rows rows =
    Jsonx.list (List.map Sim.Runner.throughput_row_to_json rows)
  in
  let experiments =
    [
      ( "paper_suite",
        Jsonx.obj [ ("wall_clock_s", Jsonx.fixed ~dp:3 experiments_s) ] );
      ( "claims",
        Jsonx.list
          (List.map
             (fun (name, holds) ->
               Jsonx.obj
                 [ ("claim", Jsonx.string name); ("holds", Jsonx.bool holds) ])
             report.Sim.Runner.claims) );
      ( "lines_per_miss",
        Jsonx.list
          (List.map
             (fun (design, pt, lines) ->
               Jsonx.obj
                 [
                   ("design", Jsonx.string design); ("pt", Jsonx.string pt);
                   ("lines", Jsonx.fixed ~dp:4 lines);
                 ])
             report.Sim.Runner.lines_per_miss) );
      ( "churn",
        Jsonx.obj
          [
            ("wall_clock_s", Jsonx.fixed ~dp:3 churn_s);
            ( "tables",
              Jsonx.list (List.map Sim.Runner.churn_row_to_json churn_rows) );
          ] );
      (* "curve" is the seqlock-vs-striped read-mostly scaling (see
         Runner.throughput_curve) *)
      ( "throughput",
        Jsonx.obj
          [ ("rows", tp_rows throughput_rows); ("curve", tp_rows curve_rows) ]
      );
      (* the NUMA replication matrix, fleet matrix and chaos soak
         (Runner.{numa,fleet,chaos}_for_suite): the same deterministic
         documents as `ptsim numa|fleet|chaos --json` *)
      ("numa", Numa.Numa_sim.outcome_to_json numa.numa_cfg numa.numa_outcome);
      ( "fleet",
        Fleet.Fleet_sim.outcome_to_json fleet.fleet_cfg fleet.fleet_outcome );
      ( "chaos",
        Fleet.Chaos_sim.outcome_to_json chaos.chaos_cfg chaos.chaos_outcome );
      (* every counter and histogram the suite's instrumented paths
         recorded, merged across domains; the report holds these to
         ratio rules, not equality (the set of metrics grows with
         instrumentation) *)
      ( "telemetry",
        Jsonx.obj (Obs.Metrics.json_fields (Obs.Ambient.merged ())) );
    ]
  in
  let doc =
    Jsonx.obj
      [
        ("schema_version", Jsonx.int 4); ("quick", Jsonx.bool quick);
        ("domains", Jsonx.int domains); ("experiments", Jsonx.obj experiments);
        ( "micro_ns_per_op",
          Jsonx.list
            (List.map
               (fun (name, ns, words) ->
                 Jsonx.obj
                   [
                     ("name", Jsonx.string name); ("ns", Jsonx.fixed ~dp:1 ns);
                     ("minor_words", Jsonx.fixed ~dp:3 words);
                   ])
               micro) );
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Jsonx.to_string ~layout:Indented doc ^ "\n"));
  Printf.printf "\nwrote %s\n%!" path

let arg_value flag =
  let rec go i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let json = arg_value "--json" in
  let domains =
    match arg_value "--domains" with
    | Some s -> (
        match int_of_string_opt s with
        | Some d when d >= 1 -> d
        | _ ->
            Printf.eprintf "bench: --domains expects an integer >= 1, got %S\n"
              s;
            exit 2)
    | None -> Domain.recommended_domain_count ()
  in
  let options = { Sim.Runner.default_options with quick } in
  let t0 = Unix.gettimeofday () in
  Sim.Runner.all ~options ~domains ();
  let experiments_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\nexperiments wall clock: %.1fs (%d domains)\n%!"
    experiments_s domains;
  let t1 = Unix.gettimeofday () in
  let churn_rows = Sim.Runner.churn_for_suite ~options ~domains () in
  let churn_s = Unix.gettimeofday () -. t1 in
  Printf.printf "\nchurn wall clock: %.1fs (%d domains)\n%!" churn_s domains;
  let report = Sim.Runner.verify_report ~options ~domains () in
  Printf.printf "\nheadline claims: %d/%d hold\n%!"
    (List.length (List.filter snd report.Sim.Runner.claims))
    (List.length report.Sim.Runner.claims);
  let throughput_rows = Sim.Runner.throughput_for_suite ~options () in
  let curve_rows = Sim.Runner.throughput_curve_for_suite ~options () in
  let t2 = Unix.gettimeofday () in
  let numa = Sim.Runner.numa_for_suite ~options ~domains () in
  Printf.printf "\nnuma wall clock: %.1fs (%d domains, fsck %s)\n%!"
    (Unix.gettimeofday () -. t2)
    domains
    (if Sim.Runner.numa_suite_clean numa then "clean" else "DIRTY");
  let t3 = Unix.gettimeofday () in
  let fleet = Sim.Runner.fleet_for_suite ~options ~domains () in
  Printf.printf "\nfleet wall clock: %.1fs (%d domains, fsck %s)\n%!"
    (Unix.gettimeofday () -. t3)
    domains
    (if Sim.Runner.fleet_suite_clean fleet then "clean" else "DIRTY");
  let t4 = Unix.gettimeofday () in
  let chaos = Sim.Runner.chaos_for_suite ~options ~domains () in
  Printf.printf "\nchaos wall clock: %.1fs (%d domains, recoveries %s)\n%!"
    (Unix.gettimeofday () -. t4)
    domains
    (if Sim.Runner.chaos_suite_clean chaos then "converged" else "DIVERGED");
  let micro = run_micro () in
  Option.iter
    (fun path ->
      emit_json path ~quick ~domains ~experiments_s ~churn_s ~churn_rows
        ~report ~throughput_rows ~curve_rows
        ~numa ~fleet ~chaos ~micro)
    json
