(* Smoke tests of the experiment runner: every table, figure and
   ablation executes end-to-end on reduced inputs and returns sane
   values.  (Figure-shape assertions live in test_sim.ml.) *)

let options =
  {
    Sim.Runner.seed = 0xAAAL;
    length = 8_000;
    placement_p = 0.9;
    quick = true;
  }

let test_table1 () =
  let rows = Sim.Runner.table1 ~options () in
  Alcotest.(check int) "quick mode runs three workloads" 3 (List.length rows);
  List.iter
    (fun (name, misses, pct, bytes) ->
      Alcotest.(check bool) (name ^ " misses positive") true (misses > 0);
      Alcotest.(check bool) (name ^ " pct in range") true
        (pct > 0.0 && pct < 100.0);
      Alcotest.(check bool) (name ^ " hashed bytes") true (bytes > 0))
    rows

let test_table2 () = Sim.Runner.table2 ~options ()

let test_figure11_all_designs () =
  List.iter
    (fun design ->
      let runs = Sim.Runner.figure11 ~options ~design () in
      List.iter
        (fun run ->
          List.iter
            (fun r ->
              Alcotest.(check bool)
                (r.Sim.Access_exp.pt ^ " lines sane")
                true
                (r.Sim.Access_exp.mean_lines >= 0.9
                && r.Sim.Access_exp.mean_lines < 40.0))
            run.Sim.Access_exp.results)
        runs)
    [ Sim.Access_exp.Superpage; Sim.Access_exp.Psb ]

let test_line_size_monotone () =
  let out = Sim.Runner.ablation_line_size ~options () in
  match List.map snd out with
  | [ l64; l128; l256 ] ->
      Alcotest.(check bool) "smaller lines cost more" true
        (l64 >= l128 && l128 >= l256)
  | _ -> Alcotest.fail "expected three line sizes"

let test_buckets_monotone () =
  let out = Sim.Runner.ablation_buckets ~options () in
  let lines = List.map (fun (_, _, l) -> l) out in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a +. 1e-9 >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "more buckets, fewer lines" true (non_increasing lines);
  List.iter
    (fun (_, load, lines) ->
      (* the appendix formula within a third *)
      let formula = Sim.Analytic.clustered_lines ~load_factor:load in
      Alcotest.(check bool) "near 1 + load/2" true
        (abs_float (lines -. formula) /. formula < 0.34))
    out

let test_asid_returns_pairs () =
  let out = Sim.Runner.ablation_asid ~options () in
  Alcotest.(check int) "two multiprogrammed workloads" 2 (List.length out);
  List.iter
    (fun (_, flush, tagged) ->
      Alcotest.(check bool) "tagged never worse" true (tagged <= flush))
    out

let test_residency_runs () =
  let out = Sim.Runner.ablation_residency ~options () in
  Alcotest.(check bool) "non-empty" true (out <> [])

let test_remaining_ablations_run () =
  Sim.Runner.ablation_subblock ~options ();
  Sim.Runner.ablation_reverse_order ~options ();
  Sim.Runner.ablation_placement ~options ();
  Sim.Runner.ablation_tlb_size ~options ();
  Sim.Runner.ablation_software_tlb ~options ();
  Sim.Runner.ablation_shared_table ~options ();
  Sim.Runner.ablation_guarded ~options ();
  Sim.Runner.ablation_nested_linear ~options ();
  Sim.Runner.ablation_variable_factor ~options ();
  Sim.Runner.ablation_replacement ~options ();
  Sim.Runner.extension_future64 ~options ()

let suite =
  ( "runner",
    [
      Alcotest.test_case "table 1" `Slow test_table1;
      Alcotest.test_case "table 2" `Slow test_table2;
      Alcotest.test_case "figure 11 designs" `Slow test_figure11_all_designs;
      Alcotest.test_case "line-size monotone" `Slow test_line_size_monotone;
      Alcotest.test_case "buckets monotone + formula" `Slow test_buckets_monotone;
      Alcotest.test_case "asid pairs" `Slow test_asid_returns_pairs;
      Alcotest.test_case "residency" `Slow test_residency_runs;
      Alcotest.test_case "all other ablations run" `Slow
        test_remaining_ablations_run;
    ] )

let test_verify_passes () =
  Alcotest.(check bool) "all headline claims hold" true
    (Sim.Runner.verify
       ~options:
         { options with Sim.Runner.length = 20_000; placement_p = 0.95 }
       ())

(* verify checks Figure 11 at the options' placement, as figure11 does:
   its nasa7 lines per miss are figure11's, design by design *)
let test_verify_placement () =
  let options = { options with Sim.Runner.placement_p = 0.5 } in
  let report = Sim.Runner.verify_report ~options () in
  List.iter
    (fun (tag, design) ->
      let nasa7 =
        List.find
          (fun run -> run.Sim.Access_exp.spec.Workload.Spec.name = "nasa7")
          (Sim.Runner.figure11 ~options ~design ())
      in
      List.iter
        (fun r ->
          Alcotest.(check (option (float 0.0)))
            (tag ^ " " ^ r.Sim.Access_exp.pt)
            (Some r.Sim.Access_exp.mean_lines)
            (List.find_map
               (fun (t, pt, lines) ->
                 if t = tag && pt = r.Sim.Access_exp.pt then Some lines
                 else None)
               report.Sim.Runner.lines_per_miss))
        nasa7.Sim.Access_exp.results)
    [
      ("single", Sim.Access_exp.Single);
      ("superpage", Sim.Access_exp.Superpage);
      ("csb", Sim.Access_exp.Csb);
    ]

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "verify command" `Slow test_verify_passes;
        Alcotest.test_case "verify at the options' placement" `Slow
          test_verify_placement;
      ] )
