(* NUMA replication: the machine cost model, per-bucket generation
   counters, replica agreement under eager and lazy fan-out (qcheck
   convergence at quiesce), a concurrent 4-domain oracle per
   organization, cross-replica fsck vs the corruption injector (no
   false negatives), the migration policy, domain-count invariance of
   the numa driver, and a replica-write fault soak ending clean. *)

module M = Numa.Machine
module R = Numa.Replicated
module P = Numa.Policy
module NS = Numa.Numa_sim
module G = Clustered_pt.Generation
module S = Pt_service.Service
module WP = Exec.Worker_pool

let attr = Pte.Attr.default

(* --- machine cost model --- *)

let test_machine_costs () =
  let m = M.make ~nodes:4 ~local_cost:1 ~remote_cost:4 () in
  Alcotest.(check int) "nodes" 4 (M.nodes m);
  Alcotest.(check bool) "local" true (M.is_local m ~reader:2 ~home:2);
  Alcotest.(check bool) "remote" false (M.is_local m ~reader:2 ~home:0);
  Alcotest.(check int) "local line" 1 (M.line_cost m ~reader:1 ~home:1);
  Alcotest.(check int) "remote line" 4 (M.line_cost m ~reader:1 ~home:3);
  Alcotest.(check int) "walk cost" 12 (M.walk_cost m ~reader:0 ~home:1 ~lines:3);
  Alcotest.check_raises "remote < local rejected"
    (Invalid_argument "Machine.make: remote_cost must be >= local_cost")
    (fun () -> ignore (M.make ~nodes:2 ~local_cost:5 ~remote_cost:2 ()));
  Alcotest.check_raises "zero nodes rejected"
    (Invalid_argument "Machine.make: nodes must be >= 1") (fun () ->
      ignore (M.make ~nodes:0 ()))

(* --- per-bucket generation counters --- *)

let test_generation_counters () =
  let g = G.create ~buckets:8 in
  Alcotest.(check int) "fresh" 0 (G.get g ~bucket:3);
  Alcotest.(check int) "bump returns new" 1 (G.bump g ~bucket:3);
  Alcotest.(check int) "bump again" 2 (G.bump g ~bucket:3);
  G.set_at_least g ~bucket:3 1;
  Alcotest.(check int) "set_at_least never regresses" 2 (G.get g ~bucket:3);
  G.set_at_least g ~bucket:5 7;
  Alcotest.(check int) "set_at_least raises" 7 (G.get g ~bucket:5);
  Alcotest.(check (array int))
    "snapshot" [| 0; 0; 0; 2; 0; 7; 0; 0 |] (G.snapshot g)

(* --- helpers --- *)

let machine nodes = M.make ~nodes ()

let make ?buckets ~org ~mode nodes =
  R.create ?buckets ~machine:(machine nodes) ~org ~locking:S.Seqlock ~mode ()

let vpn_of i = Int64.of_int (0x5000 + (i * 17))

(* a deterministic mixed op stream applied from rotating nodes *)
let apply_stream repl ~nodes ~ops ~seed model =
  for i = 0 to ops - 1 do
    let r = Addr.Bits.mix64 (Int64.of_int ((seed * 1_000_003) + i)) in
    let node = i mod nodes in
    let vpn = vpn_of (Int64.to_int (Int64.logand r 0xFFL)) in
    let pct = Int64.to_int (Int64.logand (Int64.shift_right_logical r 8) 99L) in
    if pct < 55 then begin
      let ppn = Int64.logand (Int64.shift_right_logical r 16) 0xFFFFFL in
      R.insert ~node repl ~vpn ~ppn ~attr;
      Hashtbl.replace model vpn ppn
    end
    else if pct < 80 then begin
      R.remove ~node repl ~vpn;
      Hashtbl.remove model vpn
    end
    else ignore (R.lookup repl ~node ~vpn)
  done

let check_against_model repl ~nodes model =
  Hashtbl.iter
    (fun vpn _ ->
      for node = 0 to nodes - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "vpn 0x%Lx present on node %d" vpn node)
          true
          (R.lookup repl ~node ~vpn)
      done)
    model;
  Alcotest.(check int) "population" (Hashtbl.length model) (R.population repl)

(* --- eager fan-out keeps every replica equal --- *)

let test_eager_replicas_agree () =
  List.iter
    (fun org ->
      let nodes = 3 in
      let repl = make ~buckets:64 ~org ~mode:R.Eager nodes in
      let model = Hashtbl.create 64 in
      apply_stream repl ~nodes ~ops:800 ~seed:1 model;
      R.quiesce repl;
      check_against_model repl ~nodes model;
      Alcotest.(check bool)
        "fsck clean (per-replica + cross-replica)" true
        (Fsck.clean (R.fsck repl));
      let s = R.stats repl in
      Alcotest.(check int)
        "eager write amplification = nodes"
        (s.R.logical_writes * nodes)
        s.R.replica_writes)
    [ S.Clustered; S.Hashed ]

(* --- lazy catch-up: qcheck convergence at quiesce --- *)

let test_lazy_convergence_qcheck =
  QCheck.Test.make ~count:60 ~name:"lazy writes + catch-ups converge at sync"
    QCheck.(
      pair (int_bound 1_000_000) (pair (int_range 2 4) (int_range 50 400)))
    (fun (seed, (nodes, ops)) ->
      let repl = make ~buckets:32 ~org:S.Clustered ~mode:R.Lazy nodes in
      let model = Hashtbl.create 64 in
      apply_stream repl ~nodes ~ops ~seed model;
      (* mid-run staleness is expected; quiesce must erase it *)
      R.quiesce repl;
      if R.pending_ops repl <> 0 then
        QCheck.Test.fail_report "journal not drained at quiesce";
      if R.stale_buckets repl <> 0 then
        QCheck.Test.fail_report "stale buckets survived quiesce";
      if not (Fsck.clean (R.fsck repl)) then
        QCheck.Test.fail_report "replicas diverged after quiesce";
      Hashtbl.fold
        (fun vpn _ ok ->
          ok
          && List.for_all
               (fun node -> R.lookup repl ~node ~vpn)
               (List.init nodes Fun.id))
        model
        (R.population repl = Hashtbl.length model))

(* lazy reads trigger pull-on-read catch-up rather than serving stale
   buckets: a write at the primary is visible from every node's next
   read, no sync needed *)
let test_lazy_read_sees_writes () =
  let nodes = 3 in
  let repl = make ~buckets:16 ~org:S.Hashed ~mode:R.Lazy nodes in
  R.insert ~node:0 repl ~vpn:0x77L ~ppn:0x1234L ~attr;
  Alcotest.(check bool) "stale replicas exist" true (R.stale_buckets repl > 0);
  for node = 0 to nodes - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d reads through catch-up" node)
      true
      (R.lookup repl ~node ~vpn:0x77L)
  done;
  let s = R.stats repl in
  Alcotest.(check bool) "catch-up episodes recorded" true (s.R.catchups > 0);
  R.remove ~node:2 repl ~vpn:0x77L;
  for node = 0 to nodes - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d sees the remove" node)
      false
      (R.lookup repl ~node ~vpn:0x77L)
  done

(* --- concurrent 4-domain oracle per organization --- *)

let test_concurrent_oracle () =
  List.iter
    (fun org ->
      List.iter
        (fun mode ->
          let nodes = 4 in
          let domains = 4 in
          let repl = make ~org ~mode nodes in
          (* stream s owns the VPNs whose bucket lands on s mod
             streams: chains never cross streams, so the concurrent
             run is equivalent to any sequential interleaving *)
          let streams = nodes in
          let pools = Array.make streams [] in
          let v = ref 0x9_0000L in
          let assigned = ref 0 in
          while !assigned < streams * 64 do
            let s = R.bucket_of repl ~vpn:!v mod streams in
            if List.length (Array.get pools s) < 64 then begin
              pools.(s) <- !v :: pools.(s);
              incr assigned
            end;
            v := Int64.add !v 1L
          done;
          let model = Hashtbl.create 256 in
          (* sequential oracle first *)
          Array.iteri
            (fun s pool ->
              List.iteri
                (fun i vpn ->
                  if (i + s) mod 3 < 2 then
                    Hashtbl.replace model vpn (Int64.logand vpn 0xFFFFL)
                  else Hashtbl.remove model vpn)
                pool)
            pools;
          WP.with_pool ~epochs:(R.reader_epochs repl) ~domains (fun pool ->
              WP.run pool (fun d ->
                  Array.iteri
                    (fun s stream_pool ->
                      if s mod domains = d then
                        List.iteri
                          (fun i vpn ->
                            let node = s mod nodes in
                            if (i + s) mod 3 < 2 then
                              R.insert ~node repl ~vpn
                                ~ppn:(Int64.logand vpn 0xFFFFL) ~attr
                            else R.remove ~node repl ~vpn;
                            ignore (R.lookup repl ~node ~vpn))
                          stream_pool)
                    pools));
          R.quiesce repl;
          check_against_model repl ~nodes model;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s fsck clean" (S.org_name org)
               (R.mode_name mode))
            true
            (Fsck.clean (R.fsck repl)))
        [ R.Eager; R.Lazy ])
    [ S.Clustered; S.Hashed ]

(* --- cross-replica fsck vs the corruption injector --- *)

let test_corruption_no_false_negatives () =
  List.iter
    (fun org ->
      List.iter
        (fun kind ->
          let repl = make ~buckets:32 ~org ~mode:R.Eager 3 in
          let model = Hashtbl.create 64 in
          apply_stream repl ~nodes:3 ~ops:300 ~seed:5 model;
          R.quiesce repl;
          Alcotest.(check bool)
            (Printf.sprintf "%s healthy before %s" (S.org_name org) kind)
            true
            (Fsck.clean (R.fsck repl));
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s found a site" (S.org_name org) kind)
            true (R.corrupt repl kind);
          Alcotest.(check bool)
            (Printf.sprintf "%s: fsck catches %s" (S.org_name org) kind)
            false
            (Fsck.clean (R.fsck repl)))
        R.corruption_kinds)
    [ S.Clustered; S.Hashed ]

(* a single-replica configuration has no cross-replica sites *)
let test_corruption_needs_replicas () =
  let repl = make ~buckets:32 ~org:S.Clustered ~mode:R.Single_home 2 in
  R.insert ~node:0 repl ~vpn:0x10L ~ppn:0x20L ~attr;
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (kind ^ " inapplicable with one replica")
        false (R.corrupt repl kind))
    R.corruption_kinds

(* --- migration policy --- *)

let test_policy_decisions () =
  let m = M.make ~nodes:4 ~local_cost:1 ~remote_cost:4 () in
  (* read-mostly from everywhere: replicate *)
  Alcotest.(check bool)
    "hot read-mostly space replicates" true
    (P.decide m ~reads_per_node:[| 500; 500; 500; 500 |] ~writes:10
    = P.Replicate);
  (* write-heavy with one dominant reader: home it there *)
  Alcotest.(check bool)
    "write-heavy space homes at its dominant reader" true
    (P.decide m ~reads_per_node:[| 5; 400; 5; 5 |] ~writes:300 = P.Home 1);
  (* no reads at all: stay single-homed *)
  Alcotest.(check bool)
    "idle space stays homed" true
    (match P.decide m ~reads_per_node:[| 0; 0; 0; 0 |] ~writes:50 with
    | P.Home _ -> true
    | P.Replicate -> false);
  Alcotest.check_raises "slot count enforced"
    (Invalid_argument "Policy.decide: reads_per_node must have one slot per node")
    (fun () -> ignore (P.decide m ~reads_per_node:[| 1; 2 |] ~writes:0))

let test_policy_reduces_remote_lines () =
  List.iter
    (fun org ->
      let row = NS.run_policy NS.quick_config ~org ~nodes:4 in
      Alcotest.(check bool)
        (S.org_name org ^ ": policy beats single-home baseline")
        true
        (row.NS.p_policy_remote_lines < row.NS.p_baseline_remote_lines);
      Alcotest.(check bool)
        (S.org_name org ^ ": policy replicated and homed spaces")
        true
        (row.NS.p_replicated > 0 && row.NS.p_homed > 0))
    [ S.Clustered; S.Hashed ]

(* --- the numa driver: domain-count invariance and the fault soak --- *)

let test_numa_sim_domain_invariance () =
  let cfg = { NS.quick_config with NS.node_counts = [ 3 ] } in
  let run domains = NS.run { cfg with NS.domains } in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check bool)
    "rows and policy identical for 1 and 4 domains" true
    (serial = parallel);
  Alcotest.(check bool) "all rows fsck clean" true (NS.all_clean serial);
  Alcotest.(check string)
    "JSON byte-identical"
    (Jsonx.to_string (NS.outcome_to_json { cfg with NS.domains = 1 } serial))
    (Jsonx.to_string
       (NS.outcome_to_json { cfg with NS.domains = 4 } parallel));
  (* a zero count used to run nothing and report a clean outcome *)
  List.iter
    (fun (what, bad) ->
      match NS.run bad with
      | _ -> Alcotest.failf "%s = 0 must be rejected" what
      | exception Invalid_argument _ -> ())
    [
      ("streams_per_node", { cfg with NS.streams_per_node = 0 });
      ("rounds", { cfg with NS.rounds = 0 });
    ]

let test_numa_sim_fault_soak () =
  let cfg =
    {
      NS.quick_config with
      NS.node_counts = [ 2 ];
      modes = [ R.Eager ];
      orgs = [ S.Clustered ];
      fault_rate_ppm = 200_000;
    }
  in
  let row = NS.run_one cfg ~org:S.Clustered ~mode:R.Eager ~nodes:2 in
  Alcotest.(check bool) "faults actually fired" true (row.NS.r_injected > 0);
  Alcotest.(check bool)
    "degraded buckets healed by catch-up" true
    (row.NS.r_eager_skips > 0 || row.NS.r_injected > 0);
  Alcotest.(check bool) "soak ends fsck-clean" true row.NS.r_fsck_clean;
  (* and identically so for any worker count *)
  let again d = NS.run_one { cfg with NS.domains = d } ~org:S.Clustered
      ~mode:R.Eager ~nodes:2
  in
  Alcotest.(check bool) "soak domain-invariant" true (again 1 = again 3)

(* --- churn replay per node --- *)

let test_numa_replay_invariance () =
  let spec =
    {
      Dynamics.Churn.default with
      Dynamics.Churn.ops = 1_500;
      max_procs = 6;
      max_live_pages = 3_000;
    }
  in
  let trace = Dynamics.Churn.generate ~spec ~seed:0xBEEFL () in
  List.iter
    (fun mode ->
      let run domains =
        Dynamics.Numa_replay.run ~domains ~machine:(machine 3)
          ~org:S.Clustered ~locking:S.Striped ~mode trace
      in
      let serial = run 1 in
      let parallel = run 4 in
      Alcotest.(check bool)
        (R.mode_name mode ^ " replay identical for 1 and 4 domains")
        true (serial = parallel);
      Alcotest.(check bool)
        "replay did real work" true
        (serial.Dynamics.Numa_replay.inserts > 0
        && serial.Dynamics.Numa_replay.families > 0);
      Alcotest.(check bool)
        "replay ends fsck-clean" true serial.Dynamics.Numa_replay.fsck_clean;
      Alcotest.(check int)
        "replica writes = logical x replicas at quiesce"
        (serial.Dynamics.Numa_replay.logical_writes
        * (if mode = R.Single_home then 1 else 3))
        serial.Dynamics.Numa_replay.replica_writes)
    [ R.Single_home; R.Eager; R.Lazy ]

let suite =
  ( "numa",
    [
      Alcotest.test_case "machine cost model" `Quick test_machine_costs;
      Alcotest.test_case "generation counters" `Quick test_generation_counters;
      Alcotest.test_case "eager replicas agree" `Quick
        test_eager_replicas_agree;
      QCheck_alcotest.to_alcotest test_lazy_convergence_qcheck;
      Alcotest.test_case "lazy reads pull catch-up" `Quick
        test_lazy_read_sees_writes;
      Alcotest.test_case "concurrent 4-domain oracle" `Slow
        test_concurrent_oracle;
      Alcotest.test_case "corruption injector: no false negatives" `Quick
        test_corruption_no_false_negatives;
      Alcotest.test_case "corruption needs replicas" `Quick
        test_corruption_needs_replicas;
      Alcotest.test_case "policy decisions" `Quick test_policy_decisions;
      Alcotest.test_case "policy reduces remote lines" `Slow
        test_policy_reduces_remote_lines;
      Alcotest.test_case "numa driver domain-invariant" `Slow
        test_numa_sim_domain_invariance;
      Alcotest.test_case "replica-write fault soak" `Slow
        test_numa_sim_fault_soak;
      Alcotest.test_case "churn replay per node" `Slow
        test_numa_replay_invariance;
    ] )
