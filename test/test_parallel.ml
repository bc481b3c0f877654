(* The parallel harness contract: every experiment entry point returns
   bit-identical results for any domain count, because jobs derive all
   randomness from their workload index, never from execution order. *)

let options =
  {
    Sim.Runner.seed = 0xAAAL;
    length = 8_000;
    placement_p = 0.9;
    quick = true;
  }

(* --- Soak.map: the index-keyed fan-out --- *)

let test_pool_map_order () =
  let inputs = Array.init 100 (fun i -> i) in
  let out = Exec.Soak.map ~domains:4 (fun _ x -> x * x) inputs in
  Alcotest.(check (array int))
    "results land at their input's index"
    (Array.map (fun x -> x * x) inputs)
    out

let test_pool_map_empty () =
  Alcotest.(check (array int))
    "empty input" [||]
    (Exec.Soak.map ~domains:4 (fun _ x -> x) [||])

let test_pool_serial_matches_parallel () =
  let inputs = Array.init 33 (fun i -> i) in
  let f _ x = (x * 7) + 1 in
  Alcotest.(check (array int))
    "domains:1 = domains:4"
    (Exec.Soak.map ~domains:1 f inputs)
    (Exec.Soak.map ~domains:4 f inputs);
  (* one domain runs the jobs in ascending index on the caller *)
  let order = ref [] and caller = Domain.self () in
  ignore
    (Exec.Soak.map ~domains:1
       (fun i _ ->
         if Domain.self () <> caller then Alcotest.fail "left the caller";
         order := i :: !order)
       inputs);
  Alcotest.(check (list int))
    "ascending on the calling domain" (List.init 33 Fun.id)
    (List.rev !order)

exception Boom of int

let test_pool_propagates_failure () =
  let failing bad =
    Exec.Soak.map ~domains:4
      (fun _ x -> if List.mem x bad then raise (Boom x) else x)
      (Array.init 16 (fun i -> i))
  in
  (match failing [ 5 ] with
  | _ -> Alcotest.fail "expected the job's own exception"
  | exception Boom 5 -> ());
  (* two failures: the lowest index wins, whichever ran first *)
  for _ = 1 to 20 do
    match failing [ 11; 3 ] with
    | _ -> Alcotest.fail "expected the job's own exception"
    | exception Boom 3 -> ()
  done

(* --- Worker_pool: the long-lived variant --- *)

let test_worker_pool_runs_each_index_once () =
  Exec.Worker_pool.with_pool ~domains:4 (fun pool ->
      let hits = Array.make 4 0 in
      Exec.Worker_pool.run pool (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int))
        "each worker index ran exactly once" [| 1; 1; 1; 1 |] hits)

let test_worker_pool_reuse_across_jobs () =
  Exec.Worker_pool.with_pool ~domains:3 (fun pool ->
      let acc = Array.make 3 0 in
      for _ = 1 to 10 do
        Exec.Worker_pool.run pool (fun i -> acc.(i) <- acc.(i) + 1)
      done;
      Alcotest.(check (array int))
        "ten jobs through the same domains" [| 10; 10; 10 |] acc)

let test_worker_pool_propagates_failure () =
  Exec.Worker_pool.with_pool ~domains:4 (fun pool ->
      (match
         Exec.Worker_pool.run pool (fun i ->
             if i = 2 then failwith "boom")
       with
      | () -> Alcotest.fail "expected Worker_failed"
      | exception Exec.Worker_pool.Worker_failed [ (2, Failure m) ] ->
          Alcotest.(check string) "original exception carried" "boom" m
      | exception e -> raise e);
      (* the pool must survive a failed job *)
      let ok = Array.make 4 false in
      Exec.Worker_pool.run pool (fun i -> ok.(i) <- true);
      Alcotest.(check bool)
        "pool still dispatches after a failure" true
        (Array.for_all Fun.id ok))

let test_worker_pool_shutdown_idempotent () =
  let pool = Exec.Worker_pool.create ~domains:2 () in
  Exec.Worker_pool.run pool (fun _ -> ());
  Exec.Worker_pool.shutdown pool;
  Exec.Worker_pool.shutdown pool;
  match Exec.Worker_pool.run pool (fun _ -> ()) with
  | () -> Alcotest.fail "run after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

(* --- epoch-based reclamation (the seqlock read path's safety net) --- *)

let test_worker_pool_epoch_lifecycle () =
  let e = Exec.Epoch.create () in
  Exec.Worker_pool.with_pool ~epochs:[ e ] ~domains:3 (fun pool ->
      Exec.Worker_pool.run pool (fun _ -> ());
      Alcotest.(check int)
        "every worker holds a reader slot for its lifetime" 3
        (Exec.Epoch.registered e));
  Alcotest.(check int) "slots returned at shutdown" 0 (Exec.Epoch.registered e);
  Alcotest.(check int) "no pins outlive the pool" max_int
    (Exec.Epoch.safe_before e)

(* --- Soak: fixed streams dealt over the pool --- *)

(* Which domain ran each stream, in call order, over one [each]. *)
let soak_placement soak =
  let m = Mutex.create () in
  let log = ref [] in
  Exec.Soak.each soak (fun s ->
      Mutex.protect m (fun () -> log := ((Domain.self () :> int), s) :: !log));
  let per_domain = Hashtbl.create 8 in
  List.iter
    (fun (d, s) ->
      Hashtbl.replace per_domain d
        (s :: Option.value ~default:[] (Hashtbl.find_opt per_domain d)))
    !log;
  Hashtbl.fold (fun _ ss acc -> ss :: acc) per_domain [] |> List.sort compare

let test_soak_deals_streams () =
  List.iter
    (fun (domains, streams) ->
      (* worker [w] runs [w; w + domains; ...] in that order *)
      let expected =
        List.init (min domains streams) (fun w ->
            List.filter (fun s -> s mod domains = w) (List.init streams Fun.id))
      in
      Exec.Soak.with_streams ~domains ~streams (fun soak ->
          for _ = 1 to 2 do
            Alcotest.(check (list (list int)))
              (Printf.sprintf "%d streams over %d domains" streams domains)
              expected
              (soak_placement soak)
          done))
    [ (3, 7); (1, 4); (4, 2) ]

let test_soak_redispatches_crash () =
  let runs = Array.make 4 0 in
  let crashed = Atomic.make false in
  Exec.Soak.with_streams ~domains:2 ~streams:4 (fun soak ->
      Exec.Soak.each soak (fun s ->
          runs.(s) <- runs.(s) + 1;
          if s = 1 && not (Atomic.exchange crashed true) then
            raise (Fault.Injected { site = Fault.Domain_crash; key = s }));
      (* stream 1's crash cut worker 1 short before stream 3; the
         second dispatch ran every stream *)
      Alcotest.(check (array int)) "round dispatched again" [| 2; 2; 2; 1 |] runs;
      Alcotest.(check int) "the crashed worker was respawned" 1
        (Exec.Soak.restarts soak))

let test_soak_reraises_other () =
  Exec.Soak.with_streams ~domains:2 ~streams:4 (fun soak ->
      match
        Exec.Soak.each soak (fun s ->
            if s = 1 then
              raise (Fault.Injected { site = Fault.Shard_crash; key = s });
            if s = 2 then failwith "boom")
      with
      | () -> Alcotest.fail "expected the failure to be re-raised"
      | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
  match Exec.Soak.with_streams ~domains:1 ~streams:0 ignore with
  | () -> Alcotest.fail "zero streams must be rejected"
  | exception Invalid_argument _ -> ()

(* qcheck: under any pin/refresh/retire interleaving, a stamp handed
   out while a reader is pinned is never strictly below safe_before —
   i.e. the node it protects cannot be recycled under the reader — and
   everything becomes reclaimable once the reader unregisters *)
let prop_epoch_pin_blocks_reclaim =
  QCheck.Test.make
    ~name:"epoch: pinned stamps unreclaimable; unregister releases all"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 2))
    (fun ops ->
      let e = Exec.Epoch.create () in
      Exec.Epoch.register e;
      Exec.Epoch.pin e;
      List.iter
        (fun op ->
          match op with
          | 0 ->
              let stamp = Exec.Epoch.retire_stamp e in
              if stamp < Exec.Epoch.safe_before e then
                QCheck.Test.fail_report
                  "stamp retired under a pin fell below safe_before"
          | 1 -> Exec.Epoch.pin e (* refresh *)
          | _ ->
              if Exec.Epoch.safe_before e = max_int then
                QCheck.Test.fail_report
                  "safe_before claims quiescence while a reader is pinned")
        ops;
      Exec.Epoch.unpin e;
      let quiescent = Exec.Epoch.safe_before e = max_int in
      Exec.Epoch.unregister e;
      if not quiescent then
        QCheck.Test.fail_report "unpin did not release reclamation";
      Exec.Epoch.registered e = 0)

let test_figure9_deterministic () =
  let serial = Sim.Runner.figure9 ~options ~domains:1 () in
  let parallel = Sim.Runner.figure9 ~options ~domains:4 () in
  Alcotest.(check bool)
    "figure 9 rows identical across domain counts" true (serial = parallel)

let test_figure11_deterministic () =
  let run domains =
    Sim.Runner.figure11 ~options ~domains ~design:Sim.Access_exp.Single ()
  in
  Alcotest.(check bool)
    "figure 11a runs identical across domain counts" true (run 1 = run 4)

let test_residency_deterministic () =
  let run domains = Sim.Runner.ablation_residency ~options ~domains () in
  Alcotest.(check bool)
    "residency rows identical across domain counts" true (run 1 = run 4)

(* the PR 4 telemetry contract: per-domain metric shards merge to the
   same registry however the jobs were dealt over domains, because the
   merge is a commutative, associative sum of deterministic per-job
   observations *)
let test_telemetry_domain_invariance () =
  let run domains =
    Obs.Ambient.reset ();
    ignore
      (Sim.Runner.figure11 ~options ~domains ~design:Sim.Access_exp.Single ());
    Obs.Ambient.merged ()
  in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check bool)
    "merged os.* metrics identical across domain counts" true
    (Obs.Metrics.equal serial parallel);
  Alcotest.(check bool)
    "misses were recorded" true
    (Obs.Metrics.value (Obs.Metrics.counter serial "sim.tlb_misses") > 0);
  Alcotest.(check bool)
    "walk-line histograms were recorded" true
    (Obs.Hist.count (Obs.Metrics.hist serial "sim.walk_lines.hashed") > 0);
  Obs.Ambient.reset ()

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool map order" `Quick test_pool_map_order;
      Alcotest.test_case "pool empty input" `Quick test_pool_map_empty;
      Alcotest.test_case "pool serial = parallel" `Quick
        test_pool_serial_matches_parallel;
      Alcotest.test_case "pool failure propagation" `Quick
        test_pool_propagates_failure;
      Alcotest.test_case "worker pool index coverage" `Quick
        test_worker_pool_runs_each_index_once;
      Alcotest.test_case "worker pool reuse across jobs" `Quick
        test_worker_pool_reuse_across_jobs;
      Alcotest.test_case "worker pool failure propagation" `Quick
        test_worker_pool_propagates_failure;
      Alcotest.test_case "worker pool shutdown" `Quick
        test_worker_pool_shutdown_idempotent;
      Alcotest.test_case "worker pool epoch lifecycle" `Quick
        test_worker_pool_epoch_lifecycle;
      Alcotest.test_case "soak deals stream s to worker s mod domains" `Quick
        test_soak_deals_streams;
      Alcotest.test_case "soak re-dispatches after a supervised crash" `Quick
        test_soak_redispatches_crash;
      Alcotest.test_case "soak re-raises other failures" `Quick
        test_soak_reraises_other;
      QCheck_alcotest.to_alcotest prop_epoch_pin_blocks_reclaim;
      Alcotest.test_case "figure 9 domain-count invariance" `Slow
        test_figure9_deterministic;
      Alcotest.test_case "figure 11 domain-count invariance" `Slow
        test_figure11_deterministic;
      Alcotest.test_case "residency domain-count invariance" `Slow
        test_residency_deterministic;
      Alcotest.test_case "telemetry domain-count invariance" `Slow
        test_telemetry_domain_invariance;
    ] )
