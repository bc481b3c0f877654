(* Fault injection, fsck, and self-healing.

   Three layers under test: the deterministic fault plan (pure
   decisions, sites that fail exactly where armed), the integrity
   checker and repairer over both organizations (no false negatives
   against the corruption injector, no false positives on healthy
   tables), and the self-healing service (journal rollback, bounded
   retry, degraded-mode aborts, supervised worker restarts) — capped
   by the faultsim soak's domain-count invariance. *)

module CT = Clustered_pt.Table
module HT = Baselines.Hashed_pt
module WP = Exec.Worker_pool
module BL = Clustered_pt.Bucket_lock.Real
module S = Pt_service.Service
module FS = Pt_service.Faultsim

let attr = Pte.Attr.default

(* --- table builders with every representation the checker knows --- *)

let build_clustered () =
  let t =
    CT.create (Clustered_pt.Config.make ~buckets:256 ~subblock_factor:16 ())
  in
  for i = 0 to 199 do
    let r = Addr.Bits.mix64 (Int64.of_int (i + 1)) in
    let vpn = Int64.logand r 0x3FFFL in
    let ppn = Int64.logand (Int64.shift_right_logical r 16) 0xFFFFFL in
    CT.insert_base t ~vpn ~ppn ~attr
  done;
  CT.insert_superpage t ~vpn:0x40000L ~size:Addr.Page_size.kb64 ~ppn:0x1000L
    ~attr;
  CT.insert_superpage t ~vpn:0x80000L ~size:Addr.Page_size.kb256 ~ppn:0x2000L
    ~attr;
  CT.insert_psb t ~vpbn:0x3000L ~vmask:0b101 ~ppn:0x4000L ~attr;
  Pt_common.Intf.Concurrent ((module CT), t)

let build_hashed () =
  let t =
    HT.create ~buckets:256 ~subblock_factor:16 ~mode:HT.No_superpages ()
  in
  for i = 0 to 199 do
    let r = Addr.Bits.mix64 (Int64.of_int (i + 1)) in
    let vpn = Int64.logand r 0x3FFFL in
    let ppn = Int64.logand (Int64.shift_right_logical r 16) 0xFFFFFL in
    HT.insert_base t ~vpn ~ppn ~attr
  done;
  Pt_common.Intf.Concurrent ((module HT), t)

let builders = [ ("clustered", build_clustered); ("hashed", build_hashed) ]

(* --- the plan: pure decisions, identical on any domain --- *)

let test_plan_pure () =
  let p = Fault.plan ~rate_ppm:300_000 ~seed:99 () in
  let sample () =
    List.concat_map
      (fun site ->
        List.init 64 (fun key ->
            List.init 3 (fun attempt -> Fault.decide p ~site ~key ~attempt)))
      Fault.all_sites
  in
  let here = sample () in
  let there = Domain.join (Domain.spawn sample) in
  Alcotest.(check bool) "same decisions on another domain" true (here = there);
  let armed = List.length (List.filter Fun.id (List.concat here)) in
  Alcotest.(check bool) "rate neither zero nor saturated" true
    (armed > 0 && armed < List.length (List.concat here))

let test_sites_silent_without_context () =
  Fault.with_plan
    (Fault.plan ~rate_ppm:1_000_000 ~seed:1 ())
    (fun () ->
      Fault.clear_context ();
      Alcotest.(check bool) "no context, not armed" false
        (Fault.armed Fault.Alloc_node);
      Fault.set_context ~key:3;
      Alcotest.(check bool) "context set, armed at 100%" true
        (Fault.armed Fault.Alloc_node);
      Fault.clear_context ())

(* every site fails exactly at its documented surface *)
let test_injection_surfaces () =
  Fault.with_plan
    (Fault.plan ~rate_ppm:1_000_000 ~seed:5 ())
    (fun () ->
      Fault.set_context ~key:0;
      let pa = Mem.Phys_alloc.create ~total_pages:64 ~subblock_factor:16 in
      Alcotest.(check bool) "Phys_alloc fails by returning None" true
        (Mem.Phys_alloc.alloc_page pa ~vpn:0L = None);
      let t =
        CT.create
          (Clustered_pt.Config.make ~buckets:64 ~subblock_factor:16 ())
      in
      (match CT.insert_base t ~vpn:1L ~ppn:2L ~attr with
      | () -> Alcotest.fail "expected Injected Alloc_node"
      | exception Fault.Injected { site = Fault.Alloc_node; _ } -> ());
      Alcotest.(check int) "aborted insert left nothing behind" 0
        (CT.population t);
      let l = BL.create ~buckets:8 in
      (match BL.with_write l ~bucket:3 (fun () -> ()) with
      | () -> Alcotest.fail "expected injected Timeout"
      | exception BL.Timeout 3 -> ());
      Alcotest.(check int) "injected timeout held nothing" 0
        (BL.currently_held l);
      Fault.clear_context ())

(* --- fsck: no false positives, no false negatives, repair --- *)

let test_fsck_no_false_positives () =
  List.iter
    (fun (name, build) ->
      let table = build () in
      Alcotest.(check bool)
        (name ^ ": healthy table is clean")
        true
        (Fsck.clean (Fsck.check table)))
    builders

let test_fsck_detects_and_repairs () =
  List.iter
    (fun (name, build) ->
      let kinds = Fsck.corruption_kinds (build ()) in
      Alcotest.(check bool) (name ^ ": kinds nonempty") true (kinds <> []);
      List.iter
        (fun kind ->
          let table = build () in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: injector found a site" name kind)
            true
            (Fsck.corrupt_by_name table kind);
          let report = Fsck.check table in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: corruption detected" name kind)
            false (Fsck.clean report);
          let outcome = Fsck.repair table in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: repair salvaged mappings" name kind)
            true
            (outcome.Fsck.kept > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: clean after repair" name kind)
            true
            (Fsck.clean (Fsck.check table)))
        kinds)
    builders

(* replicas of different organizations cannot agree: the org names
   come from each table's own [name] *)
let test_fsck_replica_org () =
  let report = Fsck.check_replicas [| build_hashed (); build_clustered () |] in
  Alcotest.(check string) "report names the primary" "hashed"
    report.Fsck.r_org;
  Alcotest.(check (list (pair string string)))
    "one replica_org finding"
    [ ("replica_org", "replica 1 is clustered, primary is hashed") ]
    (List.map (fun f -> (f.Fsck.code, f.Fsck.detail)) report.Fsck.findings)

(* --- qcheck: an interrupted churn prefix, repaired, equals the
   committed prefix (outside the torn page) --- *)

type op = Ins of int64 * int64 | Rem of int64

let ops_arbitrary =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 80)
        ( int_bound 255 >>= fun v ->
          let vpn = Int64.of_int v in
          frequency
            [
              ( 3,
                map
                  (fun p -> Ins (vpn, Int64.of_int p))
                  (int_bound ((1 lsl 20) - 1)) );
              (1, return (Rem vpn));
            ] ))
  in
  QCheck.make
    QCheck.Gen.(pair gen (int_bound 1_000_000))
    ~print:(fun (ops, cut) ->
      Printf.sprintf "cut=%d [%s]" cut
        (String.concat ";"
           (List.map
              (function
                | Ins (v, p) -> Printf.sprintf "I(%Ld,%Ld)" v p
                | Rem v -> Printf.sprintf "R(%Ld)" v)
              ops)))

let apply_table (Pt_common.Intf.Concurrent ((module T), t)) = function
  | Ins (vpn, ppn) -> T.insert_base t ~vpn ~ppn ~attr
  | Rem vpn -> T.remove t ~vpn

let present (Pt_common.Intf.Concurrent ((module T), t)) vpn =
  Walk.find T.lookup_into t ~vpn <> None

let fresh : string -> Fsck.table = function
  | "clustered" ->
      Concurrent
        ( (module CT),
          CT.create
            (Clustered_pt.Config.make ~buckets:64 ~subblock_factor:16 ()) )
  | _ ->
      Concurrent
        ( (module HT),
          HT.create ~buckets:64 ~subblock_factor:16 ~mode:HT.No_superpages ()
        )

let prop_prefix_repair name =
  QCheck.Test.make
    ~name:(name ^ ": interrupted prefix + repair = committed prefix")
    ~count:60 ops_arbitrary
    (fun (ops, cut_raw) ->
      let ops = Array.of_list ops in
      let cut = cut_raw mod Array.length ops in
      (* the op being interrupted: a write torn at [torn_vpn] *)
      let torn_vpn =
        match ops.(cut) with Ins (v, _) | Rem v -> v
      in
      let interrupted = fresh name in
      for i = 0 to cut - 1 do
        apply_table interrupted ops.(i)
      done;
      let committed = fresh name in
      for i = 0 to cut - 1 do
        apply_table committed ops.(i)
      done;
      (let (Concurrent ((module T), t)) = interrupted in
       ignore (T.tear t ~vpn:torn_vpn));
      let _ = Fsck.repair interrupted in
      if not (Fsck.clean (Fsck.check interrupted)) then
        QCheck.Test.fail_report "not clean after repair";
      (* every page outside the torn one matches the committed prefix;
         the torn page itself may survive or be dropped, never garbage *)
      let ok = ref true in
      for v = 0 to 255 do
        let vpn = Int64.of_int v in
        if vpn <> torn_vpn && present interrupted vpn <> present committed vpn
        then ok := false
      done;
      if not !ok then QCheck.Test.fail_report "prefix mismatch off the torn page";
      (if present interrupted torn_vpn && not (present committed torn_vpn) then
         QCheck.Test.fail_report "torn page resurrected from nowhere");
      true)

(* --- worker pool: complete failure lists and supervised restarts --- *)

let test_pool_reports_both_plain_failures () =
  WP.with_pool ~domains:4 (fun pool ->
      match
        WP.run pool (fun i ->
            if i = 1 then failwith "a" else if i = 3 then failwith "b")
      with
      | () -> Alcotest.fail "expected Worker_failed"
      | exception WP.Worker_failed [ (1, Failure a); (3, Failure b) ] ->
          Alcotest.(check (pair string string))
            "both failures, sorted by index" ("a", "b") (a, b)
      | exception e -> raise e)

let test_pool_two_simultaneous_crashes_both_report () =
  Fault.with_plan
    (Fault.plan ~rate_ppm:1_000_000 ~sites:[ Fault.Domain_crash ] ~seed:3 ())
    (fun () ->
      WP.with_pool ~domains:4 (fun pool ->
          (match
             WP.run pool (fun i ->
                 if i < 2 then begin
                   Fault.set_context ~key:i;
                   Fault.fire Fault.Domain_crash
                 end)
           with
          | () -> Alcotest.fail "expected Worker_failed"
          | exception
              WP.Worker_failed
                [
                  (0, Fault.Injected { site = Fault.Domain_crash; key = 0 });
                  (1, Fault.Injected { site = Fault.Domain_crash; key = 1 });
                ] ->
              ()
          | exception e -> raise e);
          Alcotest.(check int) "both domains respawned" 2 (WP.restarts pool);
          (* the pool is back at full strength *)
          let ok = Array.make 4 false in
          WP.run pool (fun i -> ok.(i) <- true);
          Alcotest.(check bool) "post-crash job ran on all workers" true
            (Array.for_all Fun.id ok)))

(* --- bounded/try lock variants and writer starvation --- *)

let test_try_and_bounded_locks () =
  let l = BL.create ~buckets:4 in
  BL.with_read l ~bucket:0 (fun () ->
      Alcotest.(check bool) "try_with_write defers to a held reader" true
        (BL.try_with_write l ~bucket:0 (fun () -> ()) = None);
      (match BL.with_write_bounded l ~bucket:0 ~attempts:3 (fun () -> ()) with
      | () -> Alcotest.fail "bounded writer must time out under a reader"
      | exception BL.Timeout 0 -> ());
      Alcotest.(check bool) "read lock still held after failed writes" true
        (BL.currently_held l = 1));
  Alcotest.(check int) "all released" 0 (BL.currently_held l);
  Alcotest.(check bool) "try_with_write acquires a free slot" true
    (BL.try_with_write l ~bucket:0 (fun () -> 42) = Some 42);
  Alcotest.(check bool) "try_with_read acquires a free slot" true
    (BL.try_with_read l ~bucket:1 (fun () -> 7) = Some 7)

(* regression: a bounded writer must not starve under a steady stream
   of new readers — its waiting flag gates them out (the attempt clock
   makes the test deterministic: failure = Timeout, not a hang) *)
let test_bounded_writer_not_starved () =
  let l = BL.create ~buckets:1 in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          BL.with_read l ~bucket:0 (fun () -> incr n);
          Domain.cpu_relax ()
        done;
        !n)
  in
  let acquired =
    match BL.with_write_bounded l ~bucket:0 ~attempts:5_000_000 (fun () -> true)
    with
    | ok -> ok
    | exception BL.Timeout _ -> false
  in
  Atomic.set stop true;
  let reads = Domain.join reader in
  Alcotest.(check bool)
    (Printf.sprintf "writer acquired despite %d reader passes" reads)
    true acquired

(* --- the self-healing service --- *)

let heal_setup ~org ~locking =
  let svc = S.create ~buckets:64 ~org ~locking () in
  for i = 0 to 63 do
    S.insert svc ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int (1000 + i)) ~attr
  done;
  svc

let test_service_heals_torn_write () =
  List.iter
    (fun org ->
      let svc = heal_setup ~org ~locking:S.Striped in
      Obs.Ambient.reset ();
      Fault.with_plan
        (Fault.plan ~rate_ppm:1_000_000 ~sites:[ Fault.Torn_write ] ~seed:7 ())
        (fun () ->
          Fault.set_context ~key:0;
          (* every attempt tears; the journal rolls each one back and
             the op aborts into degraded mode *)
          S.insert svc ~vpn:500L ~ppn:9L ~attr;
          Fault.clear_context ();
          Alcotest.(check int) "tore once per attempt" S.heal_attempts
            (Fault.injected Fault.Torn_write);
          Alcotest.(check int) "one abort" 1 (Fault.aborts ());
          Alcotest.(check int) "retried between attempts"
            (S.heal_attempts - 1) (Fault.retries ()));
      Alcotest.(check bool) "aborted op not applied" false
        (S.lookup svc ~vpn:500L);
      Alcotest.(check bool) "prior mappings intact" true (S.lookup svc ~vpn:5L);
      Alcotest.(check bool) "table fsck-clean after rollbacks" true
        (Fsck.clean (S.fsck svc));
      Alcotest.(check int) "no lock leaked" 0
        (S.lock_stats svc).S.currently_held;
      let merged = Obs.Ambient.merged () in
      Alcotest.(check bool) "fault.* counters mirrored" true
        (Obs.Metrics.value (Obs.Metrics.counter merged "fault.aborts") >= 1
        && Obs.Metrics.value (Obs.Metrics.counter merged "fault.retries")
           >= S.heal_attempts - 1))
    [ S.Clustered; S.Hashed ]

(* the PR's bugfix sweep: exceptions inside locked sections must not
   leak the stripe or the global mutex, for every write entry point *)
let test_service_no_lock_leak_on_fault () =
  List.iter
    (fun locking ->
      let svc = heal_setup ~org:S.Clustered ~locking in
      Fault.with_plan
        (Fault.plan ~rate_ppm:1_000_000
           ~sites:[ Fault.Alloc_node; Fault.Torn_write ]
           ~seed:13 ())
        (fun () ->
          Fault.set_context ~key:1;
          S.insert svc ~vpn:700L ~ppn:1L ~attr;
          S.remove svc ~vpn:3L;
          ignore
            (S.protect svc
               (Addr.Region.make ~first_vpn:0L ~pages:40)
               ~writable:false);
          Fault.clear_context ());
      Alcotest.(check int)
        (S.locking_name locking ^ ": nothing held after faulted ops")
        0 (S.lock_stats svc).S.currently_held;
      (* and the service still works *)
      S.insert svc ~vpn:800L ~ppn:2L ~attr;
      Alcotest.(check bool) "post-fault insert lands" true
        (S.lookup svc ~vpn:800L);
      Alcotest.(check bool) "still fsck-clean" true (Fsck.clean (S.fsck svc)))
    [ S.Striped; S.Global ]

(* --- the soak: thousands of faults, any domain count, same outcome --- *)

let test_faultsim_invariance () =
  let cfg =
    {
      FS.default_config with
      FS.seed = 11;
      rate_ppm = 200_000;
      streams = 4;
      ops = 500;
      buckets = 128;
    }
  in
  let o1 = FS.run { cfg with FS.domains = 1 } in
  let o4 = FS.run { cfg with FS.domains = 4 } in
  Alcotest.(check string) "byte-identical JSON for 1 vs 4 domains"
    (Jsonx.to_string (FS.outcome_to_json o1))
    (Jsonx.to_string (FS.outcome_to_json o4));
  Alcotest.(check bool) "ends fsck-clean" true o1.FS.fsck_clean;
  let injected = List.fold_left (fun a (_, n) -> a + n) 0 o1.FS.injected in
  Alcotest.(check bool)
    (Printf.sprintf "soak injected plenty (%d)" injected)
    true (injected > 500);
  let distinct =
    List.length (List.filter (fun (_, n) -> n > 0) o1.FS.injected)
  in
  Alcotest.(check bool)
    (Printf.sprintf "several distinct fault kinds (%d)" distinct)
    true (distinct >= 4);
  Alcotest.(check bool) "crashes were supervised back" true
    (o1.FS.crashes > 0 && o1.FS.restarts = o1.FS.crashes)

(* the same invariance must hold on the lock-free read path, with the
   seqlock's own stall site armed: stalls park a writer mid-update
   (sequence odd) so concurrent readers spin and retry, yet the
   committed outcome is a pure function of the plan *)
let test_faultsim_seqlock_invariance () =
  let cfg =
    {
      FS.default_config with
      FS.seed = 23;
      rate_ppm = 200_000;
      locking = Pt_service.Service.Seqlock;
      streams = 4;
      ops = 500;
      buckets = 128;
    }
  in
  let o1 = FS.run { cfg with FS.domains = 1 } in
  let o4 = FS.run { cfg with FS.domains = 4 } in
  Alcotest.(check string) "byte-identical JSON for 1 vs 4 domains"
    (Jsonx.to_string (FS.outcome_to_json o1))
    (Jsonx.to_string (FS.outcome_to_json o4));
  Alcotest.(check bool) "ends fsck-clean" true o1.FS.fsck_clean;
  Alcotest.(check bool) "seqlock stalls were injected" true
    (List.assoc "seqlock_stall" o1.FS.injected > 0);
  Alcotest.(check bool) "crashes were supervised back" true
    (o1.FS.crashes > 0 && o1.FS.restarts = o1.FS.crashes)

let suite =
  ( "fault",
    [
      Alcotest.test_case "plan decisions are pure" `Quick test_plan_pure;
      Alcotest.test_case "sites silent without context" `Quick
        test_sites_silent_without_context;
      Alcotest.test_case "injection surfaces" `Quick test_injection_surfaces;
      Alcotest.test_case "fsck: no false positives" `Quick
        test_fsck_no_false_positives;
      Alcotest.test_case "fsck: detects and repairs every corruption" `Quick
        test_fsck_detects_and_repairs;
      Alcotest.test_case "fsck: mixed-org replicas report replica_org" `Quick
        test_fsck_replica_org;
      QCheck_alcotest.to_alcotest (prop_prefix_repair "clustered");
      QCheck_alcotest.to_alcotest (prop_prefix_repair "hashed");
      Alcotest.test_case "pool reports every plain failure" `Quick
        test_pool_reports_both_plain_failures;
      Alcotest.test_case "two simultaneous crashes both report" `Quick
        test_pool_two_simultaneous_crashes_both_report;
      Alcotest.test_case "try/bounded lock variants" `Quick
        test_try_and_bounded_locks;
      Alcotest.test_case "bounded writer not starved by readers" `Quick
        test_bounded_writer_not_starved;
      Alcotest.test_case "service heals torn writes" `Quick
        test_service_heals_torn_write;
      Alcotest.test_case "no lock leak on faulted ops" `Quick
        test_service_no_lock_leak_on_fault;
      Alcotest.test_case "faultsim domain-count invariance" `Slow
        test_faultsim_invariance;
      Alcotest.test_case "faultsim seqlock domain-count invariance" `Slow
        test_faultsim_seqlock_invariance;
    ] )
