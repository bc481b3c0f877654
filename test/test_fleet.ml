(* The multi-tenant fleet (lib/fleet): batched range submissions vs
   the per-page baseline (qcheck equivalence on both organizations),
   cross-shard ASID placement fsck, budget-driven eviction with
   demand-fault-back, the measured lock amortisation, a concurrent
   4-domain fleet oracle, and domain-count invariance of the driver's
   JSON — the CI gate's acceptance criterion. *)

module Sh = Fleet.Sharded
module FS = Fleet.Fleet_sim
module FR = Dynamics.Fleet_replay
module S = Pt_service.Service

let attr = Pte.Attr.default
let region ~first_vpn ~pages = Addr.Region.make ~first_vpn ~pages

(* --- qcheck: a batched range op is equivalent to its per-page
   sequence, on both organizations --- *)

(* a short deterministic script of region ops derived from one seed *)
let script_of_seed seed ops =
  List.init ops (fun i ->
      let r = Addr.Bits.mix64 (Int64.of_int ((seed * 7_368_787) + i)) in
      let first = Int64.logand r 0x3FFL in
      let pages = 1 + Int64.to_int (Int64.logand (Int64.shift_right_logical r 16) 0x3FL) in
      let kind = Int64.to_int (Int64.logand (Int64.shift_right_logical r 32) 3L) in
      (kind, region ~first_vpn:first ~pages))

let prop_batched_equals_paged =
  QCheck.Test.make ~count:40 ~name:"batched range ops = per-page sequence"
    QCheck.(pair (int_bound 1_000_000) (int_range 5 30))
    (fun (seed, ops) ->
      List.for_all
        (fun org ->
          let batched = S.create ~buckets:64 ~org ~locking:S.Striped () in
          let paged = S.create ~buckets:64 ~org ~locking:S.Striped () in
          let ppn_of vpn = Int64.add vpn 0x5_0000L in
          List.iter
            (fun (kind, r) ->
              match kind with
              | 0 | 3 ->
                  ignore (S.map_range batched r ~ppn_of ~attr);
                  Addr.Region.iter_vpns r (fun vpn ->
                      S.insert paged ~vpn ~ppn:(ppn_of vpn) ~attr)
              | 1 ->
                  ignore (S.unmap_range batched r);
                  Addr.Region.iter_vpns r (fun vpn -> S.remove paged ~vpn)
              | _ ->
                  ignore (S.protect_range batched r ~writable:false);
                  Addr.Region.iter_vpns r (fun vpn ->
                      ignore
                        (S.protect paged
                           (region ~first_vpn:vpn ~pages:1)
                           ~writable:false)))
            (script_of_seed seed ops);
          S.quiesce batched;
          S.quiesce paged;
          if S.population batched <> S.population paged then
            QCheck.Test.fail_reportf "%s: population %d <> %d" (S.org_name org)
              (S.population batched) (S.population paged);
          for v = 0 to 0x43F do
            let vpn = Int64.of_int v in
            let a = S.find batched ~vpn and b = S.find paged ~vpn in
            match (a, b) with
            | None, None -> ()
            | Some ta, Some tb ->
                if ta.Pt_common.Types.ppn <> tb.Pt_common.Types.ppn then
                  QCheck.Test.fail_reportf "%s: vpn 0x%Lx ppn differs"
                    (S.org_name org) vpn;
                if ta.Pt_common.Types.attr <> tb.Pt_common.Types.attr then
                  QCheck.Test.fail_reportf "%s: vpn 0x%Lx attr differs"
                    (S.org_name org) vpn
            | _ ->
                QCheck.Test.fail_reportf "%s: vpn 0x%Lx presence differs"
                  (S.org_name org) vpn
          done;
          Fsck.clean (S.fsck batched) && Fsck.clean (S.fsck paged))
        [ S.Clustered; S.Hashed ])

(* --- the sharded fleet: placement, isolation, accounting --- *)

let make_fleet ?(shards = 3) ?(tenants = 5) ?(mode = Sh.Batched) () =
  Sh.create ~buckets:128 ~org:S.Clustered ~locking:S.Seqlock ~shards ~tenants
    ~mode ()

let test_fleet_placement_and_isolation () =
  let f = make_fleet () in
  (* same tenant-local keys in every tenant: isolation means they
     never collide *)
  for asid = 1 to Sh.tenant_count f do
    ignore (Sh.map f ~asid (region ~first_vpn:0x10L ~pages:8))
  done;
  Alcotest.(check int) "population = tenants x pages" 40 (Sh.population f);
  for asid = 1 to Sh.tenant_count f do
    Alcotest.(check int)
      (Printf.sprintf "tenant %d resident" asid)
      8 (Sh.resident f ~asid);
    Alcotest.(check bool) "mem sees the local key" true
      (Sh.find f ~asid 0x12L <> None);
    match Sh.find f ~asid 0x12L with
    | Some tr ->
        Alcotest.(check int64)
          "translation untagged back to tenant-local" 0x12L
          tr.Pt_common.Types.vpn
    | None -> Alcotest.fail "find missed a mapped key"
  done;
  ignore (Sh.unmap f ~asid:2 (region ~first_vpn:0x10L ~pages:8));
  Alcotest.(check bool) "tenant 2 unmapped" false
    (Sh.find f ~asid:2 0x12L <> None);
  Alcotest.(check bool) "tenant 3 untouched" true
    (Sh.find f ~asid:3 0x12L <> None);
  Sh.quiesce f;
  Alcotest.(check bool) "fleet fsck clean" true (Sh.fsck_clean (Sh.fsck f))

let test_fleet_batched_fewer_sections () =
  (* the acceptance criterion: on a clustered fleet the batched path
     takes measurably fewer write sections per page than paged *)
  let r = region ~first_vpn:0x40L ~pages:64 in
  let batched = make_fleet ~mode:Sh.Batched () in
  let paged = make_fleet ~mode:Sh.Paged () in
  let sb = Sh.map batched ~asid:1 r in
  let sp = Sh.map paged ~asid:1 r in
  Alcotest.(check int) "paged: one section per page" 64 sp;
  Alcotest.(check bool)
    (Printf.sprintf "batched takes fewer sections (%d < %d)" sb sp)
    true (sb < sp);
  Alcotest.(check bool) "batched amortises at least 4x" true (sb * 4 <= sp);
  Alcotest.(check int)
    "same pages mapped either way" (Sh.population batched)
    (Sh.population paged)

let test_fleet_eviction_and_refault () =
  let f = make_fleet ~shards:2 ~tenants:3 () in
  ignore (Sh.map f ~asid:1 (region ~first_vpn:0x100L ~pages:50));
  ignore (Sh.map f ~asid:2 (region ~first_vpn:0x100L ~pages:30));
  ignore (Sh.map f ~asid:3 (region ~first_vpn:0x100L ~pages:20));
  Alcotest.(check int) "resident before pressure" 100 (Sh.population f);
  (* activity: tenant 2 coldest, then 3, then 1 *)
  let activity = function 1 -> 90 | 2 -> 5 | _ -> 40 in
  let evicted, pages = Sh.enforce_budget f ~budget:60 ~activity in
  Alcotest.(check int) "coldest-first: 2 then 3 evicted" 2 evicted;
  Alcotest.(check int) "their pages freed" 50 pages;
  Alcotest.(check int) "within budget" 50 (Sh.population f);
  Alcotest.(check bool) "tenant 2 gone" false
    (Sh.find f ~asid:2 0x100L <> None);
  Alcotest.(check bool) "tenant 1 survived" true
    (Sh.find f ~asid:1 0x100L <> None);
  Alcotest.(check int) "eviction counted" 1 (Sh.evictions f ~asid:2);
  (* demand-fault back in: the tenant repopulates transparently *)
  ignore (Sh.map f ~asid:2 (region ~first_vpn:0x100L ~pages:30));
  Alcotest.(check bool) "tenant 2 refaulted" true
    (Sh.find f ~asid:2 0x100L <> None);
  Alcotest.(check int) "books track refault" 80 (Sh.population f);
  (* a generous budget is a no-op *)
  Alcotest.(check bool)
    "no eviction under budget" true
    (Sh.enforce_budget f ~budget:1_000 ~activity = (0, 0));
  Sh.quiesce f;
  Alcotest.(check int) "limbo drained" 0 (Sh.limbo_nodes f);
  Alcotest.(check bool) "fsck clean after pressure" true
    (Sh.fsck_clean (Sh.fsck f))

(* The shard tables are the fleet's only books, so a tenant's
   residency must survive what a counter kept beside them would get
   wrong: the churn replay never learns of an eviction, and later
   unmaps pages that are already gone. *)
let test_unmap_after_eviction () =
  let f = make_fleet ~shards:2 ~tenants:3 () in
  ignore (Sh.map f ~asid:1 (region ~first_vpn:0x100L ~pages:10));
  ignore (Sh.map f ~asid:2 (region ~first_vpn:0x100L ~pages:20));
  let activity = function 2 -> 0 | _ -> 10 in
  Alcotest.(check (pair int int))
    "tenant 2 evicted" (1, 20)
    (Sh.enforce_budget f ~budget:15 ~activity);
  ignore (Sh.unmap f ~asid:2 (region ~first_vpn:0x108L ~pages:6));
  Alcotest.(check int) "evicted tenant stays at 0" 0 (Sh.resident f ~asid:2);
  Alcotest.(check int) "others untouched" 10 (Sh.resident f ~asid:1);
  Alcotest.(check int) "population agrees" 10 (Sh.population f)

(* --- qcheck: the fleet against a reference set per tenant --- *)

module KS = Set.Make (Int64)

type model_op =
  | Map of int * int * int  (** asid, first key, pages *)
  | Unmap of int * int * int
  | Protect of int * int * int * bool
  | Enforce of int  (** budget *)

let print_model_op = function
  | Map (a, k, n) -> Printf.sprintf "map %d %d+%d" a k n
  | Unmap (a, k, n) -> Printf.sprintf "unmap %d %d+%d" a k n
  | Protect (a, k, n, w) -> Printf.sprintf "protect %d %d+%d %b" a k n w
  | Enforce b -> Printf.sprintf "enforce %d" b

let gen_model_op =
  QCheck.Gen.(
    let asid = int_range 1 3 and first = int_bound 63 in
    let pages = int_range 1 12 in
    frequency
      [
        (4, map3 (fun a k n -> Map (a, k, n)) asid first pages);
        (2, map3 (fun a k n -> Unmap (a, k, n)) asid first pages);
        ( 1,
          map2
            (fun (a, k) (n, w) -> Protect (a, k, n, w))
            (pair asid first) (pair pages bool) );
        (1, map (fun b -> Enforce b) (int_bound 40));
      ])

let model_total sets = Array.fold_left (fun acc s -> acc + KS.cardinal s) 0 sets

(* the reference eviction: coldest non-empty tenant first, ties on the
   smaller ASID, until the total fits *)
let model_enforce sets ~budget ~activity =
  if budget <= 0 then (0, 0)
  else begin
    let evicted = ref 0 and pages = ref 0 in
    while model_total sets > budget do
      let victim = ref 0 in
      Array.iteri
        (fun i s ->
          if (not (KS.is_empty s))
             && (!victim = 0 || activity (i + 1) < activity !victim)
          then victim := i + 1)
        sets;
      pages := !pages + KS.cardinal sets.(!victim - 1);
      sets.(!victim - 1) <- KS.empty;
      incr evicted
    done;
    (!evicted, !pages)
  end

let prop_sharded_matches_model =
  QCheck.Test.make ~count:60 ~name:"sharded fleet = per-tenant reference sets"
    QCheck.(
      make
        ~print:
          Print.(
            triple (list print_model_op) (array int) (fun org ->
                S.org_name org))
        Gen.(
          triple
            (list_size (int_range 1 40) gen_model_op)
            (array_repeat 3 (int_bound 3))
            (oneofl [ S.Clustered; S.Hashed ])))
    (fun (script, heat, org) ->
      let f =
        Sh.create ~buckets:64 ~org ~locking:S.Seqlock ~shards:2 ~tenants:3
          ~mode:Sh.Batched ()
      in
      let sets = Array.make 3 KS.empty in
      let activity asid = heat.(asid - 1) in
      let keys k n = List.init n (fun i -> Int64.of_int (k + i)) in
      let reg k n = region ~first_vpn:(Int64.of_int k) ~pages:n in
      let step op =
        match op with
        | Map (a, k, n) ->
            ignore (Sh.map f ~asid:a (reg k n));
            sets.(a - 1) <- KS.union sets.(a - 1) (KS.of_list (keys k n))
        | Unmap (a, k, n) ->
            ignore (Sh.unmap f ~asid:a (reg k n));
            sets.(a - 1) <- KS.diff sets.(a - 1) (KS.of_list (keys k n))
        | Protect (a, k, n, writable) ->
            ignore (Sh.protect f ~asid:a (reg k n) ~writable)
        | Enforce budget ->
            let got = Sh.enforce_budget f ~budget ~activity in
            let want = model_enforce sets ~budget ~activity in
            if got <> want then
              QCheck.Test.fail_reportf "enforce %d: (%d, %d), model (%d, %d)"
                budget (fst got) (snd got) (fst want) (snd want)
      in
      List.iter
        (fun op ->
          step op;
          for asid = 1 to 3 do
            let want = sets.(asid - 1) in
            if Sh.resident f ~asid <> KS.cardinal want then
              QCheck.Test.fail_reportf "after %s: resident %d = %d, model %d"
                (print_model_op op) asid (Sh.resident f ~asid)
                (KS.cardinal want);
            List.iter
              (fun key ->
                if (Sh.find f ~asid key <> None) <> KS.mem key want then
                  QCheck.Test.fail_reportf "after %s: find %d 0x%Lx disagrees"
                    (print_model_op op) asid key)
              (keys 0 75)
          done;
          if Sh.population f <> model_total sets then
            QCheck.Test.fail_reportf "after %s: population %d, model %d"
              (print_model_op op) (Sh.population f) (model_total sets))
        script;
      Sh.quiesce f;
      Sh.fsck_clean (Sh.fsck f))

(* --- cross-shard ASID fsck: overlap and misplacement --- *)

let shard_tables services = Array.map S.fsck_table services

let test_check_shards_findings () =
  let mk () = S.create ~buckets:32 ~org:S.Hashed ~locking:S.Striped () in
  let tag ~asid vpn = Int64.logor (Int64.shift_left (Int64.of_int asid) 50) vpn in
  let s0 = mk () and s1 = mk () in
  S.insert s0 ~vpn:(tag ~asid:2 0x10L) ~ppn:0x1L ~attr;
  S.insert s1 ~vpn:(tag ~asid:3 0x10L) ~ppn:0x2L ~attr;
  let clean = Fsck.check_shards (shard_tables [| s0; s1 |]) in
  Alcotest.(check bool) "disjoint fleet is clean" true (Fsck.clean clean);
  (* the same ASID live in two shards: overlap *)
  S.insert s1 ~vpn:(tag ~asid:2 0x20L) ~ppn:0x3L ~attr;
  let report = Fsck.check_shards (shard_tables [| s0; s1 |]) in
  Alcotest.(check bool) "overlap caught" false (Fsck.clean report);
  Alcotest.(check bool) "coded asid_overlap" true
    (List.exists
       (fun f -> f.Fsck.code = "asid_overlap")
       report.Fsck.findings);
  (* placement: asid 3 belongs on shard 3 mod 2 = 1, asid 2 on 0 *)
  let placed =
    Fsck.check_shards ~expected_shard:(fun asid -> asid mod 2)
      (shard_tables [| s0; s1 |])
  in
  Alcotest.(check bool) "misplacement caught" true
    (List.exists
       (fun f -> f.Fsck.code = "asid_misplaced")
       placed.Fsck.findings);
  Alcotest.check_raises "empty fleet rejected"
    (Invalid_argument "Fsck.check_shards: need at least one shard") (fun () ->
      ignore (Fsck.check_shards [||]))

(* --- churn interpretation plumbing --- *)

let test_fleet_replay_local_keys () =
  Alcotest.(check int64)
    "pid folds into bits 32..43" 0x2_0000_0123L
    (FR.local_key ~pid:2 ~vpn:0x123L);
  let mapped = Hashtbl.create 64 in
  let sections = ref 0 in
  let ops =
    {
      FR.map =
        (fun r ->
          incr sections;
          Addr.Region.iter_vpns r (fun v -> Hashtbl.replace mapped v ());
          1);
      unmap =
        (fun r ->
          Addr.Region.iter_vpns r (fun v -> Hashtbl.remove mapped v);
          1);
      protect = (fun _ ~writable:_ -> 1);
      touch = (fun v -> Hashtbl.mem mapped v);
    }
  in
  let spec =
    { Dynamics.Churn.default with Dynamics.Churn.ops = 400; drain = false }
  in
  let trace = Dynamics.Churn.generate ~spec ~seed:7L () in
  let t = FR.create ops trace in
  (* resumable stepping covers the whole trace exactly once *)
  let consumed = ref 0 in
  while not (FR.finished t) do
    consumed := !consumed + FR.step t ~max_events:13
  done;
  Alcotest.(check int) "every event consumed" (FR.length t) !consumed;
  Alcotest.(check int) "step past the end is 0" 0 (FR.step t ~max_events:5);
  let tally = FR.tally t in
  Alcotest.(check int) "tally counts events" (FR.length t) tally.FR.events;
  Alcotest.(check bool) "ranges were submitted" true (tally.FR.range_pages > 0);
  Alcotest.(check bool) "touches resolved" true (tally.FR.touches > 0);
  Alcotest.(check int)
    "every touch either hit or demand-faulted" tally.FR.touches
    (tally.FR.touch_hits + tally.FR.touch_faults);
  Alcotest.(check int)
    "books balance" (Hashtbl.length mapped)
    (tally.FR.pages_mapped - tally.FR.pages_unmapped)

let test_fleet_replay_interleave () =
  let ops =
    {
      FR.map = (fun _ -> 1);
      unmap = (fun _ -> 1);
      protect = (fun _ ~writable:_ -> 1);
      touch = (fun _ -> true);
    }
  in
  let trace i =
    let spec =
      { Dynamics.Churn.default with Dynamics.Churn.ops = 100 + (50 * i) }
    in
    Dynamics.Churn.generate ~spec ~seed:(Int64.of_int (i + 1)) ()
  in
  let cursors = Array.init 2 (fun i -> FR.create ops (trace i)) in
  let turns = ref [] in
  let round r =
    FR.interleave cursors ~tenants:[ 0; 1 ] ~round:r ~rounds:2 ~switch_every:7
      ~switch:(fun t -> turns := (t, 0) :: !turns)
      ~event:(fun t cur ->
        (match !turns with
        | (t', n) :: rest when t' = t -> turns := (t, n + 1) :: rest
        | _ -> Alcotest.fail "event outside its tenant's turn");
        ignore (FR.step cur ~max_events:1))
  in
  round 0;
  Array.iter
    (fun c ->
      Alcotest.(check int) "round 0 stops at half the trace" (FR.length c / 2)
        (FR.consumed c))
    cursors;
  round 1;
  Alcotest.(check bool) "round 1 finishes every trace" true
    (Array.for_all FR.finished cursors);
  Alcotest.(check bool) "turns are at most switch_every events" true
    (List.for_all (fun (_, n) -> n >= 1 && n <= 7) !turns);
  Alcotest.(check int) "the tally sum counts every event"
    (FR.length cursors.(0) + FR.length cursors.(1))
    (FR.tally_sum cursors).FR.events;
  Alcotest.check_raises "a zero quantum never ends, so it is rejected"
    (Invalid_argument "Fleet_replay.interleave: switch_every must be >= 1")
    (fun () ->
      FR.interleave cursors ~tenants:[ 0 ] ~round:0 ~rounds:1 ~switch_every:0
        ~switch:ignore ~event:(fun _ _ -> ()))

(* --- the driver: 4-domain oracle and JSON invariance --- *)

let tiny =
  {
    FS.quick_config with
    FS.tenants = 6;
    shards = 2;
    streams = 4;
    ops_per_tenant = 500;
    frame_budget = 150;
  }

let strip_timing outcome =
  List.map
    (fun row -> Jsonx.to_string (FS.row_to_json ~timing:false row))
    outcome.FS.rows

let test_fleet_sim_domain_invariance () =
  let run domains = FS.run { tiny with FS.domains } in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check bool) "serial all clean" true (FS.all_clean serial);
  Alcotest.(check bool) "4-domain oracle all clean" true
    (FS.all_clean parallel);
  Alcotest.(check (list string))
    "deterministic rows identical for 1 and 4 domains" (strip_timing serial)
    (strip_timing parallel);
  Alcotest.(check string)
    "JSON byte-identical (the CI gate)"
    (Jsonx.to_string (FS.outcome_to_json { tiny with FS.domains = 1 } serial))
    (Jsonx.to_string
       (FS.outcome_to_json { tiny with FS.domains = 4 } parallel))

let test_fleet_sim_pressure_and_amortisation () =
  let outcome = FS.run { tiny with FS.orgs = [ S.Clustered ] } in
  match outcome.FS.rows with
  | [ batched; paged ] ->
      Alcotest.(check bool) "rows fsck clean" true (FS.all_clean outcome);
      Alcotest.(check bool)
        "budget pressure evicted someone" true
        (batched.FS.f_evictions > 0 && batched.FS.f_evicted_pages > 0);
      Alcotest.(check bool)
        "eviction forced shootdowns" true (batched.FS.f_shootdowns > 0);
      Alcotest.(check bool)
        "evicted tenants demand-faulted back" true
        (batched.FS.f_touch_faults > 0);
      Alcotest.(check int)
        "paged takes one section per page" batched.FS.f_range_pages
        paged.FS.f_range_sections;
      Alcotest.(check bool)
        (Printf.sprintf "batched amortises locks (%.4f < %.4f)"
           (FS.locks_per_page batched) (FS.locks_per_page paged))
        true
        (FS.locks_per_page batched < FS.locks_per_page paged /. 4.0);
      Alcotest.(check bool)
        "tagged TLB retains hits across switches" true
        (FS.retained_hits batched > 0);
      Alcotest.(check int)
        "limbo drained at quiesce" 0 batched.FS.f_limbo
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let suite =
  ( "fleet",
    [
      QCheck_alcotest.to_alcotest prop_batched_equals_paged;
      Alcotest.test_case "placement and isolation" `Quick
        test_fleet_placement_and_isolation;
      Alcotest.test_case "batched takes fewer sections" `Quick
        test_fleet_batched_fewer_sections;
      Alcotest.test_case "eviction and demand-fault-back" `Quick
        test_fleet_eviction_and_refault;
      Alcotest.test_case "unmap after eviction" `Quick
        test_unmap_after_eviction;
      QCheck_alcotest.to_alcotest prop_sharded_matches_model;
      Alcotest.test_case "cross-shard asid fsck" `Quick
        test_check_shards_findings;
      Alcotest.test_case "fleet replay local keys" `Quick
        test_fleet_replay_local_keys;
      Alcotest.test_case "fleet replay interleave" `Quick
        test_fleet_replay_interleave;
      Alcotest.test_case "fleet driver domain-invariant" `Slow
        test_fleet_sim_domain_invariance;
      Alcotest.test_case "pressure and lock amortisation" `Slow
        test_fleet_sim_pressure_and_amortisation;
    ] )
