(* The churn subsystem: generator determinism, engine determinism and
   domain-count invariance, the zero-leak drain guarantee, COW fork
   semantics, a PT-vs-OS-bookkeeping oracle under random
   map/unmap/touch churn, and the shared interpreter's run
   coalescing, family partition and family runner. *)

module A = Os_policy.Address_space
module Intf = Pt_common.Intf
module C = Dynamics.Churn
module E = Dynamics.Engine
module FR = Dynamics.Fleet_replay
module T = Workload.Trace

let attr = Pte.Attr.default

let small_spec ops =
  { C.default with C.ops; max_live_pages = 4_000; region_max = 96 }

let engine_cfg ?(policy = A.Superpage_promotion) () =
  {
    E.make_pt = (fun () -> Sim.Factory.make_probed Sim.Factory.clustered16);
    policy;
    subblock_factor = 16;
    total_pages = 1 lsl 15;
    sample_every = 200;
    line_size = Mem.Cache_model.default_line_size;
  }

let test_generator_deterministic () =
  let spec = small_spec 1_200 in
  let t1 = C.generate ~spec ~seed:7L () in
  let t2 = C.generate ~spec ~seed:7L () in
  Alcotest.(check bool) "same seed, same stream" true (t1 = t2);
  let t3 = C.generate ~spec ~seed:9L () in
  Alcotest.(check bool) "different seed, different stream" false (t1 = t3)

let test_engine_deterministic () =
  let trace = C.generate ~spec:(small_spec 1_200) ~seed:7L () in
  let r1 = E.run (engine_cfg ()) trace in
  let r2 = E.run (engine_cfg ()) trace in
  Alcotest.(check bool)
    "identical results, samples included" true (r1 = r2)

(* the churn streams actually exercise the lifecycle: forks, COW
   breaks, promotions and demotions all occur *)
let test_engine_exercises_lifecycle () =
  let trace = C.generate ~spec:(small_spec 2_000) ~seed:11L () in
  let r = E.run (engine_cfg ()) trace in
  Alcotest.(check bool) "inserts" true (r.E.inserts > 0);
  Alcotest.(check bool) "deletes" true (r.E.deletes > 0);
  Alcotest.(check bool) "forks" true (r.E.forks > 0);
  Alcotest.(check bool) "cow activity" true
    (r.E.cow_breaks + r.E.cow_adoptions > 0);
  Alcotest.(check bool) "promotions" true (r.E.promotions > 0);
  Alcotest.(check bool) "demotions" true (r.E.demotions > 0);
  Alcotest.(check bool) "insert walks charged" true (r.E.insert_lines > 0.0)

(* After the drain suffix unmaps everything, every surviving process's
   clustered table must hold zero live nodes and sit exactly at the
   empty-table footprint — the reclamation guarantee end to end. *)
let test_zero_leak_after_drain () =
  let empty_bytes =
    Intf.size_bytes (fst (Sim.Factory.make_probed Sim.Factory.clustered16))
  in
  List.iter
    (fun policy ->
      let trace = C.generate ~spec:(small_spec 2_000) ~seed:13L () in
      let r = E.run (engine_cfg ~policy ()) trace in
      let live_procs = r.E.forks - r.E.exits + 1 in
      Alcotest.(check int) "no live pages" 0 r.E.final_live_pages;
      Alcotest.(check int) "no live nodes" 0 r.E.final_pt_nodes;
      Alcotest.(check int) "empty-table footprint"
        (live_procs * empty_bytes) r.E.final_pt_bytes)
    [ A.Base_only; A.Partial_subblock; A.Superpage_promotion ]

(* Runner.churn fans (organization, seed) jobs over the domain pool;
   the joined rows must be bit-identical for any domain count. *)
let test_domain_invariance () =
  let rows d = Sim.Runner.churn ~domains:d ~seeds:2 ~ops:600 () in
  Alcotest.(check bool) "1 domain = 3 domains" true (rows 1 = rows 3)

let region first pages =
  Addr.Region.make ~first_vpn:(Int64.of_int first) ~pages

let test_cow_divergence () =
  let pt = Sim.Factory.make Sim.Factory.clustered16 in
  let parent =
    A.create ~pt ~total_pages:4096 ~policy:A.Base_only ~uid:101 ()
  in
  A.map_region parent (region 64 8) attr;
  let child_pt = Sim.Factory.make Sim.Factory.clustered16 in
  let child = A.fork parent ~pt:child_pt ~uid:102 () in
  Alcotest.(check int) "parent cow pages" 8 (A.cow_pages parent);
  Alcotest.(check int) "child cow pages" 8 (A.cow_pages child);
  Alcotest.(check int) "shared frames" 8 (A.shared_frames parent);
  let vpn = 66L in
  let orig = Option.get (A.translate parent ~vpn) in
  (match A.touch child ~vpn with
  | `Cow_copied fresh ->
      Alcotest.(check bool) "fresh frame" false (Int64.equal fresh orig);
      Alcotest.(check (option int64)) "child remapped" (Some fresh)
        (A.translate child ~vpn);
      Alcotest.(check (option int64)) "parent untouched" (Some orig)
        (A.translate parent ~vpn);
      (* both page tables reflect the divergence *)
      (match Walk.find Intf.lookup_into child_pt ~vpn with
      | Some tr ->
          Alcotest.(check int64) "child PT has fresh frame" fresh
            tr.Pt_common.Types.ppn
      | None -> Alcotest.fail "child PT lost the page");
      (match Walk.find Intf.lookup_into pt ~vpn with
      | Some tr ->
          Alcotest.(check int64) "parent PT keeps old frame" orig
            tr.Pt_common.Types.ppn
      | None -> Alcotest.fail "parent PT lost the page")
  | _ -> Alcotest.fail "expected Cow_copied");
  (* the parent is now the last sharer of this frame: adopt in place *)
  (match A.touch parent ~vpn with
  | `Cow_adopted -> ()
  | _ -> Alcotest.fail "expected Cow_adopted");
  Alcotest.(check int) "parent cow shrank" 7 (A.cow_pages parent);
  (match A.touch parent ~vpn with
  | `Write -> ()
  | _ -> Alcotest.fail "adopted page is plainly writable");
  (* releasing both spaces frees every family frame *)
  A.release_all child;
  A.release_all parent;
  Alcotest.(check int) "no shared frames" 0 (A.shared_frames parent)

(* Oracle: after arbitrary fault/unmap/touch churn, the page table
   agrees with the OS's own vpn->ppn bookkeeping on every page, for
   every page-size policy.  Catches double-representation bugs (a page
   covered by both a base PTE and a psb/superpage PTE) that only
   dynamic workloads expose. *)
let test_pt_matches_mappings () =
  List.iter
    (fun (policy, uid) ->
      let pt = Sim.Factory.make Sim.Factory.clustered16 in
      let t =
        A.create ~pt ~total_pages:(1 lsl 14) ~policy ~uid ()
      in
      A.declare_region t (region 0 512) attr;
      let rng = Workload.Prng.create ~seed:0x0D15EA5EL in
      for _ = 1 to 600 do
        let v = Workload.Prng.int rng ~bound:512 in
        let r = Workload.Prng.int rng ~bound:100 in
        if r < 55 then ignore (A.fault t ~vpn:(Int64.of_int v))
        else if r < 85 then
          let len = 1 + Workload.Prng.int rng ~bound:32 in
          A.unmap_region t (region v (min len (512 - v)))
        else ignore (A.touch t ~vpn:(Int64.of_int v))
      done;
      for v = 0 to 511 do
        let vpn = Int64.of_int v in
        match (A.translate t ~vpn, Walk.find Intf.lookup_into pt ~vpn) with
        | None, None -> ()
        | Some ppn, Some tr ->
            if not (Int64.equal ppn tr.Pt_common.Types.ppn) then
              Alcotest.failf "vpn %Ld: OS says %Ld, PT says %Ld" vpn ppn
                tr.Pt_common.Types.ppn
        | Some ppn, None ->
            Alcotest.failf "vpn %Ld: mapped to %Ld but absent from PT" vpn ppn
        | None, Some tr ->
            Alcotest.failf "vpn %Ld: stale PT entry for %Ld" vpn
              tr.Pt_common.Types.ppn
      done;
      Alcotest.(check int) "population = mapped pages" (A.mapped_pages t)
        (Intf.population pt))
    [ (A.Base_only, 201); (A.Partial_subblock, 202);
      (A.Superpage_promotion, 203) ]

(* --- the shared churn interpreter --- *)

let runs = Alcotest.(list (pair int64 int))

let test_coalesce () =
  Alcotest.check runs "empty input, no runs" [] (FR.coalesce []);
  Alcotest.check runs "a single page" [ (0x40L, 1) ] (FR.coalesce [ 0x40L ]);
  Alcotest.check runs "shuffled input comes out as sorted maximal runs"
    [ (1L, 4); (9L, 2) ]
    (FR.coalesce [ 10L; 3L; 1L; 9L; 4L; 2L ]);
  Alcotest.check runs "a one-page gap splits a run"
    [ (0x100L, 3); (0x104L, 2) ]
    (FR.coalesce [ 0x100L; 0x101L; 0x102L; 0x104L; 0x105L ])

let test_families () =
  let trace =
    [|
      T.Mmap (0, 0L, 4);
      T.Access (7, 1L);
      T.Mmap (2, 0L, 2);
      T.Fork (0, 1);
      T.Switch 7;
      T.Touch (1, 2L);
      T.Mmap (3, 0L, 1);
      T.Touch (2, 1L);
      T.Exit 1;
      (* a late fork still joins pid 3 to pid 2's family *)
      T.Fork (3, 2);
    |]
  in
  let fams = FR.families trace in
  Alcotest.(check int) "three pids, two families" 2 (Array.length fams);
  Alcotest.(check bool) "family 0: pids 0 and 1, trace order" true
    (fams.(0)
    = [| T.Mmap (0, 0L, 4); T.Fork (0, 1); T.Touch (1, 2L); T.Exit 1 |]);
  Alcotest.(check bool) "family 1: pids 2 and 3, access/switch dropped" true
    (fams.(1)
    = [| T.Mmap (2, 0L, 2); T.Mmap (3, 0L, 1); T.Touch (2, 1L); T.Fork (3, 2) |]
    )

(* Zero families must not reach Exec.Soak, which rejects zero streams *)
let test_replays_without_families () =
  let access_only = [| T.Access (0, 1L); T.Switch 1; T.Access (1, 2L) |] in
  List.iter
    (fun (name, trace) ->
      List.iter
        (fun domains ->
          let what = Printf.sprintf "%s at %d domains" name domains in
          let s =
            Dynamics.Service_replay.run ~domains
              ~org:Pt_service.Service.Clustered
              ~locking:Pt_service.Service.Seqlock trace
          in
          Alcotest.(check bool)
            ("service replay: no families, zero tallies, " ^ what)
            true
            (s.Dynamics.Service_replay.families = 0
            && s.inserts = 0 && s.removes = 0 && s.protects = 0
            && s.touch_hits = 0 && s.touch_faults = 0 && s.forks = 0
            && s.exits = 0 && s.final_population = 0 && s.write_locks = 0);
          let n =
            Dynamics.Numa_replay.run ~domains
              ~machine:(Numa.Machine.make ~nodes:2 ())
              ~org:Pt_service.Service.Hashed
              ~locking:Pt_service.Service.Striped ~mode:Numa.Replicated.Eager
              trace
          in
          Alcotest.(check bool)
            ("numa replay: no families, zero tallies, " ^ what)
            true
            (n.Dynamics.Numa_replay.families = 0
            && n.inserts = 0 && n.removes = 0 && n.protects = 0
            && n.touch_hits = 0 && n.touch_faults = 0 && n.forks = 0
            && n.exits = 0 && n.logical_writes = 0 && n.population = 0
            && n.fsck_clean))
        [ 1; 3 ])
    [ ("empty trace", [||]); ("access/switch-only trace", access_only) ]

let suite =
  ( "dynamics",
    [
      Alcotest.test_case "churn generator deterministic" `Quick
        test_generator_deterministic;
      Alcotest.test_case "engine deterministic" `Quick
        test_engine_deterministic;
      Alcotest.test_case "engine exercises the lifecycle" `Quick
        test_engine_exercises_lifecycle;
      Alcotest.test_case "zero leak after drain" `Quick
        test_zero_leak_after_drain;
      Alcotest.test_case "runner domain-count invariance" `Slow
        test_domain_invariance;
      Alcotest.test_case "COW fork divergence" `Quick test_cow_divergence;
      Alcotest.test_case "PT agrees with OS mappings under churn" `Quick
        test_pt_matches_mappings;
      Alcotest.test_case "coalesce into maximal runs" `Quick test_coalesce;
      Alcotest.test_case "fork families partition" `Quick test_families;
      Alcotest.test_case "replays without families" `Quick
        test_replays_without_families;
    ] )
