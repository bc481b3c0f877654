(* The concurrent page-table service (lib/service): a
   linearizability-style oracle, the Section 3.1 lock-granularity
   claim, and determinism of the churn replay.

   Oracle shape: N domains hammer one shared service with mixed
   lookup/insert/remove/protect traffic.  Each domain owns a disjoint
   key set (buckets still collide, so stripes are contended) and
   records its operations and observations in program order; replaying
   those histories against the sequential Hashtbl model (Pt_model)
   must explain every observation and reproduce the final table. *)

module Service = Pt_service.Service
module Types = Pt_common.Types

let attr = Pte.Attr.default

(* --- concurrent history oracle --- *)

let ops_per_domain = 3_000

let num_domains = 4

let vpns_per_domain = 512

(* interleaved ranges: consecutive keys belong to different domains,
   so neighbouring buckets and blocks are shared between domains even
   though keys are not *)
let vpn_of ~domain ~o =
  Int64.of_int ((o * num_domains) + domain)

let domain_traffic svc ~domain =
  let rng = Random.State.make [| 0xC0FFEE; domain |] in
  let hist = ref [] in
  let record op = hist := op :: !hist in
  for _ = 1 to ops_per_domain do
    let o = Random.State.int rng vpns_per_domain in
    let vpn = vpn_of ~domain ~o in
    match Random.State.int rng 100 with
    | r when r < 40 ->
        let hit = Service.lookup svc ~vpn in
        record (Pt_model.HLookup (vpn, hit))
    | r when r < 70 ->
        let ppn = Int64.of_int (Random.State.int rng 0xFFFFF) in
        Service.insert svc ~vpn ~ppn ~attr;
        record (Pt_model.HInsert (vpn, ppn))
    | r when r < 95 ->
        Service.remove svc ~vpn;
        record (Pt_model.HRemove vpn)
    | _ ->
        (* a protect over this domain's keys only: strided keys mean a
           contiguous region would cross ownership, so protect exactly
           one page (granularity is covered by its own test below) *)
        let searches =
          Service.protect svc
            (Addr.Region.make ~first_vpn:vpn ~pages:1)
            ~writable:(Random.State.int rng 2 = 0)
        in
        record (Pt_model.HProtect (vpn, 1, searches))
  done;
  List.rev !hist

let oracle ~org ~locking () =
  let svc = Service.create ~org ~locking () in
  let histories = Array.make num_domains [] in
  Exec.Worker_pool.with_pool
    ~epochs:(Option.to_list (Service.reader_epoch svc))
    ~domains:num_domains
    (fun pool ->
      Exec.Worker_pool.run pool (fun domain ->
          histories.(domain) <- domain_traffic svc ~domain));
  Alcotest.(check bool)
    "every observation explained by the sequential model; final state \
     reproduced"
    true
    (Pt_model.check_histories
       ~lookup:(fun vpn -> Service.lookup svc ~vpn)
       ~population:(Service.population svc)
       (Array.to_list histories));
  Alcotest.(check int) "all stripes released"
    0
    (Service.lock_stats svc).Service.currently_held;
  (* workers unregistered at pool shutdown, so every limbo node must
     now be reclaimable (locked modes report 0 throughout) *)
  Service.quiesce svc;
  Alcotest.(check int) "limbo drained at quiescence" 0
    (Service.limbo_nodes svc)

let test_oracle_clustered_striped () =
  oracle ~org:Service.Clustered ~locking:Service.Striped ()

let test_oracle_hashed_striped () =
  oracle ~org:Service.Hashed ~locking:Service.Striped ()

let test_oracle_clustered_global () =
  oracle ~org:Service.Clustered ~locking:Service.Global ()

let test_oracle_hashed_global () =
  oracle ~org:Service.Hashed ~locking:Service.Global ()

let test_oracle_clustered_seqlock () =
  oracle ~org:Service.Clustered ~locking:Service.Seqlock ()

let test_oracle_hashed_seqlock () =
  oracle ~org:Service.Hashed ~locking:Service.Seqlock ()

(* --- Section 3.1 lock granularity ---

   A range operation on a clustered table acquires one write lock per
   page *block*; on a hashed table, one per base *page*; under the
   global lock, one for the whole range. *)

let write_locks_for ~org ~locking region =
  let svc = Service.create ~org ~locking () in
  (* populate the region so the protect really edits PTEs *)
  Addr.Region.iter_vpns region (fun vpn ->
      Service.insert svc ~vpn ~ppn:(Int64.logand vpn 0xFFF_FFFFL) ~attr);
  let before = (Service.lock_stats svc).Service.write_acquisitions in
  ignore (Service.protect svc region ~writable:false);
  (Service.lock_stats svc).Service.write_acquisitions - before

(* --- batched range operations (the fleet's submission path) --- *)

let test_range_ops_sectioning () =
  (* map_range/unmap_range take exactly range_lock_sections write
     sections: per block on clustered striping, per distinct bucket on
     hashed striping, one for the whole range under the global lock *)
  let region = Addr.Region.make ~first_vpn:0x47L ~pages:100 in
  let blocks = List.length (Addr.Region.blocks ~subblock_factor:16 region) in
  let ppn_of vpn = Int64.logand vpn 0xFFF_FFFFL in
  List.iter
    (fun (org, locking, expect) ->
      let svc = Service.create ~org ~locking () in
      let planned = Service.range_lock_sections svc region in
      let before = (Service.lock_stats svc).Service.write_acquisitions in
      let took = Service.map_range svc region ~ppn_of ~attr in
      let acquired =
        (Service.lock_stats svc).Service.write_acquisitions - before
      in
      let name = Service.org_name org ^ "/" ^ Service.locking_name locking in
      Alcotest.(check int) (name ^ ": planned sections") expect planned;
      Alcotest.(check int) (name ^ ": map_range sections") expect took;
      Alcotest.(check int) (name ^ ": lock acquisitions match") expect acquired;
      Alcotest.(check int) (name ^ ": all pages mapped") 100
        (Service.population svc);
      Addr.Region.iter_vpns region (fun vpn ->
          match Service.find svc ~vpn with
          | Some tr -> Alcotest.(check int64) "ppn" (ppn_of vpn) tr.Types.ppn
          | None -> Alcotest.failf "%s: vpn 0x%Lx unmapped" name vpn);
      Alcotest.(check int)
        (name ^ ": unmap_range sections")
        expect
        (Service.unmap_range svc region);
      Alcotest.(check int) (name ^ ": emptied") 0 (Service.population svc);
      Service.quiesce svc;
      Alcotest.(check bool) (name ^ ": fsck clean") true
        (Fsck.clean (Service.fsck svc)))
    [
      (Service.Clustered, Service.Striped, blocks);
      (Service.Clustered, Service.Global, 1);
      (Service.Clustered, Service.Seqlock, blocks);
      (Service.Hashed, Service.Global, 1);
    ]

let test_range_ops_collisions () =
  (* four buckets for a region of seven blocks: runs whose buckets
     collide share one section, so every range op takes one section per
     distinct bucket, exactly range_lock_sections, each one write lock *)
  let region = Addr.Region.make ~first_vpn:0x47L ~pages:100 in
  let blocks = List.length (Addr.Region.blocks ~subblock_factor:16 region) in
  let ppn_of vpn = Int64.add vpn 0x9000L in
  List.iter
    (fun (org, locking) ->
      let svc = Service.create ~buckets:4 ~org ~locking () in
      let name = Service.org_name org ^ "/" ^ Service.locking_name locking in
      let distinct =
        List.length
          (List.sort_uniq compare
             (Addr.Region.fold_vpns region ~init:[] ~f:(fun acc vpn ->
                  Service.bucket_of svc ~vpn :: acc)))
      in
      if org = Service.Clustered then
        Alcotest.(check bool)
          (name ^ ": two blocks share a bucket")
          true (distinct < blocks);
      let planned = Service.range_lock_sections svc region in
      Alcotest.(check int) (name ^ ": one section per bucket") distinct planned;
      let writes () = (Service.lock_stats svc).Service.write_acquisitions in
      let section what op =
        let before = writes () in
        let took = op () in
        Alcotest.(check int) (name ^ ": " ^ what ^ " sections") planned took;
        Alcotest.(check int)
          (name ^ ": " ^ what ^ " write locks")
          planned
          (writes () - before)
      in
      section "map_range" (fun () ->
          Service.map_range svc region ~ppn_of ~attr);
      Alcotest.(check int) (name ^ ": all pages mapped") 100
        (Service.population svc);
      section "protect_range" (fun () ->
          Service.protect_range svc region ~writable:false);
      Addr.Region.iter_vpns region (fun vpn ->
          match Service.find svc ~vpn with
          | Some tr ->
              Alcotest.(check int64) (name ^ ": ppn") (ppn_of vpn) tr.Types.ppn;
              Alcotest.(check bool) (name ^ ": write-protected") false
                tr.Types.attr.Pte.Attr.writable
          | None -> Alcotest.failf "%s: vpn 0x%Lx unmapped" name vpn);
      section "unmap_range" (fun () -> Service.unmap_range svc region);
      Alcotest.(check int) (name ^ ": emptied") 0 (Service.population svc);
      Service.quiesce svc;
      Alcotest.(check bool) (name ^ ": fsck clean") true
        (Fsck.clean (Service.fsck svc)))
    [
      (Service.Clustered, Service.Striped);
      (Service.Clustered, Service.Seqlock);
      (Service.Hashed, Service.Striped);
      (Service.Hashed, Service.Seqlock);
    ]

let test_protect_range_applies () =
  let region = Addr.Region.make ~first_vpn:0x100L ~pages:48 in
  List.iter
    (fun org ->
      let svc = Service.create ~org ~locking:Service.Seqlock () in
      ignore
        (Service.map_range svc region
           ~ppn_of:(fun vpn -> Int64.add vpn 0x9000L)
           ~attr);
      let sections = Service.protect_range svc region ~writable:false in
      Alcotest.(check int)
        (Service.org_name org ^ ": protect sections")
        (Service.range_lock_sections svc region)
        sections;
      Addr.Region.iter_vpns region (fun vpn ->
          match Service.find svc ~vpn with
          | Some tr ->
              Alcotest.(check bool) "write-protected" false
                tr.Types.attr.Pte.Attr.writable
          | None -> Alcotest.failf "vpn 0x%Lx lost by protect_range" vpn))
    [ Service.Clustered; Service.Hashed ]

let test_protect_lock_granularity () =
  (* 100 pages starting mid-block: offset 7 in block 4 -> touches
     blocks 4..10 inclusive = 7 blocks of factor 16 *)
  let region = Addr.Region.make ~first_vpn:0x47L ~pages:100 in
  let blocks = List.length (Addr.Region.blocks ~subblock_factor:16 region) in
  Alcotest.(check int) "sanity: the region spans 7 blocks" 7 blocks;
  Alcotest.(check int) "clustered+striped: one lock per block" blocks
    (write_locks_for ~org:Service.Clustered ~locking:Service.Striped region);
  Alcotest.(check int) "hashed+striped: one lock per page" 100
    (write_locks_for ~org:Service.Hashed ~locking:Service.Striped region);
  Alcotest.(check int) "clustered+global: one lock per range" 1
    (write_locks_for ~org:Service.Clustered ~locking:Service.Global region);
  Alcotest.(check int) "hashed+global: one lock per range" 1
    (write_locks_for ~org:Service.Hashed ~locking:Service.Global region)

(* protect must actually flip the attribute it claims to *)
let test_protect_applies () =
  let svc = Service.create ~org:Service.Clustered ~locking:Service.Striped () in
  let region = Addr.Region.make ~first_vpn:0x100L ~pages:32 in
  Addr.Region.iter_vpns region (fun vpn ->
      Service.insert svc ~vpn ~ppn:vpn ~attr);
  let searches = Service.protect svc region ~writable:false in
  Alcotest.(check int) "one search per touched block" 2 searches;
  Alcotest.(check bool) "pages still mapped" true
    (Service.lookup svc ~vpn:0x100L)

(* --- throughput driver sanity (correctness, never timing) --- *)

let test_throughput_deterministic_fields () =
  let cfg =
    {
      Pt_service.Throughput.default_config with
      domains = 2;
      ops_per_domain = 2_000;
      vpns_per_domain = 256;
    }
  in
  let a =
    Pt_service.Throughput.run ~org:Service.Clustered ~locking:Service.Striped
      cfg
  in
  let b =
    Pt_service.Throughput.run ~org:Service.Clustered ~locking:Service.Striped
      cfg
  in
  Alcotest.(check int) "total ops" (2 * 2_000) a.Pt_service.Throughput.total_ops;
  Alcotest.(check bool) "some lookups hit" true
    (a.Pt_service.Throughput.lookups_hit > 0);
  Alcotest.(check int) "population reproducible"
    a.Pt_service.Throughput.population b.Pt_service.Throughput.population;
  Alcotest.(check int) "read locks reproducible"
    a.Pt_service.Throughput.read_locks b.Pt_service.Throughput.read_locks;
  Alcotest.(check int) "write locks reproducible"
    a.Pt_service.Throughput.write_locks b.Pt_service.Throughput.write_locks;
  Alcotest.(check int) "hits reproducible" a.Pt_service.Throughput.lookups_hit
    b.Pt_service.Throughput.lookups_hit

(* organizations see the same traffic: identical op streams -> same
   populations and read-lock totals; write totals differ only through
   protect granularity *)
let test_throughput_orgs_agree () =
  let cfg =
    {
      Pt_service.Throughput.default_config with
      domains = 2;
      ops_per_domain = 2_000;
      vpns_per_domain = 256;
    }
  in
  let c =
    Pt_service.Throughput.run ~org:Service.Clustered ~locking:Service.Striped
      cfg
  in
  let h =
    Pt_service.Throughput.run ~org:Service.Hashed ~locking:Service.Striped cfg
  in
  Alcotest.(check int) "same final population"
    c.Pt_service.Throughput.population h.Pt_service.Throughput.population;
  Alcotest.(check int) "same read-lock totals"
    c.Pt_service.Throughput.read_locks h.Pt_service.Throughput.read_locks;
  Alcotest.(check bool)
    "hashed pays at least as many write locks (per-page protects)" true
    (h.Pt_service.Throughput.write_locks
    >= c.Pt_service.Throughput.write_locks)

(* --- the PR 6 lock-free read path --- *)

(* the tentpole claim, structurally: an uncontended seqlock lookup
   acquires zero locks, retries nothing and never falls back *)
let test_seqlock_lockfree_reads () =
  let svc =
    Service.create ~org:Service.Clustered ~locking:Service.Seqlock ()
  in
  for i = 0 to 255 do
    Service.insert svc ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  Service.reset_lock_stats svc;
  for i = 0 to 255 do
    Alcotest.(check bool) "mapped page found" true
      (Service.lookup svc ~vpn:(Int64.of_int i));
    Alcotest.(check bool) "unmapped page missed" false
      (Service.lookup svc ~vpn:(Int64.of_int (i + 4096)))
  done;
  let s = Service.lock_stats svc in
  Alcotest.(check int) "zero read-lock acquisitions" 0
    s.Service.read_acquisitions;
  Alcotest.(check int) "zero write-lock acquisitions" 0
    s.Service.write_acquisitions;
  Alcotest.(check int) "no retries uncontended" 0
    (Service.seqlock_retries svc);
  Alcotest.(check int) "no fallbacks uncontended" 0
    (Service.seqlock_fallbacks svc)

(* epoch-based reclamation through the service: removals park nodes in
   limbo; a pinned reader blocks their reclamation; once the reader
   unregisters, quiesce drains everything and fsck stays clean at each
   step *)
let seqlock_limbo_lifecycle ~org () =
  let svc = Service.create ~org ~locking:Service.Seqlock ~buckets:64 () in
  let epoch =
    match Service.reader_epoch svc with
    | Some e -> e
    | None -> Alcotest.fail "seqlock service must expose its epoch"
  in
  (* two full subblock-16 blocks, so the clustered table also empties
     whole nodes when the first block's pages go *)
  for i = 0 to 31 do
    Service.insert svc ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  Alcotest.(check int) "inserts retire nothing" 0 (Service.limbo_nodes svc);
  Exec.Epoch.register epoch;
  Exec.Epoch.pin epoch;
  for i = 0 to 15 do
    Service.remove svc ~vpn:(Int64.of_int i)
  done;
  let limbo = Service.limbo_nodes svc in
  Alcotest.(check bool) "removals parked nodes in limbo" true (limbo > 0);
  Service.quiesce svc;
  Alcotest.(check int) "pinned reader blocks reclamation" limbo
    (Service.limbo_nodes svc);
  Alcotest.(check bool) "fsck clean with populated limbo" true
    (Fsck.clean (Service.fsck svc));
  Exec.Epoch.unpin epoch;
  Exec.Epoch.unregister epoch;
  Service.quiesce svc;
  Alcotest.(check int) "limbo drains once the reader unregisters" 0
    (Service.limbo_nodes svc);
  Alcotest.(check bool) "fsck clean after the drain" true
    (Fsck.clean (Service.fsck svc));
  for i = 0 to 31 do
    Alcotest.(check bool)
      (Printf.sprintf "page %d %s" i (if i < 16 then "gone" else "survives"))
      (i >= 16)
      (Service.lookup svc ~vpn:(Int64.of_int i))
  done;
  Alcotest.(check int) "population matches" 16 (Service.population svc)

let test_seqlock_limbo_clustered () =
  seqlock_limbo_lifecycle ~org:Service.Clustered ()

let test_seqlock_limbo_hashed () =
  seqlock_limbo_lifecycle ~org:Service.Hashed ()

(* qcheck: for any insert/remove interleaving, a pinned reader keeps
   every node retired under its pin walkable (limbo never shrinks),
   and unregistering releases the lot *)
let prop_seqlock_limbo_drains =
  QCheck.Test.make
    ~name:"seqlock limbo: preserved under a pin, drained after unregister"
    ~count:30
    QCheck.(
      pair bool (list_of_size Gen.(int_range 1 80) (int_bound 511)))
    (fun (clustered, keys) ->
      let org = if clustered then Service.Clustered else Service.Hashed in
      let svc = Service.create ~org ~locking:Service.Seqlock ~buckets:32 () in
      let epoch = Option.get (Service.reader_epoch svc) in
      let model = Hashtbl.create 64 in
      List.iter
        (fun k ->
          let vpn = Int64.of_int k in
          Hashtbl.replace model k ();
          Service.insert svc ~vpn ~ppn:vpn ~attr)
        keys;
      Exec.Epoch.register epoch;
      Exec.Epoch.pin epoch;
      (* remove every other distinct key *)
      let victims =
        List.filteri (fun i _ -> i mod 2 = 0)
          (List.sort_uniq compare (Hashtbl.fold (fun k () a -> k :: a) model []))
      in
      List.iter
        (fun k ->
          Hashtbl.remove model k;
          Service.remove svc ~vpn:(Int64.of_int k))
        victims;
      let limbo = Service.limbo_nodes svc in
      Service.quiesce svc;
      let preserved = Service.limbo_nodes svc = limbo in
      Exec.Epoch.unpin epoch;
      Exec.Epoch.unregister epoch;
      Service.quiesce svc;
      let drained = Service.limbo_nodes svc = 0 in
      let consistent =
        Hashtbl.length model = Service.population svc
        && Fsck.clean (Service.fsck svc)
      in
      if not preserved then
        QCheck.Test.fail_report "pinned reader lost limbo nodes";
      if not drained then
        QCheck.Test.fail_report "limbo survived unregister + quiesce";
      consistent)

(* the read-mostly curve's deterministic fields: the two organizations
   see identical traffic under seqlock locking, and the
   interleaving-invariant fields reproduce run to run *)
let test_throughput_seqlock_deterministic () =
  let cfg =
    {
      Pt_service.Throughput.default_config with
      domains = 4;
      streams = 4;
      ops_per_domain = 2_000;
      vpns_per_domain = 256;
      buckets = 128;
      mix = Pt_service.Throughput.read_mostly_mix;
    }
  in
  let a =
    Pt_service.Throughput.run ~org:Service.Clustered ~locking:Service.Seqlock
      cfg
  in
  let b =
    Pt_service.Throughput.run ~org:Service.Clustered ~locking:Service.Seqlock
      cfg
  in
  let h =
    Pt_service.Throughput.run ~org:Service.Hashed ~locking:Service.Seqlock cfg
  in
  Alcotest.(check bool) "lookups hit" true
    (a.Pt_service.Throughput.lookups_hit > 0);
  Alcotest.(check int) "population reproducible"
    a.Pt_service.Throughput.population b.Pt_service.Throughput.population;
  Alcotest.(check int) "hits reproducible" a.Pt_service.Throughput.lookups_hit
    b.Pt_service.Throughput.lookups_hit;
  Alcotest.(check int) "write locks reproducible"
    a.Pt_service.Throughput.write_locks b.Pt_service.Throughput.write_locks;
  Alcotest.(check int) "population agrees across organizations"
    a.Pt_service.Throughput.population h.Pt_service.Throughput.population;
  (* no protects in the read-mostly mix, so writes are one lock per
     mutation op in both organizations *)
  Alcotest.(check int) "write locks agree across organizations"
    a.Pt_service.Throughput.write_locks h.Pt_service.Throughput.write_locks

(* --- churn replay through the service --- *)

let test_service_replay_domain_invariance () =
  let spec =
    {
      Dynamics.Churn.default with
      Dynamics.Churn.ops = 2_000;
      max_procs = 6;
      max_live_pages = 4_000;
    }
  in
  let trace = Dynamics.Churn.generate ~spec ~seed:0x5EEDL () in
  let run domains =
    Dynamics.Service_replay.run ~domains ~org:Service.Clustered
      ~locking:Service.Striped trace
  in
  let serial = run 1 in
  let parallel = run 3 in
  Alcotest.(check bool)
    "replay results identical for 1 and 3 domains (tallies, population, \
     lock totals)"
    true (serial = parallel);
  Alcotest.(check bool) "replay did real work" true
    (serial.Dynamics.Service_replay.inserts > 0
    && serial.Dynamics.Service_replay.families > 0)

let test_service_replay_drains () =
  (* a drained trace must leave the shared table empty: every family's
     teardown went through the same concurrent service *)
  let spec =
    { Dynamics.Churn.default with Dynamics.Churn.ops = 1_500; max_procs = 5 }
  in
  let trace = Dynamics.Churn.generate ~spec ~seed:0xABCL () in
  let r =
    Dynamics.Service_replay.run ~domains:2 ~org:Service.Hashed
      ~locking:Service.Striped trace
  in
  Alcotest.(check int) "shared table drained" 0
    r.Dynamics.Service_replay.final_population

(* --- PR 4 telemetry: lock-stat reset, domain-invariant metrics --- *)

let test_lock_stats_reset () =
  List.iter
    (fun locking ->
      let svc =
        Service.create ~org:Service.Clustered ~locking ~buckets:64 ()
      in
      for i = 0 to 63 do
        Service.insert svc ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i)
          ~attr:Pte.Attr.default;
        ignore (Service.lookup svc ~vpn:(Int64.of_int i))
      done;
      let before = Service.lock_stats svc in
      (* seqlock lookups are lock-free, so only writes register there *)
      (if locking = Service.Seqlock then
         Alcotest.(check int) "optimistic reads took no locks" 0
           before.Service.read_acquisitions
       else
         Alcotest.(check bool)
           "read traffic recorded" true
           (before.Service.read_acquisitions > 0));
      Alcotest.(check bool)
        "write traffic recorded" true
        (before.Service.write_acquisitions > 0);
      Service.reset_lock_stats svc;
      let after = Service.lock_stats svc in
      Alcotest.(check int) "reads zeroed" 0 after.Service.read_acquisitions;
      Alcotest.(check int) "writes zeroed" 0 after.Service.write_acquisitions;
      Alcotest.(check int) "contention zeroed" 0 after.Service.read_contention;
      Alcotest.(check int) "nothing held" 0 after.Service.currently_held;
      Alcotest.(check int) "retries zeroed" 0 (Service.seqlock_retries svc);
      Alcotest.(check int) "fallbacks zeroed" 0
        (Service.seqlock_fallbacks svc);
      (* the service still works and counts from zero afterwards *)
      ignore (Service.lookup svc ~vpn:1L);
      Alcotest.(check int) "counting restarts"
        (if locking = Service.Seqlock then 0 else 1)
        (Service.lock_stats svc).Service.read_acquisitions)
    [ Service.Striped; Service.Global; Service.Seqlock ]

let test_throughput_metrics_domain_invariant () =
  (* the acceptance criterion: with the stream count pinned, the merged
     telemetry of a 4-domain run is identical to the 1-domain run *)
  let run domains =
    Obs.Ambient.reset ();
    let cfg =
      {
        Pt_service.Throughput.default_config with
        domains;
        streams = 4;
        ops_per_domain = 2_000;
        vpns_per_domain = 256;
      }
    in
    let r =
      Pt_service.Throughput.run ~org:Service.Clustered
        ~locking:Service.Striped cfg
    in
    (r, Obs.Ambient.merged ())
  in
  let r1, m1 = run 1 in
  let r4, m4 = run 4 in
  Alcotest.(check int) "same total ops" r1.Pt_service.Throughput.total_ops
    r4.Pt_service.Throughput.total_ops;
  Alcotest.(check int) "same population" r1.Pt_service.Throughput.population
    r4.Pt_service.Throughput.population;
  Alcotest.(check bool)
    "merged metrics identical for 1 and 4 domains" true
    (Obs.Metrics.equal m1 m4);
  Alcotest.(check bool)
    "lookup traffic was recorded" true
    (Obs.Metrics.value (Obs.Metrics.counter m4 "throughput.ops.lookup") > 0);
  Alcotest.(check bool)
    "structural probe was recorded" true
    (Obs.Hist.count (Obs.Metrics.hist m4 "service.chain_length") > 0);
  Obs.Ambient.reset ()

let suite =
  ( "service",
    [
      Alcotest.test_case "oracle: clustered striped" `Slow
        test_oracle_clustered_striped;
      Alcotest.test_case "oracle: hashed striped" `Slow
        test_oracle_hashed_striped;
      Alcotest.test_case "oracle: clustered global" `Slow
        test_oracle_clustered_global;
      Alcotest.test_case "oracle: hashed global" `Slow
        test_oracle_hashed_global;
      Alcotest.test_case "oracle: clustered seqlock" `Slow
        test_oracle_clustered_seqlock;
      Alcotest.test_case "oracle: hashed seqlock" `Slow
        test_oracle_hashed_seqlock;
      Alcotest.test_case "seqlock reads are lock-free" `Quick
        test_seqlock_lockfree_reads;
      Alcotest.test_case "seqlock limbo lifecycle (clustered)" `Quick
        test_seqlock_limbo_clustered;
      Alcotest.test_case "seqlock limbo lifecycle (hashed)" `Quick
        test_seqlock_limbo_hashed;
      QCheck_alcotest.to_alcotest prop_seqlock_limbo_drains;
      Alcotest.test_case "throughput seqlock deterministic fields" `Quick
        test_throughput_seqlock_deterministic;
      Alcotest.test_case "range ops sectioning" `Quick
        test_range_ops_sectioning;
      Alcotest.test_case "range ops: colliding buckets share sections" `Quick
        test_range_ops_collisions;
      Alcotest.test_case "protect_range applies" `Quick
        test_protect_range_applies;
      Alcotest.test_case "protect lock granularity" `Quick
        test_protect_lock_granularity;
      Alcotest.test_case "protect applies under striping" `Quick
        test_protect_applies;
      Alcotest.test_case "throughput deterministic fields" `Quick
        test_throughput_deterministic_fields;
      Alcotest.test_case "throughput organizations agree" `Quick
        test_throughput_orgs_agree;
      Alcotest.test_case "service replay domain invariance" `Slow
        test_service_replay_domain_invariance;
      Alcotest.test_case "service replay drains" `Slow
        test_service_replay_drains;
      Alcotest.test_case "lock stats reset" `Quick test_lock_stats_reset;
      Alcotest.test_case "throughput metrics domain invariance" `Slow
        test_throughput_metrics_domain_invariant;
    ] )
