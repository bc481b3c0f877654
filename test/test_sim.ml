(* The experiment harness: builder, analytic cross-checks, and the
   paper's headline results as executable assertions. *)

module Intf = Pt_common.Intf
module Types = Pt_common.Types

let seed = 0xBEEFL

let assignments_of spec =
  let snap = Workload.Snapshot.generate spec ~seed in
  List.mapi
    (fun i proc ->
      Sim.Builder.assign proc ~seed:(Int64.add seed (Int64.of_int i)) ())
    snap.Workload.Snapshot.procs

let test_builder_all_tables_agree () =
  (* every page resolves to the same frame in all five organizations *)
  let assignments = assignments_of Workload.Table1.nasa7 in
  let kinds =
    [
      Sim.Factory.Linear1;
      Sim.Factory.Forward_mapped;
      Sim.Factory.Hashed;
      Sim.Factory.Inverted;
      Sim.Factory.clustered16;
    ]
  in
  let tables =
    List.map
      (fun kind ->
        List.map
          (fun a ->
            let pt = Sim.Factory.make kind in
            Sim.Builder.populate pt a ~policy:`Base;
            pt)
          assignments)
      kinds
  in
  List.iteri
    (fun ai a ->
      List.iter
        (fun (b : Sim.Builder.block_info) ->
          List.iter
            (fun (boff, ppn) ->
              let vpn =
                Int64.add
                  (Int64.shift_left b.Sim.Builder.vpbn 4)
                  (Int64.of_int boff)
              in
              List.iter
                (fun per_proc ->
                  let pt = List.nth per_proc ai in
                  match Walk.find Intf.lookup_into pt ~vpn with
                  | Some tr ->
                      if not (Int64.equal tr.Types.ppn ppn) then
                        Alcotest.failf "ppn mismatch at %Lx" vpn
                  | None -> Alcotest.failf "page %Lx missing" vpn)
                tables)
            b.Sim.Builder.boffs_ppns)
        a.Sim.Builder.blocks)
      assignments

let test_builder_policies () =
  let assignments = assignments_of Workload.Table1.ml in
  let size policy =
    Sim.Size_exp.size_of Sim.Factory.clustered16 ~policy
      ~assignments:(Array.of_list assignments)
  in
  let base = size `Base and sp = size `Superpage and psb = size `Psb in
  Alcotest.(check bool) "superpage shrinks the table" true (sp < base);
  Alcotest.(check bool) "psb shrinks it even more" true (psb < sp);
  (* Figure 10's magnitudes: sp saves >= 50%, psb >= 70% on ML *)
  Alcotest.(check bool) "sp saves half" true
    (float_of_int sp /. float_of_int base < 0.5);
  Alcotest.(check bool) "psb saves 70%" true
    (float_of_int psb /. float_of_int base < 0.3)

let test_builder_fss () =
  let assignments = assignments_of Workload.Table1.ml in
  List.iter
    (fun a ->
      let fss_sp = Sim.Builder.fss a ~policy:`Superpage in
      let fss_psb = Sim.Builder.fss a ~policy:`Psb in
      Alcotest.(check bool) "fss in range" true
        (fss_sp >= 0.0 && fss_sp <= 1.0);
      Alcotest.(check bool) "psb covers at least the sp blocks" true
        (fss_psb >= fss_sp);
      Alcotest.(check (float 1e-9)) "base policy has no compact blocks" 0.0
        (Sim.Builder.fss a ~policy:`Base))
    assignments

(* --- analytic formulae (Table 2) --- *)

let test_analytic_lines () =
  Alcotest.(check (float 1e-9)) "hashed 1+a/2" 1.5
    (Sim.Analytic.hashed_lines ~load_factor:1.0);
  Alcotest.(check (float 1e-9)) "fm = levels" 7.0
    (Sim.Analytic.forward_mapped_lines ~nlevels:7);
  Alcotest.(check (float 1e-9)) "linear 1 + r*m" 1.2
    (Sim.Analytic.linear_lines ~r:0.1 ~m:2.0)

let test_analytic_sizes () =
  Alcotest.(check int) "hashed" 2400 (Sim.Analytic.hashed_size ~nactive1:100);
  Alcotest.(check int) "clustered (8*16+16)*10" 1440
    (Sim.Analytic.clustered_size ~subblock_factor:16 ~nactive_s:10);
  Alcotest.(check (float 1e-6)) "clustered fss=1 all 24B" 240.0
    (Sim.Analytic.clustered_sp_size ~subblock_factor:16 ~nactive_s:10 ~fss:1.0);
  Alcotest.(check int) "linear+hash" 41200
    (Sim.Analytic.linear_with_hashed_size ~nactive512:10)

let test_simulated_sizes_match_formulae () =
  (* the Table 2 cross-check as a hard assertion, for all workloads *)
  List.iter
    (fun spec ->
      let snap = Workload.Snapshot.generate spec ~seed in
      let assignments =
        List.mapi
          (fun i proc ->
            Sim.Builder.assign proc ~seed:(Int64.add seed (Int64.of_int i)) ())
          snap.Workload.Snapshot.procs
      in
      let nactive p =
        List.fold_left
          (fun acc proc ->
            acc + Workload.Snapshot.active_blocks ~subblock_factor:p proc)
          0 snap.Workload.Snapshot.procs
      in
      let sim kind =
        Sim.Size_exp.size_of kind ~policy:`Base
          ~assignments:(Array.of_list assignments)
      in
      Alcotest.(check int)
        (spec.Workload.Spec.name ^ " hashed")
        (Sim.Analytic.hashed_size ~nactive1:(nactive 1))
        (sim Sim.Factory.Hashed);
      Alcotest.(check int)
        (spec.Workload.Spec.name ^ " clustered")
        (Sim.Analytic.clustered_size ~subblock_factor:16 ~nactive_s:(nactive 16))
        (sim Sim.Factory.clustered16);
      Alcotest.(check int)
        (spec.Workload.Spec.name ^ " linear 6-level")
        (Sim.Analytic.multi_level_linear_size ~nactive ~levels:6)
        (sim Sim.Factory.Linear6);
      Alcotest.(check int)
        (spec.Workload.Spec.name ^ " forward-mapped")
        (Sim.Analytic.forward_mapped_size ~nactive
           ~bits_per_level:[| 8; 8; 8; 8; 8; 6; 6 |])
        (sim Sim.Factory.Forward_mapped))
    [ Workload.Table1.nasa7; Workload.Table1.gcc; Workload.Table1.spice ]

(* --- the paper's headline results as assertions --- *)

let test_figure9_shape () =
  let rows = Sim.Size_exp.figure9 () in
  List.iter
    (fun row ->
      let get label =
        (List.find (fun c -> c.Sim.Size_exp.label = label) row.Sim.Size_exp.cells)
          .Sim.Size_exp.ratio
      in
      (* "clustered page tables use less memory than the best
         conventional page tables for all the workloads" *)
      Alcotest.(check bool)
        (row.Sim.Size_exp.workload ^ ": clustered beats hashed")
        true
        (get "clustered" < 1.0);
      Alcotest.(check bool)
        (row.Sim.Size_exp.workload ^ ": clustered beats linear")
        true
        (get "clustered" < get "linear-1L");
      Alcotest.(check bool)
        (row.Sim.Size_exp.workload ^ ": 6-level costs more than 1-level")
        true
        (get "linear-6L" > get "linear-1L"))
    rows;
  (* linear explodes on the sparse multiprogrammed workloads *)
  let sparse = List.filter (fun r -> r.Sim.Size_exp.workload = "gcc") rows in
  List.iter
    (fun row ->
      let lin =
        (List.find (fun c -> c.Sim.Size_exp.label = "linear-6L")
           row.Sim.Size_exp.cells)
          .Sim.Size_exp.ratio
      in
      Alcotest.(check bool) "gcc linear > 5x hashed" true (lin > 5.0))
    sparse

let test_figure10_shape () =
  let rows = Sim.Size_exp.figure10 () in
  List.iter
    (fun row ->
      let get label =
        (List.find (fun c -> c.Sim.Size_exp.label = label) row.Sim.Size_exp.cells)
          .Sim.Size_exp.ratio
      in
      Alcotest.(check bool)
        (row.Sim.Size_exp.workload ^ ": psb <= sp <= clustered")
        true
        (get "clustered+psb" <= get "clustered+sp"
        && get "clustered+sp" <= get "clustered");
      Alcotest.(check bool)
        (row.Sim.Size_exp.workload ^ ": everything under 1.0")
        true
        (get "hashed+sp" < 1.0 && get "clustered+psb" < 1.0))
    rows

let test_figure11_shape () =
  (* one workload per TLB design keeps the test fast *)
  let fx = Sim.Builder.fixture Workload.Table1.nasa7 ~seed ~length:20000 in
  let find run name =
    (List.find
       (fun r ->
         (* prefix match: hashed variants have decorated names *)
         String.length r.Sim.Access_exp.pt >= String.length name
         && String.sub r.Sim.Access_exp.pt 0 (String.length name) = name)
       run.Sim.Access_exp.results)
      .Sim.Access_exp.mean_lines
  in
  (* 11a: forward-mapped at 7, everyone else close to 1 *)
  let a =
    Sim.Access_exp.run ~design:Sim.Access_exp.Single
      ~pt_kinds:(Sim.Access_exp.kinds_for Sim.Access_exp.Single)
      fx
  in
  Alcotest.(check (float 0.01)) "fm = 7" 7.0 (find a "fwd-mapped");
  Alcotest.(check bool) "clustered near 1" true (find a "clustered" < 1.2);
  Alcotest.(check bool) "hashed acceptable" true (find a "hashed" < 2.0);
  (* 11b: superpage TLB cuts misses massively; hashed degrades,
     clustered does not *)
  let b =
    Sim.Access_exp.run ~design:Sim.Access_exp.Superpage
      ~pt_kinds:(Sim.Access_exp.kinds_for Sim.Access_exp.Superpage)
      fx
  in
  Alcotest.(check bool) "superpages cut misses by >50%" true
    (let am = (List.hd a.Sim.Access_exp.results).Sim.Access_exp.misses in
     let bm = (List.hd b.Sim.Access_exp.results).Sim.Access_exp.misses in
     float_of_int bm < 0.5 *. float_of_int am);
  Alcotest.(check bool) "clustered still near 1" true
    (find b "clustered" < 1.2);
  Alcotest.(check bool) "hashed pays the second probe" true
    (find b "hashed" > find b "clustered");
  (* 11d: prefetching out of a hashed table is terrible *)
  let d =
    Sim.Access_exp.run ~design:Sim.Access_exp.Csb
      ~pt_kinds:(Sim.Access_exp.kinds_for Sim.Access_exp.Csb)
      fx
  in
  Alcotest.(check bool) "hashed csb >= 8 lines" true (find d "hashed" > 8.0);
  Alcotest.(check bool) "clustered csb near 1" true (find d "clustered" < 1.5);
  Alcotest.(check bool) "linear csb near 1" true (find d "linear" < 4.0)

let test_walk_determinism () =
  (* identical runs produce identical results *)
  let spec = Workload.Table1.compress in
  let once () =
    Sim.Access_exp.run ~design:Sim.Access_exp.Single
      ~pt_kinds:[ Sim.Factory.clustered16 ]
      (Sim.Builder.fixture spec ~seed ~length:10000)
  in
  let r1 = once () and r2 = once () in
  Alcotest.(check bool) "same misses" true
    ((List.hd r1.Sim.Access_exp.results).Sim.Access_exp.misses
    = (List.hd r2.Sim.Access_exp.results).Sim.Access_exp.misses);
  Alcotest.(check bool) "same lines" true
    ((List.hd r1.Sim.Access_exp.results).Sim.Access_exp.lines
    = (List.hd r2.Sim.Access_exp.results).Sim.Access_exp.lines)

let test_subblock_sweep_tradeoff () =
  (* Section 3: larger factors help dense, hurt sparse *)
  let sweep spec =
    Sim.Size_exp.subblock_sweep ~factors:[ 2; 16 ] spec
  in
  let dense = sweep Workload.Table1.ml in
  let sparse = sweep Workload.Table1.gcc in
  let at l f = List.assoc f l in
  Alcotest.(check bool) "dense prefers 16" true (at dense 16 < at dense 2);
  Alcotest.(check bool) "sparse prefers smaller factors more than dense" true
    (at sparse 16 /. at sparse 2 > at dense 16 /. at dense 2)

(* Builder.iter_pages visits exactly the snapshot's pages, each once:
   block by block in insertion order, ascending within a block, at any
   subblock factor (a VPN rebuilt with a fixed factor-16 shift fails at
   factor 4) *)
let test_iter_pages_visits_every_page () =
  let snap = Workload.Snapshot.generate Workload.Table1.gcc ~seed in
  List.iter
    (fun factor ->
      Array.iteri
        (fun i a ->
          let name = Printf.sprintf "factor %d, proc %d" factor i in
          let visited = ref [] in
          Sim.Builder.iter_pages a (fun vpn _ -> visited := vpn :: !visited);
          let visited = List.rev !visited in
          Alcotest.(check (list int64))
            (name ^ ": every page once")
            (Array.to_list
               (Workload.Snapshot.proc_vpns
                  (List.nth snap.Workload.Snapshot.procs i)))
            (List.sort Int64.unsigned_compare visited);
          let block = Addr.Vaddr.vpbn_of_vpn ~subblock_factor:factor in
          let rec runs = function
            | v :: (w :: _ as rest) ->
                if block v = block w then begin
                  if Int64.unsigned_compare v w >= 0 then
                    Alcotest.failf "%s: %Lx visited before %Lx" name v w;
                  runs rest
                end
                else 1 + runs rest
            | [ _ ] -> 1
            | [] -> 0
          in
          Alcotest.(check int)
            (name ^ ": one ascending run per block")
            (List.length a.Sim.Builder.blocks)
            (runs visited))
        (Sim.Builder.assignments snap ~seed ~subblock_factor:factor))
    [ 4; 16 ]

let suite =
  ( "sim",
    [
      Alcotest.test_case "builder: iter_pages visits every page" `Quick
        test_iter_pages_visits_every_page;
      Alcotest.test_case "builder: all tables agree" `Quick
        test_builder_all_tables_agree;
      Alcotest.test_case "builder: policies shrink" `Quick test_builder_policies;
      Alcotest.test_case "builder: fss" `Quick test_builder_fss;
      Alcotest.test_case "analytic lines" `Quick test_analytic_lines;
      Alcotest.test_case "analytic sizes" `Quick test_analytic_sizes;
      Alcotest.test_case "simulated sizes = formulae" `Quick
        test_simulated_sizes_match_formulae;
      Alcotest.test_case "Figure 9 shape" `Slow test_figure9_shape;
      Alcotest.test_case "Figure 10 shape" `Slow test_figure10_shape;
      Alcotest.test_case "Figure 11 shape" `Slow test_figure11_shape;
      Alcotest.test_case "determinism" `Quick test_walk_determinism;
      Alcotest.test_case "subblock sweep tradeoff" `Quick
        test_subblock_sweep_tradeoff;
    ] )

let test_residency () =
  let out =
    Sim.Access_exp.run_residency ~seed ~length:20000 ~sets:1024 ~ways:4
      ~pt_kinds:[ Sim.Factory.Hashed; Sim.Factory.clustered16 ]
      Workload.Table1.ml
  in
  match out with
  | [ hashed; clustered ] ->
      Alcotest.(check bool) "warm <= cold" true
        (hashed.Sim.Access_exp.warm_lines <= hashed.Sim.Access_exp.cold_lines
        && clustered.Sim.Access_exp.warm_lines
           <= clustered.Sim.Access_exp.cold_lines);
      (* the smaller clustered table is more cache-resident *)
      Alcotest.(check bool) "clustered more resident than hashed" true
        (clustered.Sim.Access_exp.hit_ratio > hashed.Sim.Access_exp.hit_ratio)
  | _ -> Alcotest.fail "expected two results"

let test_reverse_probe_order_helps () =
  (* Section 6.3: under a psb TLB, probing the coarse table first wins *)
  let run coarse_first =
    let r =
      Sim.Access_exp.run ~design:Sim.Access_exp.Psb
        ~pt_kinds:[ Sim.Factory.Hashed_two_tables { coarse_first } ]
        (Sim.Builder.fixture Workload.Table1.fftpde ~seed ~length:20000)
    in
    (List.hd r.Sim.Access_exp.results).Sim.Access_exp.mean_lines
  in
  Alcotest.(check bool) "coarse-first cheaper" true (run true < run false)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "cache residency" `Slow test_residency;
        Alcotest.test_case "reverse probe order (6.3)" `Quick
          test_reverse_probe_order_helps;
      ] )

(* Mixed base/superpage/psb sequences agree with the model on every
   organization that stores the compact formats. *)
let mixed_clustered =
  Pt_model.mixed_model_test ~name:"mixed ops: clustered" ~make:(fun () ->
      Intf.Instance
        ( (module Clustered_pt.Table),
          Clustered_pt.Table.create (Clustered_pt.Config.make ~buckets:64 ()) ))

let mixed_hashed2t =
  Pt_model.mixed_model_test ~name:"mixed ops: hashed two-table" ~make:(fun () ->
      Intf.Instance
        ( (module Baselines.Hashed_pt),
          Baselines.Hashed_pt.create ~buckets:64
            ~mode:(Baselines.Hashed_pt.Two_tables { coarse_first = false })
            () ))

let mixed_linear =
  Pt_model.mixed_model_test ~name:"mixed ops: linear (replication)"
    ~make:(fun () ->
      Intf.Instance ((module Baselines.Linear_pt), Baselines.Linear_pt.create ()))

let mixed_fm =
  Pt_model.mixed_model_test ~name:"mixed ops: forward-mapped (replication)"
    ~make:(fun () ->
      Intf.Instance
        ((module Baselines.Forward_mapped_pt), Baselines.Forward_mapped_pt.create ()))

let suite =
  ( fst suite,
    snd suite
    @ [
        QCheck_alcotest.to_alcotest mixed_clustered;
        QCheck_alcotest.to_alcotest mixed_hashed2t;
        QCheck_alcotest.to_alcotest mixed_linear;
        QCheck_alcotest.to_alcotest mixed_fm;
      ] )

(* set_attr_range on base-only tables is equivalent to per-page
   updates: in-range pages change, out-of-range pages do not *)
let prop_range_op_equivalence =
  QCheck.Test.make ~name:"range op = per-page update (all tables)" ~count:40
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_range 1 60) (int_bound 127))
        (int_bound 100) (int_bound 40))
    (fun (pages, first, len) ->
      let len = len + 1 in
      let region =
        Addr.Region.make ~first_vpn:(Int64.of_int first) ~pages:len
      in
      List.for_all
        (fun kind ->
          let pt = Sim.Factory.make kind in
          let pages = List.sort_uniq compare pages in
          List.iter
            (fun p ->
              Intf.insert_base pt ~vpn:(Int64.of_int p) ~ppn:(Int64.of_int p)
                ~attr:Pte.Attr.default)
            pages;
          ignore
            (Intf.set_attr_range pt region ~f:(fun a ->
                 { a with Pte.Attr.writable = false }));
          List.for_all
            (fun p ->
              match Walk.lookup Intf.lookup_into pt ~vpn:(Int64.of_int p) with
              | Some tr, _ ->
                  let expected_writable =
                    not (Addr.Region.mem region (Int64.of_int p))
                  in
                  tr.Types.attr.Pte.Attr.writable = expected_writable
              | None, _ -> false)
            pages)
        [
          Sim.Factory.clustered16;
          Sim.Factory.Clustered_variable;
          Sim.Factory.Hashed;
          Sim.Factory.Linear1;
          Sim.Factory.Forward_mapped;
        ])

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest prop_range_op_equivalence ] )

let test_mixed_policy () =
  (* Section 5: superpages and partial-subblocks coexist in one table;
     the mixed policy is never worse than psb-only in size and serves
     full blocks as superpage translations *)
  let assignments = assignments_of Workload.Table1.ml in
  let size policy =
    Sim.Size_exp.size_of Sim.Factory.clustered16 ~policy
      ~assignments:(Array.of_list assignments)
  in
  Alcotest.(check bool) "mixed <= psb" true (size `Mixed <= size `Psb);
  let pt = Sim.Factory.make Sim.Factory.clustered16 in
  List.iter (fun a -> Sim.Builder.populate pt a ~policy:`Mixed) assignments;
  let kinds = Hashtbl.create 3 in
  List.iter
    (fun a ->
      List.iter
        (fun (b : Sim.Builder.block_info) ->
          match b.Sim.Builder.boffs_ppns with
          | (boff, _) :: _ -> (
              let vpn =
                Int64.add
                  (Int64.shift_left b.Sim.Builder.vpbn 4)
                  (Int64.of_int boff)
              in
              match Walk.lookup Intf.lookup_into pt ~vpn with
              | Some tr, _ ->
                  let k =
                    match tr.Types.kind with
                    | Types.Base -> "base"
                    | Types.Superpage _ -> "sp"
                    | Types.Partial_subblock _ -> "psb"
                  in
                  Hashtbl.replace kinds k
                    (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k))
              | None, _ -> Alcotest.fail "mixed population lost a page")
          | [] -> ())
        a.Sim.Builder.blocks)
    assignments;
  Alcotest.(check bool) "all three formats coexist" true
    (Hashtbl.mem kinds "base" && Hashtbl.mem kinds "sp" && Hashtbl.mem kinds "psb")

let suite =
  ( fst suite,
    snd suite @ [ Alcotest.test_case "mixed policy (Section 5)" `Quick test_mixed_policy ] )

(* the headline Figure 9 result is not seed luck: it holds across
   independently generated snapshots *)
let test_figure9_robust_across_seeds () =
  List.iter
    (fun s ->
      let rows = Sim.Size_exp.figure9 ~seed:(Int64.of_int s) () in
      List.iter
        (fun row ->
          let get label =
            (List.find
               (fun c -> c.Sim.Size_exp.label = label)
               row.Sim.Size_exp.cells)
              .Sim.Size_exp.ratio
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: clustered < hashed"
               row.Sim.Size_exp.workload s)
            true
            (get "clustered" < 1.0);
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: clustered <= linear"
               row.Sim.Size_exp.workload s)
            true
            (get "clustered" <= get "linear-1L"))
        rows)
    [ 7; 1995; 424242 ]

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "Figure 9 robust across seeds" `Slow
          test_figure9_robust_across_seeds;
      ] )

(* one differential property over every base-page-capable organization
   at once: after a random op sequence, all tables agree with the
   model and with each other *)
let prop_differential_all_tables =
  QCheck.Test.make ~name:"differential: all organizations agree" ~count:40
    (Pt_model.ops_arbitrary ~vpn_space:150 ~len:80)
    (fun ops ->
      let kinds =
        [
          Sim.Factory.clustered16;
          Sim.Factory.Clustered_variable;
          Sim.Factory.Clustered_tsb;
          Sim.Factory.Hashed;
          Sim.Factory.Hashed_packed;
          Sim.Factory.Hashed_spindex;
          Sim.Factory.Linear1;
          Sim.Factory.Forward_mapped;
          Sim.Factory.Forward_guarded;
          Sim.Factory.Software_tlb;
          Sim.Factory.Clustered_two_tables;
        ]
      in
      let tables = List.map (fun k -> Sim.Factory.make k) kinds in
      let model = Hashtbl.create 64 in
      List.iter
        (function
          | Pt_model.Insert (vpn, ppn) ->
              Hashtbl.replace model vpn ppn;
              List.iter
                (fun pt ->
                  Intf.insert_base pt ~vpn ~ppn ~attr:Pte.Attr.default)
                tables
          | Pt_model.Remove vpn ->
              Hashtbl.remove model vpn;
              List.iter (fun pt -> Intf.remove pt ~vpn) tables)
        ops;
      List.for_all2
        (fun kind pt ->
          let ok = ref (Intf.population pt = Hashtbl.length model) in
          for v = 0 to 149 do
            let vpn = Int64.of_int v in
            let got = Walk.find Intf.lookup_into pt ~vpn in
            match (Hashtbl.find_opt model vpn, got) with
            | None, None -> ()
            | Some ppn, Some tr when Int64.equal tr.Types.ppn ppn -> ()
            | _ ->
                ignore (Sim.Factory.name kind);
                ok := false
          done;
          !ok)
        kinds tables)

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest prop_differential_all_tables ] )

(* --- walk-charge pins ---

   The cache lines every organization's miss walks charge, pinned per
   kind on one fixture (coral, 8000 accesses at ptsim's default seed
   and placement).  Each kind's own tables fill a 64-entry fully
   associative TLB, then a 64-entry complete-subblock TLB that
   prefetches on block misses; both miss streams then replay against
   the same tables at 256- and 64-byte lines.  The TSBs keep their
   state across the recordings and replays, so their pins also hold
   how a lookup refills them.  Each row: the two miss counts, then
   Single at 256 and 64 bytes, Csb at 256 and 64 bytes. *)
let charge_fixture =
  lazy
    (Sim.Builder.fixture Workload.Table1.coral ~seed:0x1995_5051L
       ~placement_p:0.95 ~length:8000)

let walk_charges kind =
  let fx = Lazy.force charge_fixture in
  let trace = Lazy.force fx.Sim.Builder.trace in
  let tables =
    Sim.Builder.tables kind ~policy:`Base fx.Sim.Builder.assignments
  in
  let single, n_single =
    Sim.Access_exp.record_misses trace
      (Tlb.Intf.fa ~entries:64 ())
      ~reference:tables
  in
  let csb, n_csb =
    Sim.Access_exp.record_misses ~design:Sim.Access_exp.Csb trace
      (Tlb.Intf.csb ~entries:64 ~subblock_factor:16 ())
      ~reference:tables
  in
  let replay design misses line_size =
    Sim.Access_exp.replay_misses ~design ~line_size misses tables
  in
  [
    n_single;
    n_csb;
    replay Sim.Access_exp.Single single 256;
    replay Sim.Access_exp.Single single 64;
    replay Sim.Access_exp.Csb csb 256;
    replay Sim.Access_exp.Csb csb 64;
  ]

let pinned_charges =
  [
    ( Sim.Factory.Linear6,
      [ 7958; 61; 7958; 7958; 61; 122 ] );
    ( Sim.Factory.Linear1,
      [ 7958; 61; 7958; 7958; 61; 122 ] );
    ( Sim.Factory.Linear_hashed,
      [ 7958; 61; 7958; 7958; 61; 122 ] );
    ( Sim.Factory.Forward_mapped,
      [ 7958; 61; 55706; 55706; 427; 488 ] );
    ( Sim.Factory.Forward_guarded,
      [ 7958; 61; 39790; 39790; 427; 488 ] );
    ( Sim.Factory.Hashed,
      [ 7958; 61; 13096; 13096; 1594; 1594 ] );
    ( Sim.Factory.Hashed_two_tables { coarse_first = false },
      [ 7958; 61; 13096; 13096; 1597; 1597 ] );
    ( Sim.Factory.Hashed_two_tables { coarse_first = true },
      [ 7958; 61; 21549; 22502; 1659; 1667 ] );
    ( Sim.Factory.Hashed_spindex,
      [ 7958; 61; 71978; 71978; 1007; 1007 ] );
    ( Sim.Factory.Hashed_packed,
      [ 7958; 61; 13096; 13096; 1594; 1594 ] );
    ( Sim.Factory.clustered16,
      [ 7958; 61; 8338; 13313; 67; 189 ] );
    ( Sim.Factory.Clustered_variable,
      [ 7958; 61; 8339; 13309; 68; 188 ] );
    ( Sim.Factory.Clustered_two_tables,
      [ 7958; 61; 8338; 13313; 67; 189 ] );
    ( Sim.Factory.Inverted,
      [ 7958; 61; 21053; 21054; 1592; 1840 ] );
    ( Sim.Factory.Software_tlb,
      [ 7958; 61; 7958; 7958; 87; 270 ] );
    ( Sim.Factory.Clustered_tsb,
      [ 7958; 61; 7958; 23874; 61; 183 ] );
  ]

let suite =
  ( fst suite,
    snd suite
    @ List.map
        (fun (kind, pinned) ->
          Alcotest.test_case
            ("walk charges: " ^ Sim.Factory.name kind)
            `Quick
            (fun () ->
              Alcotest.(check (list int))
                "misses, then lines" pinned (walk_charges kind)))
        pinned_charges )
