(* Forward-mapped page table: the seven-level tree the paper rules out
   for 64-bit spaces, plus the inverted and software-TLB variants. *)

module F = Baselines.Forward_mapped_pt
module Types = Pt_common.Types

let attr = Pte.Attr.default

let instance ?sp_strategy () =
  Pt_common.Intf.Instance ((module F), F.create ?sp_strategy ())

let test_seven_reads_per_miss () =
  let t = F.create () in
  F.insert_base t ~vpn:0x41034L ~ppn:0x55L ~attr;
  match Walk.lookup F.lookup_into t ~vpn:0x41034L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 0x55L tr.Types.ppn;
      (* "the overhead of seven memory accesses on every TLB miss is
         not acceptable" (Section 2) *)
      Alcotest.(check int) "seven probes" 7 (Walk.probes walk);
      Alcotest.(check int) "seven lines" 7 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found"

let test_failed_walk_stops_early () =
  let t = F.create () in
  F.insert_base t ~vpn:0L ~ppn:0L ~attr;
  (* a totally unrelated address dies at the root *)
  let tr, walk = Walk.lookup F.lookup_into t ~vpn:0xF_0000_0000_0000L in
  Alcotest.(check bool) "faults" true (tr = None);
  Alcotest.(check int) "one probe only" 1 (Walk.probes walk)

let test_size_per_node () =
  let t = F.create () in
  F.insert_base t ~vpn:0L ~ppn:0L ~attr;
  (* bits [8;8;8;8;8;6;6]: five 2 KB nodes and two 512 B nodes *)
  Alcotest.(check int) "spine size" ((5 * 2048) + (2 * 512)) (F.size_bytes t);
  Alcotest.(check int) "seven nodes" 7 (F.node_count t)

let test_prune () =
  let t = F.create () in
  F.insert_base t ~vpn:0x123456L ~ppn:1L ~attr;
  F.remove t ~vpn:0x123456L;
  Alcotest.(check int) "only the root survives" 1 (F.node_count t);
  Alcotest.(check int) "population zero" 0 (F.population t)

let test_intermediate_superpage () =
  (* with bits [8;...;6;6] the last intermediate level spans 64 pages =
     a 256 KB superpage, stored as ONE word *)
  let t = F.create ~sp_strategy:`Intermediate () in
  F.insert_superpage t ~vpn:0x40L (* 64-page aligned *)
    ~size:Addr.Page_size.kb256 ~ppn:0x400L ~attr;
  (match Walk.lookup F.lookup_into t ~vpn:0x7FL with
  | Some tr, walk ->
      Alcotest.(check int64) "last page of the superpage" 0x43FL tr.Types.ppn;
      (* the walk short-circuits at the intermediate node *)
      Alcotest.(check int) "six probes, not seven" 6 (Walk.probes walk)
  | None, _ -> Alcotest.fail "intermediate superpage");
  F.remove t ~vpn:0x50L;
  Alcotest.(check int) "one clear removes it" 0 (F.population t)

let test_replicate_superpage () =
  let t = F.create ~sp_strategy:`Replicate () in
  F.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x200L ~attr;
  Alcotest.(check int) "sixteen replicas" 16 (F.population t);
  match Walk.lookup F.lookup_into t ~vpn:0x44L with
  | Some tr, walk ->
      Alcotest.(check int64) "offset" 0x204L tr.Types.ppn;
      Alcotest.(check int) "full-depth walk" 7 (Walk.probes walk)
  | None, _ -> Alcotest.fail "replica"

let test_block_prefetch_one_descent () =
  let t = F.create () in
  for i = 0 to 15 do
    F.insert_base t ~vpn:(Int64.of_int (0x40 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  let found, walk =
    Walk.block F.lookup_block t ~vpn:0x4AL ~subblock_factor:16
  in
  Alcotest.(check int) "all sixteen" 16 (List.length found);
  (* six upper levels + one contiguous leaf read *)
  Alcotest.(check int) "seven lines" 7 (Walk.lines walk)

let prop_model = Pt_model.model_test ~name:"forward-mapped agrees with model"
    ~make:(fun () -> instance ())

let prop_drain = Pt_model.drain_test ~name:"forward-mapped drains"
    ~make:(fun () -> instance ())

(* --- inverted page table --- *)

module I = Baselines.Inverted_pt

let test_inverted_extra_read () =
  let t = I.create () in
  I.insert_base t ~vpn:5L ~ppn:6L ~attr;
  match Walk.lookup I.lookup_into t ~vpn:5L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 6L tr.Types.ppn;
      (* pointer-array read + node read *)
      Alcotest.(check int) "two lines" 2 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found"

let test_inverted_size_fixed_by_physical_memory () =
  let t = I.create ~slots:64 ~frames:256 () in
  let fixed = (64 * 8) + (256 * 16) in
  Alcotest.(check int) "empty table already full-size" fixed (I.size_bytes t);
  I.insert_base t ~vpn:5L ~ppn:6L ~attr;
  Alcotest.(check int) "size independent of mappings" fixed (I.size_bytes t)

let test_inverted_frame_reuse () =
  let t = I.create ~slots:64 ~frames:256 () in
  I.insert_base t ~vpn:5L ~ppn:6L ~attr;
  (* stealing the frame for another vpn unmaps the old one *)
  I.insert_base t ~vpn:99L ~ppn:6L ~attr;
  Alcotest.(check bool) "old vpn unmapped" true
    (Walk.find I.lookup_into t ~vpn:5L = None);
  (match Walk.lookup I.lookup_into t ~vpn:99L with
  | Some tr, _ -> Alcotest.(check int64) "new vpn owns the frame" 6L tr.Pt_common.Types.ppn
  | None, _ -> Alcotest.fail "new mapping lost");
  Alcotest.(check int) "one frame used" 1 (I.population t);
  Alcotest.check_raises "frame out of range"
    (Invalid_argument "Inverted_pt.insert_base: frame out of range") (fun () ->
      I.insert_base t ~vpn:1L ~ppn:256L ~attr)

let prop_model_inverted =
  (* frames sized to the model generator's PPN space *)
  QCheck.Test.make ~name:"inverted agrees with model (unique frames)" ~count:100
    (Pt_model.ops_arbitrary ~vpn_space:200 ~len:120)
    (fun ops ->
      (* identity frames keep vpn->ppn unique, as an OS would *)
      let ops =
        List.map
          (function
            | Pt_model.Insert (vpn, _) -> Pt_model.Insert (vpn, vpn)
            | op -> op)
          ops
      in
      Pt_model.agrees
        ~make:(fun () ->
          Pt_common.Intf.Instance ((module I), I.create ~slots:64 ~frames:256 ()))
        ops)

(* --- software TLB / TSB --- *)

module S = Baselines.Software_tlb

let test_tsb_hit_is_one_read () =
  let t = S.create ~entries:64 () in
  S.insert_base t ~vpn:5L ~ppn:6L ~attr;
  match Walk.lookup S.lookup_into t ~vpn:5L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 6L tr.Types.ppn;
      Alcotest.(check int) "TSB hit: one line" 1 (Walk.lines walk);
      Alcotest.(check int) "hit counted" 1 (S.tsb_hits t)
  | None, _ -> Alcotest.fail "not found"

let test_tsb_conflict_refill () =
  let t = S.create ~entries:64 () in
  (* vpn 5 and 69 conflict in a 64-entry direct-mapped TSB *)
  S.insert_base t ~vpn:5L ~ppn:50L ~attr;
  S.insert_base t ~vpn:69L ~ppn:690L ~attr;
  (* 69 now owns the slot; 5 must come from the backing table *)
  (match Walk.lookup S.lookup_into t ~vpn:5L with
  | Some tr, walk ->
      Alcotest.(check int64) "still resolvable" 50L tr.Types.ppn;
      Alcotest.(check bool) "paid the backing probe" true
        (Walk.lines walk >= 2)
  | None, _ -> Alcotest.fail "evicted mapping lost");
  (* the miss refilled the TSB slot: now it hits again *)
  match Walk.lookup S.lookup_into t ~vpn:5L with
  | Some _, walk ->
      Alcotest.(check int) "refilled: one line" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "refill failed"

let prop_model_swtlb =
  Pt_model.model_test ~name:"software TLB agrees with model"
    ~make:(fun () ->
      Pt_common.Intf.Instance ((module S), S.create ~entries:64 ()))

let suite =
  ( "forward-mapped & variants",
    [
      Alcotest.test_case "seven reads per miss" `Quick test_seven_reads_per_miss;
      Alcotest.test_case "failed walk stops early" `Quick
        test_failed_walk_stops_early;
      Alcotest.test_case "node sizes" `Quick test_size_per_node;
      Alcotest.test_case "prune" `Quick test_prune;
      Alcotest.test_case "intermediate superpage" `Quick
        test_intermediate_superpage;
      Alcotest.test_case "replicated superpage" `Quick test_replicate_superpage;
      Alcotest.test_case "block prefetch" `Quick test_block_prefetch_one_descent;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_drain;
      Alcotest.test_case "inverted: extra read" `Quick test_inverted_extra_read;
      Alcotest.test_case "inverted: size fixed" `Quick
        test_inverted_size_fixed_by_physical_memory;
      Alcotest.test_case "inverted: frame reuse" `Quick test_inverted_frame_reuse;
      QCheck_alcotest.to_alcotest prop_model_inverted;
      Alcotest.test_case "TSB hit" `Quick test_tsb_hit_is_one_read;
      Alcotest.test_case "TSB conflict refill" `Quick test_tsb_conflict_refill;
      QCheck_alcotest.to_alcotest prop_model_swtlb;
    ] )

let test_tsb_set_associative () =
  (* two ways: two conflicting VPNs coexist; a third evicts the LRU *)
  let t = S.create ~entries:8 ~ways:2 () in
  (* set count is 4: vpns 1, 5, 9 share set 1 *)
  S.insert_base t ~vpn:1L ~ppn:10L ~attr;
  S.insert_base t ~vpn:5L ~ppn:50L ~attr;
  let hit vpn =
    let before = S.tsb_hits t in
    ignore (Walk.lookup S.lookup_into t ~vpn);
    S.tsb_hits t > before
  in
  Alcotest.(check bool) "both ways resident" true (hit 1L && hit 5L);
  (* 1 was touched more recently than 5 after the probes above: touch 5
     then insert 9: victim should be 1 *)
  ignore (Walk.lookup S.lookup_into t ~vpn:5L);
  S.insert_base t ~vpn:9L ~ppn:90L ~attr;
  Alcotest.(check bool) "9 resident" true (hit 9L);
  Alcotest.(check bool) "5 survived (recently used)" true (hit 5L);
  Alcotest.(check bool) "1 evicted" false (hit 1L);
  (* the evicted mapping still resolves through the backing table *)
  match Walk.lookup S.lookup_into t ~vpn:1L with
  | Some tr, _ -> Alcotest.(check int64) "backing serves it" 10L tr.Pt_common.Types.ppn
  | None, _ -> Alcotest.fail "mapping lost"

let test_tsb_set_read_cost () =
  let t = S.create ~entries:8 ~ways:4 () in
  S.insert_base t ~vpn:3L ~ppn:30L ~attr;
  match Walk.lookup S.lookup_into t ~vpn:3L with
  | Some _, walk ->
      (* a 4-way set is one 64-byte group: still a single 256B line *)
      Alcotest.(check int) "one line" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found"

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "TSB set-associative" `Quick test_tsb_set_associative;
        Alcotest.test_case "TSB set read cost" `Quick test_tsb_set_read_cost;
      ] )

(* --- guarded page tables [Lied95] --- *)

let test_guarded_sparse_path_compression () =
  let t = F.create ~guarded:true () in
  F.insert_base t ~vpn:0x123456789L ~ppn:0x1L ~attr;
  match Walk.lookup F.lookup_into t ~vpn:0x123456789L with
  | Some _, walk ->
      (* a lone page: every intermediate is single-child, so only the
         root and the leaf are read *)
      Alcotest.(check int) "two probes" 2 (Walk.probes walk)
  | None, _ -> Alcotest.fail "not found"

let test_guarded_partially_effective () =
  (* Section 2: "partially effective but still require many levels" —
     once the tree branches, the shared prefix stays compressed but the
     branched suffix is walked in full *)
  let t = F.create ~guarded:true () in
  (* two pages diverging at the second-to-last level *)
  F.insert_base t ~vpn:0x1000L ~ppn:0x1L ~attr;
  F.insert_base t ~vpn:0x2000L ~ppn:0x2L ~attr;
  (match Walk.lookup F.lookup_into t ~vpn:0x1000L with
  | Some _, walk ->
      Alcotest.(check bool) "more than two probes after branching" true
        (Walk.probes walk > 2)
  | None, _ -> Alcotest.fail "not found");
  (* guarded never charges more than unguarded *)
  let u = F.create ~guarded:false () in
  F.insert_base u ~vpn:0x1000L ~ppn:0x1L ~attr;
  F.insert_base u ~vpn:0x2000L ~ppn:0x2L ~attr;
  let probes table vpn =
    Walk.probes (snd (Walk.lookup F.lookup_into table ~vpn))
  in
  Alcotest.(check bool) "guarded <= unguarded" true
    (probes t 0x1000L <= probes u 0x1000L)

let test_guarded_size_discount () =
  let guarded = F.create ~guarded:true () in
  let plain = F.create ~guarded:false () in
  F.insert_base guarded ~vpn:0x123456789L ~ppn:0x1L ~attr;
  F.insert_base plain ~vpn:0x123456789L ~ppn:0x1L ~attr;
  Alcotest.(check bool) "guarded stores less" true
    (F.size_bytes guarded < F.size_bytes plain);
  (* correctness unchanged *)
  Alcotest.(check bool) "translates identically" true
    (Walk.find F.lookup_into guarded ~vpn:0x123456789L
    = Walk.find F.lookup_into plain ~vpn:0x123456789L)

let prop_model_guarded =
  Pt_model.model_test ~name:"guarded forward-mapped agrees with model"
    ~make:(fun () ->
      Pt_common.Intf.Instance ((module F), F.create ~guarded:true ()))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "guarded: sparse compression" `Quick
          test_guarded_sparse_path_compression;
        Alcotest.test_case "guarded: partially effective" `Quick
          test_guarded_partially_effective;
        Alcotest.test_case "guarded: size discount" `Quick
          test_guarded_size_discount;
        QCheck_alcotest.to_alcotest prop_model_guarded;
      ] )
