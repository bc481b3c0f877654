(* Edge cases and argument validation across the libraries: the error
   paths an OS developer would hit first. *)

module Types = Pt_common.Types

let attr = Pte.Attr.default

let raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: expected Invalid_argument" name)

let validation_cases =
  [
    raises_invalid "attr soft out of range" (fun () ->
        Pte.Attr.to_bits { attr with Pte.Attr.soft = 16 });
    raises_invalid "page size below 4KB" (fun () -> Addr.Page_size.of_shift 11);
    raises_invalid "page size of 3 bytes" (fun () -> Addr.Page_size.of_bytes 3);
    raises_invalid "negative region" (fun () ->
        Addr.Region.make ~first_vpn:0L ~pages:(-1));
    raises_invalid "non-pow2 subblock factor" (fun () ->
        Addr.Vaddr.vpbn_of_vpn ~subblock_factor:12 0L);
    raises_invalid "boff out of factor" (fun () ->
        Addr.Vaddr.vpn_of_vpbn ~subblock_factor:4 0L ~boff:4);
    raises_invalid "sim memory zero bytes" (fun () ->
        Mem.Sim_memory.alloc (Mem.Sim_memory.create ()) ~bytes:0 ~align:8);
    raises_invalid "sim memory non-pow2 align" (fun () ->
        Mem.Sim_memory.alloc (Mem.Sim_memory.create ()) ~bytes:8 ~align:24);
    raises_invalid "cache model non-pow2 line" (fun () ->
        Mem.Cache_model.create_counter ~line_size:100 ());
    raises_invalid "cache sim zero ways" (fun () ->
        Mem.Cache_sim.create ~sets:4 ~ways:0 ());
    raises_invalid "buddy bad total" (fun () ->
        Mem.Buddy.create ~total_pages:17 ~max_order:4);
    raises_invalid "buddy misaligned free" (fun () ->
        let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 in
        Mem.Buddy.free b ~ppn:1L ~order:2);
    raises_invalid "phys alloc non-pow2 factor" (fun () ->
        Mem.Phys_alloc.create ~total_pages:64 ~subblock_factor:10);
    raises_invalid "phys alloc unknown free" (fun () ->
        let a = Mem.Phys_alloc.create ~total_pages:64 ~subblock_factor:16 in
        Mem.Phys_alloc.free_page a ~vpn:0L ~ppn:7L);
    raises_invalid "clustered config factor 32" (fun () ->
        Clustered_pt.Config.make ~subblock_factor:32 ());
    raises_invalid "clustered config buckets 3" (fun () ->
        Clustered_pt.Config.make ~buckets:3 ());
    raises_invalid "clustered unaligned superpage" (fun () ->
        let t = Clustered_pt.Table.create Clustered_pt.Config.default in
        Clustered_pt.Table.insert_superpage t ~vpn:0x41L
          ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr);
    raises_invalid "clustered psb vmask too wide" (fun () ->
        let t =
          Clustered_pt.Table.create
            (Clustered_pt.Config.make ~subblock_factor:4 ())
        in
        Clustered_pt.Table.insert_psb t ~vpbn:0L ~vmask:0x10 ~ppn:0L ~attr);
    raises_invalid "hashed buckets non-pow2" (fun () ->
        Baselines.Hashed_pt.create ~buckets:100 ());
    raises_invalid "linear too many levels" (fun () ->
        Baselines.Linear_pt.create ~levels:9 ());
    raises_invalid "fm single level" (fun () ->
        Baselines.Forward_mapped_pt.create ~bits_per_level:[| 8 |] ());
    raises_invalid "tlb zero entries" (fun () ->
        Tlb.Fa_tlb.create ~entries:0 ());
    raises_invalid "tagged tlb asid bits" (fun () ->
        Tlb.Tagged_tlb.create ~asid_bits:13 (Tlb.Intf.fa ()));
    raises_invalid "tsb slots non-pow2" (fun () ->
        Clustered_pt.Clustered_tsb.create ~slots:100 ());
    raises_invalid "swtlb ways > entries" (fun () ->
        Baselines.Software_tlb.create ~entries:4 ~ways:8 ());
    raises_invalid "bucket lock release unheld" (fun () ->
        let l = Clustered_pt.Bucket_lock.create ~buckets:2 in
        Clustered_pt.Bucket_lock.release l ~bucket:0 Clustered_pt.Bucket_lock.Read);
  ]

(* --- semantic edge cases --- *)

let test_lookup_pages () =
  (* a toy table: even pages map, each lookup reads one word *)
  let order = ref [] in
  let lookup_into acc ~vpn =
    order := vpn :: !order;
    Mem.Walk_acc.read acc ~addr:(Int64.mul vpn 512L) ~bytes:8;
    Mem.Walk_acc.probe acc;
    if Int64.rem vpn 2L = 0L then
      Some (Types.base_translation ~vpn ~ppn:vpn ~attr)
    else None
  in
  let acc = Mem.Walk_acc.create () in
  let found =
    Types.lookup_pages lookup_into acc ~vpn:0x13L ~subblock_factor:4
  in
  Alcotest.(check (list int)) "mapped offsets, ascending" [ 0; 2 ]
    (List.map fst found);
  Alcotest.(check (list int64)) "last page looked up first"
    [ 0x10L; 0x11L; 0x12L; 0x13L ] !order;
  Alcotest.(check int) "every page's read charged" 4 (Walk.reads acc);
  Alcotest.(check int) "lines added" 4 (Walk.lines acc);
  Alcotest.(check int) "probes added" 4 (Walk.probes acc)

let test_covered_pages () =
  let base = Types.base_translation ~vpn:1L ~ppn:2L ~attr in
  Alcotest.(check int) "base covers one" 1 (Types.covered_pages base);
  let sp = { base with Types.kind = Types.Superpage Addr.Page_size.kb64 } in
  Alcotest.(check int) "64KB covers sixteen" 16 (Types.covered_pages sp);
  let psb = { base with Types.kind = Types.Partial_subblock 0b1011 } in
  Alcotest.(check int) "psb covers its bits" 3 (Types.covered_pages psb)

let test_lookup_is_pure () =
  (* a lookup must not change future lookup costs (no splaying) *)
  let t = Clustered_pt.Table.create (Clustered_pt.Config.make ~buckets:1 ()) in
  for b = 0 to 7 do
    Clustered_pt.Table.insert_base t ~vpn:(Int64.of_int (b * 16)) ~ppn:0L ~attr
  done;
  let cost vpn =
    Walk.probes (snd (Walk.lookup Clustered_pt.Table.lookup_into t ~vpn))
  in
  let first = cost 0L in
  for _ = 1 to 5 do
    ignore (cost 0L)
  done;
  Alcotest.(check int) "repeat lookups cost the same" first (cost 0L)

let test_remove_nonexistent_is_noop () =
  let check_pt name pt =
    Pt_common.Intf.remove pt ~vpn:0x1234L;
    Alcotest.(check int) (name ^ " unchanged") 0 (Pt_common.Intf.population pt)
  in
  check_pt "clustered" (Sim.Factory.make Sim.Factory.clustered16);
  check_pt "hashed" (Sim.Factory.make Sim.Factory.Hashed);
  check_pt "linear" (Sim.Factory.make Sim.Factory.Linear1);
  check_pt "fm" (Sim.Factory.make Sim.Factory.Forward_mapped);
  check_pt "var" (Sim.Factory.make Sim.Factory.Clustered_variable)

let test_reinsert_overwrites () =
  List.iter
    (fun kind ->
      let pt = Sim.Factory.make kind in
      Pt_common.Intf.insert_base pt ~vpn:5L ~ppn:1L ~attr;
      Pt_common.Intf.insert_base pt ~vpn:5L ~ppn:2L ~attr;
      (match Walk.lookup Pt_common.Intf.lookup_into pt ~vpn:5L with
      | Some tr, _ ->
          Alcotest.(check int64)
            (Sim.Factory.name kind ^ " remap wins")
            2L tr.Types.ppn
      | None, _ -> Alcotest.fail "lost");
      Alcotest.(check int)
        (Sim.Factory.name kind ^ " population still one")
        1
        (Pt_common.Intf.population pt))
    [
      Sim.Factory.clustered16;
      Sim.Factory.Hashed;
      Sim.Factory.Linear1;
      Sim.Factory.Forward_mapped;
      Sim.Factory.Inverted;
      Sim.Factory.Clustered_variable;
    ]

let test_max_ppn_roundtrip () =
  (* the largest legal PPN survives every format *)
  let ppn = Addr.Paddr.max_ppn in
  let t = Clustered_pt.Table.create Clustered_pt.Config.default in
  Clustered_pt.Table.insert_base t ~vpn:0L ~ppn ~attr;
  (match Walk.lookup Clustered_pt.Table.lookup_into t ~vpn:0L with
  | Some tr, _ -> Alcotest.(check int64) "max ppn" ppn tr.Types.ppn
  | None, _ -> Alcotest.fail "lost");
  let block_ppn = Addr.Bits.align_down ppn 4 in
  Clustered_pt.Table.insert_psb t ~vpbn:9L ~vmask:1 ~ppn:block_ppn ~attr;
  let vpn = Int64.of_int (9 * 16) in
  match Walk.find Clustered_pt.Table.lookup_into t ~vpn with
  | Some tr -> Alcotest.(check int64) "max block ppn" block_ppn tr.Types.ppn
  | None -> Alcotest.fail "psb lost"

let test_high_vpn_space () =
  (* 52-bit VPNs (the full 64-bit address space) work everywhere *)
  let vpn = 0xF_FFFF_FFFF_FFFFL in
  List.iter
    (fun kind ->
      let pt = Sim.Factory.make kind in
      Pt_common.Intf.insert_base pt ~vpn ~ppn:1L ~attr;
      match Walk.lookup Pt_common.Intf.lookup_into pt ~vpn with
      | Some tr, _ ->
          Alcotest.(check int64) (Sim.Factory.name kind) 1L tr.Types.ppn
      | None, _ -> Alcotest.failf "%s lost the top of the space" (Sim.Factory.name kind))
    [
      Sim.Factory.clustered16;
      Sim.Factory.Hashed;
      Sim.Factory.Linear1;
      Sim.Factory.Forward_mapped;
      Sim.Factory.Clustered_variable;
    ]

let test_prng_shuffle_permutes () =
  let rng = Workload.Prng.create ~seed:3L in
  let a = Array.init 100 (fun i -> i) in
  let b = Array.copy a in
  Workload.Prng.shuffle rng b;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b));
  Alcotest.(check bool) "actually permuted" true (a <> b)

let test_report_formatting () =
  Alcotest.(check string) "ratio" "0.48" (Sim.Report.ratio 0.478);
  Alcotest.(check string) "truncation" ">5.00" (Sim.Report.ratio 12.0);
  Alcotest.(check string) "kb" "1.5KB" (Sim.Report.kb 1536)

let suite =
  ( "edge cases",
    validation_cases
    @ [
        Alcotest.test_case "page-by-page prefetch" `Quick test_lookup_pages;
        Alcotest.test_case "covered pages" `Quick test_covered_pages;
        Alcotest.test_case "lookup purity" `Quick test_lookup_is_pure;
        Alcotest.test_case "remove nonexistent" `Quick
          test_remove_nonexistent_is_noop;
        Alcotest.test_case "reinsert overwrites" `Quick test_reinsert_overwrites;
        Alcotest.test_case "max PPN roundtrip" `Quick test_max_ppn_roundtrip;
        Alcotest.test_case "top of the 64-bit space" `Quick test_high_vpn_space;
        Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
        Alcotest.test_case "report formatting" `Quick test_report_formatting;
      ] )
