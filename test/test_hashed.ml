(* Hashed page table and its superpage-storage variants. *)

module H = Baselines.Hashed_pt
module Types = Pt_common.Types

let attr = Pte.Attr.default

let instance ?packed ?mode () =
  Pt_common.Intf.Instance
    ((module H), H.create ~buckets:64 ?packed ?mode ())

let test_basic () =
  let t = H.create () in
  H.insert_base t ~vpn:0x41034L ~ppn:0x99L ~attr;
  (match Walk.lookup H.lookup_into t ~vpn:0x41034L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 0x99L tr.Types.ppn;
      Alcotest.(check int) "one line on a short chain" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found");
  Alcotest.(check int) "24 bytes per PTE" 24 (H.size_bytes t)

let test_packed_size () =
  let t = H.create ~packed:true () in
  for i = 0 to 9 do
    H.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  (* Section 7: packing tag+next into 8 bytes cuts size by a third *)
  Alcotest.(check int) "16 bytes per PTE" 160 (H.size_bytes t)

let test_per_page_nodes () =
  let t = H.create () in
  for i = 0 to 15 do
    H.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  (* unlike the clustered table: sixteen pages cost sixteen nodes *)
  Alcotest.(check int) "sixteen nodes" 16 (H.node_count t);
  Alcotest.(check int) "384 bytes" 384 (H.size_bytes t)

let test_chain_cost () =
  let t = H.create ~buckets:1 () in
  for i = 0 to 3 do
    H.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  (* inserted at head: vpn 3 first, vpn 0 last *)
  let _, w3 = Walk.lookup H.lookup_into t ~vpn:3L in
  let _, w0 = Walk.lookup H.lookup_into t ~vpn:0L in
  Alcotest.(check int) "head is one probe" 1 (Walk.probes w3);
  Alcotest.(check int) "tail is four probes" 4 (Walk.probes w0);
  Alcotest.(check int) "four lines" 4 (Walk.lines w0)

let test_unsuccessful_search_full_chain () =
  let t = H.create ~buckets:1 () in
  for i = 0 to 4 do
    H.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  let tr, w = Walk.lookup H.lookup_into t ~vpn:100L in
  Alcotest.(check bool) "faults" true (tr = None);
  Alcotest.(check int) "walks the whole chain" 5 (Walk.probes w)

let test_remove_relinks () =
  let t = H.create ~buckets:1 () in
  for i = 0 to 4 do
    H.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  H.remove t ~vpn:2L;
  Alcotest.(check bool) "removed" true
    (Walk.find H.lookup_into t ~vpn:2L = None);
  List.iter
    (fun v ->
      Alcotest.(check bool) "chain intact" true
        (Walk.find H.lookup_into t ~vpn:v <> None))
    [ 0L; 1L; 3L; 4L ];
  Alcotest.(check int) "node freed" 4 (H.node_count t)

let test_no_superpages_mode_raises () =
  let t = H.create () in
  Alcotest.check_raises "superpage unsupported"
    (Invalid_argument "Hashed_pt: superpages unsupported in this mode")
    (fun () ->
      H.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x40L
        ~attr)

let test_two_tables_superpage () =
  let t = H.create ~mode:(H.Two_tables { coarse_first = false }) () in
  H.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr;
  H.insert_base t ~vpn:0x10L ~ppn:0x1L ~attr;
  (match Walk.lookup H.lookup_into t ~vpn:0x4AL with
  | Some tr, walk ->
      Alcotest.(check int64) "sp offset" 0x10AL tr.Types.ppn;
      (* probing the empty 4KB table first costs an extra line *)
      Alcotest.(check bool) "two probes for sp pages" true
        (Walk.lines walk >= 2)
  | None, _ -> Alcotest.fail "superpage page not found");
  match Walk.lookup H.lookup_into t ~vpn:0x10L with
  | Some _, walk ->
      Alcotest.(check int) "base page costs one line" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "base page lost"

let test_two_tables_coarse_first () =
  (* the Section 6.3 reverse order: superpage pages become cheap *)
  let t = H.create ~mode:(H.Two_tables { coarse_first = true }) () in
  H.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr;
  match Walk.lookup H.lookup_into t ~vpn:0x4AL with
  | Some _, walk ->
      Alcotest.(check int) "one line when coarse probed first" 1
        (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found"

let test_two_tables_psb () =
  let t = H.create ~mode:(H.Two_tables { coarse_first = false }) () in
  H.insert_psb t ~vpbn:3L ~vmask:0b101 ~ppn:0x30L ~attr;
  (match Walk.lookup H.lookup_into t ~vpn:0x32L with
  | Some tr, _ ->
      Alcotest.(check int64) "psb page" 0x32L tr.Types.ppn;
      Alcotest.(check bool) "kind" true
        (tr.Types.kind = Types.Partial_subblock 0b101)
  | None, _ -> Alcotest.fail "psb bit 2");
  Alcotest.(check bool) "clear bit faults" true
    (Walk.find H.lookup_into t ~vpn:0x31L = None);
  (* removing one page clears its bit *)
  H.remove t ~vpn:0x32L;
  Alcotest.(check bool) "bit removed" true
    (Walk.find H.lookup_into t ~vpn:0x32L = None);
  Alcotest.(check bool) "other bit alive" true
    (Walk.find H.lookup_into t ~vpn:0x30L <> None)

let test_superpage_index_mode () =
  let t = H.create ~mode:H.Superpage_index () in
  H.insert_base t ~vpn:0x41L ~ppn:0x1L ~attr;
  H.insert_superpage t ~vpn:0x50L ~size:Addr.Page_size.kb64 ~ppn:0x200L ~attr;
  (* base and superpage PTEs share buckets (hash on the 64 KB index) *)
  (match Walk.lookup H.lookup_into t ~vpn:0x41L with
  | Some tr, _ -> Alcotest.(check int64) "base" 0x1L tr.Types.ppn
  | None, _ -> Alcotest.fail "base in spindex");
  (match Walk.lookup H.lookup_into t ~vpn:0x5FL with
  | Some tr, _ -> Alcotest.(check int64) "sp" 0x20FL tr.Types.ppn
  | None, _ -> Alcotest.fail "sp in spindex");
  (* base pages of one block chain together: longer chains *)
  let t2 = H.create ~mode:H.Superpage_index ~buckets:4096 () in
  for i = 0 to 15 do
    H.insert_base t2 ~vpn:(Int64.of_int (0x40 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  let _, w = Walk.lookup H.lookup_into t2 ~vpn:0x40L in
  Alcotest.(check int) "sixteen base PTEs on one chain" 16 (Walk.probes w)

let test_spindex_rejects_large () =
  let t = H.create ~mode:H.Superpage_index () in
  Alcotest.check_raises "larger than the hash block"
    (Invalid_argument
       "Hashed_pt: superpage larger than the hash index block must be \
        handled another way (Section 4.2)") (fun () ->
      H.insert_superpage t ~vpn:0x100L ~size:Addr.Page_size.mb1 ~ppn:0x400L
        ~attr)

let test_lookup_block_sixteen_probes () =
  let t = H.create () in
  for i = 0 to 15 do
    H.insert_base t ~vpn:(Int64.of_int (0x80 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  let found, walk =
    Walk.block H.lookup_block t ~vpn:0x85L ~subblock_factor:16
  in
  Alcotest.(check int) "all sixteen found" 16 (List.length found);
  (* Section 4.4: sixteen separate hash probes *)
  Alcotest.(check bool) "sixteen probes" true (Walk.probes walk >= 16);
  Alcotest.(check bool) "sixteen lines" true (Walk.lines walk >= 16)

let test_lookup_block_covers_via_psb () =
  let t = H.create ~mode:(H.Two_tables { coarse_first = false }) () in
  H.insert_psb t ~vpbn:8L ~vmask:0xFFFF ~ppn:0x80L ~attr;
  let found, walk =
    Walk.block H.lookup_block t ~vpn:0x80L ~subblock_factor:16
  in
  Alcotest.(check int) "one psb entry covers all" 16 (List.length found);
  (* one fine miss + one coarse hit, not sixteen probes *)
  Alcotest.(check bool) "few lines" true (Walk.lines walk <= 3)

let test_attr_range_per_page () =
  let t = H.create () in
  for i = 0 to 31 do
    H.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  let searches =
    H.set_attr_range t
      (Addr.Region.make ~first_vpn:0L ~pages:32)
      ~f:(fun a -> { a with Pte.Attr.writable = false })
  in
  (* Section 3.1: hashed pays one search per base page *)
  Alcotest.(check int) "32 searches for 32 pages" 32 searches;
  match Walk.lookup H.lookup_into t ~vpn:9L with
  | Some tr, _ ->
      Alcotest.(check bool) "updated" false tr.Types.attr.Pte.Attr.writable
  | None, _ -> Alcotest.fail "page lost"

(* Two_tables: a range update reaches the coarse table's superpage and
   psb nodes, which are tagged by VPBN *)
let test_attr_range_two_tables_coarse () =
  let t = H.create ~mode:(H.Two_tables { coarse_first = false }) () in
  H.insert_superpage t ~vpn:0x100L ~size:Addr.Page_size.kb64 ~ppn:0x400L ~attr;
  H.insert_psb t ~vpbn:0x20L ~vmask:0b1011 ~ppn:0x500L ~attr;
  let read_only a = { a with Pte.Attr.writable = false } in
  ignore
    (H.set_attr_range t (Addr.Region.make ~first_vpn:0x100L ~pages:16)
       ~f:read_only);
  ignore
    (H.set_attr_range t (Addr.Region.make ~first_vpn:0x200L ~pages:16)
       ~f:read_only);
  List.iter
    (fun (vpn, ppn) ->
      match Walk.lookup H.lookup_into t ~vpn with
      | Some tr, _ ->
          Alcotest.(check int64) (Printf.sprintf "ppn of %Lx" vpn) ppn
            tr.Types.ppn;
          Alcotest.(check bool)
            (Printf.sprintf "%Lx read-only" vpn)
            false tr.Types.attr.Pte.Attr.writable
      | None, _ -> Alcotest.failf "vpn %Lx lost" vpn)
    [
      (0x100L, 0x400L); (0x107L, 0x407L); (0x10FL, 0x40FL); (0x200L, 0x500L);
      (0x201L, 0x501L); (0x203L, 0x503L);
    ]

let prop_model_plain =
  Pt_model.model_test ~name:"hashed (plain) agrees with model"
    ~make:(fun () -> instance ())

let prop_model_packed =
  Pt_model.model_test ~name:"hashed (packed) agrees with model"
    ~make:(fun () -> instance ~packed:true ())

let prop_model_spindex =
  Pt_model.model_test ~name:"hashed (superpage-index) agrees with model"
    ~make:(fun () -> instance ~mode:H.Superpage_index ())

let prop_model_two_tables =
  Pt_model.model_test ~name:"hashed (two tables) agrees with model"
    ~make:(fun () -> instance ~mode:(H.Two_tables { coarse_first = false }) ())

let prop_drain =
  Pt_model.drain_test ~name:"hashed drains to empty" ~make:(fun () -> instance ())

let suite =
  ( "hashed",
    [
      Alcotest.test_case "basics" `Quick test_basic;
      Alcotest.test_case "packed size" `Quick test_packed_size;
      Alcotest.test_case "node per page" `Quick test_per_page_nodes;
      Alcotest.test_case "chain cost" `Quick test_chain_cost;
      Alcotest.test_case "unsuccessful search" `Quick
        test_unsuccessful_search_full_chain;
      Alcotest.test_case "remove relinks" `Quick test_remove_relinks;
      Alcotest.test_case "no-superpage mode raises" `Quick
        test_no_superpages_mode_raises;
      Alcotest.test_case "two tables: superpage" `Quick test_two_tables_superpage;
      Alcotest.test_case "two tables: coarse first" `Quick
        test_two_tables_coarse_first;
      Alcotest.test_case "two tables: psb" `Quick test_two_tables_psb;
      Alcotest.test_case "superpage-index mode" `Quick test_superpage_index_mode;
      Alcotest.test_case "spindex rejects large" `Quick test_spindex_rejects_large;
      Alcotest.test_case "block prefetch = 16 probes" `Quick
        test_lookup_block_sixteen_probes;
      Alcotest.test_case "block prefetch via psb" `Quick
        test_lookup_block_covers_via_psb;
      Alcotest.test_case "range op per page" `Quick test_attr_range_per_page;
      Alcotest.test_case "range op reaches coarse nodes" `Quick
        test_attr_range_two_tables_coarse;
      QCheck_alcotest.to_alcotest prop_model_plain;
      QCheck_alcotest.to_alcotest prop_model_packed;
      QCheck_alcotest.to_alcotest prop_model_spindex;
      QCheck_alcotest.to_alcotest prop_model_two_tables;
      QCheck_alcotest.to_alcotest prop_drain;
    ] )
