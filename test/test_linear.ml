(* Multi-level linear page table. *)

module L = Baselines.Linear_pt
module Types = Pt_common.Types

let attr = Pte.Attr.default

let instance ?size_variant () =
  Pt_common.Intf.Instance ((module L), L.create ?size_variant ())

let test_basic () =
  let t = L.create () in
  L.insert_base t ~vpn:0x41034L ~ppn:0x77L ~attr;
  (match Walk.lookup L.lookup_into t ~vpn:0x41034L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 0x77L tr.Types.ppn;
      Alcotest.(check int) "exactly one read" 1 (Walk.reads walk);
      Alcotest.(check int) "one line" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found");
  Alcotest.(check bool) "unmapped faults" true
    (Walk.find L.lookup_into t ~vpn:0x999L = None)

let test_page_granular_allocation () =
  let t = L.create ~size_variant:`One_level () in
  L.insert_base t ~vpn:0L ~ppn:1L ~attr;
  (* one PTE costs a whole 4 KB leaf page *)
  Alcotest.(check int) "one leaf page" 4096 (L.size_bytes t);
  (* 511 more PTEs in the same page cost nothing further *)
  for i = 1 to 511 do
    L.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  Alcotest.(check int) "still one leaf page" 4096 (L.size_bytes t);
  L.insert_base t ~vpn:512L ~ppn:0L ~attr;
  Alcotest.(check int) "second leaf page" 8192 (L.size_bytes t)

let test_six_level_overhead () =
  let t = L.create ~size_variant:`Six_level () in
  L.insert_base t ~vpn:0L ~ppn:1L ~attr;
  (* one mapped page materializes the whole 6-level spine *)
  Alcotest.(check int) "six pages" (6 * 4096) (L.size_bytes t);
  Alcotest.(check int) "one page per level" 1 (L.pages_at_level t ~level:6);
  (* a page 2^26 pages away shares levels 3..6 but needs its own
     leaf and level-2 pages *)
  L.insert_base t ~vpn:0x4000000L ~ppn:2L ~attr;
  Alcotest.(check int) "far page adds exactly two pages" (8 * 4096)
    (L.size_bytes t)

let test_leaf_plus_hash_variant () =
  let t = L.create ~size_variant:`Leaf_plus_hash () in
  L.insert_base t ~vpn:0L ~ppn:1L ~attr;
  Alcotest.(check int) "Table 2: (4KB+24) per leaf" 4120 (L.size_bytes t)

let test_prune_on_remove () =
  let t = L.create () in
  L.insert_base t ~vpn:0x1234L ~ppn:1L ~attr;
  let before = L.size_bytes t in
  L.remove t ~vpn:0x1234L;
  Alcotest.(check bool) "removed" true
    (Walk.find L.lookup_into t ~vpn:0x1234L = None);
  Alcotest.(check int) "all pages pruned" 0 (L.size_bytes t);
  Alcotest.(check bool) "had allocated before" true (before > 0)

let test_superpage_replication () =
  let t = L.create ~size_variant:`One_level () in
  L.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x200L ~attr;
  (* replicate-PTEs: every covered base site holds the word, so the
     superpage saves no page-table memory *)
  Alcotest.(check int) "population is all sixteen" 16 (L.population t);
  (match Walk.lookup L.lookup_into t ~vpn:0x4DL with
  | Some tr, _ ->
      Alcotest.(check int64) "offset ppn" 0x20DL tr.Types.ppn;
      Alcotest.(check bool) "superpage kind" true
        (tr.Types.kind = Types.Superpage Addr.Page_size.kb64)
  | None, _ -> Alcotest.fail "superpage site");
  (* removing any page removes the whole superpage (all replicas) *)
  L.remove t ~vpn:0x45L;
  Alcotest.(check int) "all replicas dropped" 0 (L.population t)

let test_psb_replication () =
  let t = L.create () in
  L.insert_psb t ~vpbn:4L ~vmask:0b110 ~ppn:0x40L ~attr;
  Alcotest.(check int) "two valid sites" 2 (L.population t);
  (match Walk.lookup L.lookup_into t ~vpn:0x42L with
  | Some tr, _ -> Alcotest.(check int64) "psb ppn" 0x42L tr.Types.ppn
  | None, _ -> Alcotest.fail "psb site");
  Alcotest.(check bool) "invalid bit faults" true
    (Walk.find L.lookup_into t ~vpn:0x40L = None);
  (* removing one page updates the remaining replicas' vector *)
  L.remove t ~vpn:0x42L;
  (match Walk.lookup L.lookup_into t ~vpn:0x41L with
  | Some tr, _ ->
      Alcotest.(check bool) "survivor's mask shrank" true
        (tr.Types.kind = Types.Partial_subblock 0b010)
  | None, _ -> Alcotest.fail "survivor lost")

let test_block_read_is_one_line () =
  let t = L.create () in
  for i = 0 to 15 do
    L.insert_base t ~vpn:(Int64.of_int (0x40 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  let found, walk =
    Walk.block L.lookup_block t ~vpn:0x45L ~subblock_factor:16
  in
  Alcotest.(check int) "all sixteen" 16 (List.length found);
  (* adjacent leaf PTEs: a single 128-byte read *)
  Alcotest.(check int) "one access" 1 (Walk.reads walk);
  Alcotest.(check int) "one 256B line" 1 (Walk.lines walk)

let test_leaf_page_vpn_stable () =
  let t = L.create () in
  Alcotest.(check bool) "same leaf for same 512-page region" true
    (Int64.equal (L.leaf_page_vpn t ~vpn:0L) (L.leaf_page_vpn t ~vpn:511L));
  Alcotest.(check bool) "different leaf across regions" false
    (Int64.equal (L.leaf_page_vpn t ~vpn:0L) (L.leaf_page_vpn t ~vpn:512L))

let prop_model = Pt_model.model_test ~name:"linear agrees with model"
    ~make:(fun () -> instance ())

let prop_drain = Pt_model.drain_test ~name:"linear drains to empty"
    ~make:(fun () -> instance ())

let prop_size_is_page_multiple =
  QCheck.Test.make ~name:"linear size is a whole number of pages" ~count:50
    (Pt_model.ops_arbitrary ~vpn_space:3000 ~len:80)
    (fun ops ->
      let t = L.create () in
      List.iter
        (function
          | Pt_model.Insert (vpn, ppn) -> L.insert_base t ~vpn ~ppn ~attr
          | Pt_model.Remove vpn -> L.remove t ~vpn)
        ops;
      L.size_bytes t mod 4096 = 0)

let suite =
  ( "linear",
    [
      Alcotest.test_case "basics" `Quick test_basic;
      Alcotest.test_case "page-granular allocation" `Quick
        test_page_granular_allocation;
      Alcotest.test_case "six-level overhead" `Quick test_six_level_overhead;
      Alcotest.test_case "leaf+hash accounting" `Quick test_leaf_plus_hash_variant;
      Alcotest.test_case "prune on remove" `Quick test_prune_on_remove;
      Alcotest.test_case "superpage replication" `Quick test_superpage_replication;
      Alcotest.test_case "psb replication" `Quick test_psb_replication;
      Alcotest.test_case "block read = one line" `Quick test_block_read_is_one_line;
      Alcotest.test_case "leaf page vpn" `Quick test_leaf_page_vpn_stable;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_drain;
      QCheck_alcotest.to_alcotest prop_size_is_page_multiple;
    ] )
