(* The clustered page table: the paper's central contribution. *)

module T = Clustered_pt.Table
module Config = Clustered_pt.Config
module Types = Pt_common.Types

let attr = Pte.Attr.default

let make ?(subblock_factor = 16) ?(buckets = 64) () =
  T.create (Config.make ~subblock_factor ~buckets ())

let instance ?subblock_factor ?buckets () =
  Pt_common.Intf.Instance ((module T), make ?subblock_factor ?buckets ())

(* --- basics --- *)

let test_insert_lookup () =
  let t = make () in
  T.insert_base t ~vpn:0x41034L ~ppn:0x123L ~attr;
  (match Walk.lookup T.lookup_into t ~vpn:0x41034L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 0x123L tr.Types.ppn;
      Alcotest.(check bool) "base kind" true (tr.Types.kind = Types.Base);
      Alcotest.(check int) "one probe" 1 (Walk.probes walk)
  | None, _ -> Alcotest.fail "mapped page not found");
  Alcotest.(check bool) "neighbour in same block unmapped" true
    (Walk.find T.lookup_into t ~vpn:0x41035L = None)

let test_one_node_per_block () =
  let t = make () in
  for i = 0 to 15 do
    T.insert_base t ~vpn:(Int64.of_int (0x40 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  Alcotest.(check int) "sixteen pages, one node" 1 (T.node_count t);
  Alcotest.(check int) "node is 144 bytes" 144 (T.size_bytes t);
  Alcotest.(check int) "population" 16 (T.population t)

let test_size_formula () =
  (* (8s + 16) * Nactive(s): the appendix's clustered size *)
  let t = make ~subblock_factor:8 () in
  T.insert_base t ~vpn:0L ~ppn:1L ~attr;
  T.insert_base t ~vpn:100L ~ppn:2L ~attr;
  T.insert_base t ~vpn:101L ~ppn:3L ~attr;
  Alcotest.(check int) "two blocks at 80 bytes" 160 (T.size_bytes t)

let test_walk_reads_match_figure8 () =
  (* after the tag match the handler reads mapping[0] (the S check)
     then mapping[Boff]: one extra 8-byte read for Boff <> 0 *)
  let t = make () in
  T.insert_base t ~vpn:0x100L ~ppn:1L ~attr;
  T.insert_base t ~vpn:0x105L ~ppn:2L ~attr;
  let _, walk0 = Walk.lookup T.lookup_into t ~vpn:0x100L in
  let _, walk5 = Walk.lookup T.lookup_into t ~vpn:0x105L in
  Alcotest.(check int) "boff 0 reads: tag+next, word0" 2
    (Walk.reads walk0);
  Alcotest.(check int) "boff 5 reads: tag+next, word0, word5" 3
    (Walk.reads walk5);
  (* all within one 256-byte line *)
  Alcotest.(check int) "still one line" 1 (Walk.lines walk5)

let test_empty_bucket_costs_one_line () =
  let t = make () in
  let _, walk = Walk.lookup T.lookup_into t ~vpn:0xDEADL in
  Alcotest.(check int) "embedded head read" 1 (Walk.lines walk)

(* --- partial-subblock and superpage nodes (Figures 7/8) --- *)

let test_psb_node () =
  let t = make () in
  T.insert_psb t ~vpbn:5L ~vmask:0b1010 ~ppn:0x40L ~attr;
  Alcotest.(check int) "psb node is 24 bytes" 24 (T.size_bytes t);
  (match Walk.lookup T.lookup_into t ~vpn:0x51L with
  | Some tr, _ ->
      Alcotest.(check int64) "ppn offset" 0x41L tr.Types.ppn;
      Alcotest.(check bool) "kind" true
        (tr.Types.kind = Types.Partial_subblock 0b1010)
  | None, _ -> Alcotest.fail "psb bit 1 should map");
  Alcotest.(check bool) "clear bit faults" true
    (Walk.find T.lookup_into t ~vpn:0x50L = None)

let test_psb_merge () =
  let t = make () in
  T.insert_psb t ~vpbn:5L ~vmask:0b0011 ~ppn:0x40L ~attr;
  T.insert_psb t ~vpbn:5L ~vmask:0b1100 ~ppn:0x40L ~attr;
  Alcotest.(check int) "merged into one node" 1 (T.node_count t);
  Alcotest.(check int) "all four pages" 4 (T.population t)

let test_block_superpage_node () =
  let t = make () in
  T.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr;
  Alcotest.(check int) "one 24-byte node" 24 (T.size_bytes t);
  (match Walk.lookup T.lookup_into t ~vpn:0x4BL with
  | Some tr, _ ->
      Alcotest.(check int64) "ppn" 0x10BL tr.Types.ppn;
      Alcotest.(check int64) "vpn_base" 0x40L tr.Types.vpn_base;
      Alcotest.(check bool) "kind" true
        (tr.Types.kind = Types.Superpage Addr.Page_size.kb64)
  | None, _ -> Alcotest.fail "superpage page should map")

let test_large_superpage_replicates_per_block () =
  (* a 1 MB superpage = 256 pages = 16 blocks: sixteen 24-byte nodes,
     a factor of 16 less than conventional replication (Section 5) *)
  let t = make () in
  T.insert_superpage t ~vpn:0x100L ~size:Addr.Page_size.mb1 ~ppn:0x400L ~attr;
  Alcotest.(check int) "sixteen single nodes" 16 (T.node_count t);
  Alcotest.(check int) "384 bytes total" (16 * 24) (T.size_bytes t);
  (* any page resolves with the right offset *)
  (match Walk.lookup T.lookup_into t ~vpn:0x1FFL with
  | Some tr, _ -> Alcotest.(check int64) "last page" 0x4FFL tr.Types.ppn
  | None, _ -> Alcotest.fail "should map");
  Alcotest.(check int) "population covers 256 pages" 256 (T.population t)

let test_small_superpage_in_block_node () =
  (* two 8 KB superpages inside one 16 KB block (factor 4) — the
     Section 5 example *)
  let t = make ~subblock_factor:4 () in
  T.insert_superpage t ~vpn:0x10L ~size:(Addr.Page_size.of_bytes 0x2000)
    ~ppn:0x20L ~attr;
  T.insert_superpage t ~vpn:0x12L ~size:(Addr.Page_size.of_bytes 0x2000)
    ~ppn:0x30L ~attr;
  Alcotest.(check int) "one block node" 1 (T.node_count t);
  (match Walk.lookup T.lookup_into t ~vpn:0x11L with
  | Some tr, _ ->
      Alcotest.(check int64) "first sp maps" 0x21L tr.Types.ppn
  | None, _ -> Alcotest.fail "first 8KB sp");
  match Walk.lookup T.lookup_into t ~vpn:0x12L with
  | Some tr, _ -> Alcotest.(check int64) "second sp maps" 0x30L tr.Types.ppn
  | None, _ -> Alcotest.fail "second 8KB sp"

let test_mixed_chain_continues_after_tag_match () =
  (* Section 5: a superpage node and a base node may share a tag; the
     handler keeps searching after a tag match with no valid mapping *)
  let t = make ~subblock_factor:4 () in
  (* base pages for offsets 2,3 *)
  T.insert_base t ~vpn:0x12L ~ppn:0x52L ~attr;
  T.insert_base t ~vpn:0x13L ~ppn:0x53L ~attr;
  (* an 8 KB superpage for offsets 0,1 as a psb node of the same tag *)
  T.insert_psb t ~vpbn:4L ~vmask:0b0011 ~ppn:0x40L ~attr;
  Alcotest.(check int) "two nodes share the tag" 2 (T.node_count t);
  let ppn_of vpn =
    match Walk.lookup T.lookup_into t ~vpn with
    | Some tr, _ -> tr.Types.ppn
    | None, _ -> Alcotest.failf "vpn %Lx unmapped" vpn
  in
  Alcotest.(check int64) "psb page" 0x40L (ppn_of 0x10L);
  Alcotest.(check int64) "base page" 0x52L (ppn_of 0x12L)

(* --- removal --- *)

let test_remove_base () =
  let t = make () in
  T.insert_base t ~vpn:0x10L ~ppn:1L ~attr;
  T.insert_base t ~vpn:0x11L ~ppn:2L ~attr;
  T.remove t ~vpn:0x10L;
  Alcotest.(check bool) "removed" true
    (Walk.find T.lookup_into t ~vpn:0x10L = None);
  Alcotest.(check bool) "sibling intact" true
    (Walk.find T.lookup_into t ~vpn:0x11L <> None);
  T.remove t ~vpn:0x11L;
  Alcotest.(check int) "empty node freed" 0 (T.node_count t);
  Alcotest.(check int) "no bytes" 0 (T.size_bytes t)

let test_remove_psb_bitwise () =
  let t = make () in
  T.insert_psb t ~vpbn:2L ~vmask:0b11 ~ppn:0x20L ~attr;
  T.remove t ~vpn:0x20L;
  Alcotest.(check bool) "bit cleared" true
    (Walk.find T.lookup_into t ~vpn:0x20L = None);
  Alcotest.(check bool) "other bit alive" true
    (Walk.find T.lookup_into t ~vpn:0x21L <> None);
  T.remove t ~vpn:0x21L;
  Alcotest.(check int) "node gone at zero mask" 0 (T.node_count t)

let test_remove_superpage_whole () =
  let t = make () in
  T.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr;
  T.remove t ~vpn:0x45L;
  Alcotest.(check bool) "whole superpage removed" true
    (Walk.find T.lookup_into t ~vpn:0x40L = None);
  Alcotest.(check int) "node freed" 0 (T.node_count t)

(* --- range operations (Section 3.1) --- *)

let test_attr_range_one_search_per_block () =
  let t = make () in
  for i = 0 to 47 do
    T.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  let searches =
    T.set_attr_range t
      (Addr.Region.make ~first_vpn:0L ~pages:48)
      ~f:(fun a -> { a with Pte.Attr.writable = false })
  in
  Alcotest.(check int) "48 pages, 3 block searches" 3 searches;
  match Walk.lookup T.lookup_into t ~vpn:20L with
  | Some tr, _ ->
      Alcotest.(check bool) "attr updated" false tr.Types.attr.Pte.Attr.writable
  | None, _ -> Alcotest.fail "page vanished"

let test_attr_range_partial_block () =
  let t = make () in
  for i = 0 to 15 do
    T.insert_base t ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  ignore
    (T.set_attr_range t
       (Addr.Region.make ~first_vpn:4L ~pages:4)
       ~f:(fun a -> { a with Pte.Attr.writable = false }));
  let writable vpn =
    match Walk.lookup T.lookup_into t ~vpn with
    | Some tr, _ -> tr.Types.attr.Pte.Attr.writable
    | None, _ -> Alcotest.fail "unmapped"
  in
  Alcotest.(check bool) "below range untouched" true (writable 3L);
  Alcotest.(check bool) "in range updated" false (writable 5L);
  Alcotest.(check bool) "above range untouched" true (writable 8L)

(* --- promotion / demotion (Section 5) --- *)

let test_promotion () =
  let t = make () in
  for i = 0 to 15 do
    T.insert_base t ~vpn:(Int64.of_int (0x20 + i)) ~ppn:(Int64.of_int (0x40 + i))
      ~attr
  done;
  let summary = T.block_summary t ~vpn:0x25L in
  Alcotest.(check int) "full base vmask" 0xFFFF summary.T.base_vmask;
  Alcotest.(check (option int64)) "promotable" (Some 0x40L)
    summary.T.promotable_ppn;
  Alcotest.(check bool) "promote succeeds" true (T.promote_block t ~vpn:0x25L);
  Alcotest.(check int) "one 24-byte node after" 24 (T.size_bytes t);
  (match Walk.lookup T.lookup_into t ~vpn:0x2FL with
  | Some tr, _ ->
      Alcotest.(check bool) "now a superpage" true
        (tr.Types.kind = Types.Superpage Addr.Page_size.kb64);
      Alcotest.(check int64) "ppn preserved" 0x4FL tr.Types.ppn
  | None, _ -> Alcotest.fail "promoted page unmapped");
  (* and back *)
  Alcotest.(check bool) "demote succeeds" true (T.demote_block t ~vpn:0x25L);
  match Walk.lookup T.lookup_into t ~vpn:0x2FL with
  | Some tr, _ -> Alcotest.(check bool) "base again" true (tr.Types.kind = Types.Base)
  | None, _ -> Alcotest.fail "demoted page unmapped"

let test_promotion_refuses_improper () =
  let t = make () in
  for i = 0 to 15 do
    (* frames not block-contiguous *)
    T.insert_base t ~vpn:(Int64.of_int (0x20 + i)) ~ppn:(Int64.of_int (0x40 + (2 * i)))
      ~attr
  done;
  Alcotest.(check bool) "not promotable" false (T.promote_block t ~vpn:0x20L);
  Alcotest.(check bool) "partial block not promotable" false
    (let t2 = make () in
     T.insert_base t2 ~vpn:0x20L ~ppn:0x40L ~attr;
     T.promote_block t2 ~vpn:0x20L)

(* --- block prefetch (Section 4.4) --- *)

let test_lookup_block () =
  let t = make () in
  for i = 0 to 15 do
    if i mod 2 = 0 then
      T.insert_base t ~vpn:(Int64.of_int (0x60 + i)) ~ppn:(Int64.of_int (0x80 + i))
        ~attr
  done;
  let found, walk =
    Walk.block T.lookup_block t ~vpn:0x63L ~subblock_factor:16
  in
  Alcotest.(check int) "eight valid pages" 8 (List.length found);
  Alcotest.(check bool) "offsets are the even ones" true
    (List.for_all (fun (i, _) -> i mod 2 = 0) found);
  Alcotest.(check int) "one probe serves the block" 1 (Walk.probes walk);
  (* a 144-byte node spans one 256-byte line *)
  Alcotest.(check int) "one line" 1 (Walk.lines walk);
  Alcotest.(check int) "two lines at 64B"
    3
    (Walk.lines ~line_size:64 walk)

(* --- chains and hashing --- *)

let test_chain_collisions () =
  (* one bucket: every block collides; lookup must still resolve *)
  let t = make ~buckets:1 () in
  for b = 0 to 9 do
    T.insert_base t ~vpn:(Int64.of_int (b * 16)) ~ppn:(Int64.of_int b) ~attr
  done;
  Alcotest.(check int) "chain holds all nodes" 10 (T.chain_length t ~bucket:0);
  Alcotest.(check (float 1e-9)) "load factor" 10.0 (T.load_factor t);
  for b = 0 to 9 do
    match Walk.lookup T.lookup_into t ~vpn:(Int64.of_int (b * 16)) with
    | Some tr, _ -> Alcotest.(check int64) "resolves" (Int64.of_int b) tr.Types.ppn
    | None, _ -> Alcotest.fail "chained node lost"
  done

let test_clear () =
  let t = make () in
  for i = 0 to 99 do
    T.insert_base t ~vpn:(Int64.of_int (i * 16)) ~ppn:(Int64.of_int i) ~attr
  done;
  T.clear t;
  Alcotest.(check int) "no nodes" 0 (T.node_count t);
  Alcotest.(check int) "no bytes" 0 (T.size_bytes t);
  Alcotest.(check bool) "lookups fault" true
    (Walk.find T.lookup_into t ~vpn:0L = None)

(* --- coarse (multi-size) tables and the two-table scheme --- *)

let test_coarse_table_rejects_base () =
  let t = T.create (Config.make ~page_shift:16 ()) in
  Alcotest.check_raises "base insert rejected"
    (Invalid_argument
       "Clustered_pt: base pages not representable in a coarse table")
    (fun () -> T.insert_base t ~vpn:0L ~ppn:0L ~attr)

let test_multi_size () =
  let m = Clustered_pt.Multi_size.create () in
  Clustered_pt.Multi_size.insert_base m ~vpn:0x10L ~ppn:0x1L ~attr;
  Clustered_pt.Multi_size.insert_superpage m ~vpn:0x100L
    ~size:Addr.Page_size.mb1 ~ppn:0x400L ~attr;
  (* the 1 MB superpage costs ONE coarse node, not 16 *)
  Alcotest.(check int) "coarse node count" 1
    (T.node_count (Clustered_pt.Multi_size.coarse m));
  (match Walk.lookup Clustered_pt.Multi_size.lookup_into m ~vpn:0x10L with
  | Some tr, _ -> Alcotest.(check int64) "fine hit" 0x1L tr.Types.ppn
  | None, _ -> Alcotest.fail "fine lookup");
  (match Walk.lookup Clustered_pt.Multi_size.lookup_into m ~vpn:0x1FFL with
  | Some tr, walk ->
      Alcotest.(check int64) "coarse hit" 0x4FFL tr.Types.ppn;
      (* probing fine first costs a (failed) fine walk *)
      Alcotest.(check bool) "two-table walk costs >= 2 lines" true
        (Walk.lines walk >= 2)
  | None, _ -> Alcotest.fail "coarse lookup");
  Clustered_pt.Multi_size.remove m ~vpn:0x1FFL;
  Alcotest.(check bool) "large superpage removed via coarse" true
    (Walk.find Clustered_pt.Multi_size.lookup_into m ~vpn:0x1FFL = None)

(* --- bucket locks (Section 3.1) --- *)

let test_bucket_lock_protocol () =
  let l = Clustered_pt.Bucket_lock.create ~buckets:8 in
  Clustered_pt.Bucket_lock.acquire l ~bucket:3 Clustered_pt.Bucket_lock.Read;
  Clustered_pt.Bucket_lock.acquire l ~bucket:3 Clustered_pt.Bucket_lock.Read;
  Alcotest.(check int) "readers share" 2
    (Clustered_pt.Bucket_lock.read_acquisitions l);
  Alcotest.check_raises "writer blocked by readers"
    (Clustered_pt.Bucket_lock.Deadlock 3) (fun () ->
      Clustered_pt.Bucket_lock.acquire l ~bucket:3 Clustered_pt.Bucket_lock.Write);
  Clustered_pt.Bucket_lock.release l ~bucket:3 Clustered_pt.Bucket_lock.Read;
  Clustered_pt.Bucket_lock.release l ~bucket:3 Clustered_pt.Bucket_lock.Read;
  Clustered_pt.Bucket_lock.with_lock l ~bucket:3 Clustered_pt.Bucket_lock.Write
    (fun () ->
      Alcotest.check_raises "no second writer"
        (Clustered_pt.Bucket_lock.Deadlock 3) (fun () ->
          Clustered_pt.Bucket_lock.acquire l ~bucket:3
            Clustered_pt.Bucket_lock.Write));
  Alcotest.(check int) "all released" 0
    (Clustered_pt.Bucket_lock.currently_held l)

(* --- properties --- *)

let prop_model = Pt_model.model_test ~name:"clustered agrees with model"
    ~make:(fun () -> instance ())

let prop_drain = Pt_model.drain_test ~name:"clustered drains to empty"
    ~make:(fun () -> instance ())

let prop_size_formula =
  QCheck.Test.make ~name:"size always equals (8s+16) * nodes" ~count:100
    (Pt_model.ops_arbitrary ~vpn_space:300 ~len:100)
    (fun ops ->
      let t = make () in
      List.iter
        (function
          | Pt_model.Insert (vpn, ppn) -> T.insert_base t ~vpn ~ppn ~attr
          | Pt_model.Remove vpn -> T.remove t ~vpn)
        ops;
      T.size_bytes t = T.node_count t * 144)

let suite =
  ( "clustered",
    [
      Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
      Alcotest.test_case "one node per block" `Quick test_one_node_per_block;
      Alcotest.test_case "size formula" `Quick test_size_formula;
      Alcotest.test_case "walk reads (Figure 8)" `Quick
        test_walk_reads_match_figure8;
      Alcotest.test_case "empty bucket costs a line" `Quick
        test_empty_bucket_costs_one_line;
      Alcotest.test_case "psb node" `Quick test_psb_node;
      Alcotest.test_case "psb merge" `Quick test_psb_merge;
      Alcotest.test_case "block superpage node" `Quick test_block_superpage_node;
      Alcotest.test_case "large superpage replication" `Quick
        test_large_superpage_replicates_per_block;
      Alcotest.test_case "small superpages in block node" `Quick
        test_small_superpage_in_block_node;
      Alcotest.test_case "mixed chain (Section 5)" `Quick
        test_mixed_chain_continues_after_tag_match;
      Alcotest.test_case "remove base" `Quick test_remove_base;
      Alcotest.test_case "remove psb bit" `Quick test_remove_psb_bitwise;
      Alcotest.test_case "remove superpage" `Quick test_remove_superpage_whole;
      Alcotest.test_case "range op: one search per block" `Quick
        test_attr_range_one_search_per_block;
      Alcotest.test_case "range op: partial block" `Quick
        test_attr_range_partial_block;
      Alcotest.test_case "promotion/demotion" `Quick test_promotion;
      Alcotest.test_case "promotion refused" `Quick test_promotion_refuses_improper;
      Alcotest.test_case "block prefetch" `Quick test_lookup_block;
      Alcotest.test_case "chain collisions" `Quick test_chain_collisions;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "coarse table" `Quick test_coarse_table_rejects_base;
      Alcotest.test_case "multi-size two tables" `Quick test_multi_size;
      Alcotest.test_case "bucket locks" `Quick test_bucket_lock_protocol;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_drain;
      QCheck_alcotest.to_alcotest prop_size_formula;
    ] )

(* --- clustered software TLB (TSB) --- *)

module Tsb = Clustered_pt.Clustered_tsb

let test_tsb_hit_one_slot_read () =
  let t = Tsb.create ~slots:64 () in
  Tsb.insert_base t ~vpn:0x40L ~ppn:0x80L ~attr;
  (* first lookup misses the (invalidated) slot and refills it *)
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x40L);
  match Walk.lookup Tsb.lookup_into t ~vpn:0x40L with
  | Some tr, walk ->
      Alcotest.(check int64) "ppn" 0x80L tr.Types.ppn;
      Alcotest.(check int) "one line on a TSB hit" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found"

let test_tsb_block_coverage_after_block_refill () =
  let t = Tsb.create ~slots:64 () in
  for i = 0 to 15 do
    Tsb.insert_base t ~vpn:(Int64.of_int (0x40 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  (* one block lookup warms the whole slot *)
  let found, _ = Walk.block Tsb.lookup_block t ~vpn:0x43L ~subblock_factor:16 in
  Alcotest.(check int) "block gathered" 16 (List.length found);
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x44L);
  let before = Tsb.tsb_hits t in
  (* after the single-page refill path, at least that page hits *)
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x44L);
  Alcotest.(check bool) "page hits after refill" true (Tsb.tsb_hits t > before)

let test_tsb_conflict_eviction () =
  let t = Tsb.create ~slots:64 () in
  (* blocks 0 and 64 conflict in a 64-slot TSB *)
  Tsb.insert_base t ~vpn:0x5L ~ppn:0x1L ~attr;
  Tsb.insert_base t ~vpn:(Int64.of_int ((64 * 16) + 5)) ~ppn:0x2L ~attr;
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x5L);
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:(Int64.of_int ((64 * 16) + 5)));
  (* both remain resolvable through the backing table *)
  (match Walk.lookup Tsb.lookup_into t ~vpn:0x5L with
  | Some tr, _ -> Alcotest.(check int64) "evicted still resolves" 0x1L tr.Types.ppn
  | None, _ -> Alcotest.fail "lost after conflict");
  Alcotest.(check bool) "misses were counted" true (Tsb.tsb_misses t >= 2)

let test_tsb_psb_and_superpage_slots () =
  let t = Tsb.create ~slots:64 () in
  Tsb.insert_psb t ~vpbn:2L ~vmask:0b101 ~ppn:0x20L ~attr;
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x22L);
  (match Walk.lookup Tsb.lookup_into t ~vpn:0x22L with
  | Some tr, walk ->
      Alcotest.(check bool) "psb kind" true
        (match tr.Types.kind with Types.Partial_subblock _ -> true | _ -> false);
      Alcotest.(check int) "hit costs a line" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "psb slot");
  Tsb.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr;
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x4AL);
  match Walk.lookup Tsb.lookup_into t ~vpn:0x4AL with
  | Some tr, _ -> Alcotest.(check int64) "sp offset" 0x10AL tr.Types.ppn
  | None, _ -> Alcotest.fail "sp slot"

let test_tsb_invalidate_on_update () =
  let t = Tsb.create ~slots:64 () in
  Tsb.insert_base t ~vpn:0x40L ~ppn:0x80L ~attr;
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x40L);
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x40L);
  (* remap: the stale slot must not serve the old frame *)
  Tsb.insert_base t ~vpn:0x40L ~ppn:0x99L ~attr;
  (match Walk.lookup Tsb.lookup_into t ~vpn:0x40L with
  | Some tr, _ -> Alcotest.(check int64) "fresh frame" 0x99L tr.Types.ppn
  | None, _ -> Alcotest.fail "remap lost");
  Tsb.remove t ~vpn:0x40L;
  Alcotest.(check bool) "removed everywhere" true
    (Walk.find Tsb.lookup_into t ~vpn:0x40L = None);
  Alcotest.(check int) "reach" (64 * 16) (Tsb.reach_pages t)

let prop_tsb_model =
  Pt_model.model_test ~name:"clustered TSB agrees with model" ~make:(fun () ->
      Pt_common.Intf.Instance ((module Tsb), Tsb.create ~slots:64 ()))

let prop_tsb_mixed =
  Pt_model.mixed_model_test ~name:"clustered TSB mixed ops" ~make:(fun () ->
      Pt_common.Intf.Instance ((module Tsb), Tsb.create ~slots:64 ()))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "TSB: hit is one slot read" `Quick
          test_tsb_hit_one_slot_read;
        Alcotest.test_case "TSB: block coverage" `Quick
          test_tsb_block_coverage_after_block_refill;
        Alcotest.test_case "TSB: conflict eviction" `Quick
          test_tsb_conflict_eviction;
        Alcotest.test_case "TSB: psb/superpage slots" `Quick
          test_tsb_psb_and_superpage_slots;
        Alcotest.test_case "TSB: invalidate on update" `Quick
          test_tsb_invalidate_on_update;
        QCheck_alcotest.to_alcotest prop_tsb_model;
        QCheck_alcotest.to_alcotest prop_tsb_mixed;
      ] )

(* --- variable subblock factors ([Tall95], Section 3) --- *)

module V = Clustered_pt.Var_table

let vmake () = V.create ~buckets:64 ()

let test_var_sparse_uses_quarter_nodes () =
  let t = vmake () in
  V.insert_base t ~vpn:0x41L ~ppn:0x1L ~attr;
  (* one isolated page: a 48-byte quarter node, not 144 *)
  Alcotest.(check int) "48 bytes" 48 (V.size_bytes t);
  Alcotest.(check int) "one quarter node" 1 (V.quarter_nodes t);
  match Walk.lookup V.lookup_into t ~vpn:0x41L with
  | Some tr, walk ->
      Alcotest.(check int64) "resolves" 0x1L tr.Pt_common.Types.ppn;
      Alcotest.(check int) "one line" 1 (Walk.lines walk)
  | None, _ -> Alcotest.fail "not found"

let test_var_merge_to_full () =
  let t = vmake () in
  (* fill three different quarters of one block: merges to a full node *)
  V.insert_base t ~vpn:0x40L ~ppn:0x0L ~attr;
  V.insert_base t ~vpn:0x44L ~ppn:0x4L ~attr;
  Alcotest.(check int) "two quarters" 2 (V.quarter_nodes t);
  V.insert_base t ~vpn:0x48L ~ppn:0x8L ~attr;
  Alcotest.(check int) "merged" 0 (V.quarter_nodes t);
  Alcotest.(check int) "one full node" 1 (V.full_nodes t);
  Alcotest.(check int) "144 bytes" 144 (V.size_bytes t);
  (* everything still resolves *)
  List.iter
    (fun (vpn, ppn) ->
      match Walk.lookup V.lookup_into t ~vpn with
      | Some tr, _ -> Alcotest.(check int64) "kept" ppn tr.Pt_common.Types.ppn
      | None, _ -> Alcotest.fail "lost in merge")
    [ (0x40L, 0x0L); (0x44L, 0x4L); (0x48L, 0x8L) ]

let test_var_quarter_miss_continues_chain () =
  let t = vmake () in
  V.insert_base t ~vpn:0x40L ~ppn:0x1L ~attr;
  (* same block, other quarter: second quarter node on the chain *)
  V.insert_base t ~vpn:0x4FL ~ppn:0xFL ~attr;
  Alcotest.(check int) "two quarters" 2 (V.quarter_nodes t);
  (match Walk.lookup V.lookup_into t ~vpn:0x4FL with
  | Some tr, _ -> Alcotest.(check int64) "far quarter" 0xFL tr.Pt_common.Types.ppn
  | None, _ -> Alcotest.fail "far quarter lost");
  (* a page in a covered quarter but an unmapped slot faults *)
  Alcotest.(check bool) "unmapped slot faults" true
    (Walk.find V.lookup_into t ~vpn:0x41L = None)

let test_var_sparse_vs_fixed_size () =
  (* the point of the feature: sparse blocks cost a third *)
  let fixed = make () and var = vmake () in
  for b = 0 to 19 do
    T.insert_base fixed ~vpn:(Int64.of_int (b * 16)) ~ppn:(Int64.of_int b) ~attr;
    V.insert_base var ~vpn:(Int64.of_int (b * 16)) ~ppn:(Int64.of_int b) ~attr
  done;
  Alcotest.(check int) "fixed: 20 x 144" (20 * 144) (T.size_bytes fixed);
  Alcotest.(check int) "variable: 20 x 48" (20 * 48) (V.size_bytes var);
  (* dense blocks converge to the same cost *)
  let fixed = make () and var = vmake () in
  for i = 0 to 15 do
    T.insert_base fixed ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr;
    V.insert_base var ~vpn:(Int64.of_int i) ~ppn:(Int64.of_int i) ~attr
  done;
  Alcotest.(check int) "dense equal" (T.size_bytes fixed) (V.size_bytes var)

let test_var_psb_and_superpage () =
  let t = vmake () in
  V.insert_psb t ~vpbn:2L ~vmask:0b11 ~ppn:0x20L ~attr;
  V.insert_superpage t ~vpn:0x40L ~size:Addr.Page_size.kb64 ~ppn:0x100L ~attr;
  (match Walk.lookup V.lookup_into t ~vpn:0x21L with
  | Some tr, _ -> Alcotest.(check int64) "psb" 0x21L tr.Pt_common.Types.ppn
  | None, _ -> Alcotest.fail "psb");
  (match Walk.lookup V.lookup_into t ~vpn:0x4AL with
  | Some tr, _ -> Alcotest.(check int64) "sp" 0x10AL tr.Pt_common.Types.ppn
  | None, _ -> Alcotest.fail "sp");
  (* an 8 KB superpage inside one quarter costs 48 bytes *)
  let t2 = vmake () in
  V.insert_superpage t2 ~vpn:0x80L ~size:(Addr.Page_size.of_bytes 0x2000)
    ~ppn:0x200L ~attr;
  Alcotest.(check int) "small sp in a quarter" 48 (V.size_bytes t2)

let prop_var_model =
  Pt_model.model_test ~name:"variable-factor table agrees with model"
    ~make:(fun () -> Pt_common.Intf.Instance ((module V), vmake ()))

let prop_var_mixed =
  Pt_model.mixed_model_test ~name:"variable-factor table mixed ops"
    ~make:(fun () -> Pt_common.Intf.Instance ((module V), vmake ()))

let prop_var_drain =
  Pt_model.drain_test ~name:"variable-factor table drains"
    ~make:(fun () -> Pt_common.Intf.Instance ((module V), vmake ()))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "var: sparse quarter nodes" `Quick
          test_var_sparse_uses_quarter_nodes;
        Alcotest.test_case "var: merge to full" `Quick test_var_merge_to_full;
        Alcotest.test_case "var: chain continues" `Quick
          test_var_quarter_miss_continues_chain;
        Alcotest.test_case "var: sparse vs fixed size" `Quick
          test_var_sparse_vs_fixed_size;
        Alcotest.test_case "var: psb/superpage" `Quick test_var_psb_and_superpage;
        QCheck_alcotest.to_alcotest prop_var_model;
        QCheck_alcotest.to_alcotest prop_var_mixed;
        QCheck_alcotest.to_alcotest prop_var_drain;
      ] )

(* --- the real multicore readers-writer lock (Section 3.1) --- *)

module RL = Clustered_pt.Bucket_lock.Real

let test_real_rwlock_excludes_writers () =
  (* four domains each do 5000 guarded increments, spread over four
     buckets: each bucket's counter is guarded by that bucket's lock
     only (buckets do not exclude each other), so mutual exclusion
     makes every bucket's total exact *)
  let l = RL.create ~buckets:4 in
  let counters = Array.make 4 0 in
  let worker () =
    for i = 0 to 4999 do
      let b = i land 3 in
      RL.with_write l ~bucket:b (fun () -> counters.(b) <- counters.(b) + 1)
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check (array int)) "no lost updates" (Array.make 4 5000) counters

let test_real_rwlock_readers_share_with_writer () =
  (* readers run concurrently with an interleaved writer; every reader
     observes a consistent (fully-written) value *)
  let l = RL.create ~buckets:1 in
  let a = ref 0 and b = ref 0 in
  let bad = Atomic.make 0 in
  let writer () =
    for i = 1 to 2000 do
      RL.with_write l ~bucket:0 (fun () ->
          a := i;
          b := i)
    done
  in
  let reader () =
    for _ = 1 to 2000 do
      RL.with_read l ~bucket:0 (fun () ->
          if !a <> !b then Atomic.incr bad)
    done
  in
  let ds =
    Domain.spawn writer :: List.init 3 (fun _ -> Domain.spawn reader)
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get bad)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "real rwlock: writers exclusive" `Slow
          test_real_rwlock_excludes_writers;
        Alcotest.test_case "real rwlock: consistent reads" `Slow
          test_real_rwlock_readers_share_with_writer;
      ] )

(* --- two-table interplay with large superpages --- *)

let test_multi_size_mixed_population () =
  let m = Clustered_pt.Multi_size.create () in
  (* a 1 MB superpage, a 64 KB superpage, loose base pages *)
  Clustered_pt.Multi_size.insert_superpage m ~vpn:0x400L
    ~size:Addr.Page_size.mb1 ~ppn:0x400L ~attr;
  Clustered_pt.Multi_size.insert_superpage m ~vpn:0x100L
    ~size:Addr.Page_size.kb64 ~ppn:0x200L ~attr;
  Clustered_pt.Multi_size.insert_base m ~vpn:0x10L ~ppn:0x1L ~attr;
  Alcotest.(check int) "population sums all granularities" (256 + 16 + 1)
    (Clustered_pt.Multi_size.population m);
  (* range op across both tables *)
  let searches =
    Clustered_pt.Multi_size.set_attr_range m
      (Addr.Region.make ~first_vpn:0x400L ~pages:256)
      ~f:(fun a -> { a with Pte.Attr.writable = false })
  in
  Alcotest.(check bool) "searched both tables" true (searches >= 2);
  (match Walk.lookup Clustered_pt.Multi_size.lookup_into m ~vpn:0x4FFL with
  | Some tr, _ ->
      Alcotest.(check bool) "range applied through the coarse table" false
        tr.Pt_common.Types.attr.Pte.Attr.writable
  | None, _ -> Alcotest.fail "coarse mapping lost");
  Clustered_pt.Multi_size.clear m;
  Alcotest.(check int) "clear empties both" 0
    (Clustered_pt.Multi_size.population m)

let test_tsb_block_prefetch_path () =
  (* the csb-prefetch entry point through the TSB: one slot read when
     warm, backing block walk when cold *)
  let t = Tsb.create ~slots:64 () in
  for i = 0 to 15 do
    Tsb.insert_base t ~vpn:(Int64.of_int (0x80 + i)) ~ppn:(Int64.of_int i) ~attr
  done;
  let found, _cold =
    Walk.block Tsb.lookup_block t ~vpn:0x85L ~subblock_factor:16
  in
  Alcotest.(check int) "cold gathers all sixteen" 16 (List.length found);
  let found, warm =
    Walk.block Tsb.lookup_block t ~vpn:0x85L ~subblock_factor:16
  in
  Alcotest.(check int) "warm gathers all sixteen" 16 (List.length found);
  Alcotest.(check int) "warm costs one slot read" 1
    (Walk.reads warm)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "multi-size mixed population" `Quick
          test_multi_size_mixed_population;
        Alcotest.test_case "TSB block prefetch path" `Quick
          test_tsb_block_prefetch_path;
      ] )

let test_tsb_attr_range_invalidates () =
  let t = Tsb.create ~slots:64 () in
  Tsb.insert_base t ~vpn:0x40L ~ppn:0x80L ~attr;
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x40L);
  ignore (Walk.lookup Tsb.lookup_into t ~vpn:0x40L);
  (* range op updates the backing and must not leave a stale slot *)
  ignore
    (Tsb.set_attr_range t
       (Addr.Region.make ~first_vpn:0x40L ~pages:1)
       ~f:(fun a -> { a with Pte.Attr.writable = false }));
  match Walk.lookup Tsb.lookup_into t ~vpn:0x40L with
  | Some tr, _ ->
      Alcotest.(check bool) "fresh attr served" false
        tr.Types.attr.Pte.Attr.writable
  | None, _ -> Alcotest.fail "mapping lost"

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "TSB attr range invalidates" `Quick
          test_tsb_attr_range_invalidates;
      ] )

(* promotion and demotion round-trip: every translation survives *)
let prop_promote_demote_roundtrip =
  QCheck.Test.make ~name:"promote/demote preserves translations" ~count:100
    QCheck.(pair (int_bound 0xFFF) (int_bound 0xFF))
    (fun (block, frame_block) ->
      let t = make ~buckets:64 () in
      let base_vpn = Int64.of_int (block * 16) in
      let base_ppn = Int64.of_int (frame_block * 16) in
      for i = 0 to 15 do
        T.insert_base t
          ~vpn:(Int64.add base_vpn (Int64.of_int i))
          ~ppn:(Int64.add base_ppn (Int64.of_int i))
          ~attr
      done;
      let snapshot () =
        List.init 16 (fun i ->
            let vpn = Int64.add base_vpn (Int64.of_int i) in
            match Walk.find T.lookup_into t ~vpn with
            | Some tr -> Some tr.Types.ppn
            | None -> None)
      in
      let before = snapshot () in
      let promoted = T.promote_block t ~vpn:base_vpn in
      let mid = snapshot () in
      let demoted = T.demote_block t ~vpn:base_vpn in
      let after = snapshot () in
      promoted && demoted && before = mid && mid = after
      && T.size_bytes t = 144)

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest prop_promote_demote_roundtrip ] )
