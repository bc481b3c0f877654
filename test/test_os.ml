(* The OS layer: address spaces, page-size policies, miss handler. *)

module A = Os_policy.Address_space
module MH = Os_policy.Miss_handler
module Intf = Pt_common.Intf
module Types = Pt_common.Types

let attr = Pte.Attr.default

let clustered () =
  Intf.Instance
    ( (module Clustered_pt.Table),
      Clustered_pt.Table.create (Clustered_pt.Config.make ~buckets:256 ()) )

let hashed () =
  Intf.Instance ((module Baselines.Hashed_pt), Baselines.Hashed_pt.create ())

let region ~first ~pages = Addr.Region.make ~first_vpn:first ~pages

let test_map_translate () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:1024 () in
  A.map_region a (region ~first:0x100L ~pages:20) attr;
  Alcotest.(check int) "twenty pages mapped" 20 (A.mapped_pages a);
  (* OS bookkeeping and page table agree *)
  for i = 0 to 19 do
    let vpn = Int64.add 0x100L (Int64.of_int i) in
    let os_ppn = Option.get (A.translate a ~vpn) in
    match Walk.lookup Intf.lookup_into pt ~vpn with
    | Some tr, _ -> Alcotest.(check int64) "pt agrees" os_ppn tr.Types.ppn
    | None, _ -> Alcotest.fail "page table missing a mapped page"
  done

let test_segfault_and_demand () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:256 () in
  A.declare_region a (region ~first:0x10L ~pages:4) attr;
  Alcotest.(check bool) "outside faults" true
    (A.fault a ~vpn:0x50L = `Segfault);
  (match A.fault a ~vpn:0x11L with
  | `Mapped _ -> ()
  | _ -> Alcotest.fail "demand fault should map");
  match A.fault a ~vpn:0x11L with
  | `Already_mapped _ -> ()
  | _ -> Alcotest.fail "second fault is already-mapped"

let test_overlap_rejected () =
  let a = A.create ~pt:(clustered ()) ~total_pages:256 () in
  A.declare_region a (region ~first:0x10L ~pages:16) attr;
  Alcotest.check_raises "overlap"
    (Invalid_argument "Address_space.declare_region: overlapping area")
    (fun () -> A.declare_region a (region ~first:0x18L ~pages:4) attr)

let test_unmap_frees () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:256 () in
  A.map_region a (region ~first:0x20L ~pages:16) attr;
  A.unmap_region a (region ~first:0x20L ~pages:16);
  Alcotest.(check int) "nothing mapped" 0 (A.mapped_pages a);
  Alcotest.(check int) "page table empty" 0 (Intf.population pt);
  (* frames actually return: we can map 16 pages repeatedly in a
     16-block physical memory *)
  for round = 1 to 8 do
    let first = Int64.of_int (round * 0x100) in
    A.map_region a (region ~first ~pages:16) attr;
    A.unmap_region a (region ~first ~pages:16)
  done;
  Alcotest.(check int) "no leak" 0 (A.mapped_pages a)

let test_superpage_promotion_policy () =
  let pt = clustered () in
  let a =
    A.create ~pt ~total_pages:1024 ~policy:A.Superpage_promotion ()
  in
  A.map_region a (region ~first:0x40L ~pages:16) attr;
  Alcotest.(check int) "one promotion" 1 (A.promotions a);
  (* the block now costs a 24-byte node instead of 144 *)
  Alcotest.(check int) "table shrank to one superpage node" 24
    (Intf.size_bytes pt);
  match Walk.lookup Intf.lookup_into pt ~vpn:0x4AL with
  | Some tr, _ ->
      Alcotest.(check bool) "superpage translation" true
        (tr.Types.kind = Types.Superpage Addr.Page_size.kb64)
  | None, _ -> Alcotest.fail "promoted mapping lost"

let test_psb_policy () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:1024 ~policy:A.Partial_subblock () in
  (* map half a block: properly placed thanks to reservation *)
  A.map_region a (region ~first:0x40L ~pages:8) attr;
  Alcotest.(check int) "rides one psb node" 24 (Intf.size_bytes pt);
  match Walk.lookup Intf.lookup_into pt ~vpn:0x44L with
  | Some tr, _ ->
      Alcotest.(check bool) "psb translation" true
        (match tr.Types.kind with Types.Partial_subblock _ -> true | _ -> false)
  | None, _ -> Alcotest.fail "psb mapping lost"

let test_protect_cost_comparison () =
  (* Section 3.1's claim, measured: a range op searches once per block
     in a clustered table, once per page in a hashed table *)
  let run pt =
    let a = A.create ~pt ~total_pages:1024 () in
    A.map_region a (region ~first:0L ~pages:64) attr;
    A.protect_region a (region ~first:0L ~pages:64) ~f:(fun at ->
        { at with Pte.Attr.writable = false })
  in
  Alcotest.(check int) "clustered: 4 searches" 4 (run (clustered ()));
  Alcotest.(check int) "hashed: 64 searches" 64 (run (hashed ()))

let test_protect_applies_to_future_faults () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:256 () in
  A.declare_region a (region ~first:0x10L ~pages:8) attr;
  ignore (A.fault a ~vpn:0x10L);
  ignore
    (A.protect_region a (region ~first:0x10L ~pages:8) ~f:(fun at ->
         { at with Pte.Attr.writable = false }));
  ignore (A.fault a ~vpn:0x11L);
  match Walk.lookup Intf.lookup_into pt ~vpn:0x11L with
  | Some tr, _ ->
      Alcotest.(check bool) "late fault sees new attr" false
        tr.Types.attr.Pte.Attr.writable
  | None, _ -> Alcotest.fail "unmapped"

let test_oom () =
  let a = A.create ~pt:(clustered ()) ~total_pages:16 () in
  A.declare_region a (region ~first:0L ~pages:64) attr;
  let results = List.init 64 (fun i -> A.fault a ~vpn:(Int64.of_int i)) in
  let mapped =
    List.length (List.filter (function `Mapped _ -> true | _ -> false) results)
  in
  let oom =
    List.length (List.filter (function `Oom -> true | _ -> false) results)
  in
  Alcotest.(check int) "sixteen frames handed out" 16 mapped;
  Alcotest.(check int) "the rest OOM" 48 oom

(* --- miss handler --- *)

let test_miss_handler_flow () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:256 () in
  A.declare_region a (region ~first:0x10L ~pages:16) attr;
  let h =
    MH.create ~tlb:(Tlb.Intf.fa ~entries:8 ()) ~pt ~aspace:a ()
  in
  Alcotest.(check bool) "first touch demand-faults" true
    (MH.access h ~vpn:0x10L = `Page_fault_filled);
  Alcotest.(check bool) "then hits" true (MH.access h ~vpn:0x10L = `Tlb_hit);
  Alcotest.(check bool) "outside faults hard" true
    (MH.access h ~vpn:0x90L = `Fault);
  Alcotest.(check int) "one page fault" 1 (MH.page_faults h);
  Alcotest.(check bool) "walk lines recorded" true (MH.walks h > 0)

let test_miss_handler_prefetch () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:256 () in
  A.map_region a (region ~first:0x40L ~pages:16) attr;
  let h =
    MH.create
      ~tlb:(Tlb.Intf.csb ~entries:8 ~subblock_factor:16 ())
      ~pt ~prefetch:true ()
  in
  ignore (MH.access h ~vpn:0x40L);
  (* the block fill covered all sixteen pages *)
  for i = 1 to 15 do
    Alcotest.(check bool) "prefetched page hits" true
      (MH.access h ~vpn:(Int64.add 0x40L (Int64.of_int i)) = `Tlb_hit)
  done;
  Alcotest.(check int) "exactly one miss" 1 (MH.tlb_misses h)

let test_miss_handler_metric () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:1024 () in
  A.map_region a (region ~first:0L ~pages:512) attr;
  let h = MH.create ~tlb:(Tlb.Intf.fa ~entries:16 ()) ~pt () in
  for i = 0 to 511 do
    ignore (MH.access h ~vpn:(Int64.of_int i))
  done;
  (* a lightly loaded clustered table: about one line per miss *)
  Alcotest.(check bool) "metric near 1" true
    (MH.mean_lines_per_miss h >= 1.0 && MH.mean_lines_per_miss h < 1.3)

let test_allocator_stats_surface () =
  let a = A.create ~pt:(clustered ()) ~total_pages:1024 () in
  A.map_region a (region ~first:0x40L ~pages:32) attr;
  let stats = A.allocator_stats a in
  Alcotest.(check int) "two reservations for two blocks" 2
    stats.Mem.Phys_alloc.reservations_made;
  Alcotest.(check int) "all pages placed" 32 (A.properly_placed_pages a)

let suite =
  ( "os-policy",
    [
      Alcotest.test_case "map & translate" `Quick test_map_translate;
      Alcotest.test_case "segfault & demand" `Quick test_segfault_and_demand;
      Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
      Alcotest.test_case "unmap frees frames" `Quick test_unmap_frees;
      Alcotest.test_case "superpage promotion" `Quick
        test_superpage_promotion_policy;
      Alcotest.test_case "partial-subblock policy" `Quick test_psb_policy;
      Alcotest.test_case "protect cost (Section 3.1)" `Quick
        test_protect_cost_comparison;
      Alcotest.test_case "protect affects future faults" `Quick
        test_protect_applies_to_future_faults;
      Alcotest.test_case "out of memory" `Quick test_oom;
      Alcotest.test_case "miss handler flow" `Quick test_miss_handler_flow;
      Alcotest.test_case "miss handler prefetch" `Quick test_miss_handler_prefetch;
      Alcotest.test_case "miss handler metric" `Quick test_miss_handler_metric;
      Alcotest.test_case "allocator stats" `Quick test_allocator_stats_surface;
    ] )

(* --- the multiprogrammed system --- *)

module Sys_ = Os_policy.System

let make_clustered () = clustered ()

let test_system_isolation () =
  let s =
    Sys_.create ~make_pt:make_clustered ~total_pages:1024
      ~names:[ "a"; "b" ] ()
  in
  (* both processes map the SAME virtual page to different frames *)
  Sys_.mmap s ~pid:0 (region ~first:0x10L ~pages:4) attr;
  Sys_.mmap s ~pid:1 (region ~first:0x10L ~pages:4) attr;
  Sys_.switch_to s ~pid:0;
  ignore (Sys_.access s ~vpn:0x10L);
  Sys_.switch_to s ~pid:1;
  ignore (Sys_.access s ~vpn:0x10L);
  let ppn pid =
    Option.get (A.translate (Sys_.aspace s ~pid) ~vpn:0x10L)
  in
  Alcotest.(check bool) "separate frames" true
    (not (Int64.equal (ppn 0) (ppn 1)));
  Alcotest.(check int) "two faults" 2 (Sys_.page_faults s);
  Alcotest.(check int) "one switch" 1 (Sys_.switches s)

let test_system_flush_vs_asid () =
  let run switch_policy =
    let s =
      Sys_.create ~switch_policy ~make_pt:make_clustered ~total_pages:4096
        ~names:[ "a"; "b" ] ()
    in
    Sys_.mmap s ~pid:0 (region ~first:0x100L ~pages:16) attr;
    Sys_.mmap s ~pid:1 (region ~first:0x100L ~pages:16) attr;
    (* warm both, then ping-pong: tags keep both working sets live *)
    for _ = 1 to 20 do
      Sys_.switch_to s ~pid:0;
      for i = 0 to 15 do
        ignore (Sys_.access s ~vpn:(Int64.add 0x100L (Int64.of_int i)))
      done;
      Sys_.switch_to s ~pid:1;
      for i = 0 to 15 do
        ignore (Sys_.access s ~vpn:(Int64.add 0x100L (Int64.of_int i)))
      done
    done;
    Sys_.tlb_misses s
  in
  let flush = run Sys_.Flush and asid = run Sys_.Asid in
  Alcotest.(check bool) "ASIDs avoid the flush misses" true (asid < flush / 4);
  (* both working sets fit a 64-entry TLB: tagged misses = first touches *)
  Alcotest.(check int) "tagged misses = compulsory" 32 asid

let test_system_shared_memory_pressure () =
  (* one 64-frame memory, two processes wanting 48 pages each: the
     second process's demand preempts the first's reservations *)
  let s =
    Sys_.create ~make_pt:make_clustered ~total_pages:64 ~names:[ "a"; "b" ] ()
  in
  Sys_.mmap s ~pid:0 (region ~first:0x100L ~pages:48) attr;
  Sys_.mmap s ~pid:1 (region ~first:0x100L ~pages:48) attr;
  Sys_.switch_to s ~pid:0;
  for i = 0 to 47 do
    ignore (Sys_.access s ~vpn:(Int64.add 0x100L (Int64.of_int i)))
  done;
  Sys_.switch_to s ~pid:1;
  let got = ref 0 and oom = ref 0 in
  for i = 0 to 47 do
    match Sys_.access s ~vpn:(Int64.add 0x100L (Int64.of_int i)) with
    | `Page_fault_filled -> incr got
    | `Fault -> incr oom
    | `Tlb_hit | `Filled -> ()
  done;
  Alcotest.(check int) "16 frames left for process b" 16 !got;
  Alcotest.(check int) "the rest OOM" 32 !oom;
  Alcotest.(check int) "all frames in use" 0 (Sys_.free_frames s);
  Alcotest.(check int) "64 pages mapped across the system" 64
    (Sys_.total_mapped_pages s)

let test_system_trace_replay () =
  let spec = Workload.Table1.compress in
  let snap = Workload.Snapshot.generate spec ~seed:7L in
  let trace = Workload.Trace.generate spec snap ~seed:8L ~length:5000 in
  let s =
    Sys_.create ~make_pt:make_clustered ~total_pages:16384
      ~names:
        (List.map
           (fun p -> p.Workload.Snapshot.pname)
           snap.Workload.Snapshot.procs)
      ()
  in
  (* declare each process's snapshot segments *)
  List.iteri
    (fun pid p ->
      List.iter
        (fun (seg : Workload.Snapshot.segment) ->
          Sys_.mmap s ~pid
            (Addr.Region.make ~first_vpn:seg.Workload.Snapshot.first_vpn
               ~pages:seg.Workload.Snapshot.pages)
            attr)
        p.Workload.Snapshot.segments)
    snap.Workload.Snapshot.procs;
  Sys_.run_trace s trace;
  Alcotest.(check bool) "demand paging happened" true (Sys_.page_faults s > 0);
  Alcotest.(check bool) "misses recorded" true (Sys_.tlb_misses s > 0);
  Alcotest.(check bool) "metric sane" true
    (Sys_.mean_lines_per_miss s >= 1.0 && Sys_.mean_lines_per_miss s < 2.5);
  Alcotest.(check bool) "context switches happened" true (Sys_.switches s > 2)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "system: isolation" `Quick test_system_isolation;
        Alcotest.test_case "system: flush vs asid" `Quick
          test_system_flush_vs_asid;
        Alcotest.test_case "system: memory pressure" `Quick
          test_system_shared_memory_pressure;
        Alcotest.test_case "system: trace replay" `Quick test_system_trace_replay;
      ] )

let test_ref_mod_bits () =
  let pt = clustered () in
  let a = A.create ~pt ~total_pages:256 () in
  A.map_region a (region ~first:0x10L ~pages:4) attr;
  let h = MH.create ~tlb:(Tlb.Intf.fa ~entries:8 ()) ~pt () in
  let bits vpn =
    match Walk.lookup Intf.lookup_into pt ~vpn with
    | Some tr, _ ->
        (tr.Types.attr.Pte.Attr.referenced, tr.Types.attr.Pte.Attr.modified)
    | None, _ -> Alcotest.fail "unmapped"
  in
  Alcotest.(check (pair bool bool)) "clean initially" (false, false) (bits 0x10L);
  ignore (MH.access h ~vpn:0x10L);
  Alcotest.(check (pair bool bool)) "referenced after read miss" (true, false)
    (bits 0x10L);
  ignore (MH.access ~write:true h ~vpn:0x11L);
  Alcotest.(check (pair bool bool)) "ref+mod after write miss" (true, true)
    (bits 0x11L);
  (* a TLB hit does not re-walk: bits already set stay set *)
  ignore (MH.access h ~vpn:0x11L);
  Alcotest.(check (pair bool bool)) "stable on hits" (true, true) (bits 0x11L)

let suite =
  ( fst suite,
    snd suite
    @ [ Alcotest.test_case "ref/mod bits (3.1)" `Quick test_ref_mod_bits ] )

let test_system_superpage_end_to_end () =
  (* policy + reservation + promotion + superpage TLB, end to end: a
     sweep over a promoted region misses once per 64 KB, not per 4 KB *)
  let pt = clustered () in
  let a =
    A.create ~pt ~total_pages:4096 ~policy:A.Superpage_promotion ()
  in
  A.map_region a (region ~first:0x100L ~pages:128) attr;
  Alcotest.(check int) "eight blocks promoted" 8 (A.promotions a);
  let h = MH.create ~tlb:(Tlb.Intf.superpage ~entries:64 ()) ~pt () in
  for i = 0 to 127 do
    ignore (MH.access h ~vpn:(Int64.add 0x100L (Int64.of_int i)))
  done;
  Alcotest.(check int) "one miss per superpage" 8 (MH.tlb_misses h);
  Alcotest.(check bool) "each at about a line" true
    (MH.mean_lines_per_miss h < 1.5)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "system superpage end-to-end" `Quick
          test_system_superpage_end_to_end;
      ] )
