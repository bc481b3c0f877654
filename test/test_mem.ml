(* Simulated memory, cache-line accounting, cache simulator, buddy
   allocator, page-reservation allocator. *)

let i64 = Alcotest.(check int64)

(* --- Sim_memory --- *)

let test_arena_alignment () =
  let a = Mem.Sim_memory.create () in
  let x = Mem.Sim_memory.alloc a ~bytes:24 ~align:256 in
  let y = Mem.Sim_memory.alloc a ~bytes:24 ~align:256 in
  Alcotest.(check bool) "aligned x" true (Addr.Bits.is_aligned x 8);
  Alcotest.(check bool) "aligned y" true (Addr.Bits.is_aligned y 8);
  Alcotest.(check bool) "disjoint" true (not (Int64.equal x y));
  Alcotest.(check int) "live" 48 (Mem.Sim_memory.live_bytes a)

let test_arena_freelist_reuse () =
  let a = Mem.Sim_memory.create () in
  let x = Mem.Sim_memory.alloc a ~bytes:144 ~align:256 in
  Mem.Sim_memory.free a ~addr:x ~bytes:144 ~align:256;
  let y = Mem.Sim_memory.alloc a ~bytes:144 ~align:256 in
  i64 "freed block reused" x y;
  Alcotest.(check int) "live accounts the reuse" 144
    (Mem.Sim_memory.live_bytes a);
  (* a different size class must not reuse it *)
  let z = Mem.Sim_memory.alloc a ~bytes:24 ~align:256 in
  Alcotest.(check bool) "size classes separate" true (not (Int64.equal z x))

let test_arena_reset () =
  let a = Mem.Sim_memory.create ~base:0x5000L () in
  let x = Mem.Sim_memory.alloc a ~bytes:8 ~align:8 in
  Mem.Sim_memory.reset a;
  let y = Mem.Sim_memory.alloc a ~bytes:8 ~align:8 in
  i64 "restarts at base" x y

(* --- Cache_model --- *)

(* distinct lines of a walk of [(addr, bytes)] reads, counted by the
   experiments' [record_acc] *)
let walk_lines ~line_size reads =
  let acc = Mem.Walk_acc.create () in
  List.iter (fun (addr, bytes) -> Mem.Walk_acc.read acc ~addr ~bytes) reads;
  Mem.Cache_model.record_acc (Mem.Cache_model.create_counter ~line_size ()) acc

let test_lines_of_access () =
  Alcotest.(check int) "within one line" 1
    (walk_lines ~line_size:256 [ (16L, 8) ]);
  Alcotest.(check int) "straddles" 2 (walk_lines ~line_size:256 [ (250L, 16) ]);
  Alcotest.(check int) "three lines" 3
    (walk_lines ~line_size:64 [ (100L, 130) ])

let test_distinct_lines () =
  let reads = [ (0L, 8); (8L, 8); (300L, 8) ] in
  Alcotest.(check int) "two distinct 256B lines" 2
    (walk_lines ~line_size:256 reads);
  Alcotest.(check int) "64B lines" 2 (walk_lines ~line_size:64 reads);
  Alcotest.(check int) "no reads, no lines" 0 (walk_lines ~line_size:256 [])

let test_counter () =
  let c = Mem.Cache_model.create_counter ~line_size:256 () in
  let acc = Mem.Walk_acc.create () in
  Mem.Walk_acc.read acc ~addr:0L ~bytes:8;
  let n = Mem.Cache_model.record_acc c acc in
  Alcotest.(check int) "first walk lines" 1 n;
  Mem.Cache_model.record_lines c 3;
  Alcotest.(check int) "walks" 2 (Mem.Cache_model.walks c);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Mem.Cache_model.mean_lines c)

(* the clustered node layout arithmetic the paper quotes: a 144-byte
   node aligned to 256 spans these many lines per mapping read *)
let test_paper_line_arithmetic () =
  let walk boff line_size =
    let node = 0x1000L in
    walk_lines ~line_size
      [
        (node, 16);
        (Int64.add node 16L, 8);
        (Int64.add node (Int64.of_int (16 + (8 * boff))), 8);
      ]
  in
  (* 256B lines: always one line *)
  for boff = 0 to 15 do
    Alcotest.(check int) "256B one line" 1 (walk boff 256)
  done;
  (* 64B lines: offsets 6..15 spill to extra lines -> mean 1.625 *)
  let total = ref 0 in
  for boff = 0 to 15 do
    total := !total + walk boff 64
  done;
  Alcotest.(check (float 1e-9)) "64B mean = 1.625 (paper: +0.625)" 1.625
    (float_of_int !total /. 16.0);
  (* 128B lines: offsets 14,15 spill -> mean 1.125 *)
  let total = ref 0 in
  for boff = 0 to 15 do
    total := !total + walk boff 128
  done;
  Alcotest.(check (float 1e-9)) "128B mean = 1.125 (paper: +0.125)" 1.125
    (float_of_int !total /. 16.0)

(* --- Cache_sim --- *)

let test_cache_sim_lru () =
  let c = Mem.Cache_sim.create ~line_size:64 ~sets:1 ~ways:2 () in
  Alcotest.(check bool) "cold miss" false (Mem.Cache_sim.access c 0L);
  Alcotest.(check bool) "hit" true (Mem.Cache_sim.access c 0L);
  ignore (Mem.Cache_sim.access c 64L);
  (* both resident *)
  Alcotest.(check bool) "still resident" true (Mem.Cache_sim.access c 0L);
  ignore (Mem.Cache_sim.access c 128L);
  (* 64L was LRU, evicted *)
  Alcotest.(check bool) "LRU evicted" false (Mem.Cache_sim.access c 64L);
  Alcotest.(check int) "capacity" 128 (Mem.Cache_sim.capacity_bytes c)

let test_cache_sim_ratio () =
  let c = Mem.Cache_sim.create ~sets:16 ~ways:4 () in
  for _ = 1 to 10 do
    ignore (Mem.Cache_sim.access c 0x100L)
  done;
  Alcotest.(check (float 1e-9)) "9/10 hits" 0.9 (Mem.Cache_sim.hit_ratio c);
  Mem.Cache_sim.flush c;
  Alcotest.(check int) "flush resets" 0 (Mem.Cache_sim.hits c)

(* --- Buddy --- *)

let test_buddy_basic () =
  let b = Mem.Buddy.create ~total_pages:64 ~max_order:4 in
  Alcotest.(check int) "all free" 64 (Mem.Buddy.free_pages b);
  let p = Option.get (Mem.Buddy.alloc b ~order:4) in
  Alcotest.(check bool) "block aligned" true (Addr.Bits.is_aligned p 4);
  Alcotest.(check int) "free after" 48 (Mem.Buddy.free_pages b);
  Mem.Buddy.free b ~ppn:p ~order:4;
  Alcotest.(check int) "free restored" 64 (Mem.Buddy.free_pages b)

let test_buddy_split_coalesce () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 in
  let singles = List.init 16 (fun _ -> Option.get (Mem.Buddy.alloc b ~order:0)) in
  Alcotest.(check int) "exhausted" 0 (Mem.Buddy.free_pages b);
  Alcotest.(check bool) "no block available" true
    (Mem.Buddy.alloc b ~order:0 = None);
  (* distinct frames *)
  Alcotest.(check int) "all distinct" 16
    (List.length (List.sort_uniq Int64.compare singles));
  List.iter (fun ppn -> Mem.Buddy.free b ~ppn ~order:0) singles;
  (* everything must coalesce back into one max-order block *)
  Alcotest.(check (option int)) "coalesced to max order" (Some 4)
    (Mem.Buddy.largest_free_order b)

let test_buddy_double_free () =
  let b = Mem.Buddy.create ~total_pages:16 ~max_order:4 in
  let p = Option.get (Mem.Buddy.alloc b ~order:2) in
  Mem.Buddy.free b ~ppn:p ~order:2;
  Alcotest.check_raises "double free" (Invalid_argument "Buddy.free: double free")
    (fun () -> Mem.Buddy.free b ~ppn:p ~order:2)

let prop_buddy_conservation =
  QCheck.Test.make ~name:"buddy conserves pages over random alloc/free"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (int_bound 4))
    (fun orders ->
      let b = Mem.Buddy.create ~total_pages:256 ~max_order:4 in
      let live = ref [] in
      List.iter
        (fun order ->
          match Mem.Buddy.alloc b ~order with
          | Some ppn -> live := (ppn, order) :: !live
          | None -> (
              (* free something and retry *)
              match !live with
              | (ppn, o) :: rest ->
                  Mem.Buddy.free b ~ppn ~order:o;
                  live := rest
              | [] -> ()))
        orders;
      let live_pages =
        List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 !live
      in
      Mem.Buddy.free_pages b + live_pages = 256)

(* --- Phys_alloc (page reservation) --- *)

let test_reservation_placement () =
  let a = Mem.Phys_alloc.create ~total_pages:256 ~subblock_factor:16 in
  (* pages of one virtual block land properly placed *)
  let ppns =
    List.map
      (fun boff ->
        Option.get (Mem.Phys_alloc.alloc_page a ~vpn:(Int64.of_int (32 + boff))))
      [ 0; 5; 9; 15 ]
  in
  List.iteri
    (fun i ppn ->
      let vpn = Int64.of_int (32 + List.nth [ 0; 5; 9; 15 ] i) in
      Alcotest.(check bool) "properly placed" true
        (Mem.Phys_alloc.properly_placed a ~vpn ~ppn))
    ppns;
  let stats = Mem.Phys_alloc.stats a in
  Alcotest.(check int) "one reservation" 1 stats.Mem.Phys_alloc.reservations_made;
  Alcotest.(check int) "three hits" 3 stats.Mem.Phys_alloc.reservation_hits

let test_reservation_exhaustion () =
  (* 32 frames, factor 16: two reservations fit; the third virtual
     block preempts and falls back to singles *)
  let a = Mem.Phys_alloc.create ~total_pages:32 ~subblock_factor:16 in
  let p1 = Mem.Phys_alloc.alloc_page a ~vpn:0L in
  let p2 = Mem.Phys_alloc.alloc_page a ~vpn:16L in
  let p3 = Mem.Phys_alloc.alloc_page a ~vpn:32L in
  Alcotest.(check bool) "all allocations succeed" true
    (p1 <> None && p2 <> None && p3 <> None);
  let stats = Mem.Phys_alloc.stats a in
  Alcotest.(check bool) "third came from preemption + fallback" true
    (stats.Mem.Phys_alloc.preemptions >= 1
    && stats.Mem.Phys_alloc.fallback_allocs >= 1)

let test_reservation_free_cycle () =
  let a = Mem.Phys_alloc.create ~total_pages:64 ~subblock_factor:16 in
  let ppn = Option.get (Mem.Phys_alloc.alloc_page a ~vpn:5L) in
  let before = Mem.Phys_alloc.free_pages a in
  Mem.Phys_alloc.free_page a ~vpn:5L ~ppn;
  Alcotest.(check int) "whole reservation returns when last page freed"
    (before + 16)
    (Mem.Phys_alloc.free_pages a);
  (* reallocation reuses a clean reservation *)
  let ppn2 = Option.get (Mem.Phys_alloc.alloc_page a ~vpn:5L) in
  Alcotest.(check bool) "placed again" true
    (Mem.Phys_alloc.properly_placed a ~vpn:5L ~ppn:ppn2)

let prop_reservation_all_placed_when_plenty =
  QCheck.Test.make
    ~name:"with ample memory every page is properly placed" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 64) (int_bound 255))
    (fun vpns ->
      let a = Mem.Phys_alloc.create ~total_pages:4096 ~subblock_factor:16 in
      List.for_all
        (fun v ->
          let vpn = Int64.of_int v in
          match Mem.Phys_alloc.alloc_page a ~vpn with
          | Some ppn -> Mem.Phys_alloc.properly_placed a ~vpn ~ppn
          | None -> false)
        (List.sort_uniq compare vpns |> List.map (fun v -> v)))

(* --- Limbo: the tables' deferred reclamation --- *)

(* retire [main] on this domain, then [other] on a second one (under
   the same stamps), and return the expected hand-over order: shard by
   shard (the domain id's low bits), each shard newest first *)
let limbo_of_two_domains ~main ~other =
  let l = Mem.Limbo.create () in
  List.iter (fun (n, stamp) -> Mem.Limbo.retire l ~stamp n) main;
  let other_id =
    Domain.join
      (Domain.spawn (fun () ->
           List.iter (fun (n, stamp) -> Mem.Limbo.retire l ~stamp n) other;
           (Domain.self () :> int)))
  in
  let shard id = id land 7 in
  let tagged id = List.mapi (fun i (n, _) -> (shard id, -i, n)) in
  let expected =
    List.sort compare
      (tagged (Domain.self () :> int) main @ tagged other_id other)
    |> List.map (fun (_, _, n) -> n)
  in
  (l, expected)

let collect f =
  let got = ref [] in
  f (fun n -> got := n :: !got);
  List.rev !got

(* [iter] visits exactly [count] nodes, whatever the limbo went
   through: a table's [limbo_nodes] reads the count, its fsck walks
   [iter] *)
let check_iter_count what l =
  Alcotest.(check int)
    (what ^ ": iter visits count nodes")
    (Mem.Limbo.count l)
    (List.length (collect (Mem.Limbo.iter l)))

let test_limbo_reclaim () =
  let l, _ =
    limbo_of_two_domains ~main:[ (1, 4); (2, 5) ] ~other:[ (3, 4); (4, 6) ]
  in
  Alcotest.(check int) "count over both domains" 4 (Mem.Limbo.count l);
  check_iter_count "retire" l;
  Alcotest.(check (list int))
    "strictly below upto only" [ 1; 3 ]
    (List.sort compare (collect (Mem.Limbo.reclaim l ~upto:5)));
  Alcotest.(check int) "a stamp equal to upto is kept" 2 (Mem.Limbo.count l);
  check_iter_count "reclaim" l;
  Alcotest.(check (list int))
    "nothing twice" [] (collect (Mem.Limbo.reclaim l ~upto:5));
  Alcotest.(check (list int))
    "the rest once upto passes them" [ 2; 4 ]
    (List.sort compare (collect (Mem.Limbo.reclaim l ~upto:7)));
  Alcotest.(check int) "empty" 0 (Mem.Limbo.count l);
  check_iter_count "reclaim all" l;
  let l, _ =
    limbo_of_two_domains ~main:[ (1, 4); (2, 5) ] ~other:[ (3, 4); (4, 6) ]
  in
  ignore (collect (Mem.Limbo.drain l));
  check_iter_count "drain" l;
  let l, _ =
    limbo_of_two_domains ~main:[ (1, 4); (2, 5) ] ~other:[ (3, 4); (4, 6) ]
  in
  Mem.Limbo.forget l;
  check_iter_count "forget" l

let test_limbo_order () =
  let main = List.init 5 (fun i -> (i, 0)) in
  let other = List.init 4 (fun i -> (10 + i, 0)) in
  let l, expected = limbo_of_two_domains ~main ~other in
  Alcotest.(check (list int))
    "iter: shard by shard, newest first" expected (collect (Mem.Limbo.iter l));
  Alcotest.(check (list int))
    "reclaim: the same order" expected (collect (Mem.Limbo.reclaim l ~upto:1));
  let l, expected = limbo_of_two_domains ~main ~other in
  Alcotest.(check (list int))
    "drain: every node once, in order" expected (collect (Mem.Limbo.drain l));
  Alcotest.(check int) "drained" 0 (Mem.Limbo.count l);
  Alcotest.(check (list int)) "nothing left" [] (collect (Mem.Limbo.iter l));
  let l, _ = limbo_of_two_domains ~main ~other in
  Mem.Limbo.forget l;
  Alcotest.(check int) "forgotten" 0 (Mem.Limbo.count l);
  Alcotest.(check (list int))
    "forget hands nothing over" [] (collect (Mem.Limbo.drain l))

let suite =
  ( "mem",
    [
      Alcotest.test_case "arena alignment" `Quick test_arena_alignment;
      Alcotest.test_case "arena free-list reuse" `Quick test_arena_freelist_reuse;
      Alcotest.test_case "arena reset" `Quick test_arena_reset;
      Alcotest.test_case "lines of access" `Quick test_lines_of_access;
      Alcotest.test_case "distinct lines" `Quick test_distinct_lines;
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "paper's line-span arithmetic" `Quick
        test_paper_line_arithmetic;
      Alcotest.test_case "cache sim LRU" `Quick test_cache_sim_lru;
      Alcotest.test_case "cache sim ratio" `Quick test_cache_sim_ratio;
      Alcotest.test_case "buddy basics" `Quick test_buddy_basic;
      Alcotest.test_case "buddy split/coalesce" `Quick test_buddy_split_coalesce;
      Alcotest.test_case "buddy double free" `Quick test_buddy_double_free;
      QCheck_alcotest.to_alcotest prop_buddy_conservation;
      Alcotest.test_case "reservation placement" `Quick test_reservation_placement;
      Alcotest.test_case "reservation exhaustion" `Quick
        test_reservation_exhaustion;
      Alcotest.test_case "reservation free cycle" `Quick
        test_reservation_free_cycle;
      QCheck_alcotest.to_alcotest prop_reservation_all_placed_when_plenty;
      Alcotest.test_case "limbo reclaim by stamp" `Quick test_limbo_reclaim;
      Alcotest.test_case "limbo hand-over order" `Quick test_limbo_order;
    ] )

(* buddy blocks are always aligned to their order and pairwise disjoint *)
let prop_buddy_blocks_disjoint =
  QCheck.Test.make ~name:"buddy blocks aligned and disjoint" ~count:80
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 3))
    (fun orders ->
      let b = Mem.Buddy.create ~total_pages:128 ~max_order:3 in
      let live = ref [] in
      List.iter
        (fun order ->
          match Mem.Buddy.alloc b ~order with
          | Some ppn -> live := (ppn, order) :: !live
          | None -> ())
        orders;
      List.for_all
        (fun (ppn, order) -> Addr.Bits.is_aligned ppn order)
        !live
      &&
      let ranges =
        List.map
          (fun (ppn, order) ->
            (Int64.to_int ppn, Int64.to_int ppn + (1 lsl order) - 1))
          !live
        |> List.sort compare
      in
      let rec disjoint = function
        | (_, l1) :: ((f2, _) :: _ as rest) -> l1 < f2 && disjoint rest
        | _ -> true
      in
      disjoint ranges)

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest prop_buddy_blocks_disjoint ] )
