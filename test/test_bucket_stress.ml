(* Multicore stress of Bucket_lock.Real (paper, Section 3.1): several
   domains mutate one clustered table concurrently, serializing on the
   per-bucket writer lock keyed by the table's own hash.  Domains own
   disjoint VPN ranges but their page blocks collide in the (small)
   bucket array, so the chains really are contended.  The final table
   must agree with a serially-built reference on population and on
   every translation — node addresses and chain order may differ. *)

let factor = 16

let config = Clustered_pt.Config.make ~subblock_factor:factor ~buckets:64 ()

let num_domains = 4

let vpns_per_domain = 1_000

(* scattered, so one domain's range spans many page blocks *)
let vpn ~domain ~k =
  Int64.of_int ((domain * 1_000_000) + (k * 17))

let ppn_of vpn = Int64.add (Int64.mul vpn 3L) 7L

let bucket_of v =
  Clustered_pt.Config.hash config
    (Int64.shift_right_logical v (Addr.Bits.log2_exact factor))

let attr = Pte.Attr.default

let insert_range table lock ~domain =
  for k = 0 to vpns_per_domain - 1 do
    let v = vpn ~domain ~k in
    Clustered_pt.Bucket_lock.Real.with_write lock ~bucket:(bucket_of v)
      (fun () ->
        Clustered_pt.Table.insert_base table ~vpn:v ~ppn:(ppn_of v) ~attr)
  done

let remove_every_other table lock ~domain =
  for k = 0 to vpns_per_domain - 1 do
    if k mod 2 = 1 then begin
      let v = vpn ~domain ~k in
      Clustered_pt.Bucket_lock.Real.with_write lock ~bucket:(bucket_of v)
        (fun () -> Clustered_pt.Table.remove table ~vpn:v)
    end
  done

let read_back_range table lock ~domain =
  for k = 0 to vpns_per_domain - 1 do
    let v = vpn ~domain ~k in
    let tr =
      Clustered_pt.Bucket_lock.Real.with_read lock ~bucket:(bucket_of v)
        (fun () -> Walk.find Clustered_pt.Table.lookup_into table ~vpn:v)
    in
    match tr with
    | Some t ->
        if t.Pt_common.Types.ppn <> ppn_of v then
          failwith "read back a wrong translation under load"
    | None -> failwith "lost an insert under load"
  done

let in_domains f =
  let ds =
    Array.init num_domains (fun d -> Domain.spawn (fun () -> f ~domain:d))
  in
  Array.iter Domain.join ds

let test_stress () =
  let table = Clustered_pt.Table.create config in
  let lock =
    Clustered_pt.Bucket_lock.Real.create ~buckets:config.Clustered_pt.Config.buckets
  in
  let quiescent label =
    Alcotest.(check int)
      (label ^ ": no bucket still held")
      0
      (Clustered_pt.Bucket_lock.Real.currently_held lock)
  in
  in_domains (fun ~domain ->
      insert_range table lock ~domain;
      read_back_range table lock ~domain);
  quiescent "after insert+read round";
  in_domains (remove_every_other table lock);
  quiescent "after remove round";
  (* every acquisition the rounds issued is on the counters: one write
     per insert, one read per read-back, one write per removal *)
  let issued_writes =
    (num_domains * vpns_per_domain) + (num_domains * (vpns_per_domain / 2))
  in
  Alcotest.(check int) "write acquisitions accounted" issued_writes
    (Clustered_pt.Bucket_lock.Real.write_acquisitions lock);
  Alcotest.(check int) "read acquisitions accounted"
    (num_domains * vpns_per_domain)
    (Clustered_pt.Bucket_lock.Real.read_acquisitions lock);
  (* serial reference over the same surviving VPNs *)
  let reference = Clustered_pt.Table.create config in
  for domain = 0 to num_domains - 1 do
    for k = 0 to vpns_per_domain - 1 do
      if k mod 2 = 0 then
        let v = vpn ~domain ~k in
        Clustered_pt.Table.insert_base reference ~vpn:v ~ppn:(ppn_of v) ~attr
    done
  done;
  Alcotest.(check int)
    "population matches serial reference"
    (Clustered_pt.Table.population reference)
    (Clustered_pt.Table.population table);
  for domain = 0 to num_domains - 1 do
    for k = 0 to vpns_per_domain - 1 do
      let v = vpn ~domain ~k in
      let got = Walk.find Clustered_pt.Table.lookup_into table ~vpn:v in
      let want = Walk.find Clustered_pt.Table.lookup_into reference ~vpn:v in
      if got <> want then
        Alcotest.failf "translation mismatch at vpn %Ld" v
    done
  done

(* Single-bucket insert/remove interleaving: every page block hashes to
   bucket 0, so the chain grows long and every unlink path (head,
   middle, tail, last-node-empties-bucket) gets exercised.  After the
   full unmap the table must be indistinguishable from empty — zero
   live nodes, zero logical bytes, head_tags mirror showing the bucket
   empty — with the emptied nodes parked on the free list for reuse. *)
let test_single_bucket_reclaim () =
  let config =
    Clustered_pt.Config.make ~subblock_factor:factor ~buckets:1 ()
  in
  let arena = Mem.Sim_memory.create () in
  let table = Clustered_pt.Table.create ~arena config in
  let blocks = 64 in
  let page b k = Int64.of_int ((b * factor) + k) in
  let live = Hashtbl.create 97 in
  let insert v =
    Clustered_pt.Table.insert_base table ~vpn:v ~ppn:(ppn_of v) ~attr;
    Hashtbl.replace live v ()
  in
  let remove v =
    Clustered_pt.Table.remove table ~vpn:v;
    Hashtbl.remove live v
  in
  (* interleave: fill odd-k of every block, empty half the blocks, fill
     even-k, then check everything still reads back *)
  for b = 0 to blocks - 1 do
    for k = 0 to factor - 1 do
      if k mod 2 = 1 then insert (page b k)
    done
  done;
  for b = 0 to blocks - 1 do
    if b mod 2 = 0 then
      for k = 0 to factor - 1 do
        if k mod 2 = 1 then remove (page b k)
      done
  done;
  for b = 0 to blocks - 1 do
    for k = 0 to factor - 1 do
      if k mod 2 = 0 then insert (page b k)
    done
  done;
  Hashtbl.iter
    (fun v () ->
      match Walk.find Clustered_pt.Table.lookup_into table ~vpn:v with
      | Some tr when tr.Pt_common.Types.ppn = ppn_of v -> ()
      | Some _ -> Alcotest.failf "wrong translation at vpn %Ld" v
      | None -> Alcotest.failf "lost vpn %Ld mid-interleave" v)
    live;
  let peak_nodes = Clustered_pt.Table.node_count table in
  let peak_arena = Mem.Sim_memory.total_allocated_bytes arena in
  Alcotest.(check bool) "chains actually built up" true (peak_nodes > 0);
  (* full unmap, removals striped so head/middle/tail unlinks all occur *)
  let remaining = Hashtbl.fold (fun v () acc -> v :: acc) live [] in
  let remaining = List.sort compare remaining in
  let stripes = [ (fun v -> Int64.rem v 3L = 0L); (fun v -> Int64.rem v 3L = 1L); (fun _ -> true) ] in
  List.iter
    (fun select -> List.iter (fun v -> if select v && Hashtbl.mem live v then remove v) remaining)
    stripes;
  Alcotest.(check int) "live nodes return to zero" 0
    (Clustered_pt.Table.node_count table);
  Alcotest.(check int) "footprint equals empty baseline" 0
    (Clustered_pt.Table.size_bytes table);
  Alcotest.(check int) "population is zero" 0
    (Clustered_pt.Table.population table);
  Alcotest.(check bool) "emptied nodes parked for reuse" true
    (Clustered_pt.Table.free_nodes table > 0);
  (match Walk.find Clustered_pt.Table.lookup_into table ~vpn:(page 0 1) with
  | None -> ()
  | Some _ -> Alcotest.fail "lookup found a mapping in a drained table");
  (* refill: the free list must satisfy the rebuild without growing the
     arena past its high-water mark (reuse before growing) *)
  for b = 0 to blocks - 1 do
    for k = 0 to factor - 1 do
      insert (page b k)
    done
  done;
  Alcotest.(check int) "rebuild reuses reclaimed nodes, arena untouched"
    peak_arena
    (Mem.Sim_memory.total_allocated_bytes arena)

(* Writer preference (Section 3.1: "don't starve pending range
   operations").  Readers cycle a bucket's read lock continuously and
   only stop once they observe the writer's side effect — so if a
   continuous reader stream could starve the writer, this test would
   never terminate.  Afterwards the lock must be fully released and
   the per-slot counters must equal exactly the acquisitions issued:
   each reader's local count of granted reads, one write. *)
let test_writer_preference () =
  let lock = Clustered_pt.Bucket_lock.Real.create ~buckets:1 in
  let wrote = Atomic.make false in
  let n_readers = 3 in
  let readers =
    Array.init n_readers (fun _ ->
        Domain.spawn (fun () ->
            let reads = ref 0 in
            while not (Atomic.get wrote) do
              Clustered_pt.Bucket_lock.Real.with_read lock ~bucket:0
                (fun () -> incr reads)
            done;
            !reads))
  in
  let writer =
    Domain.spawn (fun () ->
        Clustered_pt.Bucket_lock.Real.with_write lock ~bucket:0 (fun () ->
            Atomic.set wrote true))
  in
  Domain.join writer;
  let reads = Array.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  Alcotest.(check int) "lock fully released" 0
    (Clustered_pt.Bucket_lock.Real.currently_held lock);
  Alcotest.(check int) "exactly one write granted" 1
    (Clustered_pt.Bucket_lock.Real.write_acquisitions lock);
  Alcotest.(check int) "every granted read counted" reads
    (Clustered_pt.Bucket_lock.Real.read_acquisitions lock)

(* Repeated contended rounds: currently_held must return to zero after
   every round, not just at the end of one lucky schedule. *)
let test_held_returns_to_zero () =
  let lock = Clustered_pt.Bucket_lock.Real.create ~buckets:8 in
  for round = 1 to 5 do
    let ds =
      Array.init 4 (fun d ->
          Domain.spawn (fun () ->
              for k = 0 to 499 do
                let bucket = (d + k) land 7 in
                if k land 3 = 0 then
                  Clustered_pt.Bucket_lock.Real.with_write lock ~bucket
                    (fun () -> ())
                else
                  Clustered_pt.Bucket_lock.Real.with_read lock ~bucket
                    (fun () -> ())
              done))
    in
    Array.iter Domain.join ds;
    Alcotest.(check int)
      (Printf.sprintf "round %d leaves no bucket held" round)
      0
      (Clustered_pt.Bucket_lock.Real.currently_held lock)
  done

let suite =
  ( "bucket-lock stress",
    [
      Alcotest.test_case "concurrent insert/read/remove" `Slow test_stress;
      Alcotest.test_case "single-bucket interleaved reclaim" `Quick
        test_single_bucket_reclaim;
      Alcotest.test_case "writer preference under reader stream" `Quick
        test_writer_preference;
      Alcotest.test_case "held count returns to zero each round" `Quick
        test_held_returns_to_zero;
    ] )
