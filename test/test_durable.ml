(* Crash consistency (lib/durable + the chaos driver): WAL framing,
   torn-tail truncation and compaction; the qcheck recovery oracle —
   for ANY crash prefix (with or without a checkpoint in it, on both
   organizations) recovery rebuilds exactly the acknowledged-op state
   and never resurrects any page of the torn op; the double-crash
   (crash during recovery replay) and torn-checkpoint fallback paths;
   and the chaos soak's gate plus its domain-count invariance. *)

module W = Durable.Wal
module D = Durable.Shard
module CS = Fleet.Chaos_sim
module S = Pt_service.Service

let ppn_of vpn = Int64.add vpn 0x7_0000L

let mk_shard org = D.create ~buckets:64 ~org ~locking:S.Striped ~ppn_of ()

(* a seed-derived op script over a small vpn window so regions overlap
   and replay order matters *)
let script_of_seed seed n =
  List.init n (fun i ->
      let r = Addr.Bits.mix64 (Int64.of_int ((seed * 9_176_263) + i)) in
      let vpn = Int64.logand r 0xFFL in
      let pages =
        1 + Int64.to_int (Int64.logand (Int64.shift_right_logical r 16) 0x7L)
      in
      match Int64.to_int (Int64.logand (Int64.shift_right_logical r 32) 3L) with
      | 0 | 3 -> W.Map { asid = 1; vpn; pages }
      | 1 -> W.Unmap { asid = 1; vpn; pages }
      | _ ->
          W.Protect
            {
              asid = 1;
              vpn;
              pages;
              writable = Int64.logand (Int64.shift_right_logical r 40) 1L = 0L;
            })

(* the acknowledged-op oracle, mirrored from the chaos driver *)
let model_apply model op =
  let each vpn pages f =
    for i = 0 to pages - 1 do
      f (Int64.add vpn (Int64.of_int i))
    done
  in
  match op with
  | W.Map { vpn; pages; _ } -> each vpn pages (fun k -> Hashtbl.replace model k true)
  | W.Unmap { vpn; pages; _ } -> each vpn pages (Hashtbl.remove model)
  | W.Protect { vpn; pages; writable; _ } ->
      each vpn pages (fun k ->
          if Hashtbl.mem model k then Hashtbl.replace model k writable)

let model_live model =
  Hashtbl.fold
    (fun vpn w acc ->
      (vpn, ppn_of vpn, { Pte.Attr.default with Pte.Attr.writable = w }) :: acc)
    model []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b)

let check_live ~what shard model =
  let expected = model_live model in
  let actual = D.live shard in
  if List.length actual <> List.length expected then
    Alcotest.failf "%s: %d live mappings, expected %d" what
      (List.length actual) (List.length expected);
  List.iter2
    (fun (v1, p1, a1) (v2, p2, a2) ->
      if not (Int64.equal v1 v2 && Int64.equal p1 p2 && Pte.Attr.equal a1 a2)
      then
        Alcotest.failf "%s: mapping (0x%Lx,0x%Lx) <> expected (0x%Lx,0x%Lx)"
          what v1 p1 v2 p2)
    actual expected

(* --- WAL unit tests --- *)

let test_wal_roundtrip_and_torn_tail () =
  let w = W.create () in
  let ops = script_of_seed 5 20 in
  List.iter (W.append w) ops;
  Alcotest.(check int) "records" 20 (W.records w);
  Alcotest.(check int) "length" (20 * W.record_bytes) (W.length w);
  let got, torn = W.scan w ~from:0 in
  Alcotest.(check int) "no torn tail" 0 torn;
  Alcotest.(check int) "all decoded" 20 (List.length got);
  Alcotest.(check bool) "roundtrip" true (got = ops);
  (* a crash mid-record leaves a torn tail; scan truncates it, and a
     second scan sees nothing to do (idempotent) *)
  W.plan_crash w ~at:(W.length w + 11);
  (try
     W.append w (W.Map { asid = 1; vpn = 7L; pages = 3 });
     Alcotest.fail "planned crash did not fire"
   with Fault.Injected { site = Fault.Shard_crash; _ } -> ());
  Alcotest.(check int) "partial bytes flushed" ((20 * W.record_bytes) + 11)
    (W.length w);
  let got2, torn2 = W.scan w ~from:0 in
  Alcotest.(check int) "torn tail truncated" 11 torn2;
  Alcotest.(check int) "torn record not decoded" 20 (List.length got2);
  Alcotest.(check bool) "roundtrip after truncation" true (got2 = ops);
  let _, torn3 = W.scan w ~from:0 in
  Alcotest.(check int) "idempotent" 0 torn3;
  Alcotest.(check int) "one truncation counted" 1 (W.torn_truncations w)

let test_wal_boundary_crash_and_compaction () =
  let w = W.create () in
  let ops = script_of_seed 6 10 in
  List.iter (W.append w) ops;
  (* crash exactly on a record boundary: zero partial bytes *)
  W.plan_crash w ~at:(W.length w);
  (try
     W.append w (W.Map { asid = 1; vpn = 1L; pages = 1 });
     Alcotest.fail "boundary crash did not fire"
   with Fault.Injected { site = Fault.Shard_crash; _ } -> ());
  Alcotest.(check int) "nothing flushed" (10 * W.record_bytes) (W.length w);
  let _, torn = W.scan w ~from:0 in
  Alcotest.(check int) "nothing to truncate" 0 torn;
  (* compaction drops history below the offset but keeps absolute
     addressing: a suffix scan still decodes the surviving records *)
  let upto = 4 * W.record_bytes in
  W.compact w ~upto;
  Alcotest.(check int) "base advanced" upto (W.base w);
  Alcotest.(check int) "length is absolute" (10 * W.record_bytes) (W.length w);
  let got, _ = W.scan w ~from:upto in
  Alcotest.(check bool) "suffix survives compaction" true
    (got = List.filteri (fun i _ -> i >= 4) ops);
  Alcotest.(check bool) "scan below base rejected" true
    (match W.scan w ~from:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- the recovery oracle, as a qcheck property over both orgs ---

   Script n ops.  Optionally checkpoint after [c] of them.  Submit a
   prefix of k ops, then plan a crash [tear] bytes into op k's record;
   op k tears, the shard goes down, recovery must rebuild exactly the
   k-op model — in particular no page of torn op k beyond what the
   model already had.  Then replay op k and the rest; the final table
   must equal the full-script model. *)

let prop_recovery_prefix_oracle =
  QCheck.Test.make ~count:60 ~name:"recovery = acknowledged prefix (any crash)"
    QCheck.(
      quad (int_bound 1_000_000) (int_range 8 40) (int_range 0 100)
        (pair (int_range 0 100) (int_bound (W.record_bytes - 1))))
    (fun (seed, n, kf, (cf, tear)) ->
      let k = 1 + (kf * (n - 2) / 100) in
      let ckpt = if cf mod 3 = 0 then None else Some (cf * k / 100) in
      List.for_all
        (fun org ->
          let sh = mk_shard org in
          let model = Hashtbl.create 64 in
          let ops = script_of_seed seed n in
          List.iteri
            (fun i op ->
              if Some i = ckpt then D.checkpoint sh;
              ignore (D.submit sh op);
              model_apply model op)
            (List.filteri (fun i _ -> i < k) ops);
          let crashed_op = List.nth ops k in
          W.plan_crash (D.wal sh) ~at:(W.length (D.wal sh) + tear);
          (match D.submit sh crashed_op with
          | _ -> QCheck.Test.fail_reportf "crash at op %d did not fire" k
          | exception Fault.Injected { site = Fault.Shard_crash; _ } -> ());
          if D.up sh then QCheck.Test.fail_report "shard still up after crash";
          (match D.submit sh crashed_op with
          | _ -> QCheck.Test.fail_report "down shard accepted an op"
          | exception D.Down -> ());
          D.recover sh;
          if not (D.up sh) then QCheck.Test.fail_report "recovery left shard down";
          check_live ~what:(S.org_name org ^ ": post-crash") sh model;
          (* the crashed op was never acknowledged: replay it (as the
             fleet's pending-drain does), then the rest of the script *)
          List.iteri
            (fun i op ->
              if i >= k then begin
                ignore (D.submit sh op);
                model_apply model op
              end)
            ops;
          check_live ~what:(S.org_name org ^ ": full script") sh model;
          Fsck.clean (S.fsck (D.service sh)))
        [ S.Clustered; S.Hashed ])

(* --- double crash: the recovery replay itself dies --- *)

let test_double_crash_converges () =
  let sh = mk_shard S.Clustered in
  let model = Hashtbl.create 64 in
  let ops = script_of_seed 11 24 in
  List.iter
    (fun op ->
      ignore (D.submit sh op);
      model_apply model op)
    ops;
  W.plan_crash (D.wal sh) ~at:(W.length (D.wal sh) + 5);
  (try ignore (D.submit sh (W.Map { asid = 1; vpn = 3L; pages = 2 }))
   with Fault.Injected _ -> ());
  D.plan_recovery_crash sh ~after_records:6;
  (try
     D.recover sh;
     Alcotest.fail "recovery crash did not fire"
   with Fault.Injected { site = Fault.Shard_crash; _ } -> ());
  Alcotest.(check bool) "still down after recovery crash" false (D.up sh);
  Alcotest.(check int) "recovery crash counted" 1 (D.recovery_crashes sh);
  (* the WAL stayed readable: the second recovery converges *)
  D.recover sh;
  Alcotest.(check bool) "up after second recovery" true (D.up sh);
  check_live ~what:"after double crash" sh model;
  Alcotest.(check int) "attempts" 2 (D.recovery_attempts sh);
  Alcotest.(check int) "completions" 1 (D.recoveries sh)

(* --- torn checkpoint: fall back to the previous one + longer suffix --- *)

let test_torn_checkpoint_falls_back org () =
  let sh = mk_shard org in
  let model = Hashtbl.create 64 in
  let step op =
    ignore (D.submit sh op);
    model_apply model op
  in
  let ops = script_of_seed 17 30 in
  List.iteri
    (fun i op ->
      step op;
      if i = 9 then D.checkpoint sh)
    ops;
  Alcotest.(check int) "first checkpoint compacted the log" 10
    ((W.base (D.wal sh) / W.record_bytes) + 0);
  D.plan_checkpoint_crash sh;
  (try
     D.checkpoint sh;
     Alcotest.fail "checkpoint crash did not fire"
   with Fault.Injected { site = Fault.Shard_crash; _ } -> ());
  Alcotest.(check bool) "down after torn checkpoint" false (D.up sh);
  Alcotest.(check int) "torn checkpoint counted" 1 (D.torn_checkpoints sh);
  D.recover sh;
  Alcotest.(check int) "torn snapshot discarded" 1 (D.checkpoints_discarded sh);
  Alcotest.(check bool) "replayed past the good checkpoint" true
    (D.replayed_records sh >= 20);
  check_live ~what:"fallback recovery" sh model;
  (* a later complete checkpoint still works on the recovered shard *)
  D.checkpoint sh;
  List.iter step (script_of_seed 23 5);
  W.plan_crash (D.wal sh) ~at:(W.length (D.wal sh) + 1);
  (try ignore (D.submit sh (W.Unmap { asid = 1; vpn = 0L; pages = 4 }))
   with Fault.Injected _ -> ());
  D.recover sh;
  check_live ~what:"post-fallback checkpoint" sh model

(* --- checkpoint images: round trip, size, fuzz --- *)

type table = Pt_common.Intf.concurrent

let table_of sh : table = S.fsck_table (D.service sh)

let blocks = 24

(* Fill [sh]'s table straight through its interface (no WAL: the
   checkpoint is the only record) in a seed-shuffled order, so chains
   hold their nodes in no particular order, then remove a few pages.  A
   clustered table gets base, partial-subblock and superpage nodes:
   per block a base subset, a psb PTE beside base pages, a 16 KB
   superpage beside base pages, or a block-sized superpage, and the
   first four blocks hold one 256 KB superpage.  The hashed table the
   service builds holds base pages only. *)
let fill_shuffled sh org seed =
  let (Pt_common.Intf.Concurrent ((module T), tbl)) = table_of sh in
  let rng = Random.State.make [| seed |] in
  let attr = Pte.Attr.default in
  let vpn_of k off = Int64.of_int ((k * 16) + off) in
  let base k off =
    let vpn = vpn_of k off in
    fun () -> T.insert_base tbl ~vpn ~ppn:(ppn_of vpn) ~attr
  in
  let some_of ~excluding k =
    List.filter_map
      (fun off ->
        if excluding land (1 lsl off) = 0 && Random.State.int rng 3 > 0 then
          Some (base k off)
        else None)
      (List.init 16 Fun.id)
  in
  let sp k size =
    let vpn = vpn_of k 0 in
    fun () -> T.insert_superpage tbl ~vpn ~size ~ppn:(ppn_of vpn) ~attr
  in
  let actions =
    List.concat
      (List.init blocks (fun k ->
           match org with
           | S.Hashed -> some_of ~excluding:0 k
           | S.Clustered when k < 4 ->
               if k = 0 then [ sp 0 Addr.Page_size.kb256 ] else []
           | S.Clustered -> (
               match Random.State.int rng 4 with
               | 0 -> some_of ~excluding:0 k
               | 1 ->
                   let vmask = 1 + Random.State.int rng 0xFFFF in
                   let vpbn = Int64.of_int k in
                   (fun () ->
                     T.insert_psb tbl ~vpbn ~vmask ~ppn:(ppn_of (vpn_of k 0))
                       ~attr)
                   :: some_of ~excluding:vmask k
               | 2 -> sp k Addr.Page_size.kb16 :: some_of ~excluding:0xF k
               | _ -> [ sp k Addr.Page_size.kb64 ])))
  in
  let shuffled =
    List.map (fun a -> (Random.State.bits rng, a)) actions
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (_, a) -> a ()) shuffled;
  (* not in the 256 KB superpage: removing one of its pages drops only
     that block's replica, and demoting it is the OS's business *)
  for _ = 1 to 8 do
    let k = 4 + Random.State.int rng (blocks - 4) in
    T.remove tbl ~vpn:(vpn_of k (Random.State.int rng 16))
  done

(* every bucket's image, and the shape the images must carry over *)
let shape ((Pt_common.Intf.Concurrent ((module T), tbl)) : table) =
  ( List.init (T.buckets tbl) (fun bucket -> T.snapshot_bucket tbl ~bucket),
    (T.population tbl, T.size_bytes tbl, T.node_count tbl) )

let check_clean what ((Pt_common.Intf.Concurrent ((module T), tbl)) : table)
    =
  match T.check tbl with
  | [] -> ()
  | v :: _ -> QCheck.Test.fail_reportf "%s: %a" what T.pp_violation v

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~count:40
    ~name:"checkpoint then recover restores the table node for node"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.iter
        (fun (org, locking) ->
          let what =
            Printf.sprintf "%s, %s" (S.org_name org) (S.locking_name locking)
          in
          let sh = D.create ~buckets:8 ~org ~locking ~ppn_of () in
          fill_shuffled sh org seed;
          check_clean (what ^ ", filled") (table_of sh);
          let images, ((population, _, _) as counts) = shape (table_of sh) in
          D.checkpoint sh;
          D.recover sh;
          check_clean (what ^ ", restored") (table_of sh);
          if shape (table_of sh) <> (images, counts) then
            QCheck.Test.fail_reportf "%s: the restored table differs" what;
          if D.restored_mappings sh <> population then
            QCheck.Test.fail_reportf "%s: %d pages restored of %d" what
              (D.restored_mappings sh) population)
        [
          (S.Clustered, S.Striped);
          (S.Clustered, S.Seqlock);
          (S.Hashed, S.Striped);
          (S.Hashed, S.Seqlock);
        ];
      true)

(* Fig 9's ordering, carried into the checkpoint: on full page blocks a
   clustered node is one tag and sixteen words, a hashed one a tag and
   one word per page. *)
let test_checkpoint_bytes_per_page () =
  let per_page org =
    let sh = D.create ~org ~locking:S.Striped ~ppn_of () in
    for k = 0 to 63 do
      ignore
        (D.map sh ~asid:1
           (Addr.Region.make ~first_vpn:(Int64.of_int (0x1000 + (k * 37 * 16)))
              ~pages:16))
    done;
    let blob = D.encode_image (table_of sh) in
    float (Bytes.length blob) /. float (S.population (D.service sh))
  in
  let clustered = per_page S.Clustered and hashed = per_page S.Hashed in
  if clustered > 10. then
    Alcotest.failf "clustered checkpoint: %.2f bytes per page (bound 10)"
      clustered;
  if clustered >= hashed then
    Alcotest.failf "clustered %.2f bytes per page, hashed %.2f" clustered
      hashed

(* The documented format, written independently of the shard: each
   image's bucket and node count, each node's tag, word count and words,
   then the mix64 chain over 8-byte words (the last one zero-padded)
   seeded with the length. *)
let forge ?(trailing = "") images =
  let b = Buffer.create 256 in
  Buffer.add_int32_le b (Int32.of_int (List.length images));
  List.iter
    (fun (bucket, chain) ->
      Buffer.add_int32_le b (Int32.of_int bucket);
      Buffer.add_int32_le b (Int32.of_int (List.length chain));
      List.iter
        (fun (tag, words) ->
          Buffer.add_int64_le b (Int64.of_int tag);
          Buffer.add_uint16_le b (Array.length words);
          Array.iter (Buffer.add_int64_le b) words)
        chain)
    images;
  Buffer.add_string b trailing;
  let len = Buffer.length b in
  let padded = Bytes.make (((len + 7) / 8 * 8) + 8) '\000' in
  Buffer.blit b 0 padded 0 len;
  let h = ref (Addr.Bits.mix64 (Int64.of_int len)) in
  for i = 0 to ((len + 7) / 8) - 1 do
    h := Addr.Bits.mix64 (Int64.add !h (Bytes.get_int64_le padded (8 * i)))
  done;
  let blob = Bytes.sub padded 0 (len + 8) in
  Bytes.set_int64_le blob len !h;
  blob

(* a filled shard of each organization, its table and its blob *)
let fuzz_subjects =
  lazy
    (List.map
       (fun org ->
         let sh = D.create ~buckets:8 ~org ~locking:S.Striped ~ppn_of () in
         fill_shuffled sh org 7;
         (org, table_of sh, D.encode_image (table_of sh)))
       [ S.Clustered; S.Hashed ])

let rejects ~what table ~case blob =
  match D.decode_image table blob with
  | None -> ()
  | Some _ -> Alcotest.failf "%s: accepted %s" what case
  | exception e ->
      Alcotest.failf "%s: %s raised %s" what case (Printexc.to_string e)

let test_image_format_and_structure () =
  List.iter
    (fun (org, (table : table), blob) ->
      let what = S.org_name org in
      let images =
        match D.decode_image table blob with
        | Some images -> images
        | None -> Alcotest.failf "%s: own blob rejected" what
      in
      Alcotest.(check bool)
        (what ^ ": the documented format") true
        (Bytes.equal (forge images) blob);
      let (Pt_common.Intf.Concurrent ((module T), tbl)) = table in
      let first_bucket, first_chain = List.hd images in
      let tag, words = List.hd first_chain in
      let foreign_tag =
        let rec go t =
          if T.bucket_of tbl ~vpn:(Int64.of_int (t * T.pages_per_section tbl))
             <> first_bucket
          then t
          else go (t + 1)
        in
        go (tag + 1)
      in
      let with_first_node node =
        (first_bucket, node :: List.tl first_chain) :: List.tl images
      in
      List.iter
        (fun (case, forged) -> rejects ~what table ~case forged)
        [
          ( "a bucket out of range",
            forge (images @ [ (T.buckets tbl, first_chain) ]) );
          ("descending buckets", forge (List.rev images));
          ("a repeated bucket", forge ((first_bucket, first_chain) :: images));
          ("an empty image", forge ((first_bucket, []) :: List.tl images));
          ( "a tag of another bucket",
            forge (with_first_node (foreign_tag, words)) );
          ("a negative tag", forge (with_first_node (-1, words)));
          ( "three words",
            forge (with_first_node (tag, Array.make 3 words.(0))) );
          ("trailing bytes", forge ~trailing:"\000" images);
        ])
    (Lazy.force fuzz_subjects);
  match Lazy.force fuzz_subjects with
  | [ (_, clustered, clustered_blob); (_, hashed, hashed_blob) ] ->
      (* a hashed table never builds a sixteen-word node *)
      rejects ~what:"hashed" hashed ~case:"a clustered blob" clustered_blob;
      (* nor a clustered one a one-word node holding a base word, though
         the tags of a hashed blob of as many buckets all hash right *)
      rejects ~what:"clustered" clustered ~case:"a hashed blob" hashed_blob
  | _ -> assert false

let test_image_every_truncation_and_flip () =
  List.iter
    (fun (org, table, blob) ->
      let what = S.org_name org in
      for n = 0 to Bytes.length blob - 1 do
        rejects ~what table
          ~case:(Printf.sprintf "a truncation to %d bytes" n)
          (Bytes.sub blob 0 n)
      done;
      for i = 0 to Bytes.length blob - 1 do
        let b = Bytes.copy blob in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0xFF);
        rejects ~what table ~case:(Printf.sprintf "byte %d flipped" i) b
      done)
    (Lazy.force fuzz_subjects)

(* byte positions are taken modulo the blob's length *)
type mutation =
  | Flip of (int * int) list  (** xor byte [i] with [x] *)
  | Truncate of int
  | Append of string

let pp_mutation = function
  | Flip flips ->
      String.concat ", "
        (List.map (fun (i, x) -> Printf.sprintf "byte %d xor 0x%x" i x) flips)
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Append s -> Printf.sprintf "append %d bytes" (String.length s)

let prop_image_mutations =
  let mutations =
    QCheck.Gen.(
      oneof
        [
          map
            (fun flips -> Flip flips)
            (list_size (int_range 1 4) (pair nat (int_range 1 255)));
          map (fun n -> Truncate n) nat;
          map (fun s -> Append s) (string_size (int_range 1 24));
        ])
  in
  QCheck.Test.make ~count:500 ~name:"a mutated checkpoint image never decodes"
    QCheck.(pair bool (make ~print:pp_mutation mutations))
    (fun (hashed, m) ->
      let _, table, blob =
        List.nth (Lazy.force fuzz_subjects) (if hashed then 1 else 0)
      in
      let len = Bytes.length blob in
      let mutated =
        match m with
        | Flip flips ->
            let b = Bytes.copy blob in
            List.iter
              (fun (i, x) ->
                let i = i mod len in
                Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor x))
              flips;
            b
        | Truncate n -> Bytes.sub blob 0 (n mod len)
        | Append s -> Bytes.cat blob (Bytes.of_string s)
      in
      (* two flips of one byte may cancel out *)
      QCheck.assume (not (Bytes.equal mutated blob));
      rejects ~what:"mutated" table ~case:(pp_mutation m) mutated;
      true)

(* --- the chaos soak: gate + domain invariance --- *)

let soak_config =
  {
    CS.quick_config with
    CS.tenants = 4;
    shards = 3;
    rounds = 3;
    ops_per_tenant = 300;
    orgs = [ S.Clustered ];
  }

let test_chaos_soak_gate () =
  let outcome = CS.run soak_config in
  Alcotest.(check bool) "all clean" true (CS.all_clean outcome);
  match outcome.CS.rows with
  | [ r ] ->
      Alcotest.(check bool) "crashes happened" true (r.CS.c_crashes > 0);
      Alcotest.(check bool) "recoveries happened" true (r.CS.c_recoveries > 0);
      Alcotest.(check bool) "degraded ops were rejected" true
        (r.CS.c_degraded_rejections > 0);
      Alcotest.(check bool) "parked ops were drained" true
        (r.CS.c_pending_replayed > 0);
      Alcotest.(check bool) "a recovery was crashed" true
        (r.CS.c_recovery_crashes > 0);
      Alcotest.(check bool) "a checkpoint was torn" true
        (r.CS.c_torn_checkpoints > 0);
      Alcotest.(check int) "limbo drained" 0 r.CS.c_limbo
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_chaos_domain_invariance () =
  let j d =
    Jsonx.to_string
      (CS.outcome_to_json soak_config
         (CS.run { soak_config with CS.domains = d }))
  in
  let one = j 1 in
  Alcotest.(check string) "3 domains = 1 domain" one (j 3);
  let contains sub =
    let n = String.length sub and m = String.length one in
    let rec go i = i + n <= m && (String.sub one i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timing never in deterministic JSON" false
    (contains "elapsed_s")

let suite =
  ( "durable",
    [
      Alcotest.test_case "wal roundtrip and torn tail" `Quick
        test_wal_roundtrip_and_torn_tail;
      Alcotest.test_case "wal boundary crash and compaction" `Quick
        test_wal_boundary_crash_and_compaction;
      QCheck_alcotest.to_alcotest prop_recovery_prefix_oracle;
      Alcotest.test_case "double crash converges" `Quick
        test_double_crash_converges;
      Alcotest.test_case "torn checkpoint falls back" `Quick
        (test_torn_checkpoint_falls_back S.Hashed);
      Alcotest.test_case "torn clustered checkpoint falls back" `Quick
        (test_torn_checkpoint_falls_back S.Clustered);
      QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint bytes per page" `Quick
        test_checkpoint_bytes_per_page;
      Alcotest.test_case "checkpoint image format and structure" `Quick
        test_image_format_and_structure;
      Alcotest.test_case "checkpoint image truncations and flips" `Quick
        test_image_every_truncation_and_flip;
      QCheck_alcotest.to_alcotest prop_image_mutations;
      Alcotest.test_case "chaos soak gate" `Slow test_chaos_soak_gate;
      Alcotest.test_case "chaos domain-invariant" `Slow
        test_chaos_domain_invariance;
    ] )
