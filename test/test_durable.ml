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

let test_torn_checkpoint_falls_back () =
  let sh = mk_shard S.Hashed in
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
        test_torn_checkpoint_falls_back;
      Alcotest.test_case "chaos soak gate" `Slow test_chaos_soak_gate;
      Alcotest.test_case "chaos domain-invariant" `Slow
        test_chaos_domain_invariance;
    ] )
