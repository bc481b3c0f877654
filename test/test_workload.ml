(* Workload substrate: PRNG, snapshots, traces, Table 1 calibration. *)

let test_prng_deterministic () =
  let a = Workload.Prng.create ~seed:42L in
  let b = Workload.Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Workload.Prng.next a)
      (Workload.Prng.next b)
  done;
  let c = Workload.Prng.create ~seed:43L in
  Alcotest.(check bool) "different seed, different stream" false
    (Int64.equal (Workload.Prng.next a) (Workload.Prng.next c))

let test_prng_ranges () =
  let r = Workload.Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Workload.Prng.int r ~bound:10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Workload.Prng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0);
    let x = Workload.Prng.int_in r ~lo:5 ~hi:8 in
    Alcotest.(check bool) "int_in inclusive" true (x >= 5 && x <= 8)
  done

let test_prng_uniformity () =
  let r = Workload.Prng.create ~seed:99L in
  let buckets = Array.make 16 0 in
  let n = 16000 in
  for _ = 1 to n do
    let i = Workload.Prng.int r ~bound:16 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "within 20% of uniform" true
        (c > n / 16 * 8 / 10 && c < n / 16 * 12 / 10))
    buckets

let test_snapshot_calibration () =
  (* every workload's page count hits its Table 1 target exactly *)
  List.iter
    (fun spec ->
      let snap = Workload.Snapshot.generate spec ~seed:1L in
      Alcotest.(check int)
        (spec.Workload.Spec.name ^ " pages")
        (Workload.Spec.target_pages spec)
        (Workload.Snapshot.total_pages snap))
    Workload.Table1.all_with_kernel

let test_snapshot_hashed_size_matches_paper () =
  (* 24 bytes per page lands within 3% of the paper's reported KB *)
  List.iter
    (fun spec ->
      let kb =
        float_of_int (Workload.Spec.target_pages spec) *. 24.0 /. 1024.0
      in
      let paper = float_of_int spec.Workload.Spec.paper.Workload.Spec.hashed_kb in
      Alcotest.(check bool)
        (spec.Workload.Spec.name ^ " within 3% of paper")
        true
        (abs_float (kb -. paper) /. paper < 0.03))
    Workload.Table1.all

let test_snapshot_deterministic () =
  let spec = Workload.Table1.coral in
  let a = Workload.Snapshot.generate spec ~seed:5L in
  let b = Workload.Snapshot.generate spec ~seed:5L in
  let vpns s =
    List.concat_map
      (fun p -> Array.to_list (Workload.Snapshot.proc_vpns p))
      s.Workload.Snapshot.procs
  in
  Alcotest.(check (list int64)) "same snapshot" (vpns a) (vpns b)

let test_snapshot_no_duplicates () =
  List.iter
    (fun spec ->
      let snap = Workload.Snapshot.generate spec ~seed:11L in
      List.iter
        (fun p ->
          let vpns = Workload.Snapshot.proc_vpns p in
          let uniq =
            Array.to_list vpns |> List.sort_uniq Int64.unsigned_compare
          in
          Alcotest.(check int)
            (spec.Workload.Spec.name ^ "/" ^ p.Workload.Snapshot.pname
           ^ " no duplicate pages")
            (Array.length vpns) (List.length uniq))
        snap.Workload.Snapshot.procs)
    Workload.Table1.all_with_kernel

let test_density_ordering () =
  (* the Figure 9 discussion: coral/ML/kernel dense, gcc/compress
     sparse.  Measure pages per active block. *)
  let density spec =
    let snap = Workload.Snapshot.generate spec ~seed:1L in
    let pages = Workload.Snapshot.total_pages snap in
    let blocks =
      List.fold_left
        (fun acc p -> acc + Workload.Snapshot.active_blocks ~subblock_factor:16 p)
        0 snap.Workload.Snapshot.procs
    in
    float_of_int pages /. float_of_int blocks
  in
  let ml = density Workload.Table1.ml in
  let gcc = density Workload.Table1.gcc in
  Alcotest.(check bool) "ML denser than gcc" true (ml > gcc);
  Alcotest.(check bool) "ML very dense" true (ml > 10.0);
  (* every workload clusters well enough to beat hashed: the paper's
     break-even is 6 pages per block at factor 16 *)
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (spec.Workload.Spec.name ^ " above break-even")
        true
        (density spec > 6.0))
    Workload.Table1.all_with_kernel

let test_trace_only_touches_mapped_pages () =
  List.iter
    (fun spec ->
      let snap = Workload.Snapshot.generate spec ~seed:3L in
      let mapped = Hashtbl.create 4096 in
      List.iteri
        (fun i p ->
          Array.iter
            (fun vpn -> Hashtbl.replace mapped (i, vpn) ())
            (Workload.Snapshot.proc_vpns p))
        snap.Workload.Snapshot.procs;
      let trace = Workload.Trace.generate spec snap ~seed:4L ~length:5000 in
      Array.iter
        (function
          | Workload.Trace.Access (p, vpn) ->
              if not (Hashtbl.mem mapped (p, vpn)) then
                Alcotest.failf "%s touches unmapped page %Lx"
                  spec.Workload.Spec.name vpn
          | _ -> ())
        trace)
    Workload.Table1.all

let test_trace_length_and_determinism () =
  let spec = Workload.Table1.nasa7 in
  let snap = Workload.Snapshot.generate spec ~seed:3L in
  let t1 = Workload.Trace.generate spec snap ~seed:4L ~length:5000 in
  let t2 = Workload.Trace.generate spec snap ~seed:4L ~length:5000 in
  Alcotest.(check bool) "deterministic" true (t1 = t2);
  Alcotest.(check bool) "length reached" true
    (Workload.Trace.accesses t1 >= 5000)

let test_multiprog_switches () =
  let spec = Workload.Table1.gcc in
  let snap = Workload.Snapshot.generate spec ~seed:3L in
  let trace = Workload.Trace.generate spec snap ~seed:4L ~length:20000 in
  let switches =
    Array.fold_left
      (fun acc -> function Workload.Trace.Switch _ -> acc + 1 | _ -> acc)
      0 trace
  in
  Alcotest.(check bool) "several context switches" true (switches >= 4);
  (* all four processes get cpu time *)
  let seen = Hashtbl.create 4 in
  Array.iter
    (function
      | Workload.Trace.Access (p, _) -> Hashtbl.replace seen p ()
      | _ -> ())
    trace;
  Alcotest.(check int) "all processes run" 4 (Hashtbl.length seen)

let test_spec_lookup () =
  Alcotest.(check bool) "find coral" true (Workload.Table1.find "coral" <> None);
  Alcotest.(check bool) "find ML case-insensitive" true
    (Workload.Table1.find "ml" <> None);
  Alcotest.(check bool) "unknown" true (Workload.Table1.find "doom" = None);
  Alcotest.(check int) "ten workloads" 10 (List.length Workload.Table1.all)

let suite =
  ( "workload",
    [
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
      Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
      Alcotest.test_case "snapshot calibration" `Quick test_snapshot_calibration;
      Alcotest.test_case "hashed size matches Table 1" `Quick
        test_snapshot_hashed_size_matches_paper;
      Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
      Alcotest.test_case "no duplicate pages" `Quick test_snapshot_no_duplicates;
      Alcotest.test_case "density ordering" `Quick test_density_ordering;
      Alcotest.test_case "trace touches mapped pages only" `Quick
        test_trace_only_touches_mapped_pages;
      Alcotest.test_case "trace determinism" `Quick
        test_trace_length_and_determinism;
      Alcotest.test_case "multiprog switches" `Quick test_multiprog_switches;
      Alcotest.test_case "spec lookup" `Quick test_spec_lookup;
    ] )

let with_tmp f =
  let path = Filename.temp_file "ptsim" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_snapshot_roundtrip () =
  let snap = Workload.Snapshot.generate Workload.Table1.gcc ~seed:1L in
  with_tmp (fun path ->
      Workload.Snapshot.save snap path;
      Alcotest.(check bool) "identical" true
        (Workload.Snapshot.load path = Ok snap))

let test_trace_roundtrip () =
  let spec = Workload.Table1.compress in
  let snap = Workload.Snapshot.generate spec ~seed:1L in
  let trace = Workload.Trace.generate spec snap ~seed:2L ~length:2000 in
  with_tmp (fun path ->
      Workload.Trace.save trace path;
      Alcotest.(check bool) "identical" true
        (Workload.Trace.load path = Ok trace))

let test_load_rejects_garbage () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc "A banana\n";
      close_out oc;
      match Workload.Trace.load path with
      | Error msg ->
          Alcotest.(check string) "names the file and line"
            (path ^ ":1: bad event \"A banana\"")
            msg
      | Ok _ -> Alcotest.fail "expected an error")

(* every churn op kind survives a save/load round trip *)
let test_churn_trace_roundtrip () =
  let trace =
    [|
      Workload.Trace.Mmap (0, 0x1000L, 64);
      Workload.Trace.Touch (0, 0x1003L);
      Workload.Trace.Protect (0, 0x1000L, 16, false);
      Workload.Trace.Fork (0, 1);
      Workload.Trace.Touch (1, 0x1003L);
      Workload.Trace.Access (1, 0x1004L);
      Workload.Trace.Munmap (0, 0x1010L, 16);
      Workload.Trace.Switch (1);
      Workload.Trace.Protect (1, 0x1020L, 8, true);
      Workload.Trace.Exit 1;
      Workload.Trace.Exit 0;
    |]
  in
  with_tmp (fun path ->
      Workload.Trace.save trace path;
      Alcotest.(check bool) "identical" true
        (Workload.Trace.load path = Ok trace))

let test_load_rejects_unknown_version () =
  with_tmp (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "# ptsim-trace v%d\nA 0 10\n"
        (Workload.Trace.format_version + 1);
      close_out oc;
      match Workload.Trace.load path with
      | Error msg ->
          Alcotest.(check string) "message names the version"
            (Printf.sprintf
               "%s:1: unsupported trace format v%d (this build reads up to \
                v%d)"
               path
               (Workload.Trace.format_version + 1)
               Workload.Trace.format_version)
            msg
      | Ok _ -> Alcotest.fail "expected an error on a future format version")

(* a headerless v1 file (written before the version header existed)
   still loads *)
let test_load_headerless_v1 () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc "A 0 1f\nS 1\nA 1 2a\n";
      close_out oc;
      Alcotest.(check bool) "identical" true
        (Workload.Trace.load path
        = Ok
            [|
              Workload.Trace.Access (0, 0x1fL);
              Workload.Trace.Switch 1;
              Workload.Trace.Access (1, 0x2aL);
            |]))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "snapshot save/load" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "trace save/load" `Quick test_trace_roundtrip;
        Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
        Alcotest.test_case "churn trace save/load" `Quick
          test_churn_trace_roundtrip;
        Alcotest.test_case "load rejects unknown version" `Quick
          test_load_rejects_unknown_version;
        Alcotest.test_case "headerless v1 load" `Quick test_load_headerless_v1;
      ] )

(* Every decoder survives arbitrary bytes: a dumped snapshot and trace
   with bytes flipped, the file truncated or bytes appended load to
   [Ok] or [Error], never an exception; unmodified, both round-trip. *)
let prop_loaders_survive_any_bytes =
  let spec = Workload.Table1.compress in
  let snap = Workload.Snapshot.generate spec ~seed:5L in
  let trace = Workload.Trace.generate spec snap ~seed:6L ~length:300 in
  let dumped save v =
    with_tmp (fun path ->
        save v path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let snap_text = dumped Workload.Snapshot.save snap
  and trace_text = dumped Workload.Trace.save trace in
  let mutate text (kind, pos, bytes) =
    let i = pos mod (String.length text + 1) in
    match kind with
    | 0 ->
        String.mapi
          (fun j c ->
            let k = j - i in
            if k >= 0 && k < String.length bytes then
              Char.chr (Char.code c lxor (Char.code bytes.[k] lor 1))
            else c)
          text
    | 1 -> String.sub text 0 i
    | _ -> text ^ bytes
  in
  let loads load text original =
    with_tmp (fun path ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        match load path with
        | Ok v -> original = None || original = Some v
        | Error _ -> original = None
        | exception e ->
            QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 4)
        (triple (int_bound 2) nat (string_size ~gen:char (int_range 1 8))))
  in
  QCheck.Test.make ~name:"snapshot and trace loaders survive any bytes"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list (triple int int string)) gen)
    (fun mutations ->
      let original v = if mutations = [] then Some v else None in
      loads Workload.Snapshot.load
        (List.fold_left mutate snap_text mutations)
        (original snap)
      && loads Workload.Trace.load
           (List.fold_left mutate trace_text mutations)
           (original trace))

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest prop_loaders_survive_any_bytes ]
  )

(* random profiles always produce valid snapshots: exact page counts,
   no duplicates, all segment invariants *)
let prop_random_profiles_valid =
  let gen =
    QCheck.Gen.(
      int_range 50 800 >>= fun target ->
      float_range 0.0 0.9 >>= fun dense_frac ->
      float_range 0.0 0.15 >>= fun sparse_frac ->
      int_range 1 8 >>= fun lo ->
      int_range 0 16 >>= fun extra ->
      (* spread must comfortably fit the chunk/sparse budget, or
         placement legitimately fails with Invalid_argument *)
      int_range 13 18 >>= fun spread_bits ->
      return
        {
          Workload.Spec.name = "random";
          processes =
            [
              {
                Workload.Spec.pname = "p";
                target_pages = target;
                profile =
                  {
                    Workload.Spec.dense_frac;
                    chunk_pages = (lo, lo + extra);
                    sparse_frac;
                    spread_pages = Int64.shift_left 1L spread_bits;
                  };
              };
            ];
          trace = Workload.Spec.Pointer_chase;
          locality = 0.5;
          paper =
            {
              Workload.Spec.total_time_s = 0.;
              user_time_s = 0.;
              tlb_misses_k = 0;
              pct_tlb = 0;
              hashed_kb = 0;
            };
        })
  in
  QCheck.Test.make ~name:"random profiles generate valid snapshots" ~count:100
    (QCheck.make gen) (fun spec ->
      let snap = Workload.Snapshot.generate spec ~seed:77L in
      let pages = Workload.Snapshot.total_pages snap in
      let proc = List.hd snap.Workload.Snapshot.procs in
      let vpns = Workload.Snapshot.proc_vpns proc in
      let distinct =
        Array.to_list vpns |> List.sort_uniq Int64.unsigned_compare
      in
      pages = Workload.Spec.target_pages spec
      && List.length distinct = Array.length vpns
      && (* the trace generator also survives any profile *)
      Workload.Trace.accesses
        (Workload.Trace.generate spec snap ~seed:78L ~length:500)
      >= 500)

let suite =
  ( fst suite,
    snd suite @ [ QCheck_alcotest.to_alcotest prop_random_profiles_valid ] )

let prop_proc_vpns_sorted =
  QCheck.Test.make ~name:"proc_vpns ascending for every workload" ~count:1
    QCheck.unit (fun () ->
      List.for_all
        (fun spec ->
          let snap = Workload.Snapshot.generate spec ~seed:4L in
          List.for_all
            (fun p ->
              let v = Workload.Snapshot.proc_vpns p in
              let ok = ref true in
              for i = 1 to Array.length v - 1 do
                if Int64.unsigned_compare v.(i - 1) v.(i) >= 0 then ok := false
              done;
              !ok)
            snap.Workload.Snapshot.procs)
        Workload.Table1.all_with_kernel)

let suite =
  ( fst suite, snd suite @ [ QCheck_alcotest.to_alcotest prop_proc_vpns_sorted ] )
