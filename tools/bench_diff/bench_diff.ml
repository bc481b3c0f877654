(* bench_diff BASELINE.json CURRENT.json

   CI regression gate for the benchmark harness's --json output
   (schema_version 3).  Compares only the fields that are
   deterministic for a fixed (seed, --quick, --domains) invocation:

     - schema_version, quick, domains, the experiment key set
     - every claim name and its boolean
     - every lines-per-miss value
     - the churn tables minus wall clocks
     - the throughput rows minus ops/sec and elapsed time
     - the micro-benchmark name list (not the timings)

   Timing numbers vary run to run and machine to machine, so they are
   ignored; everything else drifting means the simulation's behaviour
   changed and the committed baseline must be regenerated consciously.

   Exit 0 when equivalent, 1 on drift (each difference on stderr),
   2 on usage or parse errors. *)

(* --- accessors --- *)

let get path root =
  List.fold_left
    (fun acc key ->
      match acc with Some v -> Jsonx.member key v | None -> None)
    (Some root) path

let pp = function
  | Jsonx.List _ -> "<list>"
  | Obj _ -> "<object>"
  | scalar -> Jsonx.to_string scalar

(* --- the comparison --- *)

let drift = ref 0

let report fmt =
  Printf.ksprintf
    (fun msg ->
      incr drift;
      Printf.eprintf "DRIFT: %s\n" msg)
    fmt

let check_scalar label path a b =
  match (get path a, get path b) with
  | Some va, Some vb when va = vb -> ()
  | Some va, Some vb -> report "%s: baseline %s, current %s" label (pp va) (pp vb)
  | None, Some _ -> report "%s: missing from baseline" label
  | Some _, None -> report "%s: missing from current" label
  | None, None -> report "%s: missing from both files" label

(* [experiments.<section>.<key>] for each key *)
let check_section section keys a b =
  List.iter
    (fun k ->
      check_scalar (section ^ "." ^ k) [ "experiments"; section; k ] a b)
    keys

let rows_of path root =
  match get path root with Some (Jsonx.List l) -> Some l | _ -> None

(* compare two row lists field-by-field, ignoring [ignored] keys;
   [key_of] names a row in messages; [row_ignored] adds per-row
   ignores keyed on the row itself (e.g. seqlock rows take read locks
   only on contention fallback, so their count is
   interleaving-dependent where every other mode's is exact) *)

let check_row_list label path ~key_of ?(row_ignored = fun _ -> []) ~ignored a b
    =
  match (rows_of path a, rows_of path b) with
  | None, None -> report "%s: missing from both files" label
  | None, Some _ -> report "%s: missing from baseline" label
  | Some _, None -> report "%s: missing from current" label
  | Some ra, Some rb ->
      if List.length ra <> List.length rb then
        report "%s: %d rows in baseline, %d in current" label
          (List.length ra) (List.length rb)
      else
        List.iter2
          (fun rowa rowb ->
            let name = key_of rowa in
            let ignored = ignored @ row_ignored rowa in
            match (rowa, rowb) with
            | Jsonx.Obj fa, Jsonx.Obj fb ->
                let keys l = List.map fst l in
                if
                  List.filter (fun k -> not (List.mem k ignored)) (keys fa)
                  <> List.filter (fun k -> not (List.mem k ignored)) (keys fb)
                then report "%s[%s]: field sets differ" label name
                else
                  List.iter
                    (fun (k, va) ->
                      if not (List.mem k ignored) then
                        match List.assoc_opt k fb with
                        | Some vb when va = vb -> ()
                        | Some vb ->
                            report "%s[%s].%s: baseline %s, current %s" label
                              name k (pp va) (pp vb)
                        | None -> ())
                    fa
            | _ -> report "%s[%s]: row is not an object" label name)
          ra rb

let key_str k row =
  match Jsonx.member k row with Some (Jsonx.Str s) -> s | _ -> "?"

let () =
  (match Sys.argv with
  | [| _; _; _ |] -> ()
  | _ ->
      prerr_endline "usage: bench_diff BASELINE.json CURRENT.json";
      exit 2);
  let load path =
    match Jsonx.load_file path with
    | Ok v -> v
    | Error e ->
        Printf.eprintf "bench_diff: %s\n" e;
        exit 2
  in
  let a = load Sys.argv.(1) and b = load Sys.argv.(2) in
  check_scalar "schema_version" [ "schema_version" ] a b;
  check_scalar "quick" [ "quick" ] a b;
  check_scalar "domains" [ "domains" ] a b;
  (* the experiment set itself; "telemetry" (the merged metrics dump,
     schema_version >= 3 with PR 4) is skipped entirely — the metric
     set grows with instrumentation and carries histogram totals, not
     paper results *)
  (match (get [ "experiments" ] a, get [ "experiments" ] b) with
  | Some (Jsonx.Obj ea), Some (Jsonx.Obj eb) ->
      let keys l =
        List.filter (fun k -> k <> "telemetry") (List.map fst l)
      in
      if keys ea <> keys eb then
        report "experiments: key sets differ (baseline %s; current %s)"
          (String.concat "," (keys ea))
          (String.concat "," (keys eb))
  | _ -> report "experiments: missing object");
  check_row_list "claims"
    [ "experiments"; "claims" ]
    ~key_of:(key_str "claim") ~ignored:[] a b;
  check_row_list "lines_per_miss"
    [ "experiments"; "lines_per_miss" ]
    ~key_of:(fun row ->
      Printf.sprintf "%s/%s" (key_str "design" row) (key_str "pt" row))
    ~ignored:[] a b;
  check_row_list "churn"
    [ "experiments"; "churn"; "tables" ]
    ~key_of:(fun row ->
      Printf.sprintf "%s/%s" (key_str "table" row) (key_str "policy" row))
    ~ignored:[] a b;
  (* contention counters are interleaving-dependent everywhere; under
     seqlock so is read_locks (fallback acquisitions only) *)
  let tp_key row =
    Printf.sprintf "%s/%s/%s" (key_str "table" row) (key_str "locking" row)
      (match Jsonx.member "domains" row with
      | Some (Jsonx.Num d) -> d
      | _ -> "?")
  in
  let tp_ignored =
    [
      "ops_per_sec";
      "elapsed_s";
      "read_contention";
      "seqlock_retries";
      "seqlock_fallbacks";
    ]
  in
  let tp_row_ignored row =
    if key_str "locking" row = "seqlock" then [ "read_locks" ] else []
  in
  check_row_list "throughput"
    [ "experiments"; "throughput"; "rows" ]
    ~key_of:tp_key ~row_ignored:tp_row_ignored ~ignored:tp_ignored a b;
  check_row_list "throughput_curve"
    [ "experiments"; "throughput"; "curve" ]
    ~key_of:tp_key ~row_ignored:tp_row_ignored ~ignored:tp_ignored a b;
  (* the NUMA replication matrix carries no timing columns — every
     field is deterministic and compared *)
  check_section "numa" [ "seed"; "locking" ] a b;
  check_row_list "numa"
    [ "experiments"; "numa"; "rows" ]
    ~key_of:(fun row ->
      Printf.sprintf "%s/%s/%s"
        (match Jsonx.member "nodes" row with
        | Some (Jsonx.Num d) -> d
        | _ -> "?")
        (key_str "mode" row) (key_str "org" row))
    ~ignored:[] a b;
  check_row_list "numa_policy"
    [ "experiments"; "numa"; "policy" ]
    ~key_of:(fun row ->
      Printf.sprintf "%s/%s" (key_str "org" row)
        (match Jsonx.member "nodes" row with
        | Some (Jsonx.Num d) -> d
        | _ -> "?"))
    ~ignored:[] a b;
  (* the multi-tenant fleet matrix: deterministic fields only — the
     per-event timing columns vary run to run and are ignored *)
  check_section "fleet"
    [ "seed"; "locking"; "tenants"; "shards"; "frame_budget" ]
    a b;
  check_row_list "fleet"
    [ "experiments"; "fleet"; "rows" ]
    ~key_of:(fun row ->
      Printf.sprintf "%s/%s" (key_str "org" row) (key_str "mode" row))
    ~ignored:[ "ops_per_sec"; "elapsed_s"; "p99_ns"; "mean_ns" ]
    a b;
  (* the chaos soak: every field is a deterministic function of (seed,
     schedule) except the two timing columns *)
  check_section "chaos"
    [ "seed"; "locking"; "tenants"; "shards"; "checkpoint_every" ]
    a b;
  check_section "chaos" [ "crash_offsets" ] a b;
  check_row_list "chaos"
    [ "experiments"; "chaos"; "rows" ]
    ~key_of:(key_str "org")
    ~ignored:[ "ops_per_sec"; "elapsed_s" ]
    a b;
  (* micro-benchmark names (the set of measured operations), not times *)
  (let names root =
     match rows_of [ "micro_ns_per_op" ] root with
     | Some rows -> Some (List.map (key_str "name") rows)
     | None -> None
   in
   match (names a, names b) with
   | Some na, Some nb when na = nb -> ()
   | Some _, Some _ -> report "micro_ns_per_op: benchmark name lists differ"
   | _ -> report "micro_ns_per_op: missing from a file");
  if !drift = 0 then begin
    print_endline "bench_diff: no drift in deterministic fields";
    exit 0
  end
  else begin
    Printf.eprintf "bench_diff: %d field(s) drifted\n" !drift;
    exit 1
  end
