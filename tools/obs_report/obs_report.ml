(* The anomaly gate behind `ptsim report`.

   Two JSON artifacts go in — telemetry metrics dumps, simulation
   outcomes, or whole benchmark files — and a finding list comes out:
   threshold breaches (p99 regressions, lock-contention spikes,
   eviction storms, tracer drops) plus informational deltas on every
   other shared key.  Keys present on only one side are counted and
   ignored, so `ptsim fleet --quick --json` (no timing fields) gates
   cleanly against the committed benchmark baseline (timing fields
   included).  Reads and writes JSON through Jsonx. *)

(* --- histogram quantiles from serialized buckets --- *)

(* The same clamped within-bucket interpolation as Obs.Hist.quantile,
   replayed over the (lo, hi, count) bucket triples a metrics JSON dump
   carries, so a p99 computed here equals the live histogram's.  The
   (0, 0) bucket is the log2 histogram's "v <= 0" bin; like the live
   version its lower bound extends down to the observed minimum. *)
let bucket_quantile ~count ~vmin ~vmax buckets ~q =
  if count = 0 then 0
  else begin
    let target =
      max 1 (min count (int_of_float (Float.ceil (q *. float_of_int count))))
    in
    let rec walk seen = function
      | [] -> vmax
      | (lo, hi, here) :: rest ->
          if here > 0 && seen + here >= target then begin
            let lo = if lo = 0 && hi = 0 then min 0 vmin else max lo vmin in
            let hi = min hi vmax in
            let pos = target - seen in
            if here = 1 then hi else hi - ((hi - lo) * (here - pos) / (here - 1))
          end
          else walk (seen + here) rest
    in
    walk 0 buckets
  end

(* --- flattening --- *)

let int_of v = Option.map int_of_float (Jsonx.to_float v)

(* Keys that identify or annotate a document rather than measure it. *)
let skipped_key = function
  | "schema_version" | "command" | "experiment" | "series" -> true
  | _ -> false

let join prefix key = if prefix = "" then key else prefix ^ "." ^ key

(* {"name": n, "count": _, "min": _, "max": _, "buckets": [...]} — a
   telemetry histogram row; flattens to n.count/.p50/.p90/.p99. *)
let hist_row fields =
  match
    ( List.assoc_opt "name" fields,
      List.assoc_opt "count" fields,
      List.assoc_opt "min" fields,
      List.assoc_opt "max" fields,
      List.assoc_opt "buckets" fields )
  with
  | ( Some (Jsonx.Str name),
      Some (Jsonx.Num _ as c),
      Some (Jsonx.Num _ as mn),
      Some (Jsonx.Num _ as mx),
      Some (Jsonx.List bs) ) ->
      let buckets =
        List.filter_map
          (fun b ->
            match
              ( Jsonx.member "lo" b,
                Jsonx.member "hi" b,
                Jsonx.member "count" b )
            with
            | Some lo, Some hi, Some c -> (
                match (int_of lo, int_of hi, int_of c) with
                | Some lo, Some hi, Some c -> Some (lo, hi, c)
                | _ -> None)
            | _ -> None)
          bs
      in
      let count = Option.get (int_of c) in
      let vmin = Option.get (int_of mn) and vmax = Option.get (int_of mx) in
      let quant q =
        float_of_int (bucket_quantile ~count ~vmin ~vmax buckets ~q)
      in
      Some
        ( name,
          [
            ("count", float_of_int count);
            ("p50", quant 0.50);
            ("p90", quant 0.90);
            ("p99", quant 0.99);
          ] )
  | _ -> None

(* {"name": n, "value": v} — a telemetry counter row. *)
let counter_row fields =
  match (List.assoc_opt "name" fields, List.assoc_opt "value" fields) with
  | Some (Jsonx.Str name), Some v when List.length fields = 2 ->
      Option.map (fun f -> (name, f)) (Jsonx.to_float v)
  | _ -> None

(* A row's identity within its list: its string-valued fields joined
   with '/', or its position when it has none. *)
let row_discriminator i fields =
  match
    List.filter_map
      (function
        | k, Jsonx.Str s when not (skipped_key k) -> Some (k, s) | _ -> None)
      fields
  with
  | [] -> string_of_int i
  | tagged -> String.concat "/" (List.map snd tagged)

let flatten root =
  let acc = ref [] in
  let emit key v = acc := (key, v) :: !acc in
  let rec obj prefix fields =
    List.iter
      (fun (key, v) ->
        if not (skipped_key key) then
          match v with
          | Jsonx.Num _ ->
              Option.iter (emit (join prefix key)) (Jsonx.to_float v)
          | Jsonx.Bool b -> emit (join prefix key) (if b then 1.0 else 0.0)
          | Jsonx.Str _ | Jsonx.Null -> ()
          | Jsonx.Obj inner ->
              (* "experiments" is a container, not a measurement — its
                 children flatten at top level so a bare outcome file
                 (prefixed by its "experiment" tag) lines up *)
              let prefix =
                if prefix = "" && key = "experiments" then "" else join prefix key
              in
              obj prefix inner
          | Jsonx.List rows -> row_list (join prefix key) rows)
      fields
  and row_list prefix rows =
    (* rows sharing every string field (e.g. throughput sweeps keyed
       by table/locking but differing in a numeric domain count) get
       an occurrence ordinal so distinct rows never collide; row order
       is stable on both sides, so the keys still line up *)
    let discs =
      List.mapi
        (fun i row ->
          match row with
          | Jsonx.Obj fields -> row_discriminator i fields
          | _ -> string_of_int i)
        rows
    in
    let total = Hashtbl.create 8 and seen = Hashtbl.create 8 in
    List.iter
      (fun d ->
        Hashtbl.replace total d
          (1 + Option.value ~default:0 (Hashtbl.find_opt total d)))
      discs;
    let unique d =
      if Hashtbl.find total d = 1 then d
      else begin
        let n = Option.value ~default:0 (Hashtbl.find_opt seen d) in
        Hashtbl.replace seen d (n + 1);
        Printf.sprintf "%s#%d" d n
      end
    in
    List.iter2
      (fun disc row ->
        match row with
        | Jsonx.Obj fields -> (
            match counter_row fields with
            | Some (name, v) -> emit name v
            | None -> (
                match hist_row fields with
                | Some (name, stats) ->
                    List.iter (fun (k, v) -> emit (join name k) v) stats
                | None ->
                    obj (Printf.sprintf "%s[%s]" prefix (unique disc)) fields))
        | _ -> ())
      discs rows
  in
  (match root with
  | Jsonx.Obj fields ->
      let prefix =
        match List.assoc_opt "experiment" fields with
        | Some (Jsonx.Str tag) -> tag
        | _ -> ""
      in
      obj prefix fields
  | _ -> ());
  List.rev !acc

(* --- the anomaly rules --- *)

type severity = Info | Breach

type finding = {
  severity : severity;
  key : string;
  baseline : float option;
  current : float option;
  note : string;
}

type report = {
  findings : finding list;
  compared : int;
  baseline_only : int;
  current_only : int;
}

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  ls > 0 && go 0

let p99_key k =
  String.ends_with ~suffix:".p99" k || String.ends_with ~suffix:"p99_ns" k

let contention_key k =
  contains ~sub:"write_locks" k
  || contains ~sub:"read_contention" k
  || contains ~sub:"seqlock_fallbacks" k

let eviction_key k =
  contains ~sub:"evictions" k || contains ~sub:"evicted_pages" k

let dropped_key k = String.ends_with ~suffix:"obs.trace.dropped" k

(* recovery.replayed_records and its chaos-row mirror: a jump means
   shards are crash-looping or checkpoints stopped compacting *)
let recovery_key k = contains ~sub:"replayed_records" k

(* degraded_rejections is tenant-visible unavailability: a run that
   starts rejecting when its baseline never did breaches outright
   (there is no ratio over zero), and an established count may at most
   double — crash soaks that expect a fixed rejection count are also
   gated by bench_diff's exact row equality *)
let rejection_key k = contains ~sub:"degraded_rejections" k

(* Each rule needs both a ratio and an absolute floor: tiny counts
   ratio up violently (1 -> 3 evictions is not a storm), so a current
   value under the floor never breaches. *)
let ratio_rule ~name ~ratio ~floor ~base ~cur =
  if cur > ratio *. base && cur >= floor then
    Some
      (Printf.sprintf "%s: %.2fx over baseline (limit %.2fx, floor %g)" name
         (if base > 0.0 then cur /. base else infinity)
         ratio floor)
  else None

let judge ~key ~base ~cur =
  if p99_key key then
    ratio_rule ~name:"p99 regression" ~ratio:1.5 ~floor:64.0 ~base ~cur
  else if contention_key key then
    ratio_rule ~name:"lock-contention spike" ~ratio:1.5 ~floor:128.0 ~base ~cur
  else if eviction_key key then
    ratio_rule ~name:"eviction storm" ~ratio:2.0 ~floor:16.0 ~base ~cur
  else if recovery_key key then
    ratio_rule ~name:"recovery storm" ~ratio:2.0 ~floor:64.0 ~base ~cur
  else if rejection_key key then
    ratio_rule ~name:"degraded-rejection surge" ~ratio:2.0 ~floor:1.0 ~base
      ~cur
  else None

let compare_files ~baseline ~current =
  let fb = flatten baseline and fc = flatten current in
  let base_tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace base_tbl k v) fb;
  let cur_tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace cur_tbl k v) fc;
  let finding (key, cur) =
    let base = Hashtbl.find_opt base_tbl key in
    let found severity note =
      Some { severity; key; baseline = base; current = Some cur; note }
    in
    match base with
    (* tracer drops and degraded rejections breach even with no
       baseline counterpart: a saturated ring means the trace artifact
       is incomplete, and a rejection means a tenant saw
       unavailability *)
    | _ when dropped_key key && cur > 0.0 ->
        found Breach
          (Printf.sprintf "tracer dropped %g event(s); must be 0" cur)
    | None when rejection_key key && cur > 0.0 ->
        found Breach
          (Printf.sprintf
             "%g degraded rejection(s) with no baseline counterpart: \
              tenants saw unavailability a baseline run never did"
             cur)
    | None -> None
    | Some base -> (
        match judge ~key ~base ~cur with
        | Some note -> found Breach note
        | None when cur <> base ->
            found Info (Printf.sprintf "%+g" (cur -. base))
        | None -> None)
  in
  let breaches, infos =
    List.partition (fun f -> f.severity = Breach) (List.filter_map finding fc)
  in
  let compared =
    List.length (List.filter (fun (k, _) -> Hashtbl.mem base_tbl k) fc)
  in
  {
    findings = breaches @ infos;
    compared;
    baseline_only =
      List.length (List.filter (fun (k, _) -> not (Hashtbl.mem cur_tbl k)) fb);
    current_only = List.length fc - compared;
  }

let has_breach r = List.exists (fun f -> f.severity = Breach) r.findings

(* --- rendering --- *)

(* the same number format as the JSON rendering *)
let pp_num = function None -> "-" | Some f -> Jsonx.to_string (Jsonx.float f)

let render_table ~baseline_path ~current_path r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "obs report: %s vs %s\n" baseline_path current_path);
  Buffer.add_string b
    (Printf.sprintf
       "  %d shared key(s) compared; ignored %d baseline-only, %d \
        current-only\n"
       r.compared r.baseline_only r.current_only);
  let key_w =
    List.fold_left (fun w f -> max w (String.length f.key)) 8 r.findings
  in
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  %-6s %-*s %12s %12s  %s\n"
           (match f.severity with Breach -> "BREACH" | Info -> "info")
           key_w f.key (pp_num f.baseline) (pp_num f.current) f.note))
    r.findings;
  let nb = List.length (List.filter (fun f -> f.severity = Breach) r.findings) in
  Buffer.add_string b
    (Printf.sprintf "  %d breach(es), %d info finding(s)\n" nb
       (List.length r.findings - nb));
  Buffer.contents b

let render_json ~baseline_path ~current_path r =
  let num = function None -> Jsonx.null | Some f -> Jsonx.float f in
  let finding f =
    let severity = if f.severity = Breach then "breach" else "info" in
    Jsonx.obj
      [
        ("severity", Jsonx.string severity);
        ("key", Jsonx.string f.key); ("baseline", num f.baseline);
        ("current", num f.current); ("note", Jsonx.string f.note);
      ]
  in
  let nb = List.length (List.filter (fun f -> f.severity = Breach) r.findings) in
  Jsonx.obj
    [
      ("schema_version", Jsonx.int 1); ("kind", Jsonx.string "obs_report");
      ("baseline", Jsonx.string baseline_path);
      ("current", Jsonx.string current_path);
      ("compared", Jsonx.int r.compared);
      ("baseline_only", Jsonx.int r.baseline_only);
      ("current_only", Jsonx.int r.current_only); ("breaches", Jsonx.int nb);
      ("findings", Jsonx.list (List.map finding r.findings));
    ]
