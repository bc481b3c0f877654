(* The one CI gate behind `ptsim report`.

   Two JSON artifacts go in — telemetry metrics dumps, simulation
   outcomes, whole benchmark files or perfbench result lines — and a
   finding list comes out.  Both are flattened to one key space and
   every key is judged by the first rule of one table that matches it:
   ignored (host-dependent), exact (deterministic), capped or held to a
   ratio of its baseline.  Any other shared key that changed is an
   informational delta.  Reads and writes JSON through Jsonx. *)

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
  let scalar key = function
    | Jsonx.Num _ as v -> Option.iter (emit key) (Jsonx.to_float v)
    | Jsonx.Bool b -> emit key (if b then 1.0 else 0.0)
    | _ -> ()
  in
  let rec obj prefix fields =
    List.iter
      (fun (key, v) ->
        if not (skipped_key key) then
          match v with
          | Jsonx.Obj inner ->
              (* "experiments" is a container, not a measurement — its
                 children flatten at top level so a bare outcome file
                 (prefixed by its "experiment" tag) lines up *)
              let prefix =
                if prefix = "" && key = "experiments" then "" else join prefix key
              in
              obj prefix inner
          | Jsonx.List rows -> row_list (join prefix key) rows
          | v -> scalar (join prefix key) v)
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
        | v -> scalar (Printf.sprintf "%s[%s]" prefix disc) v)
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

(* --- the rule table --- *)

type kind =
  | Ignore
  | Exact of int  (* significant digits *)
  | Cap of float
  | Ratio of { ratio : float; floor : float; absent_is_zero : bool }

type rule = { name : string; kind : kind; keys : string list }

let fields section names = List.map (fun n -> section ^ "." ^ n) names

(* The first rule whose key pattern matches decides a key; '*' matches
   any run of characters.  Bench sections are spelled out because the
   telemetry counters flatten to bare names that share their prefixes
   (fleet.touch.1, numa.catchups, throughput.ops.insert). *)
let rules =
  [
    (* what another host cannot reproduce: wall clocks, and the
       seqlock diagnostics, which depend on the interleaving (so do
       seqlock rows' read_locks: fallback acquisitions only) *)
    {
      name = "host-dependent";
      kind = Ignore;
      keys =
        [
          "*ops_per_sec"; "*elapsed_s"; "*wall_clock_s";
          "micro_ns_per_op[*].ns"; "*read_contention"; "*seqlock_retries";
          "*seqlock_fallbacks"; "throughput.*/seqlock*].read_locks";
          "fleet.op_ns.*"; "service.seqlock_*";
        ];
    };
    (* bench/main.exe --json: everything else in these sections is a
       function of (seed, --quick, --domains), micro words included *)
    {
      name = "bench drift";
      kind = Exact 17;
      keys =
        [
          "quick"; "domains"; "claims[*"; "lines_per_miss[*"; "churn.tables[*";
          "throughput.rows[*"; "throughput.curve[*"; "numa.rows[*";
          "numa.policy[*"; "numa.seed"; "numa.fault_rate_ppm"; "fleet.rows[*";
          "chaos.rows[*"; "chaos.crash_offsets[*";
          "micro_ns_per_op[*].minor_words";
        ]
        @ fields "fleet"
            [
              "seed"; "tenants"; "shards"; "streams"; "rounds";
              "ops_per_tenant"; "switch_every"; "frame_budget";
            ]
        @ fields "chaos"
            [
              "seed"; "tenants"; "shards"; "rounds"; "ops_per_tenant";
              "switch_every"; "checkpoint_every"; "recovery_delay";
              "retry_budget"; "rate_ppm";
            ];
    };
    (* perfbench's counted metrics, against a committed result line of
       the same command (one seed and --seconds) *)
    {
      name = "perfbench pin";
      kind = Exact 6;
      keys =
        fields "metrics"
          [
            "core.walk_lines.value"; "baselines.hashed_walk_lines.value";
            "pt_bytes_per_page.value"; "durable.restored_mappings.value";
            "durable.replayed_records.value";
            "durable.wal_bytes_per_page.value";
          ];
    };
    (* the miss path allocates only the translation it returns *)
    {
      name = "miss-path words";
      kind = Cap 40.0;
      keys = [ "metrics.core.walk_words.value" ];
    };
    (* batched range ops store one word per page *)
    {
      name = "range words per page";
      kind = Cap 20.0;
      keys = [ "metrics.service.range_words_per_page.value" ];
    };
    (* a saturated ring means the trace artifact is incomplete *)
    { name = "tracer drops"; kind = Cap 0.0; keys = [ "*obs.trace.dropped" ] };
    (* tiny counts ratio up violently (1 -> 3 evictions is not a storm),
       so a current value under the floor never breaches *)
    {
      name = "p99 regression";
      kind = Ratio { ratio = 1.5; floor = 64.0; absent_is_zero = false };
      keys = [ "*.p99"; "*p99_ns" ];
    };
    {
      name = "lock-contention spike";
      kind = Ratio { ratio = 1.5; floor = 128.0; absent_is_zero = false };
      keys = [ "*write_locks*" ];
    };
    {
      name = "eviction storm";
      kind = Ratio { ratio = 2.0; floor = 16.0; absent_is_zero = false };
      keys = [ "*evictions*"; "*evicted_pages*" ];
    };
    (* shards crash-looping or checkpoints no longer compacting *)
    {
      name = "recovery storm";
      kind = Ratio { ratio = 2.0; floor = 64.0; absent_is_zero = false };
      keys = [ "*replayed_records*" ];
    };
    (* tenant-visible unavailability: a run that starts rejecting when
       its baseline never did breaches (there is no ratio over zero) *)
    {
      name = "degraded-rejection surge";
      kind = Ratio { ratio = 2.0; floor = 1.0; absent_is_zero = true };
      keys = [ "*degraded_rejections*" ];
    };
  ]

(* does pattern [p] from [i] match key [k] from [j]? *)
let rec glob p i k j =
  if i = String.length p then j = String.length k
  else if p.[i] = '*' then
    glob p (i + 1) k j || (j < String.length k && glob p i k (j + 1))
  else j < String.length k && p.[i] = k.[j] && glob p (i + 1) k (j + 1)

let rule_of key =
  List.find_opt (fun r -> List.exists (fun p -> glob p 0 key 0) r.keys) rules

(* --- judging --- *)

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

(* A key's section: its first component. *)
let section key =
  List.hd (String.split_on_char '.' (List.hd (String.split_on_char '[' key)))

(* A bare outcome file (tagged by "experiment") is one section of a
   benchmark file: the other file's keys outside that section are not
   missing from it. *)
let covers doc key =
  match Jsonx.member "experiment" doc with
  | Some (Jsonx.Str tag) -> section key = tag
  | _ -> true

(* The note of a breach, or None.  A key an exact rule matches is
   drift when only one file has it and the other file [covers] it; caps
   judge the current value alone. *)
let judge ~covered ~base ~cur rule =
  match (rule.kind, base, cur) with
  | Exact d, Some b, Some c ->
      if Printf.sprintf "%.*g" d b = Printf.sprintf "%.*g" d c then None
      else
        Some
          (Printf.sprintf "%s: %+g, must equal the baseline" rule.name (c -. b))
  | Exact _, None, _ when covered ->
      Some (rule.name ^ ": missing from the baseline")
  | Exact _, _, None when covered ->
      Some (rule.name ^ ": missing from the current file")
  | Cap cap, _, Some c when c > cap ->
      Some (Printf.sprintf "%s: above the cap of %g" rule.name cap)
  | Ratio r, Some _, Some c
  | Ratio ({ absent_is_zero = true; _ } as r), None, Some c ->
      let b = Option.value ~default:0.0 base in
      if c > r.ratio *. b && c >= r.floor then
        Some
          (Printf.sprintf "%s: %.2fx over baseline (limit %.2fx, floor %g)"
             rule.name
             (if b > 0.0 then c /. b else infinity)
             r.ratio r.floor)
      else None
  | _ -> None

let compare_files ~baseline ~current =
  (* every key with the rule that decides it, ignored keys dropped *)
  let judged doc =
    List.filter_map
      (fun (k, v) ->
        match rule_of k with
        | Some { kind = Ignore; _ } -> None
        | rule -> Some (k, v, rule))
      (flatten doc)
  in
  let fb = judged baseline and fc = judged current in
  let table flat =
    let t = Hashtbl.create 256 in
    List.iter (fun (k, v, _) -> Hashtbl.replace t k v) flat;
    t
  in
  let base_tbl = table fb and cur_tbl = table fc in
  let finding ~other key rule ~base ~cur =
    let found severity note =
      Some { severity; key; baseline = base; current = cur; note }
    in
    match Option.bind rule (judge ~covered:(covers other key) ~base ~cur) with
    | Some note -> found Breach note
    | None -> (
        match (base, cur) with
        | Some b, Some c when b <> c ->
            found Info (Printf.sprintf "%+g" (c -. b))
        | _ -> None)
  in
  let findings =
    List.filter_map
      (fun (k, v, rule) ->
        finding ~other:baseline k rule ~base:(Hashtbl.find_opt base_tbl k)
          ~cur:(Some v))
      fc
    @ List.filter_map
        (fun (k, v, rule) ->
          if Hashtbl.mem cur_tbl k then None
          else finding ~other:current k rule ~base:(Some v) ~cur:None)
        fb
  in
  let breaches, infos =
    List.partition (fun f -> f.severity = Breach) findings
  in
  let compared =
    List.length (List.filter (fun (k, _, _) -> Hashtbl.mem base_tbl k) fc)
  in
  {
    findings = breaches @ infos;
    compared;
    baseline_only = List.length fb - compared;
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
       "  %d shared key(s) compared; %d baseline-only, %d current-only\n"
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
