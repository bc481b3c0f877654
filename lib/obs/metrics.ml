type counter = { mutable value : int }

type t = {
  counters : (string, counter) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { value = 0 } in
      Hashtbl.add t.counters name c;
      c

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists name h;
      h

let incr c = c.value <- c.value + 1

let add c n = c.value <- c.value + n

let value c = c.value

let clear t =
  Hashtbl.iter (fun _ c -> c.value <- 0) t.counters;
  Hashtbl.iter (fun _ h -> Hist.clear h) t.hists

let merge_into ~src ~dst =
  Hashtbl.iter
    (fun name (c : counter) ->
      let d = counter dst name in
      d.value <- d.value + c.value)
    src.counters;
  Hashtbl.iter
    (fun name h -> Hist.merge_into ~src:h ~dst:(hist dst name))
    src.hists

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters t =
  by_name (Hashtbl.fold (fun k c acc -> (k, c.value) :: acc) t.counters [])

let hists t = by_name (Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.hists [])

let equal a b =
  let nonzero l = List.filter (fun (_, v) -> v <> 0) l in
  let nonempty l = List.filter (fun (_, h) -> Hist.count h <> 0) l in
  nonzero (counters a) = nonzero (counters b)
  &&
  let ha = nonempty (hists a) and hb = nonempty (hists b) in
  List.length ha = List.length hb
  && List.for_all2
       (fun (na, va) (nb, vb) -> String.equal na nb && Hist.equal va vb)
       ha hb

(* --- JSON --- *)

let json_fields t =
  let named name rest = Jsonx.obj (("name", Jsonx.string name) :: rest) in
  let hist (name, h) =
    let buckets = ref [] in
    Hist.iter_nonzero h (fun k c ->
        buckets :=
          Jsonx.obj
            [
              ("lo", Jsonx.int (Hist.bucket_lo k));
              ("hi", Jsonx.int (Hist.bucket_hi k)); ("count", Jsonx.int c);
            ]
          :: !buckets);
    named name
      [
        ("count", Jsonx.int (Hist.count h)); ("sum", Jsonx.int (Hist.sum h));
        ("min", Jsonx.int (Hist.min_value h));
        ("max", Jsonx.int (Hist.max_value h));
        ("buckets", Jsonx.list (List.rev !buckets));
      ]
  in
  [
    ( "counters",
      Jsonx.list
        (List.map
           (fun (name, v) -> named name [ ("value", Jsonx.int v) ])
           (counters t)) );
    ("histograms", Jsonx.list (List.map hist (hists t)));
  ]

(* --- OpenMetrics (Prometheus text exposition) --- *)

(* Metric names allow only [a-zA-Z0-9_:]; our dotted names become
   underscored ("throughput.ops.insert" -> "ptsim_throughput_ops_insert"). *)
let add_sanitized buf name =
  Buffer.add_string buf "ptsim_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
          Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name

let to_openmetrics t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf "# TYPE ";
      add_sanitized buf name;
      Buffer.add_string buf " counter\n";
      add_sanitized buf name;
      Buffer.add_string buf (Printf.sprintf "_total %d\n" v))
    (counters t);
  List.iter
    (fun (name, h) ->
      Buffer.add_string buf "# TYPE ";
      add_sanitized buf name;
      Buffer.add_string buf " histogram\n";
      let cum = ref 0 in
      Hist.iter_nonzero h (fun k c ->
          cum := !cum + c;
          add_sanitized buf name;
          Buffer.add_string buf
            (Printf.sprintf "_bucket{le=\"%d\"} %d\n" (Hist.bucket_hi k) !cum));
      add_sanitized buf name;
      Buffer.add_string buf
        (Printf.sprintf "_bucket{le=\"+Inf\"} %d\n" (Hist.count h));
      add_sanitized buf name;
      Buffer.add_string buf (Printf.sprintf "_sum %d\n" (Hist.sum h));
      add_sanitized buf name;
      Buffer.add_string buf (Printf.sprintf "_count %d\n" (Hist.count h)))
    (hists t);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let pp ppf t =
  List.iter (fun (name, v) -> Format.fprintf ppf "%s = %d@\n" name v)
    (counters t);
  List.iter
    (fun (name, h) -> Format.fprintf ppf "%s: %a@\n" name Hist.pp h)
    (hists t)
