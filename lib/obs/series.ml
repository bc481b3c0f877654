type sample = {
  index : int;
  counters : (string * int) list;  (* deltas (mark) or values (push) *)
  quantiles : (string * int * int * int) list;  (* name, p50, p90, p99 *)
}

type group = { label : string; mutable samples : sample list (* reversed *) }

let groups : group list ref = ref []  (* reversed *)

let prev : (string, int) Hashtbl.t = Hashtbl.create 64

let reset () =
  groups := [];
  Hashtbl.reset prev

let group_for label =
  match List.find_opt (fun g -> g.label = label) !groups with
  | Some g -> g
  | None ->
      let g = { label; samples = [] } in
      groups := g :: !groups;
      g

(* Timing metrics ("..._ns", "...op_ns.clustered...") vary run to run;
   the series must stay byte-identical for any --domains, so they are
   excluded. *)
let timing_name name =
  let n = String.length name in
  let rec scan i =
    if i + 3 > n then false
    else if
      name.[i] = '_'
      && name.[i + 1] = 'n'
      && name.[i + 2] = 's'
      && (i + 3 = n || name.[i + 3] = '.')
    then true
    else scan (i + 1)
  in
  scan 0

let push ~label ~index counters =
  let g = group_for label in
  g.samples <- { index; counters; quantiles = [] } :: g.samples

(* Snapshot the merged ambient registry: counter deltas since the last
   [mark] (any label), cumulative p50/p90/p99 per histogram.  Only
   valid at a barrier, where the merge is domain-invariant. *)
let mark ~label ~index =
  let m = Ambient.merged () in
  let counters =
    List.filter_map
      (fun (name, v) ->
        if timing_name name then None
        else begin
          let before =
            match Hashtbl.find_opt prev name with Some p -> p | None -> 0
          in
          Hashtbl.replace prev name v;
          if v = before then None else Some (name, v - before)
        end)
      (Metrics.counters m)
  in
  let quantiles =
    List.filter_map
      (fun (name, h) ->
        if timing_name name || Hist.count h = 0 then None
        else
          Some
            ( name,
              Hist.quantile h ~q:0.5,
              Hist.quantile h ~q:0.9,
              Hist.quantile h ~q:0.99 ))
      (Metrics.hists m)
  in
  let g = group_for label in
  g.samples <- { index; counters; quantiles } :: g.samples

let max_points = 64

let downsample samples =
  let n = List.length samples in
  if n <= max_points then samples
  else begin
    let stride = (n + max_points - 1) / max_points in
    let arr = Array.of_list samples in
    let kept = ref [] in
    let i = ref 0 in
    while !i < n do
      kept := arr.(!i) :: !kept;
      i := !i + stride
    done;
    (* keep the final point so the series ends where the run ended *)
    (match !kept with
    | last :: _ when last != arr.(n - 1) -> kept := arr.(n - 1) :: !kept
    | _ -> ());
    List.rev !kept
  end

let sample_to_json s =
  let named name fields =
    Jsonx.obj
      (("name", Jsonx.string name)
      :: List.map (fun (k, v) -> (k, Jsonx.int v)) fields)
  in
  let counter (name, d) = named name [ ("delta", d) ] in
  let quantiles (name, p50, p90, p99) =
    named name [ ("p50", p50); ("p90", p90); ("p99", p99) ]
  in
  Jsonx.obj
    [
      ("i", Jsonx.int s.index);
      ("counters", Jsonx.list (List.map counter s.counters));
      ("quantiles", Jsonx.list (List.map quantiles s.quantiles));
    ]

let to_json () =
  Jsonx.list
    (List.rev_map
       (fun g ->
         Jsonx.obj
           [
             ("label", Jsonx.string g.label);
             ( "points",
               Jsonx.list
                 (List.map sample_to_json (downsample (List.rev g.samples))) );
           ])
       !groups)

let point_count () =
  List.fold_left (fun acc g -> acc + List.length g.samples) 0 !groups
