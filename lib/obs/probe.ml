type report = {
  chain_length : Hist.t;
  occupancy : Hist.t;
  node_util : Hist.t;
}

let create () =
  {
    chain_length = Hist.create ();
    occupancy = Hist.create ();
    node_util = Hist.create ();
  }

let table (type a)
    (module T : Pt_common.Intf.CONCURRENT_TABLE with type t = a) ?into
    (t : a) =
  let r = match into with Some r -> r | None -> create () in
  for bucket = 0 to T.buckets t - 1 do
    Hist.observe r.chain_length (T.chain_length t ~bucket);
    let occupancy = ref 0 in
    T.iter_node_util t ~bucket (fun util ->
        Hist.observe r.node_util util;
        occupancy := !occupancy + util);
    Hist.observe r.occupancy !occupancy
  done;
  r

let to_metrics m ~prefix r =
  Hist.merge_into ~src:r.chain_length
    ~dst:(Metrics.hist m (prefix ^ ".chain_length"));
  Hist.merge_into ~src:r.occupancy
    ~dst:(Metrics.hist m (prefix ^ ".occupancy"));
  Hist.merge_into ~src:r.node_util
    ~dst:(Metrics.hist m (prefix ^ ".node_util"))

let pp ppf r =
  Format.fprintf ppf "chain length (nodes/bucket): %a@\n" Hist.pp
    r.chain_length;
  Format.fprintf ppf "bucket occupancy (mappings/bucket): %a@\n" Hist.pp
    r.occupancy;
  Format.fprintf ppf "node utilization (mappings/node): %a" Hist.pp
    r.node_util
