(* Churn replay through the concurrent page-table service.

   {!Engine} interprets a lifecycle trace sequentially, one private
   table per process.  This replay drives the same trace at a shared
   {!Pt_service.Service.t}: every process's pages live in ONE table
   (the pid folded into the key by {!Fleet_replay.local_key}, as a
   global hashed/clustered table tags PTEs with an address-space id),
   and {!Fleet_replay.run_families} replays independent process
   families on separate soak streams.  Region events take the
   service's batched range path.  Families touch disjoint keys and
   each replays in trace order, so the result is identical for every
   [domains] count while the stripes underneath are genuinely
   contended. *)

module Service = Pt_service.Service

type result = {
  events : int;
  families : int;
  inserts : int;
  removes : int;
  protects : int;
  touch_hits : int;
  touch_faults : int;
  forks : int;
  exits : int;
  final_population : int;
  read_locks : int;
  write_locks : int;
}

let ppn_of vpn = Int64.logand vpn 0xFFF_FFFFL

let run ?(domains = 1) ~org ~locking (trace : Workload.Trace.t) =
  let svc = Service.create ~org ~locking () in
  let ops _ =
    {
      Fleet_replay.map =
        (fun r -> Service.map_range svc r ~ppn_of ~attr:Pte.Attr.default);
      unmap = (fun r -> Service.unmap_range svc r);
      protect = (fun r ~writable -> Service.protect_range svc r ~writable);
      touch = (fun vpn -> Service.lookup svc ~vpn);
    }
  in
  let cursors =
    Fleet_replay.run_families
      ~epochs:(Option.to_list (Service.reader_epoch svc))
      ~domains ops trace
  in
  let y = Fleet_replay.tally_sum cursors in
  let stats = Service.lock_stats svc in
  {
    events = Array.length trace;
    families = Array.length cursors;
    inserts = y.pages_mapped;
    removes = y.pages_unmapped;
    protects = y.protects;
    touch_hits = y.touch_hits;
    touch_faults = y.touch_faults;
    forks = y.forks;
    exits = y.exits;
    final_population = Service.population svc;
    read_locks = stats.Service.read_acquisitions;
    write_locks = stats.Service.write_acquisitions;
  }
