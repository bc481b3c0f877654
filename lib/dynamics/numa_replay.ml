(* Churn replay across a NUMA-replicated service.

   {!Service_replay} drives a lifecycle trace at one shared service;
   this replay drives the same trace at a {!Numa.Replicated} table
   set.  {!Fleet_replay.run_families} replays family [f] (in
   first-appearance order) on soak stream [f], and its backend pins
   the family to node [f mod nodes]: a family's mmap/touch/exit
   traffic originates on its node.  The family-to-node binding depends
   only on the trace, never on the domain count.

   Determinism: families touch disjoint keys, so per-family tallies
   (inserts, touch hits/faults, ...) and the final mapping set are
   interleaving-invariant.  Replica-write totals are read {e after}
   quiesce, where every journaled op has been applied to every replica
   exactly once — [replica_writes = logical_writes x nodes] in every
   mode — so the result is bit-identical for any [domains] even under
   lazy replication, whose mid-run catch-up schedule is scheduling
   -dependent.  Walk-line and catch-up-episode figures are exactly the
   quantities that are NOT invariant here (families share hash
   chains); the bucket-partitioned {!Numa.Numa_sim} driver owns
   those. *)

module R = Numa.Replicated

type result = {
  events : int;
  families : int;
  nodes : int;
  mode : R.mode;
  inserts : int;
  removes : int;
  protects : int;
  touch_hits : int;
  touch_faults : int;
  forks : int;
  exits : int;
  logical_writes : int;
  replica_writes : int;
  population : int;
  fsck_clean : bool;
}

(* the replicated table takes page-granular writes, one per page *)
let per_page (r : Addr.Region.t) f =
  Addr.Region.iter_vpns r f;
  r.Addr.Region.pages

let run ?(domains = 1) ~machine ~org ~locking ~mode (trace : Workload.Trace.t)
    =
  let nodes = Numa.Machine.nodes machine in
  let repl = R.create ~machine ~org ~locking ~mode () in
  let ops f =
    let node = f mod nodes in
    {
      Fleet_replay.map =
        (fun r ->
          per_page r (fun vpn ->
              R.insert ~node repl ~vpn ~ppn:(Int64.logand vpn 0xFFF_FFFFL)
                ~attr:Pte.Attr.default));
      unmap = (fun r -> per_page r (fun vpn -> R.remove ~node repl ~vpn));
      protect =
        (fun r ~writable ->
          per_page r (fun vpn -> R.protect_page ~node repl ~vpn ~writable));
      touch = (fun vpn -> R.lookup repl ~node ~vpn);
    }
  in
  let cursors =
    Fleet_replay.run_families ~epochs:(R.reader_epochs repl) ~domains ops
      trace
  in
  R.quiesce repl;
  let y = Fleet_replay.tally_sum cursors in
  let stats = R.stats repl in
  {
    events = Array.length trace;
    families = Array.length cursors;
    nodes;
    mode;
    inserts = y.pages_mapped;
    removes = y.pages_unmapped;
    protects = y.protects;
    touch_hits = y.touch_hits;
    touch_faults = y.touch_faults;
    forks = y.forks;
    exits = y.exits;
    logical_writes = stats.R.logical_writes;
    replica_writes = stats.R.replica_writes;
    population = R.population repl;
    fsck_clean = Fsck.clean (R.fsck repl);
  }
