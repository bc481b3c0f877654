(* Per-domain throughput benchmark for the shared service.

   The unit of work is an {!Exec.Soak} stream: a seeded,
   self-contained lookup/insert/remove/protect loop over its own
   disjoint VPN range, so the set of operations issued depends only on
   the stream count, never on how many domains execute them.
   [streams = 0] (the default) means one stream per domain.

   Each stream owns a disjoint VPN range — keys never collide, so the
   final table state is independent of interleaving — but ranges hash
   into the same 4096 buckets, so stripes are genuinely contended.

   Phases: prepopulate (each stream inserts every other page of its
   range, untimed) then a timed mixed loop.  The pool is created
   before and shut down after the timed region, so domain startup is
   never measured; lookups go through the allocation-free
   [lookup_into] path with a per-stream accumulator, so the timed loop
   is GC-quiet.

   Telemetry (into the executing domain's {!Obs.Ambient} shard) is
   restricted to interleaving-invariant quantities: per-op-kind
   counters, lookup hits/misses (a stream only looks up its own keys),
   and the protect-search histogram.  Per-lookup walk lengths are NOT
   recorded here — shared chains make them depend on the interleaving
   — so the merged registry of a run is identical for any [domains]
   given the same [streams], seed and op count.  A structural probe of
   the final table (also interleaving-invariant) lands under
   [service.*]. *)

type mix = {
  lookup_pct : int;
  insert_pct : int;
  remove_pct : int;
  protect_pct : int;
}

let default_mix =
  { lookup_pct = 70; insert_pct = 15; remove_pct = 10; protect_pct = 5 }

(* The lock-free read path's showcase mix: lookup-dominated, with just
   enough churn that writers really do bump sequence counters and
   retire nodes through limbo, and no protects (their per-block write
   locking would swamp the signal and make [write_locks]
   interleaving-dependent across lock modes). *)
let read_mostly_mix =
  { lookup_pct = 98; insert_pct = 1; remove_pct = 1; protect_pct = 0 }

let check_mix m =
  if m.lookup_pct < 0 || m.insert_pct < 0 || m.remove_pct < 0
     || m.protect_pct < 0
     || m.lookup_pct + m.insert_pct + m.remove_pct + m.protect_pct <> 100
  then invalid_arg "Throughput: mix percentages must be >= 0 and sum to 100"

type config = {
  domains : int;
  streams : int;  (** 0 = one stream per domain *)
  ops_per_domain : int;
  vpns_per_domain : int;
  protect_pages : int;  (** span of each protect region *)
  buckets : int;  (** table buckets = lock stripes *)
  mix : mix;
  seed : int;
}

let default_config =
  {
    domains = 1;
    streams = 0;
    ops_per_domain = 100_000;
    vpns_per_domain = 4_096;
    protect_pages = 64;
    buckets = 4096;
    mix = default_mix;
    seed = 42;
  }

let stream_count cfg = if cfg.streams = 0 then cfg.domains else cfg.streams

type result = {
  org : Service.org;
  locking : Service.locking;
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_sec : float;
  lookups_hit : int;
  read_locks : int;
  write_locks : int;
  read_contention : int;
  seqlock_retries : int;
  seqlock_fallbacks : int;
  population : int;
}

(* Each stream's keys start well away from VPN 0 and from each other;
   the stride keeps ranges disjoint for any sane config. *)
let stream_base cfg stream =
  Int64.add 0x10_0000L
    (Int64.mul (Int64.of_int stream) (Int64.of_int cfg.vpns_per_domain))

(* identity placement folded into the PTE's 28-bit PPN field *)
let ppn_for vpn = Int64.logand vpn 0xFFF_FFFFL

let prepopulate svc cfg stream =
  let base = stream_base cfg stream in
  let i = ref 0 in
  while !i < cfg.vpns_per_domain do
    let vpn = Int64.add base (Int64.of_int !i) in
    Service.insert svc ~vpn ~ppn:(ppn_for vpn) ~attr:Pte.Attr.default;
    i := !i + 2
  done

let mixed_loop svc cfg stream hits =
  let rng = Random.State.make [| cfg.seed; stream; 0x9e3779b9 |] in
  let acc = Mem.Walk_acc.create () in
  let base = stream_base cfg stream in
  let m = cfg.mix in
  let hit = ref 0 in
  (* handles into this domain's metric shard, hoisted off the loop *)
  let shard = Obs.Ambient.get () in
  let c_lookup = Obs.Metrics.counter shard "throughput.ops.lookup"
  and c_insert = Obs.Metrics.counter shard "throughput.ops.insert"
  and c_remove = Obs.Metrics.counter shard "throughput.ops.remove"
  and c_protect = Obs.Metrics.counter shard "throughput.ops.protect"
  and c_hit = Obs.Metrics.counter shard "throughput.lookup.hit"
  and c_miss = Obs.Metrics.counter shard "throughput.lookup.miss"
  and h_searches = Obs.Metrics.hist shard "throughput.protect_searches" in
  for _ = 1 to cfg.ops_per_domain do
    let o = Random.State.int rng cfg.vpns_per_domain in
    let vpn = Int64.add base (Int64.of_int o) in
    let r = Random.State.int rng 100 in
    if r < m.lookup_pct then begin
      Obs.Metrics.incr c_lookup;
      Mem.Walk_acc.reset acc;
      if Service.lookup_into svc acc ~vpn then begin
        incr hit;
        Obs.Metrics.incr c_hit
      end
      else Obs.Metrics.incr c_miss
    end
    else if r < m.lookup_pct + m.insert_pct then begin
      Obs.Metrics.incr c_insert;
      Service.insert svc ~vpn ~ppn:(ppn_for vpn) ~attr:Pte.Attr.default
    end
    else if r < m.lookup_pct + m.insert_pct + m.remove_pct then begin
      Obs.Metrics.incr c_remove;
      Service.remove svc ~vpn
    end
    else begin
      Obs.Metrics.incr c_protect;
      let pages = min cfg.protect_pages (cfg.vpns_per_domain - o) in
      let region = Addr.Region.make ~first_vpn:vpn ~pages in
      let searches = Service.protect svc region ~writable:(r land 1 = 0) in
      Obs.Hist.observe h_searches searches
    end
  done;
  hits.(stream) <- !hit

let run ~org ~locking cfg =
  check_mix cfg.mix;
  if cfg.domains < 1 then invalid_arg "Throughput.run: domains must be >= 1";
  if cfg.streams < 0 then invalid_arg "Throughput.run: streams must be >= 0";
  if cfg.vpns_per_domain < 2 then
    invalid_arg "Throughput.run: vpns_per_domain must be >= 2";
  let streams = stream_count cfg in
  let svc = Service.create ~buckets:cfg.buckets ~org ~locking () in
  let hits = Array.make streams 0 in
  let result =
    Exec.Soak.with_streams
      ~epochs:(Option.to_list (Service.reader_epoch svc))
      ~domains:cfg.domains ~streams
      (fun soak ->
        Exec.Soak.each soak (prepopulate svc cfg);
        let stats0 = Service.lock_stats svc in
        let sqr0 = Service.seqlock_retries svc in
        let sqf0 = Service.seqlock_fallbacks svc in
        let t0 = Unix.gettimeofday () in
        Exec.Soak.each soak (fun s -> mixed_loop svc cfg s hits);
        let t1 = Unix.gettimeofday () in
        let stats1 = Service.lock_stats svc in
        let total_ops = streams * cfg.ops_per_domain in
        let elapsed_s = t1 -. t0 in
        {
          org;
          locking;
          domains = cfg.domains;
          total_ops;
          elapsed_s;
          ops_per_sec =
            (if elapsed_s > 0. then float_of_int total_ops /. elapsed_s
             else infinity);
          lookups_hit = Array.fold_left ( + ) 0 hits;
          read_locks =
            stats1.Service.read_acquisitions - stats0.Service.read_acquisitions;
          write_locks =
            stats1.Service.write_acquisitions
            - stats0.Service.write_acquisitions;
          read_contention =
            stats1.Service.read_contention - stats0.Service.read_contention;
          seqlock_retries = Service.seqlock_retries svc - sqr0;
          seqlock_fallbacks = Service.seqlock_fallbacks svc - sqf0;
          population = Service.population svc;
        })
  in
  (* workers have unregistered: every limbo node is now reclaimable *)
  Service.quiesce svc;
  (* structural telemetry of the final table: the mapping set is
     interleaving-invariant (disjoint per-stream key ranges), and the
     histograms cannot see chain order *)
  Obs.Probe.to_metrics (Obs.Ambient.get ()) ~prefix:"service"
    (Service.probe svc);
  result
