(* The `ptsim fleet` / bench driver: N tenants of churn dealt over M
   shards, interleaved on {!Exec.Soak} streams in context-switch
   quanta, with ASID-tagged vs flush-on-switch TLBs side by side and a
   global frame budget enforced between rounds.

   What keeps the output identical for any --domains, beyond the soak
   contract:

   - Tenant [t] runs on stream [t mod streams]; its event sequence,
     switch quanta and round slices are pure functions of the config,
     so every per-tenant tally, per-stream TLB stat and per-shard
     write-lock total is interleaving-invariant.
   - Tenants touch disjoint keys (the ASID prefix), so cross-tenant
     interleaving inside a shard cannot change any tenant-visible
     state — only contention, which the outputs omit.
   - Budget enforcement runs at the round barrier; victim selection
     reads the merged Obs touch counters, which are barrier-stable.
   - Per-op latencies go to an Obs histogram for the human/bench
     report; the deterministic JSON omits them. *)

module Service = Pt_service.Service

type config = {
  tenants : int;
  shards : int;
  streams : int;
  domains : int;
  rounds : int;
  ops_per_tenant : int;  (** churn events generated per tenant *)
  switch_every : int;  (** context-switch quantum, in events *)
  frame_budget : int;  (** fleet-wide page budget; 0 = unlimited *)
  modes : Sharded.range_mode list;
  orgs : Service.org list;
  locking : Service.locking;
  buckets : int;
  tlb_entries : int;
  seed : int;
}

let default_config =
  {
    tenants = 12;
    shards = 4;
    streams = 4;
    domains = 1;
    rounds = 3;
    ops_per_tenant = 3_000;
    switch_every = 48;
    frame_budget = 500;
    modes = [ Sharded.Batched; Sharded.Paged ];
    orgs = [ Service.Clustered; Service.Hashed ];
    locking = Service.Seqlock;
    buckets = 4096;
    tlb_entries = 128;
    seed = 42;
  }

let quick_config =
  {
    default_config with
    tenants = 8;
    rounds = 2;
    ops_per_tenant = 1_200;
    frame_budget = 300;
  }

(* per-tenant churn: smaller regions and bursts than Churn.default so
   a dozen tenants stay snappy, and no drain suffix — the fleet should
   end with tenants resident (footprint-vs-live is part of the
   report) *)
let churn_spec cfg =
  {
    Dynamics.Churn.ops = cfg.ops_per_tenant;
    max_procs = 4;
    max_live_pages = 1_200;
    region_min = 4;
    region_max = 64;
    touch_burst = 16;
    drain = false;
  }

type row = {
  f_mode : Sharded.range_mode;
  f_org : Service.org;
  f_locking : Service.locking;
  f_tenants : int;
  f_shards : int;
  f_streams : int;
  f_rounds : int;
  f_events : int;
  f_mmaps : int;
  f_munmaps : int;
  f_protects : int;
  f_touches : int;
  f_touch_hits : int;
  f_touch_faults : int;
  f_forks : int;
  f_exits : int;
  f_pages_mapped : int;
  f_pages_unmapped : int;
  f_range_pages : int;
  f_range_sections : int;
  f_write_locks : int;
  f_tagged_hits : int;
  f_tagged_misses : int;
  f_flush_hits : int;
  f_flush_misses : int;
  f_context_switches : int;
  f_shootdowns : int;
  f_evictions : int;
  f_evicted_pages : int;
  f_resident : int;  (** per-tenant pages read from the tables at quiesce *)
  f_population : int;  (** shard tables at quiesce *)
  f_footprint_bytes : int;
  f_limbo : int;  (** after quiesce; 0 proves the drain *)
  f_fsck_clean : bool;
  (* timing: human/bench report only, never in the deterministic JSON *)
  f_elapsed_s : float;
  f_ops_per_sec : float;
  f_p99_ns : int;
  f_mean_ns : float;
}

let locks_per_page r =
  if r.f_range_pages = 0 then 0.
  else float_of_int r.f_range_sections /. float_of_int r.f_range_pages

let retained_hits r = r.f_tagged_hits - r.f_flush_hits

(* --- one (org, mode) run --- *)

let touch_counter_name asid = Printf.sprintf "fleet.touch.%d" asid

let run_one cfg ~org ~mode =
  let fleet =
    Sharded.create ~buckets:cfg.buckets ~org ~locking:cfg.locking
      ~shards:cfg.shards ~tenants:cfg.tenants ~mode ()
  in
  let traces =
    Array.init cfg.tenants (fun i ->
        Dynamics.Churn.generate ~spec:(churn_spec cfg)
          ~seed:(Int64.of_int (cfg.seed + (977 * i)))
          ())
  in
  (* per-stream TLB pair: ASID-tagged (survives switches) and
     flush-on-switch (the SuperSPARC baseline), fed identically *)
  let tagged =
    Array.init cfg.streams (fun _ ->
        Tlb.Tagged_tlb.create (Tlb.Intf.fa ~entries:cfg.tlb_entries ()))
  in
  let flushed =
    Array.init cfg.streams (fun _ -> Tlb.Intf.fa ~entries:cfg.tlb_entries ())
  in
  let switches = Array.make cfg.streams 0 in
  let hist_name =
    Printf.sprintf "fleet.op_ns.%s.%s" (Service.org_name org)
      (Sharded.range_mode_name mode)
  in
  (* victim selection reads merged counter deltas against the row's
     starting point (ambient shards persist across rows) *)
  let touch_base = Array.make (cfg.tenants + 1) 0 in
  let m0 = Obs.Ambient.merged () in
  for asid = 1 to cfg.tenants do
    touch_base.(asid) <-
      Obs.Metrics.value (Obs.Metrics.counter m0 (touch_counter_name asid))
  done;
  let lock = Service.lock_code cfg.locking in
  let ops_for t =
    let asid = t + 1 in
    let s = t mod cfg.streams in
    (* flight-recorder events go to stream [s]'s ring: the stream is
       the ownership unit, so the recorded tail is domain-invariant;
       [lat] is the logical cost (lock sections, or 1 on a demand
       fault), never wall-clock *)
    let rec_range kind (r : Addr.Region.t) lat =
      Obs.Recorder.record ~stream:s ~kind ~asid
        ~vpn:(Int64.to_int r.Addr.Region.first_vpn)
        ~pages:r.Addr.Region.pages ~lock ~attempt:0 ~fault:0 ~lat
    in
    let tg = tagged.(s) and fl = flushed.(s) in
    (* ambient handles bind to the executing domain, so resolve them
       lazily on first use from the worker, not here on main *)
    let tc = ref None in
    let bump_touch () =
      let c =
        match !tc with
        | Some c -> c
        | None ->
            let c = Obs.Ambient.counter (touch_counter_name asid) in
            tc := Some c;
            c
      in
      Obs.Metrics.incr c
    in
    {
      Dynamics.Fleet_replay.map =
        (fun r ->
          let sections = Sharded.map fleet ~asid r in
          rec_range Obs.Recorder.k_map r sections;
          sections);
      unmap =
        (fun r ->
          let sections = Sharded.unmap fleet ~asid r in
          rec_range Obs.Recorder.k_unmap r sections;
          sections);
      protect =
        (fun r ~writable ->
          let sections = Sharded.protect fleet ~asid r ~writable in
          rec_range Obs.Recorder.k_protect r sections;
          sections);
      touch =
        (fun local ->
          bump_touch ();
          let found = Sharded.find fleet ~asid local in
          let mapped = found <> None in
          Obs.Recorder.record ~stream:s ~kind:Obs.Recorder.k_touch ~asid
            ~vpn:(Int64.to_int local) ~pages:1 ~lock ~attempt:0 ~fault:0
            ~lat:(if mapped then 0 else 1);
          let th = Tlb.Tagged_tlb.access tg ~vpn:local = `Hit in
          let fh = Tlb.Intf.access fl ~vpn:local = `Hit in
          (match found with
          | Some tr ->
              if not th then Tlb.Tagged_tlb.fill tg tr;
              if not fh then Tlb.Intf.fill fl tr
          | None -> ());
          mapped);
    }
  in
  let cursors =
    Array.init cfg.tenants (fun t ->
        Dynamics.Fleet_replay.create (ops_for t) traces.(t))
  in
  let stream_tenants =
    Array.init cfg.streams (fun s ->
        List.filter
          (fun t -> t mod cfg.streams = s)
          (List.init cfg.tenants Fun.id))
  in
  let stream round s =
    let hist = Obs.Ambient.hist hist_name in
    Dynamics.Fleet_replay.interleave cursors ~tenants:stream_tenants.(s)
      ~round ~rounds:cfg.rounds ~switch_every:cfg.switch_every
      ~switch:(fun t ->
        (* context switch: tags survive, the baseline flushes *)
        Tlb.Tagged_tlb.set_context tagged.(s) ~asid:(t + 1);
        Tlb.Intf.flush flushed.(s);
        switches.(s) <- switches.(s) + 1)
      ~event:(fun _ cur ->
        let t0 = Unix.gettimeofday () in
        ignore (Dynamics.Fleet_replay.step cur ~max_events:1);
        let t1 = Unix.gettimeofday () in
        Obs.Hist.observe hist (int_of_float ((t1 -. t0) *. 1e9)))
  in
  let evictions = ref 0 and evicted_pages = ref 0 and shootdowns = ref 0 in
  let enforce () =
    if cfg.frame_budget > 0 then begin
      let m = Obs.Ambient.merged () in
      let activity asid =
        Obs.Metrics.value (Obs.Metrics.counter m (touch_counter_name asid))
        - touch_base.(asid)
      in
      let ev, pages =
        Sharded.enforce_budget fleet ~budget:cfg.frame_budget ~activity
      in
      if ev > 0 then begin
        (* TLB shootdown: every stream may cache the victims' entries *)
        Array.iter Tlb.Tagged_tlb.flush tagged;
        Array.iter Tlb.Intf.flush flushed;
        shootdowns := !shootdowns + (2 * cfg.streams);
        evictions := !evictions + ev;
        evicted_pages := !evicted_pages + pages
      end
    end
  in
  let series_label =
    Printf.sprintf "fleet:%s/%s" (Service.org_name org)
      (Sharded.range_mode_name mode)
  in
  let elapsed =
    Exec.Soak.with_streams
      ~epochs:(Sharded.reader_epochs fleet)
      ~domains:cfg.domains ~streams:cfg.streams
    @@ fun soak ->
    let t0 = Unix.gettimeofday () in
    for round = 0 to cfg.rounds - 1 do
      Exec.Soak.each soak (stream round);
      (* workers parked at the barrier: enforcement is sequential,
         and the series point sees a domain-invariant merge *)
      enforce ();
      Obs.Series.mark ~label:series_label ~index:round
    done;
    Unix.gettimeofday () -. t0
  in
  Sharded.quiesce fleet;
  let tally = Dynamics.Fleet_replay.tally_sum cursors in
  let sum_stats field arr stats_of =
    Array.fold_left (fun acc x -> acc + field (stats_of x)) 0 arr
  in
  let tagged_hits =
    sum_stats (fun s -> s.Tlb.Stats.hits) tagged Tlb.Tagged_tlb.stats
  in
  let tagged_misses =
    sum_stats Tlb.Stats.misses tagged Tlb.Tagged_tlb.stats
  in
  let flush_hits =
    sum_stats (fun s -> s.Tlb.Stats.hits) flushed Tlb.Intf.stats
  in
  let flush_misses = sum_stats Tlb.Stats.misses flushed Tlb.Intf.stats in
  let fsck = Sharded.fsck fleet in
  let hist = Obs.Metrics.hist (Obs.Ambient.merged ()) hist_name in
  {
    f_mode = mode;
    f_org = org;
    f_locking = cfg.locking;
    f_tenants = cfg.tenants;
    f_shards = cfg.shards;
    f_streams = cfg.streams;
    f_rounds = cfg.rounds;
    f_events = tally.events;
    f_mmaps = tally.mmaps;
    f_munmaps = tally.munmaps;
    f_protects = tally.protects;
    f_touches = tally.touches;
    f_touch_hits = tally.touch_hits;
    f_touch_faults = tally.touch_faults;
    f_forks = tally.forks;
    f_exits = tally.exits;
    f_pages_mapped = tally.pages_mapped;
    f_pages_unmapped = tally.pages_unmapped;
    f_range_pages = tally.range_pages;
    f_range_sections = tally.range_sections;
    f_write_locks = Sharded.write_locks fleet;
    f_tagged_hits = tagged_hits;
    f_tagged_misses = tagged_misses;
    f_flush_hits = flush_hits;
    f_flush_misses = flush_misses;
    f_context_switches = Array.fold_left ( + ) 0 switches;
    f_shootdowns = !shootdowns;
    f_evictions = !evictions;
    f_evicted_pages = !evicted_pages;
    f_resident =
      List.fold_left
        (fun acc asid -> acc + Sharded.resident fleet ~asid)
        0
        (List.init cfg.tenants succ);
    f_population = Sharded.population fleet;
    f_footprint_bytes = Sharded.size_bytes fleet;
    f_limbo = Sharded.limbo_nodes fleet;
    f_fsck_clean = Sharded.fsck_clean fsck;
    f_elapsed_s = elapsed;
    f_ops_per_sec =
      (if elapsed > 0. then float_of_int tally.events /. elapsed else 0.);
    f_p99_ns = Obs.Hist.quantile hist ~q:0.99;
    f_mean_ns = Obs.Hist.mean hist;
  }

(* --- the full matrix --- *)

type outcome = { rows : row list }

let run cfg =
  if cfg.domains < 1 then invalid_arg "Fleet_sim.run: domains must be >= 1";
  if cfg.streams < 1 then invalid_arg "Fleet_sim.run: streams must be >= 1";
  if cfg.rounds < 1 then invalid_arg "Fleet_sim.run: rounds must be >= 1";
  Obs.Recorder.arm ~streams:cfg.streams ~capacity:512;
  {
    rows =
      List.concat_map
        (fun org -> List.map (fun mode -> run_one cfg ~org ~mode) cfg.modes)
        cfg.orgs;
  }

(* --- rendering --- *)

(* The deterministic fields: everything an op tally, lock count, TLB
   model or integrity check produces.  Timing (elapsed, ops/s, p99)
   varies run to run and only appears with [~timing:true] (the bench
   report, whose differ ignores those fields) — never in the `ptsim
   fleet --json` output CI byte-diffs across domain counts. *)
let row_to_json ?(timing = false) r =
  let int = Jsonx.int and str = Jsonx.string in
  Jsonx.obj
    ([
       ("mode", str (Sharded.range_mode_name r.f_mode));
       ("org", str (Service.org_name r.f_org));
       ("locking", str (Service.locking_name r.f_locking));
       ("tenants", int r.f_tenants); ("shards", int r.f_shards);
       ("streams", int r.f_streams); ("rounds", int r.f_rounds);
       ("events", int r.f_events); ("mmaps", int r.f_mmaps);
       ("munmaps", int r.f_munmaps); ("protects", int r.f_protects);
       ("touches", int r.f_touches); ("touch_hits", int r.f_touch_hits);
       ("touch_faults", int r.f_touch_faults); ("forks", int r.f_forks);
       ("exits", int r.f_exits); ("pages_mapped", int r.f_pages_mapped);
       ("pages_unmapped", int r.f_pages_unmapped);
       ("range_pages", int r.f_range_pages);
       ("range_sections", int r.f_range_sections);
       ("locks_per_page", Jsonx.fixed ~dp:4 (locks_per_page r));
       ("write_locks", int r.f_write_locks);
       ("tagged_hits", int r.f_tagged_hits);
       ("tagged_misses", int r.f_tagged_misses);
       ("flush_hits", int r.f_flush_hits);
       ("flush_misses", int r.f_flush_misses);
       ("retained_hits", int (retained_hits r));
       ("context_switches", int r.f_context_switches);
       ("shootdowns", int r.f_shootdowns); ("evictions", int r.f_evictions);
       ("evicted_pages", int r.f_evicted_pages); ("resident", int r.f_resident);
       ("population", int r.f_population);
       ("footprint_bytes", int r.f_footprint_bytes);
       ("limbo_after_quiesce", int r.f_limbo);
       ("fsck_clean", Jsonx.bool r.f_fsck_clean);
     ]
    @
    if timing then
      [
        ("ops_per_sec", Jsonx.fixed ~dp:1 r.f_ops_per_sec);
        ("elapsed_s", Jsonx.fixed ~dp:4 r.f_elapsed_s);
        ("p99_ns", int r.f_p99_ns); ("mean_ns", Jsonx.fixed ~dp:1 r.f_mean_ns);
      ]
    else [])

let outcome_to_json ?timing cfg o =
  let int = Jsonx.int in
  Jsonx.obj
    [
      ("schema_version", int 1); ("experiment", Jsonx.string "fleet");
      ("seed", int cfg.seed);
      ("locking", Jsonx.string (Service.locking_name cfg.locking));
      ("tenants", int cfg.tenants); ("shards", int cfg.shards);
      ("streams", int cfg.streams); ("rounds", int cfg.rounds);
      ("ops_per_tenant", int cfg.ops_per_tenant);
      ("switch_every", int cfg.switch_every);
      ("frame_budget", int cfg.frame_budget);
      ("rows", Jsonx.list (List.map (row_to_json ?timing) o.rows));
    ]

let pp_row ppf r =
  Format.fprintf ppf
    "%-9s %-7s %8d %8d %9.4f %9d %9d %8d %6d %8d %10.0f %8d %6s@."
    (Service.org_name r.f_org)
    (Sharded.range_mode_name r.f_mode)
    r.f_events r.f_range_pages (locks_per_page r) r.f_tagged_hits
    r.f_flush_hits r.f_evicted_pages r.f_evictions r.f_population
    r.f_ops_per_sec r.f_p99_ns
    (if r.f_fsck_clean then "clean" else "DIRTY")

let pp_outcome ppf o =
  Format.fprintf ppf "%-9s %-7s %8s %8s %9s %9s %9s %8s %6s %8s %10s %8s %6s@."
    "org" "mode" "events" "rg-pages" "locks/pg" "tag-hit" "flush-hit" "evicted"
    "evics" "pop" "ops/s" "p99ns" "fsck";
  List.iter (pp_row ppf) o.rows

let all_clean o =
  List.for_all (fun r -> r.f_fsck_clean && r.f_limbo = 0) o.rows
