(* The `ptsim chaos` driver: a seeded crash/recovery soak over a
   fleet of durable shards.

   Every shard is a {!Durable.Shard} — a Service fronted by a
   write-ahead log and periodic checkpoints — and the soak kills
   shards on purpose: at planned WAL byte offsets (a torn append),
   through the random [Fault.Shard_crash] site, halfway through a
   checkpoint, and halfway through a recovery replay.  The run passes
   only if every recovery converges: the rebuilt table must equal the
   acknowledged-operation oracle exactly, and the final fleet must be
   fsck-clean and lookup-equivalent to a run that never crashed.

   What keeps the JSON byte-identical for any --domains, beyond the
   {!Exec.Soak} contract:

   - One stream per shard: tenant [asid] runs on stream
     [asid mod shards], so each shard's WAL is appended by exactly one
     worker at a time and its byte offsets — including the planned
     crash offsets — are interleaving-invariant.
   - Touch decisions read the tenant's own intent books (pure
     trace-replay state), never the shard, so the event interpretation
     and therefore the per-shard op sequence is crash-schedule- and
     domain-count-independent.
   - An op the shard could not take (torn mid-append, or rejected
     while degraded) is parked in submission order and replayed by the
     supervisor after recovery, so cursors always advance and the
     fleet converges on the full trace.
   - Crash handling, recovery, checkpoints and the convergence audit
     all run at the round barrier. *)

module Service = Pt_service.Service
module Wal = Durable.Wal
module Shard = Durable.Shard

type config = {
  tenants : int;
  shards : int;  (** one durable shard = one WAL = one worker stream *)
  domains : int;
  rounds : int;
  ops_per_tenant : int;
  switch_every : int;
  checkpoint_every : int;  (** checkpoint cadence, in rounds *)
  crash_offsets : int list;
      (** planned absolute WAL crash offsets, dealt round-robin over
          shards; [] derives a schedule from the seed *)
  crash_recovery : bool;  (** also crash the first recovery mid-replay *)
  crash_checkpoint : bool;  (** also tear one checkpoint halfway *)
  recovery_delay : int;
      (** rounds a crashed shard stays degraded (rejecting tenant ops)
          before the supervisor rebuilds it *)
  retry_budget : int;  (** retries on a degraded shard before rejection *)
  orgs : Service.org list;
  locking : Service.locking;
  buckets : int;
  sites : Fault.site list;  (** random fault plan; [] = none *)
  rate_ppm : int;
  seed : int;
}

let default_config =
  {
    tenants = 8;
    shards = 4;
    domains = 1;
    rounds = 4;
    ops_per_tenant = 1_500;
    switch_every = 48;
    checkpoint_every = 1;
    crash_offsets = [];
    crash_recovery = true;
    crash_checkpoint = true;
    recovery_delay = 1;
    retry_budget = 3;
    orgs = [ Service.Clustered; Service.Hashed ];
    locking = Service.Striped;
    buckets = 4096;
    sites = [ Fault.Shard_crash ];
    rate_ppm = 2_000;
    seed = 42;
  }

let quick_config =
  { default_config with tenants = 6; rounds = 3; ops_per_tenant = 800 }

exception Degraded of { shard : int }

(* default schedule: one planned crash per shard (up to rounds - 1),
   each a little deeper into its log, landing mid-record so the tail
   really tears *)
let planned_offsets cfg =
  match cfg.crash_offsets with
  | [] ->
      let rb = Wal.record_bytes in
      List.init
        (max 1 (min cfg.shards (cfg.rounds - 1)))
        (fun i ->
          ((((i + 1) * 41) + (cfg.seed land 63)) * rb)
          + ((cfg.seed + (11 * i)) mod rb))
  | offs -> offs

let churn_spec cfg =
  {
    Dynamics.Churn.ops = cfg.ops_per_tenant;
    max_procs = 4;
    max_live_pages = 1_000;
    region_min = 4;
    region_max = 48;
    touch_burst = 12;
    drain = false;
  }

(* --- fleet key layout (same as Sharded) --- *)

let tag ~asid local =
  Int64.logor (Int64.shift_left (Int64.of_int asid) Sharded.asid_shift) local

let ppn_of vpn = Int64.logand vpn 0xFFF_FFFFL

let bump name = Obs.Metrics.incr (Obs.Ambient.counter name)

(* --- per-shard chaos state --- *)

type shard_state = {
  sx : int;
  ds : Shard.t;
  mutable status : int;  (* -1 active; >= 0 degraded, rebuild at 0 *)
  mutable pending : Wal.op list;  (* parked ops, newest first *)
  mutable planned : int list;  (* crash offsets not yet armed *)
  ack : (int64, bool) Hashtbl.t;  (* acknowledged: tagged vpn -> writable *)
  mutable crashes : int;
  mutable retries : int;
  mutable rejections : int;
  mutable pending_replayed : int;
  mutable converged : bool;
}

let op_asid : Wal.op -> int = function
  | Wal.Map { asid; _ } | Wal.Unmap { asid; _ } | Wal.Protect { asid; _ } ->
      asid

let ack_apply st (op : Wal.op) =
  match op with
  | Wal.Map { vpn; pages; _ } ->
      for i = 0 to pages - 1 do
        Hashtbl.replace st.ack (Int64.add vpn (Int64.of_int i)) true
      done
  | Wal.Unmap { vpn; pages; _ } ->
      for i = 0 to pages - 1 do
        Hashtbl.remove st.ack (Int64.add vpn (Int64.of_int i))
      done
  | Wal.Protect { vpn; pages; writable; _ } ->
      for i = 0 to pages - 1 do
        let k = Int64.add vpn (Int64.of_int i) in
        if Hashtbl.mem st.ack k then Hashtbl.replace st.ack k writable
      done

(* the rebuilt table must equal the acknowledged state, mapping for
   mapping — the crash-consistency oracle *)
let agrees st =
  let expected =
    Hashtbl.fold
      (fun vpn w acc ->
        (vpn, ppn_of vpn, { Pte.Attr.default with Pte.Attr.writable = w })
        :: acc)
      st.ack []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b)
  in
  let actual = Shard.live st.ds in
  List.length actual = List.length expected
  && List.for_all2
       (fun (v1, p1, a1) (v2, p2, a2) ->
         Int64.equal v1 v2 && Int64.equal p1 p2 && Pte.Attr.equal a1 a2)
       actual expected

(* --- the write path seen by tenants --- *)

let backoff attempt =
  for _ = 1 to (attempt + 1) * 32 do
    Domain.cpu_relax ()
  done

let submit_guarded cfg st ~stream ~lock op =
  if st.status >= 0 then begin
    (* degraded: deterministic bounded retry, then a typed rejection —
       never a hang.  Recovery only runs at the round barrier, so the
       retries are doomed; they exist to bound the latency a real
       client would see. *)
    let attempt = ref 0 in
    while !attempt < cfg.retry_budget do
      st.retries <- st.retries + 1;
      bump "fleet.degraded_retries";
      Obs.Recorder.record ~stream ~kind:Obs.Recorder.k_retry ~asid:(op_asid op)
        ~vpn:0 ~pages:0 ~lock ~attempt:!attempt ~fault:0 ~lat:0;
      backoff !attempt;
      incr attempt
    done;
    st.rejections <- st.rejections + 1;
    bump "fleet.degraded_rejections";
    Obs.Recorder.record ~stream ~kind:Obs.Recorder.k_abort ~asid:(op_asid op)
      ~vpn:0 ~pages:0 ~lock ~attempt:cfg.retry_budget ~fault:0 ~lat:0;
    raise (Degraded { shard = st.sx })
  end;
  Shard.submit st.ds op

(* Submit one op; park it instead of losing it when the shard is down.
   [note_crash] is the stream's crash latch — the exception is
   re-raised once the stream has finished its slice, so the worker
   domain really dies and the pool's supervision respawns it. *)
let perform cfg st ~stream ~lock ~note_crash op =
  match submit_guarded cfg st ~stream ~lock op with
  | sections ->
      ack_apply st op;
      sections
  | exception Degraded _ ->
      st.pending <- op :: st.pending;
      0
  | exception (Fault.Injected { site = Fault.Shard_crash; key } as e) ->
      (* the shard died mid-append: the record tore, nothing applied,
         the op is parked for post-recovery replay *)
      st.crashes <- st.crashes + 1;
      bump "fleet.shard_crashes";
      Obs.Recorder.record ~stream ~kind:Obs.Recorder.k_crash
        ~asid:(op_asid op) ~vpn:key ~pages:0 ~lock ~attempt:0 ~fault:0 ~lat:0;
      st.status <- cfg.recovery_delay;
      st.pending <- op :: st.pending;
      note_crash e;
      0

(* --- supervision (coordinator, workers parked) --- *)

(* Supervisor-side catch-up replay.  Runs fault-suspended: the random
   [Shard_crash] site must not fire here (the coordinator's fault
   context is stale, so one unlucky decision would repeat forever) —
   planned WAL-offset crashes still do, straight out of [Wal.append]. *)
let drain cfg st ~lock =
  let rec go = function
    | [] -> ()
    | op :: rest -> (
        match Shard.submit st.ds op with
        | _sections ->
            ack_apply st op;
            st.pending_replayed <- st.pending_replayed + 1;
            bump "fleet.pending_replayed";
            go rest
        | exception Fault.Injected { site = Fault.Shard_crash; key } ->
            (* a planned offset landed inside the catch-up replay:
               back to degraded, the rest stays parked in order *)
            st.crashes <- st.crashes + 1;
            bump "fleet.shard_crashes";
            Obs.Recorder.record ~stream:st.sx ~kind:Obs.Recorder.k_crash
              ~asid:(op_asid op) ~vpn:key ~pages:0 ~lock ~attempt:0 ~fault:0
              ~lat:0;
            st.status <- cfg.recovery_delay;
            st.pending <- List.rev (op :: rest))
  in
  let ops = List.rev st.pending in
  st.pending <- [];
  Fault.suspended (fun () -> go ops)

let recover_and_drain cfg st ~lock ~recovery_crash_armed =
  if cfg.crash_recovery && !recovery_crash_armed then begin
    recovery_crash_armed := false;
    Shard.plan_recovery_crash st.ds ~after_records:3
  end;
  (try Shard.recover st.ds
   with Fault.Injected { site = Fault.Shard_crash; _ } ->
     (* died mid-replay; the journal is intact — go again, and this
        second recovery must converge *)
     Shard.recover st.ds);
  st.converged <- st.converged && agrees st;
  (* arm the shard's next planned crash, if any *)
  (match st.planned with
  | o :: rest ->
      Wal.plan_crash (Shard.wal st.ds) ~at:o;
      st.planned <- rest
  | [] -> ());
  st.status <- -1;
  (* re-admit tenants: replay the ops parked while the shard was down *)
  drain cfg st ~lock

let supervise cfg state ~lock ~recovery_crash_armed =
  Array.iter
    (fun st ->
      if st.status > 0 then st.status <- st.status - 1
      else if st.status = 0 then
        recover_and_drain cfg st ~lock ~recovery_crash_armed)
    state

let checkpoint_shards cfg state ~round ~lock ~ckpt_crash_armed =
  if (round + 1) mod cfg.checkpoint_every = 0 then
    Array.iter
      (fun st ->
        if st.status < 0 then begin
          if
            cfg.crash_checkpoint && !ckpt_crash_armed
            && round >= cfg.rounds / 2
            && st.sx = cfg.seed mod cfg.shards
          then begin
            ckpt_crash_armed := false;
            Shard.plan_checkpoint_crash st.ds
          end;
          try Shard.checkpoint st.ds
          with Fault.Injected { site = Fault.Shard_crash; key } ->
            st.crashes <- st.crashes + 1;
            bump "fleet.shard_crashes";
            Obs.Recorder.record ~stream:st.sx ~kind:Obs.Recorder.k_crash
              ~asid:0 ~vpn:key ~pages:0 ~lock ~attempt:0 ~fault:0 ~lat:0;
            st.status <- cfg.recovery_delay
        end)
      state

(* after the last round: rebuild whatever is still down and drain every
   parked op.  Terminates: each planned crash fires at most once. *)
let finalize cfg state ~lock ~recovery_crash_armed =
  while Array.exists (fun st -> st.status >= 0) state do
    Array.iter
      (fun st ->
        if st.status >= 0 then begin
          st.status <- 0;
          recover_and_drain cfg st ~lock ~recovery_crash_armed
        end)
      state
  done

(* --- rows --- *)

type row = {
  c_org : Service.org;
  c_locking : Service.locking;
  c_tenants : int;
  c_shards : int;
  c_rounds : int;
  c_events : int;
  c_mmaps : int;
  c_munmaps : int;
  c_protects : int;
  c_touches : int;
  c_touch_hits : int;
  c_touch_faults : int;
  c_pages_mapped : int;
  c_pages_unmapped : int;
  c_range_pages : int;
  c_crashes : int;
  c_wal_records : int;
  c_wal_bytes : int;
  c_torn_truncations : int;
  c_truncated_bytes : int;
  c_checkpoints : int;
  c_torn_checkpoints : int;
  c_compactions : int;
  c_checkpoints_discarded : int;
  c_recovery_attempts : int;
  c_recoveries : int;
  c_recovery_crashes : int;
  c_replayed_records : int;
  c_restored_mappings : int;
  c_degraded_retries : int;
  c_degraded_rejections : int;
  c_pending_replayed : int;
  c_resident : int;
  c_population : int;
  c_limbo : int;
  c_fsck_clean : bool;
  c_placement_clean : bool;
  c_converged : bool;
  c_equivalent : bool;
  (* timing: human/bench report only, never in the deterministic JSON *)
}

(* --- one org run --- *)

let run_one cfg ~org =
  let lock = Service.lock_code cfg.locking in
  let state =
    Array.init cfg.shards (fun sx ->
        {
          sx;
          ds =
            Shard.create ~buckets:cfg.buckets ~org ~locking:cfg.locking
              ~ppn_of ();
          status = -1;
          pending = [];
          planned = [];
          ack = Hashtbl.create 4096;
          crashes = 0;
          retries = 0;
          rejections = 0;
          pending_replayed = 0;
          converged = true;
        })
  in
  (* deal the planned crash offsets round-robin over shards and arm
     each shard's first *)
  List.iteri
    (fun i off ->
      let st = state.(i mod cfg.shards) in
      st.planned <- st.planned @ [ off ])
    (planned_offsets cfg);
  Array.iter
    (fun st ->
      match st.planned with
      | o :: rest ->
          Wal.plan_crash (Shard.wal st.ds) ~at:o;
          st.planned <- rest
      | [] -> ())
    state;
  let recovery_crash_armed = ref cfg.crash_recovery in
  let ckpt_crash_armed = ref cfg.crash_checkpoint in
  let traces =
    Array.init cfg.tenants (fun i ->
        Dynamics.Churn.generate ~spec:(churn_spec cfg)
          ~seed:(Int64.of_int (cfg.seed + (977 * i)))
          ())
  in
  let intents =
    Array.init cfg.tenants (fun _ -> (Hashtbl.create 1024 : (int64, bool) Hashtbl.t))
  in
  (* per-stream crash latch: the first crash the stream hits in a
     dispatch is re-raised at the end of its slice *)
  let crash_exns = Array.make cfg.shards None in
  let ops_for t =
    let asid = t + 1 in
    let s = asid mod cfg.shards in
    let st = state.(s) in
    let intent = intents.(t) in
    let note_crash e =
      if Option.is_none crash_exns.(s) then crash_exns.(s) <- Some e
    in
    let rec_range kind (r : Addr.Region.t) lat =
      Obs.Recorder.record ~stream:s ~kind ~asid
        ~vpn:(Int64.to_int r.Addr.Region.first_vpn)
        ~pages:r.Addr.Region.pages ~lock ~attempt:0 ~fault:0 ~lat
    in
    {
      Dynamics.Fleet_replay.map =
        (fun r ->
          Addr.Region.iter_vpns r (fun v -> Hashtbl.replace intent v true);
          let sections =
            perform cfg st ~stream:s ~lock ~note_crash
              (Wal.Map
                 {
                   asid;
                   vpn = tag ~asid r.Addr.Region.first_vpn;
                   pages = r.Addr.Region.pages;
                 })
          in
          rec_range Obs.Recorder.k_map r sections;
          sections);
      unmap =
        (fun r ->
          Addr.Region.iter_vpns r (fun v -> Hashtbl.remove intent v);
          let sections =
            perform cfg st ~stream:s ~lock ~note_crash
              (Wal.Unmap
                 {
                   asid;
                   vpn = tag ~asid r.Addr.Region.first_vpn;
                   pages = r.Addr.Region.pages;
                 })
          in
          rec_range Obs.Recorder.k_unmap r sections;
          sections);
      protect =
        (fun r ~writable ->
          Addr.Region.iter_vpns r (fun v ->
              if Hashtbl.mem intent v then Hashtbl.replace intent v writable);
          let sections =
            perform cfg st ~stream:s ~lock ~note_crash
              (Wal.Protect
                 {
                   asid;
                   vpn = tag ~asid r.Addr.Region.first_vpn;
                   pages = r.Addr.Region.pages;
                   writable;
                 })
          in
          rec_range Obs.Recorder.k_protect r sections;
          sections);
      touch =
        (fun local ->
          (* intent books, never the shard: touch decisions — and so
             the whole event interpretation — are crash-independent *)
          let hit = Hashtbl.mem intent local in
          Obs.Recorder.record ~stream:s ~kind:Obs.Recorder.k_touch ~asid
            ~vpn:(Int64.to_int local) ~pages:1 ~lock ~attempt:0 ~fault:0
            ~lat:(if hit then 0 else 1);
          hit);
    }
  in
  let cursors =
    Array.init cfg.tenants (fun t ->
        Dynamics.Fleet_replay.create (ops_for t) traces.(t))
  in
  let stream_tenants =
    Array.init cfg.shards (fun s ->
        List.filter
          (fun t -> (t + 1) mod cfg.shards = s)
          (List.init cfg.tenants Fun.id))
  in
  let stream round s =
    (* cleared per dispatch: after a crash the round is dispatched
       again, and this stream, its slice done, must then do nothing *)
    crash_exns.(s) <- None;
    Dynamics.Fleet_replay.interleave cursors ~tenants:stream_tenants.(s)
      ~round ~rounds:cfg.rounds ~switch_every:cfg.switch_every ~switch:ignore
      ~event:(fun t cur ->
        Fault.set_context
          ~key:(((t + 1) * 1_048_576) + Dynamics.Fleet_replay.consumed cur);
        ignore (Dynamics.Fleet_replay.step cur ~max_events:1));
    Fault.clear_context ();
    (* the stream finished its whole slice first — other shards lose
       nothing — and only now does the crash kill the worker *)
    Option.iter raise crash_exns.(s)
  in
  let series_label = Printf.sprintf "chaos:%s" (Service.org_name org) in
  let body () =
    (Exec.Soak.with_streams ~domains:cfg.domains ~streams:cfg.shards
    @@ fun soak ->
    for round = 0 to cfg.rounds - 1 do
      Exec.Soak.each soak (stream round);
      supervise cfg state ~lock ~recovery_crash_armed;
      checkpoint_shards cfg state ~round ~lock ~ckpt_crash_armed;
      Obs.Series.mark ~label:series_label ~index:round
    done);
    finalize cfg state ~lock ~recovery_crash_armed
  in
  let () =
    match cfg.sites with
    | [] -> body ()
    | sites ->
        Fault.with_plan
          (Fault.plan ~rate_ppm:cfg.rate_ppm ~sites ~seed:cfg.seed ())
          body
  in
  Array.iter (fun st -> Service.quiesce (Shard.service st.ds)) state;
  (* the full-trace oracle: every tenant's intent books, shard by
     shard, must equal both the acknowledged state and the table *)
  let equivalent =
    Array.for_all
      (fun st ->
        let expected = Hashtbl.create 4096 in
        Array.iteri
          (fun t intent ->
            let asid = t + 1 in
            if asid mod cfg.shards = st.sx then
              Hashtbl.iter
                (fun local w -> Hashtbl.replace expected (tag ~asid local) w)
                intent)
          intents;
        Hashtbl.length expected = Hashtbl.length st.ack
        && Hashtbl.fold
             (fun vpn w acc ->
               acc && Hashtbl.find_opt st.ack vpn = Some w)
             expected true
        && agrees st)
      state
  in
  let tally = Dynamics.Fleet_replay.tally_sum cursors in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 state in
  let placement =
    Fsck.check_shards ~asid_shift:Sharded.asid_shift
      ~expected_shard:(fun asid -> asid mod cfg.shards)
      (Array.map (fun st -> Service.fsck_table (Shard.service st.ds)) state)
  in
  let fsck_clean =
    Array.for_all (fun st -> Fsck.clean (Service.fsck (Shard.service st.ds))) state
  in
  {
    c_org = org;
    c_locking = cfg.locking;
    c_tenants = cfg.tenants;
    c_shards = cfg.shards;
    c_rounds = cfg.rounds;
    c_events = tally.events;
    c_mmaps = tally.mmaps;
    c_munmaps = tally.munmaps;
    c_protects = tally.protects;
    c_touches = tally.touches;
    c_touch_hits = tally.touch_hits;
    c_touch_faults = tally.touch_faults;
    c_pages_mapped = tally.pages_mapped;
    c_pages_unmapped = tally.pages_unmapped;
    c_range_pages = tally.range_pages;
    c_crashes = sum (fun st -> st.crashes);
    c_wal_records = sum (fun st -> Wal.records (Shard.wal st.ds));
    c_wal_bytes = sum (fun st -> Wal.length (Shard.wal st.ds));
    c_torn_truncations = sum (fun st -> Wal.torn_truncations (Shard.wal st.ds));
    c_truncated_bytes = sum (fun st -> Wal.truncated_bytes (Shard.wal st.ds));
    c_checkpoints = sum (fun st -> Shard.checkpoints st.ds);
    c_torn_checkpoints = sum (fun st -> Shard.torn_checkpoints st.ds);
    c_compactions = sum (fun st -> Wal.compactions (Shard.wal st.ds));
    c_checkpoints_discarded = sum (fun st -> Shard.checkpoints_discarded st.ds);
    c_recovery_attempts = sum (fun st -> Shard.recovery_attempts st.ds);
    c_recoveries = sum (fun st -> Shard.recoveries st.ds);
    c_recovery_crashes = sum (fun st -> Shard.recovery_crashes st.ds);
    c_replayed_records = sum (fun st -> Shard.replayed_records st.ds);
    c_restored_mappings = sum (fun st -> Shard.restored_mappings st.ds);
    c_degraded_retries = sum (fun st -> st.retries);
    c_degraded_rejections = sum (fun st -> st.rejections);
    c_pending_replayed = sum (fun st -> st.pending_replayed);
    c_resident =
      Array.fold_left (fun acc i -> acc + Hashtbl.length i) 0 intents;
    c_population = sum (fun st -> Service.population (Shard.service st.ds));
    c_limbo = sum (fun st -> Service.limbo_nodes (Shard.service st.ds));
    c_fsck_clean = fsck_clean;
    c_placement_clean = Fsck.clean placement;
    c_converged = Array.for_all (fun st -> st.converged) state;
    c_equivalent = equivalent;
  }

(* --- the full run --- *)

type outcome = { rows : row list }

let validate cfg =
  if cfg.domains < 1 then invalid_arg "Chaos_sim.run: domains must be >= 1";
  if cfg.shards < 1 then invalid_arg "Chaos_sim.run: shards must be >= 1";
  if cfg.rounds < 1 then invalid_arg "Chaos_sim.run: rounds must be >= 1";
  if cfg.tenants < 1 then invalid_arg "Chaos_sim.run: tenants must be >= 1";
  if cfg.checkpoint_every < 1 then
    invalid_arg "Chaos_sim.run: checkpoint-every must be >= 1";
  if cfg.retry_budget < 0 then
    invalid_arg "Chaos_sim.run: retry budget must be >= 0";
  if cfg.recovery_delay < 0 then
    invalid_arg "Chaos_sim.run: recovery delay must be >= 0";
  List.iter
    (fun off ->
      if off < 0 then invalid_arg "Chaos_sim.run: crash offsets must be >= 0")
    cfg.crash_offsets

let run cfg =
  validate cfg;
  Obs.Recorder.arm ~streams:cfg.shards ~capacity:512;
  { rows = List.map (fun org -> run_one cfg ~org) cfg.orgs }

let all_clean o =
  List.for_all
    (fun r ->
      r.c_fsck_clean && r.c_placement_clean && r.c_converged && r.c_equivalent
      && r.c_limbo = 0)
    o.rows

(* --- rendering --- *)

let row_to_json r =
  let int = Jsonx.int and bool = Jsonx.bool in
  Jsonx.obj
    [
      ("org", Jsonx.string (Service.org_name r.c_org));
      ("locking", Jsonx.string (Service.locking_name r.c_locking));
      ("tenants", int r.c_tenants); ("shards", int r.c_shards);
      ("rounds", int r.c_rounds); ("events", int r.c_events);
      ("mmaps", int r.c_mmaps); ("munmaps", int r.c_munmaps);
      ("protects", int r.c_protects); ("touches", int r.c_touches);
      ("touch_hits", int r.c_touch_hits);
      ("touch_faults", int r.c_touch_faults);
      ("pages_mapped", int r.c_pages_mapped);
      ("pages_unmapped", int r.c_pages_unmapped);
      ("range_pages", int r.c_range_pages); ("crashes", int r.c_crashes);
      ("wal_records", int r.c_wal_records); ("wal_bytes", int r.c_wal_bytes);
      ("torn_truncations", int r.c_torn_truncations);
      ("truncated_bytes", int r.c_truncated_bytes);
      ("checkpoints", int r.c_checkpoints);
      ("torn_checkpoints", int r.c_torn_checkpoints);
      ("compactions", int r.c_compactions);
      ("checkpoints_discarded", int r.c_checkpoints_discarded);
      ("recovery_attempts", int r.c_recovery_attempts);
      ("recoveries", int r.c_recoveries);
      ("recovery_crashes", int r.c_recovery_crashes);
      ("replayed_records", int r.c_replayed_records);
      ("restored_mappings", int r.c_restored_mappings);
      ("degraded_retries", int r.c_degraded_retries);
      ("degraded_rejections", int r.c_degraded_rejections);
      ("pending_replayed", int r.c_pending_replayed);
      ("resident", int r.c_resident); ("population", int r.c_population);
      ("limbo_after_quiesce", int r.c_limbo);
      ("fsck_clean", bool r.c_fsck_clean);
      ("placement_clean", bool r.c_placement_clean);
      ("recoveries_converged", bool r.c_converged);
      ("oracle_equivalent", bool r.c_equivalent);
    ]

let outcome_to_json cfg o =
  let int = Jsonx.int in
  Jsonx.obj
    [
      ("schema_version", int 1); ("experiment", Jsonx.string "chaos");
      ("seed", int cfg.seed);
      ("locking", Jsonx.string (Service.locking_name cfg.locking));
      ("tenants", int cfg.tenants); ("shards", int cfg.shards);
      ("rounds", int cfg.rounds); ("ops_per_tenant", int cfg.ops_per_tenant);
      ("switch_every", int cfg.switch_every);
      ("checkpoint_every", int cfg.checkpoint_every);
      ("recovery_delay", int cfg.recovery_delay);
      ("retry_budget", int cfg.retry_budget); ("rate_ppm", int cfg.rate_ppm);
      ("crash_offsets", Jsonx.list (List.map int (planned_offsets cfg)));
      ( "sites",
        Jsonx.list
          (List.map (fun s -> Jsonx.string (Fault.site_name s)) cfg.sites) );
      ("rows", Jsonx.list (List.map row_to_json o.rows));
    ]

let pp_row ppf r =
  Format.fprintf ppf
    "%-9s %8d %7d %8d %6d %7d %8d %7d %8d %6s %6s %6s@."
    (Service.org_name r.c_org)
    r.c_events r.c_crashes r.c_wal_records r.c_checkpoints
    r.c_recoveries r.c_replayed_records r.c_degraded_rejections
    r.c_pending_replayed
    (if r.c_fsck_clean && r.c_placement_clean then "clean" else "DIRTY")
    (if r.c_converged then "conv" else "DIVERGED")
    (if r.c_equivalent then "equal" else "UNEQUAL")

let pp_outcome ppf o =
  Format.fprintf ppf "%-9s %8s %7s %8s %6s %7s %8s %7s %8s %6s %6s %6s@." "org"
    "events" "crashes" "wal-rec" "ckpts" "recov" "replayed" "reject" "drained"
    "fsck" "conv" "oracle";
  List.iter (pp_row ppf) o.rows
