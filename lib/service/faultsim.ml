(* A deterministic fault soak over the shared service, run on
   {!Exec.Soak} streams.

   Stream [s] owns the disjoint VPN window [s * span, (s+1) * span),
   every operation is a pure function of [(seed, stream, op index)],
   and the fault context key is [stream * ops + op].  At each op start
   the driver fires the [Domain_crash] site; a crash kills the worker
   domain, the soak dispatches the round again, and per-stream cursors
   resume exactly where the crash interrupted.  All other sites are
   healed inside {!Service}.  The soak ends with an fsck, repairing
   first if (contrary to the self-healing contract) findings appear. *)

type config = {
  seed : int;
  rate_ppm : int;
  sites : Fault.site list;
  org : Service.org;
  locking : Service.locking;
  domains : int;
  streams : int;
  ops : int;
  buckets : int;
}

let default_config =
  {
    seed = 1;
    rate_ppm = 20_000;
    sites = Fault.all_sites;
    org = Service.Clustered;
    locking = Service.Striped;
    domains = 1;
    streams = 4;
    ops = 2_000;
    buckets = 512;
  }

type outcome = {
  o_seed : int;
  o_org : Service.org;
  o_locking : Service.locking;
  o_streams : int;
  o_ops : int;
  injected : (string * int) list;  (* per site, [Fault.all_sites] order *)
  retries : int;
  aborts : int;
  crashes : int;
  restarts : int;
  repairs : int;
  pre_findings : int;  (* fsck findings before any repair *)
  kept : int;  (* entries a repair salvaged (0 when none ran) *)
  dropped : int;
  fsck_clean : bool;  (* the end state *)
  population : int;
}

(* Each stream owns [span] pages, whole blocks only, so no page block
   (and no superpage) ever spans two streams — the property that makes
   the committed mapping set independent of commit interleaving. *)
let span = 4096

let mix3 seed a b =
  let open Int64 in
  let h = Addr.Bits.mix64 (of_int seed) in
  let h = Addr.Bits.mix64 (logxor h (of_int (a + 1))) in
  Addr.Bits.mix64 (logxor h (of_int (b + 1)))

(* The op mix leans on writes (the faultable paths): 1/2 insert, 1/4
   remove, 1/8 lookup, 1/8 range protect. *)
let apply_op svc ~seed ~stream ~op ~lock ~fault =
  let r = mix3 seed stream op in
  let kind = Int64.to_int (Int64.logand r 7L) in
  let off = Int64.to_int (Int64.logand (Int64.shift_right_logical r 8) 4095L) in
  let vpn = Int64.of_int ((stream * span) + off) in
  let rec_op k pages =
    Obs.Recorder.record ~stream ~kind:k ~asid:stream
      ~vpn:(Int64.to_int vpn) ~pages ~lock ~attempt:0 ~fault ~lat:pages
  in
  if kind < 4 then begin
    let ppn = Int64.logand (Int64.shift_right_logical r 20) 0xFFFFFL in
    rec_op Obs.Recorder.k_insert 1;
    Service.insert svc ~vpn ~ppn ~attr:Pte.Attr.default
  end
  else if kind < 6 then begin
    rec_op Obs.Recorder.k_remove 1;
    Service.remove svc ~vpn
  end
  else if kind = 6 then begin
    rec_op Obs.Recorder.k_lookup 1;
    ignore (Service.lookup svc ~vpn)
  end
  else begin
    let pages =
      min (span - off) (1 + Int64.to_int (Int64.logand (Int64.shift_right_logical r 32) 31L))
    in
    let region = Addr.Region.make ~first_vpn:vpn ~pages in
    let writable = Int64.logand (Int64.shift_right_logical r 40) 1L = 0L in
    rec_op Obs.Recorder.k_protect pages;
    ignore (Service.protect svc region ~writable)
  end

(* An op whose crash site stays armed attempt after attempt must not
   wedge the soak; past this many consecutive crashes at one op the
   driver stops consulting the site for it.  Deterministic — the cap
   depends only on the per-op crash count. *)
let max_crash_attempts = 8

let run cfg =
  if cfg.streams < 1 then invalid_arg "Faultsim.run: streams must be >= 1";
  if cfg.ops < 1 then invalid_arg "Faultsim.run: ops must be >= 1";
  let svc =
    Service.create ~buckets:cfg.buckets ~org:cfg.org ~locking:cfg.locking ()
  in
  let plan =
    Fault.plan ~rate_ppm:cfg.rate_ppm ~sites:cfg.sites ~seed:cfg.seed ()
  in
  Obs.Recorder.arm ~streams:cfg.streams ~capacity:512;
  let lock = Service.lock_code cfg.locking in
  let cursors = Array.make cfg.streams 0 in
  let crash_attempts = Array.make cfg.streams 0 in
  let stream s =
    while cursors.(s) < cfg.ops do
      let op = cursors.(s) in
      Fault.set_context ~key:((s * cfg.ops) + op);
      Fault.set_attempt 0;
      let fault = Fault.armed_mask () in
      Fault.set_attempt crash_attempts.(s);
      if crash_attempts.(s) < max_crash_attempts && Fault.armed Fault.Domain_crash
      then begin
        Obs.Recorder.record ~stream:s ~kind:Obs.Recorder.k_crash ~asid:s
          ~vpn:0 ~pages:0 ~lock ~attempt:crash_attempts.(s) ~fault ~lat:0;
        crash_attempts.(s) <- crash_attempts.(s) + 1;
        Fault.fire Fault.Domain_crash
      end;
      Fault.set_attempt 0;
      apply_op svc ~seed:cfg.seed ~stream:s ~op ~lock ~fault;
      Fault.clear_context ();
      crash_attempts.(s) <- 0;
      cursors.(s) <- op + 1
    done
  in
  Fault.with_plan plan @@ fun () ->
  Exec.Soak.with_streams
    ~epochs:(Option.to_list (Service.reader_epoch svc))
    ~domains:cfg.domains ~streams:cfg.streams
  @@ fun soak ->
  Exec.Soak.each soak stream;
  let injected =
    List.map (fun s -> (Fault.site_name s, Fault.injected s)) Fault.all_sites
  in
  let retries = Fault.retries () in
  let aborts = Fault.aborts () in
  let crashes = Fault.injected Fault.Domain_crash in
  let restarts = Exec.Soak.restarts soak in
  (* workers are parked (registered but unpinned), so this drains
     every limbo node; fsck then checks the drained state *)
  Service.quiesce svc;
  let pre = Service.fsck svc in
  let pre_findings = List.length pre.Fsck.findings in
  let kept, dropped =
    if pre_findings = 0 then (0, 0)
    else
      let r = Service.repair svc in
      (r.Fsck.kept, r.Fsck.dropped)
  in
  let repairs = Fault.repairs () in
  let fsck_clean = Fsck.clean (Service.fsck svc) in
  {
    o_seed = cfg.seed;
    o_org = cfg.org;
    o_locking = cfg.locking;
    o_streams = cfg.streams;
    o_ops = cfg.ops;
    injected;
    retries;
    aborts;
    crashes;
    restarts;
    repairs;
    pre_findings;
    kept;
    dropped;
    fsck_clean;
    population = Service.population svc;
  }

(* Deliberately omits the domain count: two runs differing only in
   [--domains] must serialize byte-identically. *)
let outcome_to_json o =
  let int = Jsonx.int in
  Jsonx.obj
    [
      ("seed", int o.o_seed); ("org", Jsonx.string (Service.org_name o.o_org));
      ("locking", Jsonx.string (Service.locking_name o.o_locking));
      ("streams", int o.o_streams); ("ops", int o.o_ops);
      ( "injected",
        Jsonx.obj (List.map (fun (name, n) -> (name, int n)) o.injected) );
      ("retries", int o.retries); ("aborts", int o.aborts);
      ("crashes", int o.crashes); ("restarts", int o.restarts);
      ("repairs", int o.repairs); ("pre_findings", int o.pre_findings);
      ("kept", int o.kept); ("dropped", int o.dropped);
      ("fsck_clean", Jsonx.bool o.fsck_clean); ("population", int o.population);
    ]

let pp_outcome ppf o =
  Format.fprintf ppf "faultsim seed=%d %s/%s streams=%d ops=%d@," o.o_seed
    (Service.org_name o.o_org)
    (Service.locking_name o.o_locking)
    o.o_streams o.o_ops;
  List.iter
    (fun (name, n) ->
      if n > 0 then Format.fprintf ppf "  injected %-12s %d@," name n)
    o.injected;
  Format.fprintf ppf
    "  retries %d, aborts %d, crashes %d, restarts %d, repairs %d@," o.retries
    o.aborts o.crashes o.restarts o.repairs;
  Format.fprintf ppf "  fsck: %d finding(s) before repair, end state %s@,"
    o.pre_findings
    (if o.fsck_clean then "clean" else "CORRUPT");
  Format.fprintf ppf "  population %d" o.population
