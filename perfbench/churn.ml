(* fleet-churn and durable-churn: eight tenants' churn streams replayed
   by one client.

   Each tenant gets a Dynamics.Churn stream with the fleet simulator's
   per-tenant shape (4-64-page regions, at most 1200 live pages, no
   drain); Dynamics.Fleet_replay interprets the streams and the tenants
   interleave in 48-event quanta.  fleet-churn submits to a
   Fleet.Sharded fleet (4 clustered shards, seqlock reads, batched
   ranges); durable-churn submits to 4 Durable.Shards (clustered,
   striped locks), tenant [asid] on shard [asid mod 4] with ASID-tagged
   keys, checkpointing each shard every [checkpoint_every] mutations and
   recovering every shard at fixed points.  A touch is the TLB-miss
   lookup: one Sharded.find, or one Service.find on the shard's
   service.  A shadow set of each tenant's mapped pages is the oracle. *)

module Service = Pt_service.Service
module Sharded = Fleet.Sharded
module Shard = Durable.Shard
module Wal = Durable.Wal
module Replay = Dynamics.Fleet_replay
module Region = Addr.Region

type flavour = Fleet | Durable

let tenants = 8

let shards = 4

let quantum = 48

(* recovery points per pass, the last one at the end of the streams *)
let recovery_points = 4

(* A run cycles its passes over this many independent 8-tenant stream
   sets, so one seed's figures average over 64 tenant streams. *)
let stream_sets = 8

let spec ~ops =
  {
    Dynamics.Churn.ops;
    max_procs = 4;
    max_live_pages = 1_200;
    region_min = 4;
    region_max = 64;
    touch_burst = 16;
    drain = false;
  }

let stream_set ~seed ~ops =
  Array.init tenants (fun i ->
      Dynamics.Churn.generate ~spec:(spec ~ops)
        ~seed:(Int64.of_int (seed + (977 * i)))
        ())

let streams ~seed ~ops =
  Array.init stream_sets (fun k ->
      stream_set ~seed:((seed * stream_sets) + k) ~ops)

let tag ~asid local =
  Int64.logor (Int64.shift_left (Int64.of_int asid) Sharded.asid_shift) local

let tagged ~asid (r : Region.t) =
  Region.make ~first_vpn:(tag ~asid r.first_vpn) ~pages:r.pages

(* the placement every layer under test uses *)
let ppn_of vpn = Int64.logand vpn 0xFFF_FFFFL

let shard_of asid = asid mod shards

let attr = Pte.Attr.default

(* One rung of the stack, addressed with tenant-local regions and keys. *)
type backend = {
  map : asid:int -> Region.t -> int;
  unmap : asid:int -> Region.t -> int;
  protect : asid:int -> Region.t -> writable:bool -> int;
  find : asid:int -> int64 -> Pt_common.Types.translation option;
}

(* --- the stacks --- *)

let fleet_backend fleet =
  {
    map = (fun ~asid r -> Sharded.map fleet ~asid r);
    unmap = (fun ~asid r -> Sharded.unmap fleet ~asid r);
    protect =
      (fun ~asid r ~writable -> Sharded.protect fleet ~asid r ~writable);
    find = (fun ~asid k -> Sharded.find fleet ~asid k);
  }

let new_fleet () =
  Sharded.create ~org:Service.Clustered ~locking:Service.Seqlock ~shards
    ~tenants ~mode:Sharded.Batched ()

(* stream length and checkpoint cadence *)
type size = { ops_per_tenant : int; checkpoint_every : int }

type durable = {
  shard : Shard.t array;
  mutations : int array;
  checkpoint_every : int;  (** mutations per shard between checkpoints *)
  checkpoint : Meter.stat;  (** checkpoint calls, charged in place *)
  suffix_pages : int array;
      (** pages covered by each shard's records since its last
          checkpoint: what recovery replays *)
}

let new_durable (size : size) =
  {
    shard =
      Array.init shards (fun _ ->
          Shard.create ~org:Service.Clustered ~locking:Service.Striped ~ppn_of
            ());
    mutations = Array.make shards 0;
    checkpoint_every = size.checkpoint_every;
    checkpoint = Meter.stat ();
    suffix_pages = Array.make shards 0;
  }

(* a checkpoint's time lands inside the submission that triggers it *)
let durable_backend d =
  let submit ~asid (r : Region.t) f =
    let s = shard_of asid in
    let sections = f d.shard.(s) (tagged ~asid r) in
    d.mutations.(s) <- d.mutations.(s) + 1;
    d.suffix_pages.(s) <- d.suffix_pages.(s) + r.pages;
    if d.mutations.(s) mod d.checkpoint_every = 0 then begin
      let t0 = Meter.now () in
      Shard.checkpoint d.shard.(s);
      Meter.charge d.checkpoint ~ns:(Meter.now () - t0) ~words:0.;
      d.suffix_pages.(s) <- 0
    end;
    sections
  in
  {
    map = (fun ~asid r -> submit ~asid r (fun sh tr -> Shard.map sh ~asid tr));
    unmap =
      (fun ~asid r -> submit ~asid r (fun sh tr -> Shard.unmap sh ~asid tr));
    protect =
      (fun ~asid r ~writable ->
        submit ~asid r (fun sh tr -> Shard.protect sh ~asid tr ~writable));
    find =
      (fun ~asid k ->
        let svc = Shard.service d.shard.(shard_of asid) in
        Service.find svc ~vpn:(tag ~asid k));
  }

let services_of_durable d = Array.map Shard.service d.shard

let services_of_fleet fleet = Array.init shards (Sharded.shard fleet)

(* The Service rung: bare services, one per shard. *)
let service_backend svcs =
  let svc asid = svcs.(shard_of asid) in
  {
    map =
      (fun ~asid r ->
        Service.map_range (svc asid) (tagged ~asid r) ~ppn_of ~attr);
    unmap = (fun ~asid r -> Service.unmap_range (svc asid) (tagged ~asid r));
    protect =
      (fun ~asid r ~writable ->
        Service.protect_range (svc asid) (tagged ~asid r) ~writable);
    find = (fun ~asid k -> Service.find (svc asid) ~vpn:(tag ~asid k));
  }

(* The bare-table rung: the benchmark's own per-page insert/remove loop
   over Pt_common.Intf. *)
let table_backend tables =
  let module Intf = Pt_common.Intf in
  let pt asid = tables.(shard_of asid) in
  let acc = Mem.Walk_acc.create () in
  {
    map =
      (fun ~asid r ->
        let pt = pt asid in
        Region.iter_vpns (tagged ~asid r) (fun vpn ->
            Intf.insert_base pt ~vpn ~ppn:(ppn_of vpn) ~attr);
        r.pages);
    unmap =
      (fun ~asid r ->
        let pt = pt asid in
        Region.iter_vpns (tagged ~asid r) (fun vpn -> Intf.remove pt ~vpn);
        r.pages);
    protect =
      (fun ~asid r ~writable ->
        Intf.set_attr_range (pt asid) (tagged ~asid r) ~f:(fun a ->
            { a with Pte.Attr.writable }));
    find =
      (fun ~asid k ->
        Mem.Walk_acc.reset acc;
        Intf.lookup_into (pt asid) acc ~vpn:(tag ~asid k));
  }

(* --- the live client: Fleet_replay over a backend, checked against
   the shadow set --- *)

type live = { range : Meter.latency; touch : Meter.latency }

let span_names = function
  | Fleet -> [| "quantum"; "fleet.submit"; "fleet.find" |]
  | Durable -> [| "quantum"; "durable.submit"; "service.find" |]

(* the quantum's span (layer 0) parents the calls inside it *)
type tracing = { spans : Meter.Spans.t; mutable op : int }

(* [pages] counts the pages the submissions cover *)
let live_ops r shadow be live tracing pages ~asid =
  let sh = shadow.(asid - 1) in
  let span layer t0 t1 =
    match tracing with
    | Some tr -> Meter.Spans.add tr.spans ~layer ~op:tr.op ~start:t0 ~stop:t1
    | None -> ()
  in
  let submit what f (region : Region.t) =
    let t0 = Meter.now () in
    let sections =
      try f region
      with e ->
        Meter.fail r
          (Printf.sprintf "asid %d %s %Lx+%d raised %s" asid what
             region.first_vpn region.pages (Printexc.to_string e));
        0
    in
    let t1 = Meter.now () in
    Hist.add live.range.hist (t1 - t0);
    span 1 t0 t1;
    pages := !pages + region.pages;
    sections
  in
  {
    Replay.map =
      (fun region ->
        let s = submit "map" (be.map ~asid) region in
        Region.iter_vpns region (fun v -> Hashtbl.replace sh v attr.writable);
        s);
    unmap =
      (fun region ->
        let s = submit "unmap" (be.unmap ~asid) region in
        Region.iter_vpns region (fun v -> Hashtbl.remove sh v);
        s);
    protect =
      (fun region ~writable ->
        let s =
          submit "protect" (fun reg -> be.protect ~asid reg ~writable) region
        in
        Region.iter_vpns region (fun v ->
            if Hashtbl.mem sh v then Hashtbl.replace sh v writable);
        s);
    touch =
      (fun key ->
        let t0 = Meter.now () in
        let got = try Ok (be.find ~asid key) with e -> Error e in
        let t1 = Meter.now () in
        Hist.add live.touch.hist (t1 - t0);
        span 2 t0 t1;
        let want = Hashtbl.find_opt sh key in
        (match (got, want) with
        | Ok None, None -> ()
        | Ok (Some tr), Some w
          when Int64.equal tr.Pt_common.Types.ppn (ppn_of key)
               && tr.attr.Pte.Attr.writable = w ->
            ()
        | Ok _, _ ->
            Meter.fail r
              (Printf.sprintf "asid %d key %Lx: touch disagrees with the shadow"
                 asid key)
        | Error e, _ ->
            Meter.fail r
              (Printf.sprintf "asid %d key %Lx: find raised %s" asid key
                 (Printexc.to_string e)));
        Option.is_some want);
  }

(* Round-robin the tenants' cursors in quanta until every stream is
   consumed; [after] sees the running event count after each quantum.
   Returns the nanoseconds spent inside the quanta. *)
let interleave ?tracing cursors ~after =
  let ns = ref 0 and consumed = ref 0 and busy = ref true in
  while !busy do
    busy := false;
    Array.iter
      (fun c ->
        if not (Replay.finished c) then begin
          busy := true;
          let t0 = Meter.now () in
          let n = Replay.step c ~max_events:quantum in
          let t1 = Meter.now () in
          (match tracing with
          | Some tr ->
              Meter.Spans.add tr.spans ~layer:0 ~op:tr.op ~start:t0 ~stop:t1;
              tr.op <- tr.op + 1
          | None -> ());
          ns := !ns + (t1 - t0);
          consumed := !consumed + n;
          after !consumed
        end)
      cursors
  done;
  !ns

let events streams = Array.fold_left (fun a s -> a + Array.length s) 0 streams

let new_shadow () = Array.init tenants (fun _ -> Hashtbl.create 1024)

let shadow_pages shadow =
  Array.fold_left (fun a h -> a + Hashtbl.length h) 0 shadow

(* Table footprint and walk cost, sampled at [footprint_points] even
   points of a pass: bytes per mapped page, and the distinct cache lines
   a TLB-miss walk touches, over every live page. *)
let footprint_points = 16

type footprint = {
  mutable bytes : int;
  mutable pages : int;
  mutable lines : int;
  mutable walks : int;
}

let sample fp svcs shadow =
  Array.iter
    (fun s ->
      fp.bytes <- fp.bytes + Service.size_bytes s;
      fp.pages <- fp.pages + Service.population s)
    svcs;
  let acc = Mem.Walk_acc.create () in
  let counter = Mem.Cache_model.create_counter () in
  Array.iteri
    (fun t h ->
      let asid = t + 1 in
      let svc = svcs.(shard_of asid) in
      Hashtbl.iter
        (fun key _ ->
          Mem.Walk_acc.reset acc;
          ignore (Service.lookup_into svc acc ~vpn:(tag ~asid key));
          ignore (Mem.Cache_model.record_acc counter acc))
        h)
    shadow;
  fp.lines <- fp.lines + Mem.Cache_model.total_lines counter;
  fp.walks <- fp.walks + Mem.Cache_model.walks counter

(* Recover every shard, checking its live set survives unchanged. *)
let recover_all r d ~hist =
  Array.iteri
    (fun i sh ->
      let before = Shard.live sh in
      let t0 = Meter.now () in
      (try Shard.recover sh
       with e ->
         Meter.fail r
           (Printf.sprintf "shard %d: recover raised %s" i
              (Printexc.to_string e)));
      Hist.add hist (Meter.now () - t0);
      if Shard.live sh <> before then
        Meter.fail r
          (Printf.sprintf "shard %d: live set changed across recovery" i))
    d.shard

let sum f xs = Array.fold_left (fun a x -> a + f x) 0 xs

let restored d = sum Shard.restored_mappings d.shard

let wal_bytes d = sum (fun sh -> Wal.length (Shard.wal sh)) d.shard

type pass_out = {
  events : int;
  ns : int;  (** spent inside the quanta *)
  pages : int;  (** covered by submissions *)
  durable : durable option;
}

(* One live pass from empty tables; with [?footprint] it also samples
   the footprint into it. *)
let live_pass ?tracing ?footprint flavour size r streams live ~recovery =
  let shadow = new_shadow () in
  let be, svcs, dur, fleet =
    match flavour with
    | Fleet ->
        let f = new_fleet () in
        (fleet_backend f, services_of_fleet f, None, Some f)
    | Durable ->
        let d = new_durable size in
        (durable_backend d, services_of_durable d, Some d, None)
  in
  let pages = ref 0 in
  let cursors =
    Array.init tenants (fun t ->
        Replay.create
          (live_ops r shadow be live tracing pages ~asid:(t + 1))
          streams.(t))
  in
  let total = events streams in
  let current () =
    match dur with Some d -> services_of_durable d | None -> svcs
  in
  let next_recovery = ref 1 and next_sample = ref 1 in
  let restored0 = match dur with Some d -> restored d | None -> 0 in
  let after consumed =
    (match dur with
    | Some d when consumed * recovery_points >= !next_recovery * total ->
        incr next_recovery;
        recover_all r d ~hist:recovery
    | _ -> ());
    match footprint with
    | Some fp when consumed * footprint_points >= !next_sample * total ->
        incr next_sample;
        sample fp (current ()) shadow
    | _ -> ()
  in
  let ns = interleave ?tracing cursors ~after in
  (* end-of-pass gates *)
  let svcs = current () in
  let population =
    Array.fold_left (fun a s -> a + Service.population s) 0 svcs
  in
  if population <> shadow_pages shadow then
    Meter.fail r
      (Printf.sprintf "tables hold %d mappings, the shadow set %d" population
         (shadow_pages shadow));
  (match fleet with
  | Some f ->
      Sharded.quiesce f;
      if not (Sharded.fsck_clean (Sharded.fsck f)) then
        Meter.fail r "Sharded.fsck is not clean"
  | None -> ());
  (match dur with
  | Some d when restored d - restored0 = 0 ->
      Meter.fail r "no recovery restored a mapping from a checkpoint"
  | _ -> ());
  { events = total; ns; pages = !pages; durable = dur }

(* --- the traced run's rungs --- *)

type op =
  | Map of int * Region.t
  | Unmap of int * Region.t
  | Protect of int * Region.t * bool
  | Touch of int * int64

(* The op stream the live client submits, in order: the same
   interpretation and interleaving, with touches answered by the shadow
   set. *)
let record streams =
  let shadow = new_shadow () and out = ref [] in
  let ops_for asid =
    let sh = shadow.(asid - 1) in
    {
      Replay.map =
        (fun r ->
          out := Map (asid, r) :: !out;
          Region.iter_vpns r (fun v -> Hashtbl.replace sh v true);
          0);
      unmap =
        (fun r ->
          out := Unmap (asid, r) :: !out;
          Region.iter_vpns r (fun v -> Hashtbl.remove sh v);
          0);
      protect =
        (fun r ~writable ->
          out := Protect (asid, r, writable) :: !out;
          0);
      touch =
        (fun k ->
          out := Touch (asid, k) :: !out;
          Hashtbl.mem sh k);
    }
  in
  let cursors =
    Array.init tenants (fun t -> Replay.create (ops_for (t + 1)) streams.(t))
  in
  ignore (interleave cursors ~after:ignore);
  Array.of_list (List.rev !out)

type rung = {
  submit : Meter.stat;
  lookup : Meter.stat;
  mutable pages : int;
  mutable sections : int;
}

let rung () =
  { submit = Meter.stat (); lookup = Meter.stat (); pages = 0; sections = 0 }

let replay ops be (g : rung) =
  let range f pages =
    let w0 = Meter.minor_words () in
    let t0 = Meter.now () in
    let s = f () in
    let t1 = Meter.now () in
    Meter.charge g.submit ~ns:(t1 - t0) ~words:(Meter.minor_words () -. w0);
    g.pages <- g.pages + pages;
    g.sections <- g.sections + s
  in
  Array.iter
    (function
      | Map (asid, r) -> range (fun () -> be.map ~asid r) r.pages
      | Unmap (asid, r) -> range (fun () -> be.unmap ~asid r) r.pages
      | Protect (asid, r, writable) ->
          range (fun () -> be.protect ~asid r ~writable) r.pages
      | Touch (asid, k) ->
          let t0 = Meter.now () in
          ignore (be.find ~asid k);
          Meter.charge g.lookup ~ns:(Meter.now () - t0) ~words:0.)
    ops

(* A standalone Wal.append of the records the durable rung logs. *)
let wal_appends ops (s : Meter.stat) =
  let w = Wal.create () in
  let append op =
    let t0 = Meter.now () in
    Wal.append w op;
    Meter.charge s ~ns:(Meter.now () - t0) ~words:0.
  in
  Array.iter
    (function
      | Map (asid, r) ->
          append
            (Wal.Map { asid; vpn = tag ~asid r.first_vpn; pages = r.pages })
      | Unmap (asid, r) ->
          append
            (Wal.Unmap { asid; vpn = tag ~asid r.first_vpn; pages = r.pages })
      | Protect (asid, r, writable) ->
          append
            (Wal.Protect
               { asid; vpn = tag ~asid r.first_vpn; pages = r.pages; writable })
      | Touch _ -> ())
    ops

(* --- the run --- *)

let run flavour ~seed ~seconds ~size ~traced ~spans (r : Meter.result) =
  let gen_times = ref [] in
  (* the tables start empty: each pass creates its own *)
  let sets, setup_s =
    Meter.timed_setup (fun () ->
        let t0 = Meter.now () in
        let s = streams ~seed ~ops:size.ops_per_tenant in
        gen_times := Meter.seconds_since t0 :: !gen_times;
        s)
  in
  let live =
    { range = Meter.latency stream_sets; touch = Meter.latency stream_sets }
  in
  let recovery = Hist.create () in
  (* deterministic figures, summed over the first pass of every set *)
  let fp = { bytes = 0; pages = 0; lines = 0; walks = 0 } in
  let wal_bytes_sum = ref 0 and wal_pages = ref 0 in
  (* events per set *)
  let set_events = Array.map events sets in
  let pass ?tracing i =
    let k = i mod stream_sets and probe = i < stream_sets in
    let footprint = if probe then Some fp else None in
    let p =
      live_pass ?tracing ?footprint flavour size r sets.(k) live ~recovery
    in
    (* only untraced passes feed the latency figures *)
    if Option.is_none tracing then begin
      Meter.close_pass live.range k;
      Meter.close_pass live.touch k
    end
    else begin
      Hist.reset live.range.hist;
      Hist.reset live.touch.hist
    end;
    r.attempted <- r.attempted + p.events;
    if probe then begin
      Option.iter
        (fun d ->
          wal_bytes_sum := !wal_bytes_sum + wal_bytes d;
          wal_pages := !wal_pages + p.pages)
        p.durable
    end;
    p.ns
  in
  let rate = Meter.rate ~events:(Array.fold_left ( + ) 0 set_events) in
  let f = float_of_int in
  let wal_per_page () = Meter.ratio (f !wal_bytes_sum) (f !wal_pages) in
  let recovery_ms () = Hist.quantile recovery 0.5 /. 1e6 in
  (* the traced run's rungs replay each set's recorded op stream *)
  let ops =
    if not traced then [||]
    else begin
      let t0 = Meter.now () in
      let ops = Array.map record sets in
      Meter.note r "recorded op streams: %d ops in %.3f s"
        (Array.fold_left (fun a o -> a + Array.length o) 0 ops)
        (Meter.seconds_since t0);
      ops
    end
  in
  let bare = rung () and svc = rung () and top = rung () in
  let ckpt = Meter.stat () and wal = Meter.stat ()
  and recover = Meter.stat () in
  let recovered_maps = ref 0 in
  (* deterministic counts, summed over the first rung replay of every set *)
  let retries = ref 0 and fallbacks = ref 0 and replayed = ref 0
  and restored_maps = ref 0 in
  let locking =
    match flavour with Fleet -> Service.Seqlock | Durable -> Service.Striped
  in
  let rungs k ~first =
    let tables =
      Array.init shards (fun _ -> Sim.Factory.make Sim.Factory.clustered16)
    in
    replay ops.(k) (table_backend tables) bare;
    let svcs =
      Array.init shards (fun _ ->
          Service.create ~org:Service.Clustered ~locking ())
    in
    replay ops.(k) (service_backend svcs) svc;
    if first then begin
      retries := !retries + sum Service.seqlock_retries svcs;
      fallbacks := !fallbacks + sum Service.seqlock_fallbacks svcs
    end;
    match flavour with
    | Fleet -> replay ops.(k) (fleet_backend (new_fleet ())) top
    | Durable ->
        let d = new_durable size in
        replay ops.(k) (durable_backend d) top;
        ckpt.calls <- ckpt.calls + d.checkpoint.calls;
        ckpt.ns <- ckpt.ns + d.checkpoint.ns;
        wal_appends ops.(k) wal;
        Array.iteri
          (fun s sh ->
            let restored0 = Shard.restored_mappings sh in
            let t0 = Meter.now () in
            Shard.recover sh;
            Meter.charge recover ~ns:(Meter.now () - t0) ~words:0.;
            recovered_maps :=
              !recovered_maps + Shard.restored_mappings sh - restored0
              + d.suffix_pages.(s))
          d.shard;
        if first then begin
          replayed := !replayed + sum Shard.replayed_records d.shard;
          restored_maps := !restored_maps + restored d
        end
  in
  let tracing = { spans; op = 0 } in
  let plain_ns = Meter.passes stream_sets
  and traced_ns = Meter.passes stream_sets in
  let words = ref 0. and events = ref 0 in
  let gc0 = Gc.quick_stat () in
  ignore
    (Meter.for_seconds ~min_passes:stream_sets seconds (fun i ->
         let k = i mod stream_sets in
         let plain () =
           let w0 = Meter.minor_words () and ev = r.attempted in
           Meter.add plain_ns k (f (pass i));
           (* probe passes also allocate for their footprint samples *)
           if i >= stream_sets then begin
             words := !words +. (Meter.minor_words () -. w0);
             events := !events + (r.attempted - ev)
           end
         in
         (* not a probe pass: the footprint is sampled once per set *)
         let traced_pass () =
           Meter.add traced_ns k (f (pass ~tracing (i + stream_sets)))
         in
         if not traced then plain ()
         else begin
           (* alternate which pass runs first, so neither always meets
              the caches the other warmed *)
           let first, second =
             if i mod 2 = 0 then (plain, traced_pass) else (traced_pass, plain)
           in
           first ();
           Gc.full_major ();
           second ();
           rungs k ~first:(i < stream_sets)
         end));
  if not traced then begin
    Meter.set r "setup_s" setup_s;
    Meter.set r "ops_per_s" (rate plain_ns);
    Meter.set r "lines_per_miss" (Meter.ratio (f fp.lines) (f fp.walks));
    Meter.set r "pt_bytes_per_page" (Meter.ratio (f fp.bytes) (f fp.pages));
    Meter.set r "range_p50_us" (Meter.mean_upper live.range.p50 /. 1e3);
    Meter.set r "range_p99_us" (Meter.mean_upper live.range.p99 /. 1e3);
    Meter.set r "touch_p50_ns" (Meter.mean_upper live.touch.p50);
    Meter.set r "touch_p99_ns" (Meter.mean_upper live.touch.p99);
    Meter.note r "samples: range=%d touch=%d recovery=%d" live.range.samples
      live.touch.samples (Hist.count recovery);
    if flavour = Durable then begin
      Meter.extra r "wal_bytes_per_page" (wal_per_page ()) "bytes";
      Meter.extra r "recovery_p50_ms" (recovery_ms ()) "ms"
    end
  end
  else begin
    let gc1 = Gc.quick_stat () in
    let per_page (g : rung) x = Meter.ratio x (f g.pages) in
    let ns (s : Meter.stat) = f s.ns in
    let svc_ns_page = per_page svc (ns svc.submit) in
    Meter.set r "core.range_ns_per_page" (per_page bare (ns bare.submit));
    Meter.set r "service.range_ns_per_page" svc_ns_page;
    Meter.set r "service.overhead_ns_per_page"
      (svc_ns_page -. per_page bare (ns bare.submit));
    Meter.set r "service.range_words_per_page" (per_page svc svc.submit.words);
    Meter.set r "service.find_ns" (Meter.ns_per_call svc.lookup);
    Meter.set r "service.write_sections_per_page"
      (per_page svc (f svc.sections));
    Meter.set r "service.seqlock_retries" (f !retries);
    Meter.set r "service.seqlock_fallbacks" (f !fallbacks);
    let over_submit =
      Meter.ratio
        (ns top.submit -. ns ckpt -. ns svc.submit)
        (f svc.submit.calls)
    in
    (match flavour with
    | Fleet ->
        Meter.set r "fleet.dispatch_ns" over_submit;
        Meter.set r "fleet.find_overhead_ns"
          (Meter.ns_per_call top.lookup -. Meter.ns_per_call svc.lookup)
    | Durable ->
        Meter.set r "durable.wal_append_ns" (Meter.ns_per_call wal);
        Meter.set r "durable.submit_overhead_ns" over_submit;
        Meter.set r "durable.checkpoint_ms" (Meter.ns_per_call ckpt /. 1e6);
        Meter.set r "durable.checkpoint_share"
          (Meter.ratio (ns ckpt) (ns top.submit));
        Meter.set r "durable.replayed_records" (f !replayed);
        Meter.set r "durable.restored_mappings" (f !restored_maps);
        Meter.set r "durable.recover_ns_per_mapping"
          (Meter.ratio (ns recover) (f !recovered_maps));
        Meter.set r "durable.wal_bytes_per_page" (wal_per_page ());
        Meter.set r "durable.recovery_p50_ms" (recovery_ms ()));
    Meter.set r "dynamics.churn_gen_s" (Meter.median !gen_times);
    Meter.set r "gc.minor_words_per_op" (Meter.ratio !words (f !events));
    Meter.set r "gc.major_collections"
      (f (gc1.major_collections - gc0.major_collections));
    let untraced = rate plain_ns and traced = rate traced_ns in
    Meter.set r "trace.untraced_ops_per_s" untraced;
    Meter.set r "trace.ops_per_s" traced;
    Meter.set r "trace.overhead_frac" (Meter.ratio untraced traced -. 1.)
  end;
  Meter.gc_delta r gc0
