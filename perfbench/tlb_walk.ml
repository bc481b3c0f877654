(* tlb-walk: the trap-driven path Sim.Access_exp runs.

   A future64 snapshot (base PTEs) populates one clustered table and one
   hashed table per process from the same Sim.Builder assignment.  Every
   trace access probes a 64-entry fully-associative TLB; a miss walks
   the clustered table with lookup_into and fills the TLB from it, then
   walks the hashed table for the same page, and both walks are charged
   through Mem.Cache_model (256-byte lines).  No Service, fleet or WAL
   code runs here. *)

module Intf = Pt_common.Intf

let spec = Workload.Table1.future64

let line_size = Mem.Cache_model.default_line_size

let tlb_entries = 64

(* A run cycles its passes over this many independent snapshot+trace
   sets, so one seed's figures average over both. *)
let trace_sets = 2

type tables = {
  assignments : Sim.Builder.assignment array;  (** one per process *)
  mutable clustered : Intf.instance array;
  hashed : Intf.instance array;
  trace : Workload.Trace.t;
}

(* A clustered table per process, built page block by page block;
   [range] receives each block's time: the workload's range-map
   submissions. *)
let populate_clustered ?range assignments =
  Array.map
    (fun (a : Sim.Builder.assignment) ->
      let pt = Sim.Factory.make Sim.Factory.clustered16 in
      List.iter
        (fun b ->
          let s = Meter.now () in
          Sim.Builder.populate pt { a with blocks = [ b ] } ~policy:`Base;
          Option.iter (fun h -> Hist.add h (Meter.now () - s)) range)
        a.blocks;
      pt)
    assignments

(* One set: returns it with its generation and population seconds. *)
let build_set ~seed ~length =
  let t0 = Meter.now () in
  let snap = Workload.Snapshot.generate spec ~seed in
  let trace =
    Workload.Trace.generate spec snap ~seed:(Int64.add seed 0x77L) ~length
  in
  let gen_s = Meter.seconds_since t0 in
  let t1 = Meter.now () in
  let assignments =
    List.mapi
      (fun i proc ->
        Sim.Builder.assign proc
          ~seed:(Int64.add seed (Int64.of_int (i + 1)))
          ())
      snap.Workload.Snapshot.procs
    |> Array.of_list
  in
  let hashed =
    Array.map
      (fun a ->
        let pt = Sim.Factory.make Sim.Factory.Hashed in
        Sim.Builder.populate pt a ~policy:`Base;
        pt)
      assignments
  in
  let clustered = populate_clustered assignments in
  ({ assignments; clustered; hashed; trace }, gen_s, Meter.seconds_since t1)

(* the correctness gate: both organizations translate the page alike *)
let agree (a : Pt_common.Types.translation option)
    (b : Pt_common.Types.translation option) =
  match (a, b) with
  | Some a, Some b -> Int64.equal a.ppn b.ppn && a.attr = b.attr
  | _ -> false

let disagree r vpn =
  Meter.fail r
    (Printf.sprintf "vpn %Lx: clustered and hashed walks disagree" vpn)

type pass = {
  accesses : int;
  misses : int;
  lines : int;  (** clustered, distinct lines summed over misses *)
  hashed_lines : int;
  probes : int;  (** clustered walk probes summed over misses *)
}

(* One untraced replay of the trace from a cold TLB.  [touch] receives
   each miss's clustered walk plus TLB fill. *)
let plain_pass tb r ~touch =
  let tlb = Tlb.Intf.fa ~entries:tlb_entries () in
  let acc = Mem.Walk_acc.create () and acc_h = Mem.Walk_acc.create () in
  let cl = Mem.Cache_model.create_counter ~line_size ()
  and hl = Mem.Cache_model.create_counter ~line_size () in
  let accesses = ref 0 and probes = ref 0 in
  Array.iter
    (function
      | Workload.Trace.Switch _ -> Tlb.Intf.flush tlb
      | Workload.Trace.Access (p, vpn) -> (
          incr accesses;
          match Tlb.Intf.access tlb ~vpn with
          | `Hit -> ()
          | `Block_miss | `Subblock_miss ->
              let t0 = Meter.now () in
              Mem.Walk_acc.reset acc;
              let tr = Intf.lookup_into tb.clustered.(p) acc ~vpn in
              (match tr with Some tr -> Tlb.Intf.fill tlb tr | None -> ());
              Hist.add touch (Meter.now () - t0);
              Mem.Walk_acc.reset acc_h;
              let trh = Intf.lookup_into tb.hashed.(p) acc_h ~vpn in
              ignore (Mem.Cache_model.record_acc cl acc);
              ignore (Mem.Cache_model.record_acc hl acc_h);
              probes := !probes + Mem.Walk_acc.probes acc;
              if not (agree tr trh) then disagree r vpn)
      | _ -> ())
    tb.trace;
  {
    accesses = !accesses;
    misses = Mem.Cache_model.walks cl;
    lines = Mem.Cache_model.total_lines cl;
    hashed_lines = Mem.Cache_model.total_lines hl;
    probes = !probes;
  }

(* span layers of the traced pass *)
let names =
  [|
    "access";
    "tlb.access";
    "core.walk";
    "tlb.fill";
    "baselines.hashed_walk";
    "mem.line_count";
  |]

type layers = {
  access : Meter.stat;
  fill : Meter.stat;
  walk : Meter.stat;
  hashed : Meter.stat;
  count : Meter.stat;
}

(* The same replay with every layer call timed and spanned; returns the
   number of accesses. *)
let traced_pass tb r (l : layers) spans =
  let tlb = Tlb.Intf.fa ~entries:tlb_entries () in
  let acc = Mem.Walk_acc.create () and acc_h = Mem.Walk_acc.create () in
  let cl = Mem.Cache_model.create_counter ~line_size ()
  and hl = Mem.Cache_model.create_counter ~line_size () in
  let op = ref 0 in
  let span layer start stop =
    Meter.Spans.add spans ~layer ~op:!op ~start ~stop
  in
  Array.iter
    (function
      | Workload.Trace.Switch _ -> Tlb.Intf.flush tlb
      | Workload.Trace.Access (p, vpn) ->
          incr op;
          let w0 = Meter.minor_words () in
          let s0 = Meter.now () in
          let res = Tlb.Intf.access tlb ~vpn in
          let s1 = Meter.now () in
          Meter.charge l.access ~ns:(s1 - s0)
            ~words:(Meter.minor_words () -. w0);
          span 1 s0 s1;
          (match res with
          | `Hit -> ()
          | `Block_miss | `Subblock_miss ->
              Mem.Walk_acc.reset acc;
              let w0 = Meter.minor_words () in
              let s2 = Meter.now () in
              let tr = Intf.lookup_into tb.clustered.(p) acc ~vpn in
              let s3 = Meter.now () in
              Meter.charge l.walk ~ns:(s3 - s2)
                ~words:(Meter.minor_words () -. w0);
              span 2 s2 s3;
              let w1 = Meter.minor_words () in
              let s4 = Meter.now () in
              (match tr with Some tr -> Tlb.Intf.fill tlb tr | None -> ());
              let s5 = Meter.now () in
              Meter.charge l.fill ~ns:(s5 - s4)
                ~words:(Meter.minor_words () -. w1);
              span 3 s4 s5;
              Mem.Walk_acc.reset acc_h;
              let s6 = Meter.now () in
              let trh = Intf.lookup_into tb.hashed.(p) acc_h ~vpn in
              let s7 = Meter.now () in
              Meter.charge l.hashed ~ns:(s7 - s6) ~words:0.;
              span 4 s6 s7;
              ignore (Mem.Cache_model.record_acc cl acc);
              let s8 = Meter.now () in
              ignore (Mem.Cache_model.record_acc hl acc_h);
              let s9 = Meter.now () in
              Meter.charge l.count ~ns:(s8 - s7) ~words:0.;
              Meter.charge l.count ~ns:(s9 - s8) ~words:0.;
              span 5 s7 s9;
              if not (agree tr trh) then disagree r vpn);
          span 0 s0 (Meter.now ())
      | _ -> ())
    tb.trace;
  !op

let bytes_per_page tb =
  let sum f = Array.fold_left (fun a pt -> a + f pt) 0 tb.clustered in
  let bytes = sum Intf.size_bytes and pages = sum Intf.population in
  (bytes, pages)

let run ~seed ~seconds ~length ~traced ~spans (r : Meter.result) =
  let gen_times = ref [] and populate_times = ref [] in
  let sets, setup_s =
    Meter.timed_setup (fun () ->
        let built =
          Array.init trace_sets (fun k ->
              build_set ~seed:(Int64.of_int ((seed * trace_sets) + k)) ~length)
        in
        let sum f = Array.fold_left (fun a x -> a +. f x) 0. built in
        gen_times := sum (fun (_, g, _) -> g) :: !gen_times;
        populate_times := sum (fun (_, _, p) -> p) :: !populate_times;
        Array.map (fun (t, _, _) -> t) built)
  in
  (* deterministic figures, summed over the first pass of every set *)
  let misses = ref 0 and accesses0 = ref 0 and lines = ref 0
  and hashed_lines = ref 0 and probes = ref 0 and bytes = ref 0
  and pages = ref 0 in
  let record i tb p =
    if i < trace_sets then begin
      misses := !misses + p.misses;
      accesses0 := !accesses0 + p.accesses;
      lines := !lines + p.lines;
      hashed_lines := !hashed_lines + p.hashed_lines;
      probes := !probes + p.probes;
      let b, n = bytes_per_page tb in
      bytes := !bytes + b;
      pages := !pages + n
    end
  in
  let f = float_of_int in
  let per_miss n = Meter.ratio (f !n) (f !misses) in
  let set_accesses = Array.make trace_sets 0 in
  let rate ns = Meter.rate ~events:(Array.fold_left ( + ) 0 set_accesses) ns in
  (* every pass rebuilds its set's clustered table, timing each block *)
  let range = Meter.latency trace_sets
  and populate_ns = ref 0
  and populated = ref 0 in
  let rebuild k tb =
    let t0 = Meter.now () in
    tb.clustered <- populate_clustered ~range:range.hist tb.assignments;
    populate_ns := !populate_ns + (Meter.now () - t0);
    populated := !populated + snd (bytes_per_page tb);
    Meter.close_pass range k
  in
  let l =
    {
      access = Meter.stat ();
      fill = Meter.stat ();
      walk = Meter.stat ();
      hashed = Meter.stat ();
      count = Meter.stat ();
    }
  in
  let touch = Meter.latency trace_sets in
  let plain_ns = Meter.passes trace_sets
  and traced_ns = Meter.passes trace_sets in
  let words = ref 0. and accesses = ref 0 in
  let gc0 = Gc.quick_stat () in
  ignore
    (Meter.for_seconds ~min_passes:trace_sets seconds (fun i ->
         let k = i mod trace_sets in
         let tb = sets.(k) in
         rebuild k tb;
         let plain () =
           let w0 = Meter.minor_words () and t0 = Meter.now () in
           let p = plain_pass tb r ~touch:touch.hist in
           Meter.add plain_ns k (f (Meter.now () - t0));
           Meter.close_pass touch k;
           words := !words +. (Meter.minor_words () -. w0);
           accesses := !accesses + p.accesses;
           set_accesses.(k) <- p.accesses;
           r.attempted <- r.attempted + p.accesses;
           record i tb p
         in
         let traced_run () =
           let t0 = Meter.now () in
           let n = traced_pass tb r l spans in
           Meter.add traced_ns k (f (Meter.now () - t0));
           r.attempted <- r.attempted + n
         in
         if not traced then plain ()
         else begin
           (* alternate which pass runs first, so neither always meets
              the caches the other warmed *)
           let first, second =
             if i mod 2 = 0 then (plain, traced_run) else (traced_run, plain)
           in
           first ();
           Gc.full_major ();
           second ()
         end));
  if not traced then begin
    Meter.set r "setup_s" setup_s;
    Meter.set r "ops_per_s" (rate plain_ns);
    Meter.set r "lines_per_miss" (per_miss lines);
    Meter.set r "pt_bytes_per_page" (Meter.ratio (f !bytes) (f !pages));
    Meter.set r "range_p50_us" (Meter.mean_upper range.p50 /. 1e3);
    Meter.set r "range_p99_us" (Meter.mean_upper range.p99 /. 1e3);
    Meter.set r "touch_p50_ns" (Meter.mean_upper touch.p50);
    Meter.set r "touch_p99_ns" (Meter.mean_upper touch.p99);
    Meter.note r "samples: range=%d touch=%d" range.samples touch.samples
  end
  else begin
    let gc1 = Gc.quick_stat () in
    Meter.set r "tlb.access_ns" (Meter.ns_per_call l.access);
    Meter.set r "tlb.fill_ns" (Meter.ns_per_call l.fill);
    Meter.set r "tlb.words_per_access"
      (Meter.ratio (l.access.words +. l.fill.words) (f l.access.calls));
    Meter.set r "tlb.miss_ratio" (Meter.ratio (f !misses) (f !accesses0));
    Meter.set r "core.walk_ns" (Meter.ns_per_call l.walk);
    Meter.set r "core.walk_words" (Meter.words_per_call l.walk);
    Meter.set r "core.walk_probes" (per_miss probes);
    Meter.set r "core.walk_lines" (per_miss lines);
    Meter.set r "core.range_ns_per_page"
      (Meter.ratio (f !populate_ns) (f !populated));
    Meter.set r "baselines.hashed_walk_ns" (Meter.ns_per_call l.hashed);
    Meter.set r "baselines.hashed_walk_lines" (per_miss hashed_lines);
    Meter.set r "mem.line_count_ns" (Meter.ns_per_call l.count);
    Meter.set r "workload.trace_gen_s" (Meter.median !gen_times);
    Meter.set r "sim.populate_s" (Meter.median !populate_times);
    Meter.set r "gc.minor_words_per_op" (!words /. f !accesses);
    Meter.set r "gc.major_collections"
      (f (gc1.major_collections - gc0.major_collections));
    let untraced = rate plain_ns and traced = rate traced_ns in
    Meter.set r "trace.untraced_ops_per_s" untraced;
    Meter.set r "trace.ops_per_s" traced;
    Meter.set r "trace.overhead_frac" (Meter.ratio untraced traced -. 1.)
  end;
  Meter.gc_delta r gc0
