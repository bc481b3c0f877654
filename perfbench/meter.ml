(* Clocks, per-layer accumulators, the in-memory span buffer and the
   result record every workload fills. *)

(* ns-resolution monotonic clock; allocation-free *)
let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

let minor_words = Gc.minor_words

(* Time and minor-heap words spent in one layer's calls. *)
type stat = { mutable calls : int; mutable ns : int; mutable words : float }

let stat () = { calls = 0; ns = 0; words = 0. }

let charge s ~ns ~words =
  s.calls <- s.calls + 1;
  s.ns <- s.ns + ns;
  s.words <- s.words +. words

let ratio a b = if b = 0. then 0. else a /. b

let ns_per_call s = ratio (float_of_int s.ns) (float_of_int s.calls)

let words_per_call s = ratio s.words (float_of_int s.calls)

(* [q] in [0, 1], interpolating between neighbours; 0 for no values *)
let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 < Array.length a then
        a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
      else a.(i)

let median = quantile 0.5

(* Per-pass figures of a run, one list per input set.  A run reports
   the upper quartile of each set's figures: the shared host speeds up
   in bursts of seconds, which move a run's median but seldom its slow
   side, so the upper quartile is the steadier figure between runs. *)
type passes = float list array

let passes sets : passes = Array.make sets []

let add (p : passes) k x = p.(k) <- x :: p.(k)

let upper_quartile = quantile 0.75

(* summed over the sets *)
let sum_upper (p : passes) =
  Array.fold_left (fun a xs -> a +. upper_quartile xs) 0. p

(* averaged over the sets *)
let mean_upper (p : passes) = sum_upper p /. float_of_int (Array.length p)

(* [events] per second when each set's pass takes its upper-quartile
   time *)
let rate ~events (pass_ns : passes) =
  float_of_int events /. (sum_upper pass_ns *. 1e-9)

(* A latency histogram read once per pass: the pass's p50 and p99 go
   to the per-set figures, then it starts afresh. *)
type latency = {
  hist : Hist.t;
  p50 : passes;
  p99 : passes;
  mutable samples : int;
}

let latency sets =
  { hist = Hist.create (); p50 = passes sets; p99 = passes sets; samples = 0 }

let close_pass l k =
  add l.p50 k (Hist.quantile l.hist 0.5);
  add l.p99 k (Hist.quantile l.hist 0.99);
  l.samples <- l.samples + Hist.count l.hist;
  Hist.reset l.hist

(* Run [build] [setup_repeats] times and keep the last result; returns
   it with the median build time.  A full major collection between
   builds (not timed) keeps earlier builds' garbage from inflating the
   heap peak. *)
let setup_repeats = 5

let timed_setup build =
  let rec go k acc last =
    if k = 0 then (Option.get last, median acc)
    else begin
      Gc.full_major ();
      let t0 = now () in
      let x = build () in
      go (k - 1) (seconds_since t0 :: acc) (Some x)
    end
  in
  go setup_repeats [] None

(* Closed loop: run [pass] until [seconds] have been spent inside it
   and at least [min_passes] passes ran; returns the number of passes.
   Each pass starts after a full major collection (not timed), so every
   pass meets the same GC state instead of paying for an earlier pass's
   garbage. *)
let for_seconds ?(min_passes = 1) seconds pass =
  let spent = ref 0. and passes = ref 0 in
  while !passes < min_passes || !spent < seconds do
    Gc.full_major ();
    let t0 = now () in
    pass !passes;
    spent := !spent +. seconds_since t0;
    incr passes
  done;
  !passes

(* Spans kept in memory during a traced run and written out at the
   end.  Every span of one operation carries that operation's id; the
   operation's own span has layer 0, so a layer's self time is its
   span minus the child spans it covers. *)
module Spans = struct
  type t = {
    names : string array;
    layer : int array;
    op : int array;
    start : int array;
    stop : int array;
    mutable len : int;
    mutable dropped : int;
  }

  let create ~names ~capacity =
    {
      names;
      layer = Array.make capacity 0;
      op = Array.make capacity 0;
      start = Array.make capacity 0;
      stop = Array.make capacity 0;
      len = 0;
      dropped = 0;
    }

  let add t ~layer ~op ~start ~stop =
    if t.len < Array.length t.layer then begin
      let i = t.len in
      t.layer.(i) <- layer;
      t.op.(i) <- op;
      t.start.(i) <- start;
      t.stop.(i) <- stop;
      t.len <- i + 1
    end
    else t.dropped <- t.dropped + 1

  let length t = t.len

  let dropped t = t.dropped

  (* TSV: op, layer, start ns, duration ns *)
  let write t path =
    let oc = open_out path in
    output_string oc "op\tlayer\tstart_ns\tdur_ns\n";
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\n" t.op.(i) t.names.(t.layer.(i))
        t.start.(i)
        (t.stop.(i) - t.start.(i))
    done;
    close_out oc
end

(* What one workload run reports. *)
type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, newest first *)
  metrics : (string, float) Hashtbl.t;
  mutable extra : (string * float * string) list;
      (** printed by name only, newest first: (name, value, unit) *)
  mutable notes : string list;  (** human-readable lines, newest first *)
}

let result () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    metrics = Hashtbl.create 64;
    extra = [];
    notes = [];
  }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 8 then r.failures <- msg :: r.failures

let set r name v = Hashtbl.replace r.metrics name v

let extra r name v unit = r.extra <- (name, v, unit) :: r.extra

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

(* Per-workload GC deltas, so runs under different GC settings never
   read as equals. *)
let gc_delta r (a : Gc.stat) =
  let b = Gc.quick_stat () in
  note r
    "gc delta: minor_words=%.0f promoted_words=%.0f major_words=%.0f \
     minor_collections=%d major_collections=%d compactions=%d \
     top_heap_words=%d"
    (b.minor_words -. a.minor_words)
    (b.promoted_words -. a.promoted_words)
    (b.major_words -. a.major_words)
    (b.minor_collections - a.minor_collections)
    (b.major_collections - a.major_collections)
    (b.compactions - a.compactions)
    b.top_heap_words

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1e6
