(* --- event codes --- *)

let ev_miss = 0

let ev_walk_read = 1

let ev_lock_read = 2

let ev_lock_write = 3

let ev_churn_mmap = 4

let ev_churn_munmap = 5

let ev_churn_protect = 6

let ev_churn_fork = 7

let ev_churn_exit = 8

let ev_churn_touch = 9

let ev_fault_inject = 10

let ev_fault_retry = 11

let ev_fault_abort = 12

let ev_fault_repair = 13

let ev_seqlock_retry = 14

let ev_seqlock_fallback = 15

let names =
  [|
    "miss";
    "walk_read";
    "lock_read";
    "lock_write";
    "churn_mmap";
    "churn_munmap";
    "churn_protect";
    "churn_fork";
    "churn_exit";
    "churn_touch";
    "fault_inject";
    "fault_retry";
    "fault_abort";
    "fault_repair";
    "seqlock_retry";
    "seqlock_fallback";
  |]

let name_of_code c =
  if c >= 0 && c < Array.length names then names.(c) else "event"

(* --- state --- *)

type ring = {
  tid : int;
  cap : int;
  codes : int array;
  phases : Bytes.t;
  args : int array;
  stamps : int array;
  mutable pos : int;  (* next write slot *)
  mutable total : int;  (* events ever recorded *)
}

let on = Atomic.make false

let clock = Atomic.make 0

let ring_capacity = Atomic.make 65536

let lock = Mutex.create ()

let rings : ring list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let cap = Atomic.get ring_capacity in
      let r =
        {
          tid = (Domain.self () :> int);
          cap;
          codes = Array.make cap 0;
          phases = Bytes.make cap 'i';
          args = Array.make cap 0;
          stamps = Array.make cap 0;
          pos = 0;
          total = 0;
        }
      in
      Mutex.lock lock;
      rings := r :: !rings;
      Mutex.unlock lock;
      r)

let enabled () = Atomic.get on

let enable ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Tracer.enable: capacity must be positive";
  Atomic.set ring_capacity capacity;
  Atomic.set on true

let disable () = Atomic.set on false

let all_rings () =
  Mutex.lock lock;
  let l = !rings in
  Mutex.unlock lock;
  l

let reset () =
  List.iter
    (fun r ->
      r.pos <- 0;
      r.total <- 0)
    (all_rings ());
  Atomic.set clock 0

(* --- recording --- *)

let record phase code arg =
  let r = Domain.DLS.get key in
  let i = r.pos in
  r.codes.(i) <- code;
  Bytes.unsafe_set r.phases i phase;
  r.args.(i) <- arg;
  r.stamps.(i) <- Atomic.fetch_and_add clock 1;
  r.pos <- (if i + 1 = r.cap then 0 else i + 1);
  r.total <- r.total + 1

let begin_ code arg = if Atomic.get on then record 'B' code arg

let end_ code = if Atomic.get on then record 'E' code 0

let instant code arg = if Atomic.get on then record 'i' code arg

(* --- export --- *)

let held r = min r.total r.cap

let event_count () =
  List.fold_left (fun acc r -> acc + held r) 0 (all_rings ())

let dropped_count () =
  List.fold_left (fun acc r -> acc + (r.total - held r)) 0 (all_rings ())

let export_drop_counter m =
  Metrics.add (Metrics.counter m "obs.trace.dropped") (dropped_count ())

let to_chrome_json () =
  let events r =
    let n = held r in
    let start = if r.total <= r.cap then 0 else r.pos in
    List.init n (fun j ->
        let i = (start + j) mod r.cap in
        let ph = Bytes.get r.phases i in
        Jsonx.obj
          ([
             ("name", Jsonx.string (name_of_code r.codes.(i)));
             ("cat", Jsonx.string "pt");
             ("ph", Jsonx.string (String.make 1 ph));
           ]
          @ (if ph = 'i' then [ ("s", Jsonx.string "t") ] else [])
          @ [
              ("ts", Jsonx.int r.stamps.(i)); ("pid", Jsonx.int 0);
              ("tid", Jsonx.int r.tid);
              ("args", Jsonx.obj [ ("v", Jsonx.int r.args.(i)) ]);
            ]))
  in
  (* sort rings by tid so the file is deterministic regardless of
     which domain registered first *)
  let rings = List.sort (fun a b -> compare a.tid b.tid) (all_rings ()) in
  Jsonx.obj [ ("traceEvents", Jsonx.list (List.concat_map events rings)) ]
