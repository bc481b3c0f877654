(* --- operation kind codes --- *)

let k_insert = 0

let k_remove = 1

let k_lookup = 2

let k_protect = 3

let k_map = 4

let k_unmap = 5

let k_touch = 6

let k_fork = 7

let k_exit = 8

let k_read = 9

let k_write = 10

let k_crash = 11

let k_abort = 12

let k_retry = 13

let kind_names =
  [|
    "insert";
    "remove";
    "lookup";
    "protect";
    "map";
    "unmap";
    "touch";
    "fork";
    "exit";
    "read";
    "write";
    "crash";
    "abort";
    "retry";
  |]

let kind_name k =
  if k >= 0 && k < Array.length kind_names then kind_names.(k) else "op"

(* --- lock-mode codes --- *)

let l_none = 0

let l_striped = 1

let l_global = 2

let l_seqlock = 3

let lock_names = [| "none"; "striped"; "global"; "seqlock" |]

let lock_name l =
  if l >= 0 && l < Array.length lock_names then lock_names.(l) else "lock"

(* --- state --- *)

(* One ring per logical stream, not per domain: a stream is owned by
   exactly one worker at a time (streams are dealt round-robin to
   workers), so stream rings need no locking, and the recorded tail
   for a given seed is identical for any --domains.  Event fields live
   in parallel int arrays so [record] allocates nothing. *)
type ring = {
  cap : int;
  kinds : int array;
  asids : int array;
  vpns : int array;
  pages : int array;
  locks : int array;
  attempts : int array;
  faults : int array;
  lats : int array;
  mutable pos : int;  (* next write slot *)
  mutable total : int;  (* events ever recorded *)
}

type t = { rings : ring array }

let live : t option Atomic.t = Atomic.make None

let make_ring cap =
  {
    cap;
    kinds = Array.make cap 0;
    asids = Array.make cap 0;
    vpns = Array.make cap 0;
    pages = Array.make cap 0;
    locks = Array.make cap 0;
    attempts = Array.make cap 0;
    faults = Array.make cap 0;
    lats = Array.make cap 0;
    pos = 0;
    total = 0;
  }

let arm ~streams ~capacity =
  if streams < 1 then invalid_arg "Recorder.arm: streams must be positive";
  if capacity < 1 then invalid_arg "Recorder.arm: capacity must be positive";
  Atomic.set live (Some { rings = Array.init streams (fun _ -> make_ring capacity) })

let disarm () = Atomic.set live None

let armed () = Atomic.get live <> None

let record ~stream ~kind ~asid ~vpn ~pages ~lock ~attempt ~fault ~lat =
  match Atomic.get live with
  | None -> ()
  | Some t ->
      if stream >= 0 && stream < Array.length t.rings then begin
        let r = t.rings.(stream) in
        let i = r.pos in
        r.kinds.(i) <- kind;
        r.asids.(i) <- asid;
        r.vpns.(i) <- vpn;
        r.pages.(i) <- pages;
        r.locks.(i) <- lock;
        r.attempts.(i) <- attempt;
        r.faults.(i) <- fault;
        r.lats.(i) <- lat;
        r.pos <- (if i + 1 = r.cap then 0 else i + 1);
        r.total <- r.total + 1
      end

let held r = min r.total r.cap

let event_count () =
  match Atomic.get live with
  | None -> 0
  | Some t -> Array.fold_left (fun acc r -> acc + held r) 0 t.rings

(* --- crash dump --- *)

let event_to_json r i =
  Jsonx.obj
    [
      ("kind", Jsonx.string (kind_name r.kinds.(i)));
      ("asid", Jsonx.int r.asids.(i)); ("vpn", Jsonx.int r.vpns.(i));
      ("pages", Jsonx.int r.pages.(i));
      ("lock", Jsonx.string (lock_name r.locks.(i)));
      ("attempt", Jsonx.int r.attempts.(i)); ("fault", Jsonx.int r.faults.(i));
      ("lat", Jsonx.int r.lats.(i));
    ]

let stream_to_json ?last s r =
  let n = held r in
  let keep = match last with None -> n | Some k -> min k n in
  (* oldest retained slot, advanced to keep only [keep] *)
  let oldest = if r.total <= r.cap then 0 else r.pos in
  let start = (oldest + (n - keep)) mod r.cap in
  Jsonx.obj
    [
      ("stream", Jsonx.int s); ("recorded", Jsonx.int r.total);
      ( "events",
        Jsonx.list
          (List.init keep (fun j -> event_to_json r ((start + j) mod r.cap)))
      );
    ]

let dump_json ?last ~label () =
  let streams =
    match Atomic.get live with
    | None -> []
    | Some t -> List.mapi (stream_to_json ?last) (Array.to_list t.rings)
  in
  Jsonx.obj
    [
      ("schema_version", Jsonx.int 1); ("kind", Jsonx.string "crash_dump");
      ("label", Jsonx.string label); ("streams", Jsonx.list streams);
    ]
