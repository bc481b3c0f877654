(* Deferred reclamation for lock-free readers; the contract is in
   limbo.mli.  The entries are a side list: a retired node is NOT
   threaded through its own links, because a concurrent optimistic
   reader may still be chasing them. *)

type 'n shard = {
  m : Mutex.t;
  mutable entries : ('n * int) list;  (* node, retire stamp; newest first *)
  mutable count : int;
}

type 'n t = { shards : 'n shard array; mutable hook : (unit -> int) option }

(* sharding by domain id keeps retiring writers off each other's
   mutexes *)
let shards = 8

let create () =
  {
    shards =
      Array.init shards (fun _ ->
          { m = Mutex.create (); entries = []; count = 0 });
    hook = None;
  }

let hook t = t.hook
let set_hook t hook = t.hook <- hook

let retire t ~stamp n =
  let s = t.shards.((Domain.self () :> int) land (shards - 1)) in
  Mutex.lock s.m;
  s.entries <- (n, stamp) :: s.entries;
  s.count <- s.count + 1;
  Mutex.unlock s.m

(* each shard's entries are taken under its mutex and handed over
   outside it: [f] may take other locks (a free list, the arena) *)
let take s keep =
  Mutex.lock s.m;
  let kept, gone = List.partition keep s.entries in
  s.entries <- kept;
  s.count <- List.length kept;
  Mutex.unlock s.m;
  gone

let hand_over t keep f =
  Array.iter (fun s -> List.iter (fun (n, _) -> f n) (take s keep)) t.shards

let reclaim t ~upto f = hand_over t (fun (_, stamp) -> stamp >= upto) f
let drain t f = hand_over t (fun _ -> false) f
let forget t = drain t ignore

let count t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.m;
      let c = s.count in
      Mutex.unlock s.m;
      acc + c)
    0 t.shards

let iter t f =
  Array.iter
    (fun s ->
      Mutex.lock s.m;
      let entries = s.entries in
      Mutex.unlock s.m;
      List.iter (fun (n, _) -> f n) entries)
    t.shards
