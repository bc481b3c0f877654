type policy = Lru | Fifo | Random of int64

(* A plain slot array plus occupancy flags: no [option] box per entry
   and no polymorphic [= None] test per slot.  [slots] stays empty
   until the first insertion supplies a filler value; afterwards slot
   [i] holds an entry only where [live.(i)]. *)
type 'e t = {
  mutable slots : 'e array;
  live : bool array;
  mutable used : int; (* live slots: a full store skips the free-slot scan *)
  stamps : int array; (* last-use (Lru) or insertion (Fifo) ticks *)
  policy : policy;
  mutable rng : int64; (* SplitMix64 state for Random *)
  mutable clock : int;
}

let create ?(policy = Lru) ~entries () =
  if entries <= 0 then invalid_arg "Assoc.create";
  let rng = match policy with Random seed -> seed | Lru | Fifo -> 0L in
  {
    slots = [||];
    live = Array.make entries false;
    used = 0;
    stamps = Array.make entries 0;
    policy;
    rng;
    clock = 0;
  }

let next_random t =
  t.rng <- Int64.add t.rng 0x9E3779B97F4A7C15L;
  let z = t.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let entries t = Array.length t.live

let occupied t = t.used

let is_live t i = t.live.(i)

let get t i =
  if not t.live.(i) then invalid_arg "Assoc.get: free slot";
  t.slots.(i)

let find_slot t ~f =
  let n = Array.length t.live in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < n do
    if t.live.(!i) && f t.slots.(!i) then found := !i;
    incr i
  done;
  !found

let find t ~f =
  let i = find_slot t ~f in
  if i < 0 then None else Some t.slots.(i)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let touch_slot t i =
  (* FIFO and Random ignore recency *)
  match t.policy with Lru -> t.stamps.(i) <- tick t | Fifo | Random _ -> ()

let claim t =
  let n = Array.length t.live in
  (* the lowest free slot first, otherwise the policy's victim *)
  if t.used < n then begin
    let free = ref 0 in
    while t.live.(!free) do
      incr free
    done;
    !free
  end
  else
    match t.policy with
    | Lru | Fifo ->
        (* stamp semantics differ; the min is the victim (live stamps are
           distinct ticks) *)
        let victim = ref 0 in
        for i = n - 1 downto 1 do
          if t.stamps.(i) < t.stamps.(!victim) then victim := i
        done;
        !victim
    | Random _ ->
        Int64.to_int
          (Int64.rem
             (Int64.shift_right_logical (next_random t) 3)
             (Int64.of_int n))

let set t i e =
  if Array.length t.slots = 0 then
    t.slots <- Array.make (Array.length t.live) e;
  t.slots.(i) <- e;
  if not t.live.(i) then t.used <- t.used + 1;
  t.live.(i) <- true;
  t.stamps.(i) <- tick t

let insert t e =
  let i = claim t in
  let old = if t.live.(i) then Some t.slots.(i) else None in
  set t i e;
  old

let flush t =
  Array.fill t.live 0 (Array.length t.live) false;
  t.used <- 0;
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0
