(* A slot's entry is the translation that filled it; its VPN is also
   kept unboxed in [keys], so the hit scan is a compare loop over a flat
   int64 array with no closure call and no pointer chase per slot. *)
type t = {
  store : Pt_common.Types.translation Assoc.t;
  keys : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* slot i's VPN; meaningful only where the slot is live *)
  stats : Stats.t;
}

let name = "fa-tlb"

let create ?policy ?(entries = 64) () =
  let store = Assoc.create ?policy ~entries () in
  let keys = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout entries in
  Bigarray.Array1.fill keys 0L;
  { store; keys; stats = Stats.create () }

let entries t = Assoc.entries t.store

(* lowest live slot holding [vpn], or -1 *)
let find_slot t vpn =
  let n = Bigarray.Array1.dim t.keys in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < n do
    if Int64.equal (Bigarray.Array1.unsafe_get t.keys !i) vpn
       && Assoc.is_live t.store !i
    then found := !i;
    incr i
  done;
  !found

let access t ~vpn =
  t.stats.Stats.accesses <- t.stats.Stats.accesses + 1;
  let i = find_slot t vpn in
  if i >= 0 then begin
    Assoc.touch_slot t.store i;
    t.stats.Stats.hits <- t.stats.Stats.hits + 1;
    (* every entry maps exactly one base page *)
    t.stats.Stats.base_hits <- t.stats.Stats.base_hits + 1;
    `Hit
  end
  else begin
    t.stats.Stats.block_misses <- t.stats.Stats.block_misses + 1;
    `Block_miss
  end

let fill t (tr : Pt_common.Types.translation) =
  let i = Assoc.claim t.store in
  if Assoc.is_live t.store i then
    t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
  Assoc.set t.store i tr;
  Bigarray.Array1.set t.keys i tr.vpn

let fill_block t trs = List.iter (fun (_, tr) -> fill t tr) trs

let flush t = Assoc.flush t.store

let stats t = t.stats
