type entry = {
  vpbn : int64;
  mutable vmask : int;
  mutable sp_mask : int;
      (* slots filled from a superpage translation; a later base /
         partial-subblock fill of the same slot reclaims it *)
  ppns : int64 array;
  attrs : Pte.Attr.t array;
}

type t = {
  store : entry Assoc.t;
  factor : int;
  factor_bits : int;
  stats : Stats.t;
}

let name = "csb-tlb"

let create ?policy ?(entries = 64) ?(subblock_factor = 16) () =
  if not (Addr.Bits.is_pow2 subblock_factor) then
    invalid_arg "Csb_tlb: subblock factor must be a power of two";
  {
    store = Assoc.create ?policy ~entries ();
    factor = subblock_factor;
    factor_bits = Addr.Bits.log2_exact subblock_factor;
    stats = Stats.create ();
  }

let entries t = Assoc.entries t.store

let subblock_factor t = t.factor

let split t vpn =
  ( Int64.shift_right_logical vpn t.factor_bits,
    Int64.to_int (Addr.Bits.extract vpn ~lo:0 ~width:t.factor_bits) )

let access t ~vpn =
  t.stats.Stats.accesses <- t.stats.Stats.accesses + 1;
  let vpbn, boff = split t vpn in
  let covers e = Int64.equal e.vpbn vpbn && e.vmask land (1 lsl boff) <> 0 in
  let i = Assoc.find_slot t.store ~f:covers in
  if i >= 0 then begin
    Assoc.touch_slot t.store i;
    t.stats.Stats.hits <- t.stats.Stats.hits + 1;
    if (Assoc.get t.store i).sp_mask land (1 lsl boff) <> 0 then
      t.stats.Stats.sp_hits <- t.stats.Stats.sp_hits + 1
    else t.stats.Stats.base_hits <- t.stats.Stats.base_hits + 1;
    `Hit
  end
  else if Assoc.find_slot t.store ~f:(fun e -> Int64.equal e.vpbn vpbn) >= 0
  then begin
    t.stats.Stats.subblock_misses <- t.stats.Stats.subblock_misses + 1;
    `Subblock_miss
  end
  else begin
    t.stats.Stats.block_misses <- t.stats.Stats.block_misses + 1;
    `Block_miss
  end

let get_or_insert_entry t vpbn =
  let i = Assoc.find_slot t.store ~f:(fun e -> Int64.equal e.vpbn vpbn) in
  if i >= 0 then begin
    Assoc.touch_slot t.store i;
    Assoc.get t.store i
  end
  else
    let e =
      {
        vpbn;
        vmask = 0;
        sp_mask = 0;
        ppns = Array.make t.factor 0L;
        attrs = Array.make t.factor Pte.Attr.default;
      }
    in
    (match Assoc.insert t.store e with
    | Some _ -> t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
    | None -> ());
    e

let set_slot e ~sp ~boff ~ppn ~attr =
  e.vmask <- e.vmask lor (1 lsl boff);
  if sp then e.sp_mask <- e.sp_mask lor (1 lsl boff)
  else e.sp_mask <- e.sp_mask land lnot (1 lsl boff);
  e.ppns.(boff) <- ppn;
  e.attrs.(boff) <- attr

(* Slots of the faulting block that [tr] maps. *)
let slots_of t vpbn (tr : Pt_common.Types.translation) =
  match tr.kind with
  | Pt_common.Types.Base ->
      let _, boff = split t tr.vpn in
      [ (boff, tr.ppn, tr.attr) ]
  | Pt_common.Types.Partial_subblock vmask ->
      let out = ref [] in
      for i = t.factor - 1 downto 0 do
        if vmask land (1 lsl i) <> 0 then
          out := (i, Int64.add tr.ppn_base (Int64.of_int i), tr.attr) :: !out
      done;
      !out
  | Pt_common.Types.Superpage size ->
      let pages = Addr.Page_size.base_pages size in
      let block_base_vpn = Int64.shift_left vpbn t.factor_bits in
      let out = ref [] in
      for i = t.factor - 1 downto 0 do
        let page = Int64.add block_base_vpn (Int64.of_int i) in
        let off = Int64.sub page tr.vpn_base in
        if Int64.compare off 0L >= 0 && Int64.compare off (Int64.of_int pages) < 0
        then
          out := (i, Int64.add tr.ppn_base off, tr.attr) :: !out
      done;
      !out

let is_sp (tr : Pt_common.Types.translation) =
  match tr.kind with
  | Pt_common.Types.Superpage _ -> true
  | Pt_common.Types.Base | Pt_common.Types.Partial_subblock _ -> false

let fill t (tr : Pt_common.Types.translation) =
  let vpbn, _ = split t tr.vpn in
  let e = get_or_insert_entry t vpbn in
  match tr.kind with
  | Pt_common.Types.Base ->
      let _, boff = split t tr.vpn in
      set_slot e ~sp:false ~boff ~ppn:tr.ppn ~attr:tr.attr
  | Pt_common.Types.Partial_subblock _ | Pt_common.Types.Superpage _ ->
      let sp = is_sp tr in
      List.iter
        (fun (boff, ppn, attr) -> set_slot e ~sp ~boff ~ppn ~attr)
        (slots_of t vpbn tr)

let fill_block t trs =
  match trs with
  | [] -> ()
  | (_, tr0) :: _ ->
      let vpbn, _ = split t tr0.Pt_common.Types.vpn in
      let e = get_or_insert_entry t vpbn in
      List.iter
        (fun (boff, (tr : Pt_common.Types.translation)) ->
          set_slot e ~sp:(is_sp tr) ~boff ~ppn:tr.ppn ~attr:tr.attr)
        trs

let flush t = Assoc.flush t.store

let stats t = t.stats
