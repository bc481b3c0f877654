type entry = {
  vpbn : int64;
  mutable vmask : int;
  mutable sp_mask : int;
      (* vmask bits installed from a superpage translation; a later
         base / partial-subblock fill of the same bit reclaims it *)
  ppn_base : int64; (* PPN of block offset 0; offset i maps to ppn_base+i *)
  attr : Pte.Attr.t;
}

type t = {
  store : entry Assoc.t;
  factor : int;
  factor_bits : int;
  stats : Stats.t;
}

let name = "psb-tlb"

let create ?policy ?(entries = 64) ?(subblock_factor = 16) () =
  if not (Addr.Bits.is_pow2 subblock_factor) then
    invalid_arg "Psb_tlb: subblock factor must be a power of two";
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

let insert t e =
  match Assoc.insert t.store e with
  | Some _ -> t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
  | None -> ()

(* Merge the bits [vmask] (whose pages map to [ppn_base] + offset) into
   an existing compatible entry, or install a new entry.  [sp] marks
   the bits as superpage-derived for hit attribution. *)
let fill_bits t ~sp ~vpbn ~vmask ~ppn_base ~attr =
  let compatible e =
    Int64.equal e.vpbn vpbn && Int64.equal e.ppn_base ppn_base
  in
  let i = Assoc.find_slot t.store ~f:compatible in
  if i >= 0 then begin
    let e = Assoc.get t.store i in
    e.vmask <- e.vmask lor vmask;
    if sp then e.sp_mask <- e.sp_mask lor vmask
    else e.sp_mask <- e.sp_mask land lnot vmask;
    Assoc.touch_slot t.store i
  end
  else
    insert t
      { vpbn; vmask; sp_mask = (if sp then vmask else 0); ppn_base; attr }

let fill t (tr : Pt_common.Types.translation) =
  let vpbn, boff = split t tr.vpn in
  match tr.kind with
  | Pt_common.Types.Partial_subblock vmask ->
      fill_bits t ~sp:false ~vpbn ~vmask ~ppn_base:tr.ppn_base ~attr:tr.attr
  | Pt_common.Types.Base ->
      (* merging requires proper placement: offset agreement between
         the entry's base PPN and this page's PPN *)
      let candidate_base = Int64.sub tr.ppn (Int64.of_int boff) in
      fill_bits t ~sp:false ~vpbn ~vmask:(1 lsl boff) ~ppn_base:candidate_base
        ~attr:tr.attr
  | Pt_common.Types.Superpage size ->
      let pages = Addr.Page_size.base_pages size in
      if pages >= t.factor then begin
        (* the superpage covers this whole block *)
        let block_base_vpn = Int64.shift_left vpbn t.factor_bits in
        let ppn_base =
          Int64.add tr.ppn_base (Int64.sub block_base_vpn tr.vpn_base)
        in
        fill_bits t ~sp:true ~vpbn
          ~vmask:((1 lsl t.factor) - 1)
          ~ppn_base ~attr:tr.attr
      end
      else begin
        let _, first_boff = split t tr.vpn_base in
        let vmask = ((1 lsl pages) - 1) lsl first_boff in
        let ppn_base = Int64.sub tr.ppn_base (Int64.of_int first_boff) in
        fill_bits t ~sp:true ~vpbn ~vmask ~ppn_base ~attr:tr.attr
      end

let fill_block t trs = List.iter (fun (_, tr) -> fill t tr) trs

let flush t = Assoc.flush t.store

let stats t = t.stats
