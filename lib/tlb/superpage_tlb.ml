type entry = {
  vpn_base : int64;
  pages : int; (* power of two *)
  ppn_base : int64;
  attr : Pte.Attr.t;
}

type t = { store : entry Assoc.t; stats : Stats.t }

let name = "sp-tlb"

let create ?policy ?(entries = 64) () =
  { store = Assoc.create ?policy ~entries (); stats = Stats.create () }

let entries t = Assoc.entries t.store

let covers e vpn =
  Int64.unsigned_compare vpn e.vpn_base >= 0
  && Int64.unsigned_compare vpn (Int64.add e.vpn_base (Int64.of_int e.pages)) < 0

let access t ~vpn =
  t.stats.Stats.accesses <- t.stats.Stats.accesses + 1;
  let i = Assoc.find_slot t.store ~f:(fun e -> covers e vpn) in
  if i >= 0 then begin
    Assoc.touch_slot t.store i;
    t.stats.Stats.hits <- t.stats.Stats.hits + 1;
    if (Assoc.get t.store i).pages > 1 then
      t.stats.Stats.sp_hits <- t.stats.Stats.sp_hits + 1
    else t.stats.Stats.base_hits <- t.stats.Stats.base_hits + 1;
    `Hit
  end
  else begin
    t.stats.Stats.block_misses <- t.stats.Stats.block_misses + 1;
    `Block_miss
  end

let fill t (tr : Pt_common.Types.translation) =
  let e =
    match tr.kind with
    | Pt_common.Types.Superpage size ->
        {
          vpn_base = tr.vpn_base;
          pages = Addr.Page_size.base_pages size;
          ppn_base = tr.ppn_base;
          attr = tr.attr;
        }
    | Pt_common.Types.Base | Pt_common.Types.Partial_subblock _ ->
        { vpn_base = tr.vpn; pages = 1; ppn_base = tr.ppn; attr = tr.attr }
  in
  match Assoc.insert t.store e with
  | Some _ -> t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
  | None -> ()

let fill_block t trs = List.iter (fun (_, tr) -> fill t tr) trs

let flush t = Assoc.flush t.store

let stats t = t.stats
