(* A base word's translation straight from its bits: the V test, the
   PPN field and the shared attribute record, with no intermediate
   [Base_pte.t].  The same fields [Base_pte.decode] reads. *)
let base_word_translation ~vpn w =
  if Addr.Bits.test_bit w Pte.Layout.valid_bit then
    let ppn =
      Int64.logand
        (Int64.shift_right_logical w Pte.Layout.ppn_lo)
        (Int64.of_int ((1 lsl Pte.Layout.ppn_width) - 1))
    in
    Some (Types.base_translation ~vpn ~ppn ~attr:(Pte.Attr.of_bits w))
  else None

let translation_of_word ~subblock_factor ~vpn word =
  if Pte.Layout.s_code word = 0 then base_word_translation ~vpn word
  else
    match Pte.Word.decode word with
    | Pte.Word.Superpage sp when sp.valid ->
        let sz = Addr.Page_size.sz_code sp.size in
        let vpn_base = Addr.Bits.align_down vpn sz in
        Some
          {
            Types.vpn;
            ppn = Int64.add sp.ppn (Int64.sub vpn vpn_base);
            vpn_base;
            ppn_base = sp.ppn;
            kind = Types.Superpage sp.size;
            attr = sp.attr;
          }
    | Pte.Word.Psb p ->
        let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor vpn in
        if Pte.Psb_pte.valid_at p ~boff then
          Some
            {
              Types.vpn;
              ppn = Pte.Psb_pte.ppn_for p ~boff;
              vpn_base =
                Addr.Bits.align_down vpn (Addr.Bits.log2_exact subblock_factor);
              ppn_base = p.ppn;
              kind =
                Types.Partial_subblock
                  (p.vmask land ((1 lsl subblock_factor) - 1));
              attr = p.attr;
            }
        else None
    | Pte.Word.Base _ | Pte.Word.Superpage _ -> None

let translation_in_block ~subblock_factor ~vpn ~words =
  let factor_bits = Addr.Bits.log2_exact subblock_factor in
  let single_class w =
    match Pte.Layout.read_s w with
    | Pte.Layout.S_partial_subblock -> true
    | Pte.Layout.S_superpage ->
        Addr.Page_size.sz_code (Pte.Superpage_pte.decode w).Pte.Superpage_pte.size
        >= factor_bits
    | Pte.Layout.S_base -> false
  in
  if single_class words.(0) then
    translation_of_word ~subblock_factor ~vpn words.(0)
  else
    let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor vpn in
    if boff < Array.length words then
      translation_of_word ~subblock_factor ~vpn words.(boff)
    else None

let reencode_attr word ~f =
  match Pte.Word.decode word with
  | Pte.Word.Base b when b.valid ->
      Some (Pte.Base_pte.encode { b with attr = f b.attr })
  | Pte.Word.Superpage sp when sp.valid ->
      Some (Pte.Superpage_pte.encode { sp with attr = f sp.attr })
  | Pte.Word.Psb p when p.vmask <> 0 ->
      Some (Pte.Psb_pte.encode { p with attr = f p.attr })
  | Pte.Word.Base _ | Pte.Word.Superpage _ | Pte.Word.Psb _ -> None
