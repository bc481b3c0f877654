type t = { valid : bool; ppn : int64; attr : Attr.t }

let check_ppn ppn =
  if Int64.unsigned_compare ppn Addr.Paddr.max_ppn > 0 then
    invalid_arg "Base_pte: PPN exceeds 28 bits"

let make ?(valid = true) ~ppn ~attr () =
  check_ppn ppn;
  { valid; ppn; attr }

let invalid = { valid = false; ppn = 0L; attr = Attr.of_bits 0L }

let encode t =
  check_ppn t.ppn;
  let open Addr.Bits in
  let w = 0L in
  let w = if t.valid then set_bit w Layout.valid_bit else w in
  let w =
    insert w ~lo:Layout.s_lo ~width:Layout.s_width
      (Layout.s_class_to_code Layout.S_base)
  in
  let w = insert w ~lo:Layout.ppn_lo ~width:Layout.ppn_width t.ppn in
  insert w ~lo:Layout.attr_lo ~width:Layout.attr_width (Attr.to_bits t.attr)

(* Word-level encoding for runs of pages that share one attribute: the
   same bits [encode] builds, with no record per page. *)
let valid_mask = Int64.shift_left 1L Layout.valid_bit

let template attr = Int64.logor valid_mask (Attr.to_bits attr)

let with_ppn template ~ppn =
  check_ppn ppn;
  Int64.logor template (Int64.shift_left ppn Layout.ppn_lo)

(* the V bit and the PPN field: what survives a decode/encode round
   trip besides the attributes (S is base, PAD is dropped) *)
let kept_mask =
  Int64.logor valid_mask
    (Int64.shift_left
       (Int64.of_int ((1 lsl Layout.ppn_width) - 1))
       Layout.ppn_lo)

let with_attr_bits w ~bits =
  Int64.logor (Int64.logand w kept_mask) (Int64.of_int bits)

let decode w =
  let open Addr.Bits in
  {
    valid = test_bit w Layout.valid_bit;
    ppn = extract w ~lo:Layout.ppn_lo ~width:Layout.ppn_width;
    attr = Attr.of_bits (extract w ~lo:Layout.attr_lo ~width:Layout.attr_width);
  }

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "base{%c ppn=%Lx %a}"
    (if t.valid then 'V' else '-')
    t.ppn Attr.pp t.attr
