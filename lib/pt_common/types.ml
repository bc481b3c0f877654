type kind =
  | Base
  | Superpage of Addr.Page_size.t
  | Partial_subblock of int

type translation = {
  vpn : int64;
  ppn : int64;
  vpn_base : int64;
  ppn_base : int64;
  kind : kind;
  attr : Pte.Attr.t;
}

let base_translation ~vpn ~ppn ~attr =
  { vpn; ppn; vpn_base = vpn; ppn_base = ppn; kind = Base; attr }

let covered_pages t =
  match t.kind with
  | Base -> 1
  | Superpage size -> Addr.Page_size.base_pages size
  | Partial_subblock vmask -> Addr.Bits.popcount (Int64.of_int vmask)

let block_base ~vpn ~subblock_factor =
  let f = Int64.of_int subblock_factor in
  Int64.mul (Int64.div vpn f) f

let lookup_pages lookup_into acc ~vpn ~subblock_factor =
  let base = block_base ~vpn ~subblock_factor in
  let results = ref [] in
  for i = subblock_factor - 1 downto 0 do
    match lookup_into acc ~vpn:(Int64.add base (Int64.of_int i)) with
    | Some tr -> results := (i, tr) :: !results
    | None -> ()
  done;
  !results

let pp_kind ppf = function
  | Base -> Format.fprintf ppf "base"
  | Superpage size -> Format.fprintf ppf "sp:%a" Addr.Page_size.pp size
  | Partial_subblock vmask -> Format.fprintf ppf "psb:%04x" vmask

let pp_translation ppf t =
  Format.fprintf ppf "{vpn=%Lx -> ppn=%Lx (%a at %Lx)}" t.vpn t.ppn pp_kind
    t.kind t.vpn_base
