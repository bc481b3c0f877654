let valid_bit = 63
let sz_lo = 59
let sz_width = 4
let vmask_lo = 48
let vmask_width = 16
let s_lo = 40
let s_width = 2
let ppn_lo = 12
let ppn_width = 28
let attr_lo = 0
let attr_width = 12

type s_class = S_base | S_partial_subblock | S_superpage

let s_class_to_code = function
  | S_base -> 0L
  | S_partial_subblock -> 1L
  | S_superpage -> 2L

let s_class_of_code = function
  | 0L -> S_base
  | 1L -> S_partial_subblock
  | 2L -> S_superpage
  | _ -> invalid_arg "Layout.s_class_of_code"

let s_code w =
  let c = Int64.to_int (Int64.shift_right_logical w s_lo) land 3 in
  if c = 3 then invalid_arg "Layout.s_class_of_code";
  c

let read_s w =
  match s_code w with 0 -> S_base | 1 -> S_partial_subblock | _ -> S_superpage

let sz_code w = Int64.to_int (Int64.shift_right_logical w sz_lo) land 0xF

let pte_bytes = 8
let tag_bytes = 8
let next_bytes = 8
