let mask n =
  if n < 0 || n > 64 then invalid_arg "Bits.mask"
  else if n = 64 then -1L
  else Int64.sub (Int64.shift_left 1L n) 1L

let extract w ~lo ~width =
  if lo < 0 || width < 0 || lo + width > 64 then invalid_arg "Bits.extract";
  Int64.logand (Int64.shift_right_logical w lo) (mask width)

let insert w ~lo ~width v =
  if lo < 0 || width < 0 || lo + width > 64 then invalid_arg "Bits.insert";
  let field_mask = Int64.shift_left (mask width) lo in
  let cleared = Int64.logand w (Int64.lognot field_mask) in
  let value = Int64.shift_left (Int64.logand v (mask width)) lo in
  Int64.logor cleared value

let test_bit w i = Int64.logand (Int64.shift_right_logical w i) 1L = 1L

let set_bit w i = Int64.logor w (Int64.shift_left 1L i)

let clear_bit w i = Int64.logand w (Int64.lognot (Int64.shift_left 1L i))

let popcount w =
  let rec loop w acc =
    if w = 0L then acc
    else loop (Int64.shift_right_logical w 1) (acc + Int64.to_int (Int64.logand w 1L))
  in
  loop w 0

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  if not (is_pow2 n) then invalid_arg "Bits.log2_exact";
  let rec loop n k = if n = 1 then k else loop (n lsr 1) (k + 1) in
  loop n 0

let align_down x shift = Int64.logand x (Int64.lognot (mask shift))

let align_up x shift =
  let m = mask shift in
  Int64.logand (Int64.add x m) (Int64.lognot m)

let is_aligned x shift = Int64.logand x (mask shift) = 0L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_index key ~shift =
  if shift >= 64 then 0
  else Int64.to_int (Int64.shift_right_logical (mix64 (Int64.of_int key)) shift)

let pp_hex ppf w = Format.fprintf ppf "0x%Lx" w
