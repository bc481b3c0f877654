let default_line_size = 256

let check_line_size line_size =
  if not (Addr.Bits.is_pow2 line_size) then
    invalid_arg "Cache_model: line size must be a power of two"

type counter = {
  line_size : int;
  line_shift : int;
  mutable walks : int;
  mutable total_lines : int;
  mutable scratch : int array;
      (* line numbers of the walk being counted; reused across walks.
         A line number is an address over the line size, so it fits an
         [int] exactly like the address does. *)
}

let create_counter ?(line_size = default_line_size) () =
  check_line_size line_size;
  {
    line_size;
    line_shift = Addr.Bits.log2_exact line_size;
    walks = 0;
    total_lines = 0;
    scratch = Array.make 64 0;
  }

(* Count the distinct lines touched by an accumulated walk without
   allocating: expand every access into line numbers in the counter's
   scratch array, insertion-sort it (walks touch a handful of lines),
   and count unique entries. *)
let record_acc c (acc : Walk_acc.t) =
  let shift = c.line_shift in
  let m = ref 0 in
  for i = 0 to Walk_acc.count acc - 1 do
    let addr = Walk_acc.addr_int acc i and bytes = Walk_acc.bytes acc i in
    if bytes <= 0 then invalid_arg "Cache_model: access bytes";
    let last = (addr + bytes - 1) lsr shift in
    for l = addr lsr shift to last do
      if !m = Array.length c.scratch then begin
        let bigger = Array.make (2 * !m) 0 in
        Array.blit c.scratch 0 bigger 0 !m;
        c.scratch <- bigger
      end;
      c.scratch.(!m) <- l;
      incr m
    done
  done;
  let lines = c.scratch and n = !m in
  for i = 1 to n - 1 do
    let v = lines.(i) in
    let j = ref i in
    while !j > 0 && lines.(!j - 1) > v do
      lines.(!j) <- lines.(!j - 1);
      decr j
    done;
    lines.(!j) <- v
  done;
  let distinct = ref (if n = 0 then 0 else 1) in
  for i = 1 to n - 1 do
    if lines.(i) <> lines.(i - 1) then incr distinct
  done;
  c.walks <- c.walks + 1;
  c.total_lines <- c.total_lines + !distinct;
  !distinct

let record_lines c n =
  c.walks <- c.walks + 1;
  c.total_lines <- c.total_lines + n

let walks c = c.walks

let total_lines c = c.total_lines

let mean_lines c =
  if c.walks = 0 then 0.0 else float_of_int c.total_lines /. float_of_int c.walks

let line_size c = c.line_size
