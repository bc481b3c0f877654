type t = {
  referenced : bool;
  modified : bool;
  writable : bool;
  executable : bool;
  user : bool;
  cacheable : bool;
  global : bool;
  locked : bool;
  soft : int;
}

let width = 12

let default =
  {
    referenced = false;
    modified = false;
    writable = true;
    executable = false;
    user = true;
    cacheable = true;
    global = false;
    locked = false;
    soft = 0;
  }

let kernel_text =
  {
    default with
    writable = false;
    executable = true;
    user = false;
    global = true;
    locked = true;
  }

let kernel_data = { default with user = false; global = true; locked = true }

let bit b i = if b then 1 lsl i else 0

(* [int] arithmetic, so an encode allocates only its boxed result *)
let to_bits t =
  if t.soft < 0 || t.soft > 15 then invalid_arg "Attr.to_bits: soft";
  Int64.of_int
    ((t.soft lsl 8)
    lor bit t.referenced 0
    lor bit t.modified 1
    lor bit t.writable 2
    lor bit t.executable 3
    lor bit t.user 4
    lor bit t.cacheable 5
    lor bit t.global 6
    lor bit t.locked 7)

let decode_field bits =
  let b i = (bits lsr i) land 1 = 1 in
  {
    referenced = b 0;
    modified = b 1;
    writable = b 2;
    executable = b 3;
    user = b 4;
    cacheable = b 5;
    global = b 6;
    locked = b 7;
    soft = (bits lsr 8) land 0xF;
  }

(* Every 12-bit field decodes to one of 4096 records; decoding indexes
   this table instead of allocating a fresh record per PTE read.  The
   records are immutable, so sharing them is invisible to callers. *)
let table = Array.init (1 lsl width) decode_field

let of_bits w = table.(Int64.to_int w land ((1 lsl width) - 1))

let equal a b = a = b

let pp ppf t =
  let flag c b = if b then c else '-' in
  Format.fprintf ppf "%c%c%c%c%c%c%c%c/s%x" (flag 'r' t.referenced)
    (flag 'm' t.modified) (flag 'w' t.writable) (flag 'x' t.executable)
    (flag 'u' t.user) (flag 'c' t.cacheable) (flag 'g' t.global)
    (flag 'l' t.locked) t.soft
