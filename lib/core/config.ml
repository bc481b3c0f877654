type t = {
  subblock_factor : int;
  buckets : int;
  page_shift : int;
  node_align : int;
}

let make ?(subblock_factor = 16) ?(buckets = 4096) ?(page_shift = 12)
    ?(node_align = 256) () =
  if
    (not (Addr.Bits.is_pow2 subblock_factor))
    || subblock_factor > Pte.Layout.vmask_width
  then invalid_arg "Config: subblock factor must be a power of two <= 16";
  if not (Addr.Bits.is_pow2 buckets) then
    invalid_arg "Config: buckets must be a power of two";
  if page_shift < 12 || page_shift > 30 then invalid_arg "Config: page_shift";
  if not (Addr.Bits.is_pow2 node_align) then
    invalid_arg "Config: node_align must be a power of two";
  { subblock_factor; buckets; page_shift; node_align }

let default = make ()

let block_shift t = t.page_shift + Addr.Bits.log2_exact t.subblock_factor

let block_node_bytes t = 16 + (8 * t.subblock_factor)

let single_node_bytes = 24

let hash_shift t = 64 - Addr.Bits.log2_exact t.buckets

let hash t vpbn = Addr.Bits.hash_index (Int64.to_int vpbn) ~shift:(hash_shift t)
