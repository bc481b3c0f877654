module Types = Pt_common.Types

(* The frame table uses parallel unboxed arrays: a 2M-frame table must
   not cost hundreds of megabytes of OCaml records.  Each frame entry
   models 16 bytes of simulated memory (tag+attr word, chain link). *)
type t = {
  slots : int;
  frames_n : int;
  anchors_addr : int64;
  table_addr : int64;
  anchors : int array; (* head frame index per bucket, or -1 *)
  vpns : int64 array;
  attrs : int array; (* 12-bit attr encodings *)
  used : Bytes.t;
  next : int array; (* next frame in chain, or -1 *)
  (* who points at this entry (for O(1) unlink): -1 free, -2-b anchor
     of bucket b, p >= 0 the frame p *)
  prev : int array;
  mutable used_count : int;
}

let name = "inverted"

let entry_bytes = 16

let create ?arena ?(slots = 4096) ?(frames = 65536) () =
  if not (Addr.Bits.is_pow2 slots) then
    invalid_arg "Inverted_pt: slots must be a power of two";
  if frames <= 0 then invalid_arg "Inverted_pt: frames must be positive";
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let anchors_addr = Mem.Sim_memory.alloc arena ~bytes:(slots * 8) ~align:4096 in
  let table_addr =
    Mem.Sim_memory.alloc arena ~bytes:(frames * entry_bytes) ~align:4096
  in
  {
    slots;
    frames_n = frames;
    anchors_addr;
    table_addr;
    anchors = Array.make slots (-1);
    vpns = Array.make frames 0L;
    attrs = Array.make frames 0;
    used = Bytes.make frames '\000';
    next = Array.make frames (-1);
    prev = Array.make frames (-1);
    used_count = 0;
  }

let frames t = t.frames_n

let is_used t i = Bytes.get t.used i <> '\000'

let hash t vpn =
  Int64.to_int
    (Int64.shift_right_logical (Addr.Bits.mix64 vpn)
       (64 - Addr.Bits.log2_exact t.slots))

let anchor_addr t bucket = Int64.to_int t.anchors_addr + (8 * bucket)

let entry_addr t i = Int64.to_int t.table_addr + (entry_bytes * i)

(* Walk the frame chain from [i] on.  Top level, so a walk allocates
   only the translation it returns. *)
let rec walk_frames t acc ~vpn i =
  if i < 0 then None
  else begin
    Mem.Walk_acc.read_int acc ~addr:(entry_addr t i) ~bytes:entry_bytes;
    Mem.Walk_acc.probe acc;
    if is_used t i && Int64.equal t.vpns.(i) vpn then
      Some
        (Types.base_translation ~vpn ~ppn:(Int64.of_int i)
           ~attr:(Pte.Attr.of_bits (Int64.of_int t.attrs.(i))))
    else walk_frames t acc ~vpn t.next.(i)
  end

let lookup_into t acc ~vpn =
  let bucket = hash t vpn in
  (* the anchor dereference is a real memory read here *)
  Mem.Walk_acc.read_int acc ~addr:(anchor_addr t bucket) ~bytes:8;
  walk_frames t acc ~vpn t.anchors.(bucket)

let lookup_block t acc ~vpn ~subblock_factor =
  Types.lookup_pages (lookup_into t) acc ~vpn ~subblock_factor

(* unlink frame [i] from its chain in O(1) via the back pointer *)
let unlink t i =
  let p = t.prev.(i) in
  (if p >= 0 then t.next.(p) <- t.next.(i)
   else if p <= -2 then t.anchors.(-2 - p) <- t.next.(i));
  if t.next.(i) >= 0 then t.prev.(t.next.(i)) <- p;
  Bytes.set t.used i '\000';
  t.next.(i) <- -1;
  t.prev.(i) <- -1;
  t.used_count <- t.used_count - 1

let find_frame t vpn =
  let rec go i =
    if i < 0 then None
    else if is_used t i && Int64.equal t.vpns.(i) vpn then Some i
    else go t.next.(i)
  in
  go t.anchors.(hash t vpn)

let remove t ~vpn =
  match find_frame t vpn with Some i -> unlink t i | None -> ()

let insert_base t ~vpn ~ppn ~attr =
  let i = Int64.to_int ppn in
  if i < 0 || i >= t.frames_n then
    invalid_arg "Inverted_pt.insert_base: frame out of range";
  (* a vpn maps to one frame and a frame holds one mapping: reclaim
     both sides first *)
  remove t ~vpn;
  if is_used t i then unlink t i;
  let bucket = hash t vpn in
  t.vpns.(i) <- vpn;
  t.attrs.(i) <- Int64.to_int (Pte.Attr.to_bits attr);
  Bytes.set t.used i '\001';
  t.next.(i) <- t.anchors.(bucket);
  t.prev.(i) <- -2 - bucket;
  if t.next.(i) >= 0 then t.prev.(t.next.(i)) <- i;
  t.anchors.(bucket) <- i;
  t.used_count <- t.used_count + 1

let insert_superpage _ ~vpn:_ ~size:_ ~ppn:_ ~attr:_ =
  invalid_arg "Inverted_pt: superpages unsupported"

let insert_psb _ ~vpbn:_ ~vmask:_ ~ppn:_ ~attr:_ =
  invalid_arg "Inverted_pt: partial-subblocks unsupported"

let set_attr_range t region ~f =
  let searches = ref 0 in
  Addr.Region.iter_vpns region (fun vpn ->
      incr searches;
      match find_frame t vpn with
      | Some i ->
          t.attrs.(i) <-
            Int64.to_int
              (Pte.Attr.to_bits (f (Pte.Attr.of_bits (Int64.of_int t.attrs.(i)))))
      | None -> ());
  !searches

let size_bytes t = (t.slots * 8) + (t.frames_n * entry_bytes)

let population t = t.used_count

let clear t =
  Array.fill t.anchors 0 t.slots (-1);
  Bytes.fill t.used 0 t.frames_n '\000';
  Array.fill t.next 0 t.frames_n (-1);
  Array.fill t.prev 0 t.frames_n (-1);
  t.used_count <- 0
