module Types = Pt_common.Types

type slot = {
  mutable tag : int64; (* VPBN; empty_tag when invalid *)
  words : int64 array;
  addr : int64;
}

type t = {
  slots : slot array;
  slot_bytes : int;
  factor : int;
  factor_bits : int;
  backing : Table.t;
  mutable hits : int;
  mutable misses : int;
}

let name = "clustered-tsb"

let empty_tag = -1L

let invalid_word = Pte.Base_pte.(encode invalid)

let create ?arena ?(slots = 512) ?(subblock_factor = 16)
    ?(backing_buckets = 4096) () =
  if not (Addr.Bits.is_pow2 slots) then
    invalid_arg "Clustered_tsb: slots must be a power of two";
  if not (Addr.Bits.is_pow2 subblock_factor) then
    invalid_arg "Clustered_tsb: subblock factor must be a power of two";
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let slot_bytes = 16 + (8 * subblock_factor) in
  (* a power-of-two stride keeps each slot within its own line set *)
  let stride =
    let rec up n = if n >= slot_bytes then n else up (2 * n) in
    up 32
  in
  let base = Mem.Sim_memory.alloc arena ~bytes:(slots * stride) ~align:4096 in
  {
    slots =
      Array.init slots (fun i ->
          {
            tag = empty_tag;
            words = Array.make subblock_factor invalid_word;
            addr = Int64.add base (Int64.of_int (i * stride));
          });
    slot_bytes;
    factor = subblock_factor;
    factor_bits = Addr.Bits.log2_exact subblock_factor;
    backing =
      Table.create ~arena
        (Config.make ~subblock_factor ~buckets:backing_buckets ());
    hits = 0;
    misses = 0;
  }

let vpbn t vpn = Int64.shift_right_logical vpn t.factor_bits

let slot_of t vpn =
  t.slots.(Int64.to_int
              (Int64.rem (vpbn t vpn) (Int64.of_int (Array.length t.slots))))

let invalidate t vpn =
  let s = slot_of t vpn in
  if Int64.equal s.tag (vpbn t vpn) then begin
    s.tag <- empty_tag;
    Array.fill s.words 0 t.factor invalid_word
  end

(* Refill a slot word from a translation found in the backing table.
   Single-class words (partial-subblock; block-sized-or-larger
   superpages) own the whole slot. *)
let refill t (tr : Types.translation) =
  let s = slot_of t tr.vpn in
  let this_vpbn = vpbn t tr.vpn in
  let claim () =
    if not (Int64.equal s.tag this_vpbn) then begin
      s.tag <- this_vpbn;
      Array.fill s.words 0 t.factor invalid_word
    end
  in
  let attr = tr.attr in
  match tr.kind with
  | Types.Base ->
      claim ();
      (* a single-word occupant owns the slot; do not mix *)
      (match Pte.Layout.read_s s.words.(0) with
      | Pte.Layout.S_base ->
          let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor:t.factor tr.vpn in
          s.words.(boff) <- Pte.Base_pte.(encode (make ~ppn:tr.ppn ~attr ()))
      | Pte.Layout.S_partial_subblock | Pte.Layout.S_superpage -> ())
  | Types.Partial_subblock vmask ->
      claim ();
      Array.fill s.words 0 t.factor invalid_word;
      s.words.(0) <- Pte.Psb_pte.(encode (make ~vmask ~ppn:tr.ppn_base ~attr))
  | Types.Superpage size ->
      claim ();
      let sz = Addr.Page_size.sz_code size in
      if sz >= t.factor_bits then begin
        Array.fill s.words 0 t.factor invalid_word;
        s.words.(0) <-
          Pte.Superpage_pte.(encode (make ~size ~ppn:tr.ppn_base ~attr ()))
      end
      else if Pte.Layout.read_s s.words.(0) = Pte.Layout.S_base then begin
        let word =
          Pte.Superpage_pte.(encode (make ~size ~ppn:tr.ppn_base ~attr ()))
        in
        let first =
          Addr.Vaddr.boff_of_vpn ~subblock_factor:t.factor tr.vpn_base
        in
        for i = first to first + Addr.Page_size.base_pages size - 1 do
          s.words.(i) <- word
        done
      end

let charge_slot t acc (s : slot) =
  Mem.Walk_acc.read acc ~addr:s.addr ~bytes:t.slot_bytes;
  Mem.Walk_acc.probe acc

(* Fetch [vpn]'s block from the backing table, charging its walk, and
   refill the slot from what it maps. *)
let backing_block t acc ~vpn ~subblock_factor =
  let found = Table.lookup_block t.backing acc ~vpn ~subblock_factor in
  List.iter (fun (_, tr) -> refill t tr) found;
  found

let lookup_into t acc ~vpn =
  let s = slot_of t vpn in
  (* the handler reads the slot tag and the mapping word(s): one slot,
     one (or with small lines, few) cache lines *)
  charge_slot t acc s;
  match
    if Int64.equal s.tag (vpbn t vpn) then
      Pt_common.Decode.translation_in_block ~subblock_factor:t.factor ~vpn
        ~words:s.words
    else None
  with
  | Some _ as tr ->
      t.hits <- t.hits + 1;
      tr
  | None ->
      t.misses <- t.misses + 1;
      (* reload the whole block: the backing node holds all the block's
         mappings adjacently, so the reload costs one chain traversal
         and future same-block lookups hit the slot (the block-granular
         analogue of a TSB reload) *)
      let found = backing_block t acc ~vpn ~subblock_factor:t.factor in
      let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor:t.factor vpn in
      List.assoc_opt boff found

(* Every page of [vpn]'s block that slot [s] maps. *)
let slot_block t (s : slot) ~vpn =
  let block_base = Int64.shift_left (vpbn t vpn) t.factor_bits in
  let results = ref [] in
  for i = t.factor - 1 downto 0 do
    let page = Int64.add block_base (Int64.of_int i) in
    match
      Pt_common.Decode.translation_in_block ~subblock_factor:t.factor
        ~vpn:page ~words:s.words
    with
    | Some tr -> results := (i, tr) :: !results
    | None -> ()
  done;
  !results

let lookup_block t acc ~vpn ~subblock_factor =
  if subblock_factor <> t.factor then
    Table.lookup_block t.backing acc ~vpn ~subblock_factor
  else begin
    let s = slot_of t vpn in
    (* one slot read serves the whole block *)
    charge_slot t acc s;
    match
      if Int64.equal s.tag (vpbn t vpn) then slot_block t s ~vpn else []
    with
    | [] ->
        t.misses <- t.misses + 1;
        backing_block t acc ~vpn ~subblock_factor
    | cached ->
        t.hits <- t.hits + 1;
        cached
  end

(* All updates go to the backing table; the affected TSB slots are
   invalidated and refill on demand — how an OS maintains a TSB. *)

let insert_base t ~vpn ~ppn ~attr =
  Table.insert_base t.backing ~vpn ~ppn ~attr;
  invalidate t vpn

let insert_superpage t ~vpn ~size ~ppn ~attr =
  Table.insert_superpage t.backing ~vpn ~size ~ppn ~attr;
  let pages = Addr.Page_size.base_pages size in
  let blocks = max 1 (pages / t.factor) in
  for i = 0 to blocks - 1 do
    invalidate t (Int64.add vpn (Int64.of_int (i * t.factor)))
  done

let insert_psb t ~vpbn:block ~vmask ~ppn ~attr =
  Table.insert_psb t.backing ~vpbn:block ~vmask ~ppn ~attr;
  invalidate t (Int64.shift_left block t.factor_bits)

let remove t ~vpn =
  Table.remove t.backing ~vpn;
  invalidate t vpn

let set_attr_range t region ~f =
  let searches = Table.set_attr_range t.backing region ~f in
  Addr.Region.iter_vpns region (fun vpn -> invalidate t vpn);
  searches

let size_bytes t =
  (Array.length t.slots * t.slot_bytes) + Table.size_bytes t.backing

let population t = Table.population t.backing

let clear t =
  Array.iter
    (fun s ->
      s.tag <- empty_tag;
      Array.fill s.words 0 t.factor invalid_word)
    t.slots;
  Table.clear t.backing;
  t.hits <- 0;
  t.misses <- 0

let tsb_hits t = t.hits

let tsb_misses t = t.misses

let reach_pages t = Array.length t.slots * t.factor
