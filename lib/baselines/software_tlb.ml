module Types = Pt_common.Types

type t = {
  entries : int;
  ways : int;
  sets : int;
  tsb_addr : int64;
  tags : int64 array; (* tag of each entry; an empty entry holds -1 *)
  words : int64 array;
  stamps : int array; (* LRU within a set *)
  mutable clock : int;
  backing : Hashed_pt.t;
  mutable hits : int;
  mutable misses : int;
}

let name = "software-tlb"

let empty_tag = -1L

let create ?arena ?(entries = 4096) ?(ways = 1) ?(backing_buckets = 4096) () =
  if not (Addr.Bits.is_pow2 entries) then
    invalid_arg "Software_tlb: entries must be a power of two";
  if (not (Addr.Bits.is_pow2 ways)) || ways > entries then
    invalid_arg "Software_tlb: ways must be a power of two <= entries";
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let tsb_addr =
    Mem.Sim_memory.alloc arena ~bytes:(entries * 16) ~align:4096
  in
  {
    entries;
    ways;
    sets = entries / ways;
    tsb_addr;
    tags = Array.make entries empty_tag;
    words = Array.make entries 0L;
    stamps = Array.make entries 0;
    clock = 0;
    backing = Hashed_pt.create ~arena ~buckets:backing_buckets ();
    hits = 0;
    misses = 0;
  }

let set_of t vpn = Int64.to_int (Int64.rem vpn (Int64.of_int t.sets))

let set_base t vpn = set_of t vpn * t.ways

(* index of the matching entry in vpn's set, if any *)
let find_in_set t vpn =
  let base = set_base t vpn in
  let rec go w =
    if w >= t.ways then None
    else if Int64.equal t.tags.(base + w) vpn then Some (base + w)
    else go (w + 1)
  in
  go 0

let set_addr t vpn = Int64.add t.tsb_addr (Int64.of_int (16 * set_base t vpn))

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* install into the set, evicting the LRU way if necessary *)
let install t vpn word =
  let base = set_base t vpn in
  let slot =
    match find_in_set t vpn with
    | Some i -> i
    | None ->
        let victim = ref base in
        for w = 1 to t.ways - 1 do
          if t.tags.(base + w) = empty_tag && t.tags.(!victim) <> empty_tag
          then victim := base + w
          else if
            t.tags.(base + w) <> empty_tag
            && t.tags.(!victim) <> empty_tag
            && t.stamps.(base + w) < t.stamps.(!victim)
          then victim := base + w
        done;
        !victim
  in
  t.tags.(slot) <- vpn;
  t.words.(slot) <- word;
  t.stamps.(slot) <- tick t

let lookup_into t acc ~vpn =
  (* the whole PTE group (set) is read linearly: ways x 16 bytes *)
  Mem.Walk_acc.read acc ~addr:(set_addr t vpn) ~bytes:(16 * t.ways);
  Mem.Walk_acc.probe acc;
  match find_in_set t vpn with
  | Some i ->
      t.hits <- t.hits + 1;
      t.stamps.(i) <- tick t;
      Pt_common.Decode.translation_of_word ~subblock_factor:16 ~vpn
        t.words.(i)
  | None ->
      t.misses <- t.misses + 1;
      let tr = Hashed_pt.lookup_into t.backing acc ~vpn in
      (* a backing hit refills the set, like a level-two TLB *)
      (match tr with
      | Some r when r.Types.kind = Types.Base ->
          install t vpn
            Pte.Base_pte.(encode (make ~ppn:r.Types.ppn ~attr:r.Types.attr ()))
      | _ -> ());
      tr

let lookup_block t acc ~vpn ~subblock_factor =
  Types.lookup_pages (lookup_into t) acc ~vpn ~subblock_factor

let insert_base t ~vpn ~ppn ~attr =
  (* always insert into the backing table (the source of truth); fill
     the TSB set, evicting the LRU way on conflict *)
  Hashed_pt.insert_base t.backing ~vpn ~ppn ~attr;
  install t vpn Pte.Base_pte.(encode (make ~ppn ~attr ()))

let insert_superpage _ ~vpn:_ ~size:_ ~ppn:_ ~attr:_ =
  invalid_arg "Software_tlb: superpages unsupported"

let insert_psb _ ~vpbn:_ ~vmask:_ ~ppn:_ ~attr:_ =
  invalid_arg "Software_tlb: partial-subblocks unsupported"

let remove t ~vpn =
  (match find_in_set t vpn with
  | Some i ->
      t.tags.(i) <- empty_tag;
      t.words.(i) <- 0L
  | None -> ());
  Hashed_pt.remove t.backing ~vpn

let set_attr_range t region ~f =
  Addr.Region.iter_vpns region (fun vpn ->
      match find_in_set t vpn with
      | Some i -> (
          match Pte.Word.decode t.words.(i) with
          | Pte.Word.Base b when b.valid ->
              t.words.(i) <- Pte.Base_pte.(encode { b with attr = f b.attr })
          | _ -> ())
      | None -> ());
  Hashed_pt.set_attr_range t.backing region ~f

let size_bytes t = (t.entries * 16) + Hashed_pt.size_bytes t.backing

let population t = Hashed_pt.population t.backing

let clear t =
  Array.fill t.tags 0 t.entries empty_tag;
  Array.fill t.words 0 t.entries 0L;
  Array.fill t.stamps 0 t.entries 0;
  Hashed_pt.clear t.backing;
  t.hits <- 0;
  t.misses <- 0

let tsb_hits t = t.hits

let tsb_misses t = t.misses
