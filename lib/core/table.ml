module Types = Pt_common.Types
module Chain = Pt_common.Chain

(* A node is a [Chain.node] whose payload is its word array: one word
   (a partial-subblock or block-sized superpage node) or
   [subblock_factor] words (a block node).  Tag and simulated address
   are immediates, links end at the chain's [nil] sentinel, so the
   hot-path tag comparison is an unboxed integer compare and traversal
   never pattern-matches an allocation. *)
type node = int64 array Chain.node

(* Emptied nodes are kept on per-size free lists (threaded through
   [next]) and reused before the arena grows: under churn, a map/unmap
   cycle settles into a steady state where node memory is recycled
   instead of leaking bump-allocator address space.  Freed nodes are
   excluded from the chain's counts — they are capacity, not live
   page-table state. *)
type free_lists = {
  lists : node array;  (* by size class: single-word nodes, block nodes *)
  lengths : int array;
  lock : Mutex.t;
      (* like the arena's lock: per-bucket locking covers the chains,
         not this cross-bucket reclamation state *)
}

type t = {
  config : Config.t;
  arena : Mem.Sim_memory.t;
  chain : int64 array Chain.t;
  heads_addr : int;
      (* bucket array embedding the first nodes: an empty bucket's
         probe still reads one line *)
  hash_shift : int;  (* 64 - log2 buckets, fixed at create *)
  unit_shift : int;  (* page_shift - 12: base pages per table unit *)
  factor_bits : int;
  sz_code_block : int;  (* SZ code of a whole page block *)
  free : free_lists;
}

let name = "clustered"

let node_bytes words = Chain.payload_bytes Words words

(* 0 for a 24-byte single-word node, 1 for a block node *)
let size_class words = if Array.length words = 1 then 0 else 1

let pop_free free ~nil cls =
  Mutex.lock free.lock;
  let n = free.lists.(cls) in
  if n != nil then begin
    free.lists.(cls) <- n.next;
    free.lengths.(cls) <- free.lengths.(cls) - 1
  end;
  Mutex.unlock free.lock;
  n

let park_free free (n : node) =
  let cls = size_class n.w in
  Mutex.lock free.lock;
  n.next <- free.lists.(cls);
  free.lists.(cls) <- n;
  free.lengths.(cls) <- free.lengths.(cls) + 1;
  Mutex.unlock free.lock

let alloc_node arena ~align ~nil free ~tag words : node =
  (* injected allocation failure: fires before any free-list mutation,
     so an aborted insert leaves the table exactly as it was (modulo
     words the caller already wrote — its journal's problem) *)
  Fault.fire Fault.Alloc_node;
  let reuse = pop_free free ~nil (size_class words) in
  if reuse != nil then begin
    (* reuse before growing: same size class, so the arena address and
       byte accounting carry over unchanged *)
    reuse.tag <- tag;
    reuse.w <- words;
    reuse.next <- nil;
    reuse
  end
  else
    let addr = Mem.Sim_memory.alloc arena ~bytes:(node_bytes words) ~align in
    { tag; w = words; addr = Int64.to_int addr; next = nil }

let create ?arena config =
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let factor_bits = Addr.Bits.log2_exact config.Config.subblock_factor in
  let unit_shift = config.Config.page_shift - Addr.Page_size.base_shift in
  (* the free lists end where the chains do *)
  let sentinel = Chain.sentinel [||] in
  let free =
    {
      lists = [| sentinel; sentinel |];
      lengths = [| 0; 0 |];
      lock = Mutex.create ();
    }
  in
  let align = config.Config.node_align in
  {
    config;
    arena;
    chain =
      Chain.create ~nil:sentinel ~buckets:config.Config.buckets
        ~payload:Words
        ~alloc:(fun ~tag words ->
          alloc_node arena ~align ~nil:sentinel free ~tag words)
        ~release:(fun n -> park_free free n);
    heads_addr =
      Int64.to_int
        (Mem.Sim_memory.alloc arena
           ~bytes:(config.Config.buckets * 16)
           ~align:4096);
    hash_shift = Config.hash_shift config;
    unit_shift;
    factor_bits;
    sz_code_block = unit_shift + factor_bits;
    free;
  }

let config t = t.config

(* --- unit / block arithmetic (all on 4 KB VPNs from the interface) --- *)

let uvpn_of t vpn = Int64.shift_right_logical vpn t.unit_shift

let split t vpn =
  let uvpn = uvpn_of t vpn in
  let vpbn = Int64.shift_right_logical uvpn t.factor_bits in
  let boff = Int64.to_int (Addr.Bits.extract uvpn ~lo:0 ~width:t.factor_bits) in
  (vpbn, boff)

let factor_mask t = (1 lsl t.config.Config.subblock_factor) - 1

let buckets t = Chain.buckets t.chain

(* [Config.hash] with the shift computed once, keyed by the node tag *)
let hash t tag = Addr.Bits.hash_index tag ~shift:t.hash_shift

let bucket_of t ~vpn =
  let vpbn, _ = split t vpn in
  hash t (Int64.to_int vpbn)

(* --- node management --- *)

let set_reclaim_hook t hook = Chain.set_reclaim_hook t.chain hook

(* free-list threading may now scribble on [next]: no reader pinned
   before [upto] remains, per the caller's epoch manager *)
let reclaim t ~upto = Chain.reclaim t.chain ~upto

let limbo_nodes t = Chain.limbo_nodes t.chain

(* really return a node's bytes to the arena (only [clear] does) *)
let arena_free t (n : node) =
  Mem.Sim_memory.free t.arena ~addr:(Int64.of_int n.addr)
    ~bytes:(node_bytes n.w)
    ~align:t.config.Config.node_align

let invalid_base_word = Pte.Base_pte.(encode invalid)

(* Classification of a node by the S field of its first word: the same
   single decode the paper's miss handler performs after a tag match. *)
type node_class =
  | Single_psb of Pte.Psb_pte.t
  | Single_sp of Pte.Superpage_pte.t
  | Block

let classify t (n : node) =
  match Pte.Word.decode n.w.(0) with
  | Pte.Word.Psb p -> Single_psb p
  | Pte.Word.Superpage sp
    when Addr.Page_size.sz_code sp.Pte.Superpage_pte.size >= t.sz_code_block ->
      Single_sp sp
  | Pte.Word.Superpage _ | Pte.Word.Base _ -> Block

(* decode-free classification for the hot paths: reads only the S and
   SZ bits, with shifts (an invalid S code still raises) *)
let is_single t (n : node) =
  let w0 = n.w.(0) in
  match Pte.Layout.s_code w0 with
  | 0 -> false
  | 1 -> true
  | _ -> Pte.Layout.sz_code w0 >= t.sz_code_block

(* --- translations --- *)

(* Reading the mapping of [vpn] out of a tag-matched node; None means
   "no valid mapping here, keep searching the chain" (Section 5).  A
   coarse table maps superpages only, and a psb word maps only at the
   head of a single node. *)
let node_translation t (n : node) ~vpn ~boff =
  let single = is_single t n in
  let w = if single then n.w.(0) else n.w.(boff) in
  match Pte.Layout.s_code w with
  | 1 when not single -> None
  | (0 | 1) when t.unit_shift <> 0 -> None
  | _ ->
      Pt_common.Decode.translation_of_word
        ~subblock_factor:t.config.Config.subblock_factor ~vpn w

(* --- lookup --- *)

let word_addr (n : node) i = n.addr + 16 + (8 * i)

let charge_empty_head t ~bucket acc =
  Mem.Walk_acc.read_int acc ~addr:(t.heads_addr + (bucket * 16)) ~bytes:16;
  Mem.Walk_acc.probe acc

(* The miss handler's chain walk, from [n] on.  Top level, so a walk
   allocates no closure.  A base word at Boff of a base-format node
   becomes its translation straight from the bits; every other format
   takes [node_translation]. *)
let rec walk_chain t acc ~vpn ~tag ~boff (n : node) =
  if n == t.chain.nil then None
  else begin
    (* tag and next pointer: the first sixteen bytes of the node *)
    Mem.Walk_acc.read_int acc ~addr:n.addr ~bytes:16;
    Mem.Walk_acc.probe acc;
    if n.tag <> tag then walk_chain t acc ~vpn ~tag ~boff n.next
    else begin
      (* the S check always reads mapping[0] (Figure 8) ... *)
      Mem.Walk_acc.read_int acc ~addr:(word_addr n 0) ~bytes:8;
      let tr =
        if is_single t n then node_translation t n ~vpn ~boff
        else begin
          (* ... and a base-format node then reads mapping[Boff] *)
          if boff <> 0 then
            Mem.Walk_acc.read_int acc ~addr:(word_addr n boff) ~bytes:8;
          let w = n.w.(boff) in
          if Pte.Layout.s_code w <> 0 then node_translation t n ~vpn ~boff
          else if t.unit_shift = 0 then
            Pt_common.Decode.base_word_translation ~vpn w
          else None
        end
      in
      match tr with
      | Some _ -> tr
      | None -> walk_chain t acc ~vpn ~tag ~boff n.next
    end
  end

(* Tag, block offset and bucket come straight from shifts, without
   building the [split] pair. *)
let lookup_into t acc ~vpn =
  let uvpn = Int64.shift_right_logical vpn t.unit_shift in
  let tag = Int64.to_int (Int64.shift_right_logical uvpn t.factor_bits) in
  let boff = Int64.to_int uvpn land ((1 lsl t.factor_bits) - 1) in
  let bucket = hash t tag in
  if t.chain.head_tags.(bucket) = Chain.retired then begin
    charge_empty_head t ~bucket acc;
    None
  end
  else walk_chain t acc ~vpn ~tag ~boff t.chain.heads.(bucket)

(* [lookup_block]'s chain walk: every node of the block's tag, in chain
   order, fills the offsets still missing from [found]. *)
let rec gather_block t acc ~tag ~block_base found (n : node) =
  if n != t.chain.nil then begin
    Mem.Walk_acc.read_int acc ~addr:n.addr ~bytes:16;
    Mem.Walk_acc.probe acc;
    if n.tag = tag then begin
      Mem.Walk_acc.read_int acc ~addr:(word_addr n 0)
        ~bytes:(8 * Array.length n.w);
      for i = 0 to Array.length found - 1 do
        if found.(i) = None then
          let page = Int64.add block_base (Int64.of_int i) in
          found.(i) <- node_translation t n ~vpn:page ~boff:i
      done
    end;
    gather_block t acc ~tag ~block_base found n.next
  end

let lookup_block t acc ~vpn ~subblock_factor =
  if subblock_factor = t.config.Config.subblock_factor && t.unit_shift = 0 then begin
    (* one chain traversal serves the whole block: mappings for all the
       block's base pages are adjacent in the matching nodes
       (Section 4.4: prefetch penalty is "reasonable" for clustered) *)
    let vpbn, _ = split t vpn in
    let tag = Int64.to_int vpbn in
    let block_base = Int64.shift_left vpbn t.factor_bits in
    let found = Array.make subblock_factor None in
    let bucket = hash t tag in
    if t.chain.head_tags.(bucket) = Chain.retired then
      charge_empty_head t ~bucket acc
    else gather_block t acc ~tag ~block_base found t.chain.heads.(bucket);
    let results = ref [] in
    for i = subblock_factor - 1 downto 0 do
      match found.(i) with
      | Some tr -> results := (i, tr) :: !results
      | None -> ()
    done;
    !results
  end
  else
    (* mismatched factor: gather page by page *)
    Types.lookup_pages (lookup_into t) acc ~vpn ~subblock_factor

(* --- insertion --- *)

(* The first node of [tag] from [n] on that is a block node ([single]
   false) or a single node with S code [s]; [nil] if none.  Top level,
   so an insert's search allocates nothing. *)
let rec find_node t ~tag ~single ~s (n : node) =
  if
    n == t.chain.nil
    || n.tag = tag
       && is_single t n = single
       && ((not single) || Pte.Layout.s_code n.w.(0) = s)
  then n
  else find_node t ~tag ~single ~s n.next

(* link a new node at the head of its tag's bucket *)
let add_node t ~tag words =
  let n = t.chain.alloc ~tag words in
  Chain.link t.chain (hash t tag) n;
  n

let block_node t ~tag =
  let n =
    find_node t ~tag ~single:false ~s:0 t.chain.heads.(hash t tag)
  in
  if n != t.chain.nil then n
  else
    add_node t ~tag
      (Array.make t.config.Config.subblock_factor invalid_base_word)

let no_coarse_base () =
  invalid_arg "Clustered_pt: base pages not representable in a coarse table"

let insert_base t ~vpn ~ppn ~attr =
  if t.unit_shift <> 0 then no_coarse_base ();
  let vpbn, boff = split t vpn in
  let n = block_node t ~tag:(Int64.to_int vpbn) in
  n.w.(boff) <- Pte.Base_pte.(encode (make ~ppn ~attr ()))

let run_leaves_block () =
  invalid_arg "Clustered_pt: a run must stay inside one page block"

(* [insert_base] over a run of one block: the block node is found or
   made once, and each page's word is the attribute template ORed with
   its PPN. *)
let map_run t ~vpn ~pages ~ppn_of ~attr =
  if t.unit_shift <> 0 then no_coarse_base ();
  if pages > 0 then begin
    let tag = Int64.to_int (Int64.shift_right_logical vpn t.factor_bits) in
    let boff = Int64.to_int vpn land ((1 lsl t.factor_bits) - 1) in
    if boff + pages > t.config.Config.subblock_factor then run_leaves_block ();
    let template = Pte.Base_pte.template attr in
    let n = block_node t ~tag in
    for i = 0 to pages - 1 do
      n.w.(boff + i) <-
        Pte.Base_pte.with_ppn template
          ~ppn:(ppn_of (Int64.add vpn (Int64.of_int i)))
    done
  end

let insert_superpage t ~vpn ~size ~ppn ~attr =
  let sz = Addr.Page_size.sz_code size in
  if not (Addr.Bits.is_aligned vpn sz) then
    invalid_arg "Clustered_pt.insert_superpage: VPN not aligned";
  if sz < t.unit_shift then
    invalid_arg "Clustered_pt.insert_superpage: smaller than table unit";
  let word = Pte.Superpage_pte.(encode (make ~size ~ppn ~attr ())) in
  if sz >= t.sz_code_block then begin
    (* replicate once per covered page block (Section 5): one 24-byte
       single node per block, each holding the same superpage word *)
    let n_blocks = 1 lsl (sz - t.sz_code_block) in
    let first_vpbn, _ = split t vpn in
    for i = 0 to n_blocks - 1 do
      let tag = Int64.to_int first_vpbn + i in
      let n = find_node t ~tag ~single:true ~s:2 t.chain.heads.(hash t tag) in
      if n != t.chain.nil then n.w.(0) <- word
      else ignore (add_node t ~tag [| word |])
    done
  end
  else begin
    (* smaller than the page block: live inside a block node, the word
       replicated at each covered block offset *)
    let vpbn, boff = split t vpn in
    let n = block_node t ~tag:(Int64.to_int vpbn) in
    let covered = 1 lsl (sz - t.unit_shift) in
    for i = boff to boff + covered - 1 do
      n.w.(i) <- word
    done
  end

let insert_psb t ~vpbn ~vmask ~ppn ~attr =
  if t.unit_shift <> 0 then
    invalid_arg "Clustered_pt: partial-subblocks only in base-page tables";
  if vmask land lnot (factor_mask t) <> 0 then
    invalid_arg "Clustered_pt.insert_psb: vmask exceeds subblock factor";
  let tag = Int64.to_int vpbn in
  let n = find_node t ~tag ~single:true ~s:1 t.chain.heads.(hash t tag) in
  if n == t.chain.nil then
    ignore (add_node t ~tag [| Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)) |])
  else
    let existing = Pte.Psb_pte.decode n.w.(0) in
    let vmask =
      if Int64.equal existing.ppn ppn then existing.vmask lor vmask else vmask
    in
    n.w.(0) <- Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr))

(* --- removal --- *)

(* block nodes only ever hold valid words or the canonical invalid
   word, so emptiness is a plain comparison *)
let block_node_empty (n : node) =
  Array.for_all (fun w -> Int64.equal w invalid_base_word) n.w

let valid w = Addr.Bits.test_bit w Pte.Layout.valid_bit

(* Clear the pending pages a block node maps; returns those still
   pending.  A small superpage's word is cleared at every replica, so
   it answers for the first of its pages only: the others are no
   longer mapped here. *)
let unmap_block t (n : node) pending =
  let left = ref pending in
  for boff = 0 to Array.length n.w - 1 do
    if !left land (1 lsl boff) <> 0 then begin
      let w = n.w.(boff) in
      if valid w then
        match Pte.Layout.s_code w with
        | 0 ->
            n.w.(boff) <- invalid_base_word;
            left := !left land lnot (1 lsl boff)
        | 2 ->
            let covered = 1 lsl (Pte.Layout.sz_code w - t.unit_shift) in
            let first = boff land lnot (covered - 1) in
            Array.fill n.w first covered invalid_base_word;
            left := !left land lnot (1 lsl boff)
        | _ -> ()
    end
  done;
  !left

(* Take from one tag-matched node the pending pages it maps; returns
   those still pending, unlinking the node if that left it empty.  A
   block-sized superpage goes whole for the first pending page. *)
let unmap_node t ~bucket prev (n : node) pending =
  let w0 = n.w.(0) in
  if not (is_single t n) then begin
    let left = unmap_block t n pending in
    if left <> pending && block_node_empty n then
      Chain.unlink t.chain ~bucket prev n;
    left
  end
  else if Pte.Layout.s_code w0 = 1 then begin
    let p = Pte.Psb_pte.decode w0 in
    let hit = p.Pte.Psb_pte.vmask land pending in
    if hit <> 0 then begin
      let vmask = p.vmask land lnot hit in
      if vmask land factor_mask t = 0 then Chain.unlink t.chain ~bucket prev n
      else n.w.(0) <- Pte.Psb_pte.encode { p with vmask }
    end;
    pending land lnot hit
  end
  else if valid w0 then begin
    Chain.unlink t.chain ~bucket prev n;
    pending land (pending - 1)
  end
  else pending

(* One chain walk removes a run: [pending] holds the block offsets not
   yet removed, and every node with the run's tag, in chain order,
   takes the pending pages it maps.  Each page thus leaves the first
   node that maps it — where [remove] page by page would find it, since
   removing a page changes only the node that held it. *)
let rec unmap_walk t ~bucket ~tag pending prev (n : node) =
  if pending <> 0 && n != t.chain.nil then begin
    (* read before an unlink can recycle [n] onto a free list *)
    let next = n.next in
    if n.tag <> tag then unmap_walk t ~bucket ~tag pending n next
    else
      let left = unmap_node t ~bucket prev n pending in
      (* an unlinked node wears [Chain.retired] and is no predecessor *)
      let prev = if n.tag = Chain.retired then prev else n in
      unmap_walk t ~bucket ~tag left prev next
  end

let unmap_run t ~vpn ~pages =
  if pages > 0 then begin
    let first_u = uvpn_of t vpn in
    let last_u = uvpn_of t (Int64.add vpn (Int64.of_int (pages - 1))) in
    let tag = Int64.to_int (Int64.shift_right_logical first_u t.factor_bits) in
    if Int64.to_int (Int64.shift_right_logical last_u t.factor_bits) <> tag then
      run_leaves_block ();
    let m = (1 lsl t.factor_bits) - 1 in
    let lo = Int64.to_int first_u land m and hi = Int64.to_int last_u land m in
    let bucket = hash t tag in
    unmap_walk t ~bucket ~tag
      (((2 lsl hi) - 1) land lnot ((1 lsl lo) - 1))
      t.chain.nil t.chain.heads.(bucket)
  end

let remove t ~vpn = unmap_run t ~vpn ~pages:1

(* --- range attribute updates --- *)

let attr_mask = (1 lsl Pte.Attr.width) - 1

(* [f] on a 12-bit attribute field, remembered: [memo] packs the last
   field [f] saw above what it made of it (-1 before the first). *)
let attr_memo memo ~f bits =
  if memo >= 0 && memo lsr Pte.Attr.width = bits then memo
  else
    (bits lsl Pte.Attr.width)
    lor Int64.to_int
          (Pte.Attr.to_bits (f (Pte.Attr.of_bits (Int64.of_int bits))))

(* Apply [f] at offsets [lo..hi] of a block node; returns the memo.  A
   valid base word takes its new attribute bits straight from its old
   ones; other formats re-encode through [Decode.reencode_attr], a small
   superpage's word at all its replicas. *)
let reattr_block t (n : node) ~lo ~hi ~f memo =
  let memo = ref memo and i = ref lo in
  while !i <= hi do
    let w = n.w.(!i) in
    if Pte.Layout.s_code w = 0 then begin
      if valid w then begin
        memo := attr_memo !memo ~f (Int64.to_int w land attr_mask);
        n.w.(!i) <-
          Pte.Base_pte.with_attr_bits w ~bits:(!memo land attr_mask)
      end;
      incr i
    end
    else
      match Pt_common.Decode.reencode_attr w ~f with
      | Some w' when Pte.Layout.s_code w = 2 ->
          let covered = 1 lsl (Pte.Layout.sz_code w - t.unit_shift) in
          let first = !i land lnot (covered - 1) in
          Array.fill n.w first covered w';
          i := first + covered
      | Some w' ->
          n.w.(!i) <- w';
          incr i
      | None -> incr i
  done;
  !memo

let rec reattr_chain t ~tag ~lo ~hi ~f memo (n : node) =
  if n == t.chain.nil then memo
  else if n.tag <> tag then reattr_chain t ~tag ~lo ~hi ~f memo n.next
  else if is_single t n then begin
    (match Pt_common.Decode.reencode_attr n.w.(0) ~f with
    | Some w -> n.w.(0) <- w
    | None -> ());
    reattr_chain t ~tag ~lo ~hi ~f memo n.next
  end
  else
    reattr_chain t ~tag ~lo ~hi ~f (reattr_block t n ~lo ~hi ~f memo) n.next

(* One search per page block of the region, [f] running once per
   distinct attribute field of its base words. *)
let set_attr_range t region ~f =
  if Addr.Region.is_empty region then 0
  else begin
    let m = (1 lsl t.factor_bits) - 1 in
    let first_u = uvpn_of t region.Addr.Region.first_vpn in
    let last_u = uvpn_of t (Addr.Region.last_vpn region) in
    let tag_of u = Int64.to_int (Int64.shift_right_logical u t.factor_bits) in
    let first_tag = tag_of first_u and last_tag = tag_of last_u in
    let memo = ref (-1) in
    for tag = first_tag to last_tag do
      let lo = if tag = first_tag then Int64.to_int first_u land m else 0 in
      let hi = if tag = last_tag then Int64.to_int last_u land m else m in
      memo := reattr_chain t ~tag ~lo ~hi ~f !memo t.chain.heads.(hash t tag)
    done;
    last_tag - first_tag + 1
  end

(* --- accounting --- *)

let size_bytes t = Chain.bytes t.chain

let unit_pages t = 1 lsl t.unit_shift

let population t =
  let count = ref 0 in
  Chain.iter t.chain (fun n ->
      match classify t n with
      | Single_psb p ->
          count :=
            !count
            + Addr.Bits.popcount (Int64.of_int (p.vmask land factor_mask t))
      | Single_sp sp ->
          if sp.valid then
            count := !count + (t.config.Config.subblock_factor * unit_pages t)
      | Block ->
          Array.iter
            (fun w ->
              match Pte.Word.decode w with
              | Pte.Word.Base b -> if b.valid then count := !count + 1
              | Pte.Word.Superpage sp ->
                  if sp.valid then count := !count + unit_pages t
              | Pte.Word.Psb _ -> ())
            n.w);
  !count

let reset_free t =
  Array.fill t.free.lists 0 2 t.chain.nil;
  Array.fill t.free.lengths 0 2 0

let clear t =
  (* [clear] really empties the table: live nodes, parked free-list
     nodes and limbo nodes alike give their bytes back to the arena *)
  Chain.clear t.chain ~free:(arena_free t);
  let rec drain (n : node) =
    if n != t.chain.nil then begin
      let next = n.next in
      arena_free t n;
      drain next
    end
  in
  Array.iter drain t.free.lists;
  reset_free t;
  Chain.drain_limbo t.chain (arena_free t)

let free_nodes t =
  Mutex.lock t.free.lock;
  let n = t.free.lengths.(0) + t.free.lengths.(1) in
  Mutex.unlock t.free.lock;
  n

let node_count t = Chain.node_count t.chain

let chain_length t ~bucket = Chain.length t.chain ~bucket

let load_factor t =
  float_of_int (node_count t) /. float_of_int (buckets t)

(* --- promotion support (Section 5) --- *)

type block_summary = {
  base_vmask : int;
  psb_vmask : int;
  superpage_pages : int;
  promotable_ppn : int64 option;
}

let block_summary t ~vpn =
  let vpbn, _ = split t vpn in
  let tag = Int64.to_int vpbn in
  let bucket = hash t tag in
  let base_vmask = ref 0 and psb_vmask = ref 0 and sp_pages = ref 0 in
  let base_words = Array.make t.config.Config.subblock_factor None in
  Chain.iter_bucket t.chain ~bucket (fun n ->
      if n.tag = tag then
        match classify t n with
        | Single_psb p ->
            psb_vmask := !psb_vmask lor (p.vmask land factor_mask t)
        | Single_sp sp ->
            if sp.valid then
              sp_pages := !sp_pages + t.config.Config.subblock_factor
        | Block ->
            Array.iteri
              (fun i w ->
                match Pte.Word.decode w with
                | Pte.Word.Base b when b.valid ->
                    if !base_vmask land (1 lsl i) = 0 then begin
                      base_vmask := !base_vmask lor (1 lsl i);
                      base_words.(i) <- Some b
                    end
                | Pte.Word.Superpage sp when sp.valid -> incr sp_pages
                | Pte.Word.Base _ | Pte.Word.Superpage _ | Pte.Word.Psb _ -> ())
              n.w);
  let promotable_ppn =
    if !base_vmask <> factor_mask t then None
    else
      match base_words.(0) with
      | Some b0
        when Addr.Bits.is_aligned b0.Pte.Base_pte.ppn t.factor_bits ->
          let ok = ref true in
          Array.iteri
            (fun i w ->
              match w with
              | Some (b : Pte.Base_pte.t) ->
                  if
                    (not
                       (Int64.equal b.ppn
                          (Int64.add b0.Pte.Base_pte.ppn (Int64.of_int i))))
                    || not (Pte.Attr.equal b.attr b0.Pte.Base_pte.attr)
                  then ok := false
              | None -> ok := false)
            base_words;
          if !ok then Some b0.Pte.Base_pte.ppn else None
      | Some _ | None -> None
  in
  {
    base_vmask = !base_vmask;
    psb_vmask = !psb_vmask;
    superpage_pages = !sp_pages;
    promotable_ppn;
  }

(* All pages of a block hash to the block's bucket. *)
let pages_per_section t = t.config.Config.subblock_factor

(* A chain can hold several nodes with one tag (Section 5: superpage
   node + residual base node); summarize each distinct page block
   once. *)
let iter_node_util t ~bucket f =
  let factor = t.config.Config.subblock_factor in
  let seen = ref [] in
  Chain.iter_bucket t.chain ~bucket (fun n ->
      if not (List.mem n.tag !seen) then begin
        seen := n.tag :: !seen;
        let vpn =
          Int64.shift_left (Int64.of_int n.tag) (t.factor_bits + t.unit_shift)
        in
        let s = block_summary t ~vpn in
        f
          (min factor
             (Addr.Bits.popcount (Int64.of_int (s.base_vmask lor s.psb_vmask))
             + min s.superpage_pages factor))
      end)

(* Tags name the resident blocks (possibly several nodes per block);
   [lookup_block] resolves what each block actually maps.  Limbo nodes
   are unlinked from the chains, so a quiescent enumeration never sees
   a retired mapping. *)
let iter_mappings t f =
  let factor = t.config.Config.subblock_factor in
  let seen = Hashtbl.create 1024 in
  let acc = Mem.Walk_acc.create () in
  Chain.iter t.chain (fun n ->
      if not (Hashtbl.mem seen n.tag) then begin
        Hashtbl.add seen n.tag ();
        let base = Int64.of_int (n.tag * factor) in
        Mem.Walk_acc.reset acc;
        List.iter
          (fun (boff, tr) -> f (Int64.add base (Int64.of_int boff)) tr)
          (lookup_block t acc ~vpn:base ~subblock_factor:factor)
      end)

let block_size t = Addr.Page_size.of_sz_code t.sz_code_block

let promote_block t ~vpn =
  if t.unit_shift <> 0 then false
  else
    let summary = block_summary t ~vpn in
    match summary.promotable_ppn with
    | None -> false
    | Some ppn ->
        let vpbn, _ = split t vpn in
        let block_base_vpn = Int64.shift_left vpbn t.factor_bits in
        let attr =
          match
            lookup_into t (Mem.Walk_acc.create ()) ~vpn:block_base_vpn
          with
          | Some tr -> tr.Types.attr
          | None -> assert false
        in
        for i = 0 to t.config.Config.subblock_factor - 1 do
          remove t ~vpn:(Int64.add block_base_vpn (Int64.of_int i))
        done;
        insert_superpage t ~vpn:block_base_vpn ~size:(block_size t) ~ppn ~attr;
        true

let demote_block t ~vpn =
  if t.unit_shift <> 0 then false
  else
    let vpbn, _ = split t vpn in
    let tag = Int64.to_int vpbn in
    let bucket = hash t tag in
    let rec find n =
      if n == t.chain.nil then None
      else if n.tag <> tag then find n.next
      else
        match classify t n with
        | Single_psb p -> Some (`Psb p)
        | Single_sp sp when sp.valid -> Some (`Sp sp)
        | _ -> find n.next
    in
    match find t.chain.heads.(bucket) with
    | None -> false
    | Some payload ->
        let block_base_vpn = Int64.shift_left vpbn t.factor_bits in
        (match payload with
        | `Sp (sp : Pte.Superpage_pte.t) ->
            remove t ~vpn:block_base_vpn;
            for i = 0 to t.config.Config.subblock_factor - 1 do
              insert_base t
                ~vpn:(Int64.add block_base_vpn (Int64.of_int i))
                ~ppn:(Int64.add sp.ppn (Int64.of_int i))
                ~attr:sp.attr
            done
        | `Psb (p : Pte.Psb_pte.t) ->
            let valid = p.vmask land factor_mask t in
            (* drop the psb node first (clearing each bit would do it
               piecemeal), then reinsert the survivors as base pages *)
            for i = 0 to t.config.Config.subblock_factor - 1 do
              if valid land (1 lsl i) <> 0 then
                remove t ~vpn:(Int64.add block_base_vpn (Int64.of_int i))
            done;
            for i = 0 to t.config.Config.subblock_factor - 1 do
              if valid land (1 lsl i) <> 0 then
                insert_base t
                  ~vpn:(Int64.add block_base_vpn (Int64.of_int i))
                  ~ppn:(Pte.Psb_pte.ppn_for p ~boff:i)
                  ~attr:p.attr
            done);
        true

(* --- integrity verification, corruption injection, repair (fsck) --- *)

(* A one-word node is a single node, unless the factor is 1: then a
   block node has one word too, and the word tells them apart. *)
let single_node t (n : node) =
  Array.length n.w = 1
  && (t.config.Config.subblock_factor > 1 || is_single t n)

type violation =
  | Chain_cycle of { bucket : int }
  | Cross_link of { bucket : int; first_bucket : int }
  | Wrong_bucket of { bucket : int; tag : int64 }
  | Stale_tag of { bucket : int }
  | Head_tag_mismatch of { bucket : int }
  | Dup_node of { bucket : int; tag : int64 }
  | Bad_word of { bucket : int; tag : int64; boff : int }
  | Torn_replica of { bucket : int; tag : int64; boff : int }
  | Coverage_overlap of { bucket : int; tag : int64; boff : int }
  | Free_list_cycle of { single : bool }
  | Free_list_live_tag of { single : bool }
  | Free_live_overlap of { bucket : int }
  | Free_count_mismatch of { single : bool; counted : int; recorded : int }
  | Limbo_live_overlap of { bucket : int }
  | Limbo_free_overlap of { single : bool }
  | Limbo_live_tag
  | Node_count_mismatch of { counted : int; recorded : int }
  | Byte_count_mismatch of { counted : int; recorded : int }

let violation_code = function
  | Chain_cycle _ -> "chain_cycle"
  | Cross_link _ -> "cross_link"
  | Wrong_bucket _ -> "wrong_bucket"
  | Stale_tag _ -> "stale_tag"
  | Head_tag_mismatch _ -> "head_tag_mismatch"
  | Dup_node _ -> "dup_node"
  | Bad_word _ -> "bad_word"
  | Torn_replica _ -> "torn_replica"
  | Coverage_overlap _ -> "coverage_overlap"
  | Free_list_cycle _ -> "free_list_cycle"
  | Free_list_live_tag _ -> "free_list_live_tag"
  | Free_live_overlap _ -> "free_live_overlap"
  | Free_count_mismatch _ -> "free_count_mismatch"
  | Limbo_live_overlap _ -> "limbo_live_overlap"
  | Limbo_free_overlap _ -> "limbo_free_overlap"
  | Limbo_live_tag -> "limbo_live_tag"
  | Node_count_mismatch _ -> "node_count_mismatch"
  | Byte_count_mismatch _ -> "byte_count_mismatch"

let free_list single = if single then "single-node" else "block-node"

let pp_violation ppf = function
  | Chain_cycle { bucket } ->
      Format.fprintf ppf "chain cycle in bucket %d" bucket
  | Cross_link { bucket; first_bucket } ->
      Format.fprintf ppf
        "bucket %d links a node already reachable from bucket %d" bucket
        first_bucket
  | Wrong_bucket { bucket; tag } ->
      Format.fprintf ppf "tag %Ld chained in bucket %d but hashes elsewhere"
        tag bucket
  | Stale_tag { bucket } ->
      Format.fprintf ppf "reclaimed (empty-tag) node live in bucket %d" bucket
  | Head_tag_mismatch { bucket } ->
      Format.fprintf ppf "flattened head tag of bucket %d disagrees with chain"
        bucket
  | Dup_node { bucket; tag } ->
      Format.fprintf ppf "duplicate nodes for tag %Ld in bucket %d" tag bucket
  | Bad_word { bucket; tag; boff } ->
      Format.fprintf ppf
        "malformed mapping word (tag %Ld, bucket %d, offset %d)" tag bucket
        boff
  | Torn_replica { bucket; tag; boff } ->
      Format.fprintf ppf
        "inconsistent superpage replica (tag %Ld, bucket %d, offset %d)" tag
        bucket boff
  | Coverage_overlap { bucket; tag; boff } ->
      Format.fprintf ppf
        "page mapped by two representations (tag %Ld, bucket %d, offset %d)"
        tag bucket boff
  | Free_list_cycle { single } ->
      Format.fprintf ppf "cycle in the %s free list" (free_list single)
  | Free_list_live_tag { single } ->
      Format.fprintf ppf "%s free list holds a node with a live tag"
        (free_list single)
  | Free_live_overlap { bucket } ->
      Format.fprintf ppf "free list holds a node still chained in bucket %d"
        bucket
  | Free_count_mismatch { single; counted; recorded } ->
      Format.fprintf ppf "%s free list length %d, recorded %d"
        (free_list single) counted recorded
  | Limbo_live_overlap { bucket } ->
      Format.fprintf ppf "limbo holds a node still chained in bucket %d"
        bucket
  | Limbo_free_overlap { single } ->
      Format.fprintf ppf "limbo holds a node also on the %s free list"
        (free_list single)
  | Limbo_live_tag ->
      Format.fprintf ppf "limbo holds a node with a live tag"
  | Node_count_mismatch { counted; recorded } ->
      Format.fprintf ppf "%d live nodes counted, %d recorded" counted recorded
  | Byte_count_mismatch { counted; recorded } ->
      Format.fprintf ppf "%d live bytes counted, %d recorded" counted recorded

let of_finding : Chain.finding -> violation = function
  | Cycle { bucket } -> Chain_cycle { bucket }
  | Cross_link { bucket; first_bucket } -> Cross_link { bucket; first_bucket }
  | Wrong_bucket { bucket; tag } ->
      Wrong_bucket { bucket; tag = Int64.of_int tag }
  | Node_count { counted; recorded } ->
      Node_count_mismatch { counted; recorded }
  | Limbo_live_tag -> Limbo_live_tag
  | Limbo_live_overlap { bucket } -> Limbo_live_overlap { bucket }

let sz_of_sp (sp : Pte.Superpage_pte.t) = Addr.Page_size.sz_code sp.size

(* the word of [vpbn]'s single-node replica of a multi-block
   superpage *)
let find_sp_replica t vpbn =
  let tag = Int64.to_int vpbn in
  Chain.find t.chain ~bucket:(hash t tag) (fun n ->
      n.tag = tag
      && Array.length n.w = 1
      &&
      match Pte.Word.decode n.w.(0) with
      | Pte.Word.Superpage sp -> sp.valid && sz_of_sp sp >= t.sz_code_block
      | _ -> false)
  |> Option.map (fun (n : node) -> n.w.(0))

(* Per-(bucket, tag) aggregation for duplicate-node and representation-
   exclusivity checks: all representations of one page block hash to
   the same bucket, so a per-bucket pass sees them all. *)
type tag_agg = {
  agg_tag : int;
  mutable a_psb : int;  (* single partial-subblock nodes *)
  mutable a_sp : int;  (* single (full-block) superpage nodes *)
  mutable a_block : int;  (* complete-subblock nodes *)
  mutable a_psb_mask : int;  (* offsets valid through psb nodes *)
  mutable a_word_mask : int;  (* offsets valid inside block nodes *)
}

let check t =
  let out = ref [] in
  let add v = out := v :: !out in
  let report f = add (of_finding f) in
  let factor = t.config.Config.subblock_factor in
  let audit = Chain.audit () in
  let check_block_words b (n : node) (agg : tag_agg) =
    let tag64 = Int64.of_int n.tag in
    for i = 0 to Array.length n.w - 1 do
      let w = n.w.(i) in
      match Pte.Word.decode w with
      | Pte.Word.Base bw ->
          if bw.valid then
            if t.unit_shift <> 0 then
              (* base words are not representable in a coarse table *)
              add (Bad_word { bucket = b; tag = tag64; boff = i })
            else agg.a_word_mask <- agg.a_word_mask lor (1 lsl i)
      | Pte.Word.Psb _ ->
          (* a psb word can only head a single node: this is the
             signature a torn multi-word update leaves behind *)
          add (Bad_word { bucket = b; tag = tag64; boff = i })
      | Pte.Word.Superpage sp ->
          if not sp.valid then
            (* block nodes hold the canonical invalid base word as
               filler, never invalid superpage words *)
            add (Bad_word { bucket = b; tag = tag64; boff = i })
          else begin
            let sz = sz_of_sp sp in
            if sz >= t.sz_code_block || sz < t.unit_shift then
              add (Bad_word { bucket = b; tag = tag64; boff = i })
            else begin
              (* a run's first word must equal every replica; a later
                 one, the first *)
              let covered = 1 lsl (sz - t.unit_shift) in
              let first = i land lnot (covered - 1) in
              let last = if i = first then first + covered - 1 else first in
              let torn = ref false in
              for j = first to last do
                if not (Int64.equal n.w.(j) w) then torn := true
              done;
              if !torn then
                add (Torn_replica { bucket = b; tag = tag64; boff = i });
              agg.a_word_mask <- agg.a_word_mask lor (1 lsl i)
            end
          end
    done
  in
  (* a single node: a psb word, or a superpage at least a block big *)
  let check_single b (n : node) (agg : tag_agg) =
    let tag64 = Int64.of_int n.tag in
    match Pte.Word.decode n.w.(0) with
    | Pte.Word.Psb p ->
        if t.unit_shift <> 0 || p.vmask land factor_mask t = 0 then
          add (Bad_word { bucket = b; tag = tag64; boff = 0 })
        else begin
          agg.a_psb <- agg.a_psb + 1;
          agg.a_psb_mask <- agg.a_psb_mask lor (p.vmask land factor_mask t)
        end
    | Pte.Word.Superpage sp ->
        if (not sp.valid) || sz_of_sp sp < t.sz_code_block then
          add (Bad_word { bucket = b; tag = tag64; boff = 0 })
        else begin
          agg.a_sp <- agg.a_sp + 1;
          Chain.check_replicas ~tag:n.tag
            ~blocks:(1 lsl (sz_of_sp sp - t.sz_code_block))
            ~agrees:(fun vpbn ->
              find_sp_replica t (Int64.of_int vpbn) = Some n.w.(0))
            ~torn:(fun boff ->
              add (Torn_replica { bucket = b; tag = tag64; boff }))
        end
    | Pte.Word.Base _ -> add (Bad_word { bucket = b; tag = tag64; boff = 0 })
  in
  for b = 0 to buckets t - 1 do
    let head = t.chain.heads.(b) in
    if t.chain.head_tags.(b) <> head.tag then
      add (Head_tag_mismatch { bucket = b });
    let aggs : tag_agg list ref = ref [] in
    let agg_for tag =
      match List.find_opt (fun a -> a.agg_tag = tag) !aggs with
      | Some a -> a
      | None ->
          let a =
            {
              agg_tag = tag;
              a_psb = 0;
              a_sp = 0;
              a_block = 0;
              a_psb_mask = 0;
              a_word_mask = 0;
            }
          in
          aggs := a :: !aggs;
          a
    in
    Chain.check_bucket t.chain audit ~home:(hash t) ~report b (fun n ->
        if n.tag = Chain.retired then add (Stale_tag { bucket = b })
        else
          let agg = agg_for n.tag in
          let len = Array.length n.w in
          if single_node t n then check_single b n agg
          else if len = factor then begin
            agg.a_block <- agg.a_block + 1;
            check_block_words b n agg
          end
          else
            add (Bad_word { bucket = b; tag = Int64.of_int n.tag; boff = -1 }));
    List.iter
      (fun a ->
        let tag64 = Int64.of_int a.agg_tag in
        if a.a_psb > 1 || a.a_sp > 1 || a.a_block > 1 then
          add (Dup_node { bucket = b; tag = tag64 });
        (* a page under psb and block words both, or anything beside a
           block-sized superpage *)
        let both = a.a_psb_mask land a.a_word_mask in
        let overlap =
          if both <> 0 || a.a_sp = 0 then both
          else a.a_psb_mask lor a.a_word_mask
        in
        if overlap <> 0 then
          (* at the lowest such offset *)
          let boff =
            Addr.Bits.popcount (Int64.of_int ((overlap land -overlap) - 1))
          in
          add (Coverage_overlap { bucket = b; tag = tag64; boff }))
      (List.rev !aggs)
  done;
  let free_seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let check_free ~single head recorded =
    let visited = Hashtbl.create 16 in
    let count = ref 0 in
    let rec go (n : node) =
      if n == t.chain.nil then ()
      else if Hashtbl.mem visited n.addr then add (Free_list_cycle { single })
      else begin
        Hashtbl.add visited n.addr ();
        Hashtbl.replace free_seen n.addr ();
        incr count;
        if n.tag <> Chain.retired then add (Free_list_live_tag { single });
        (match Hashtbl.find_opt audit.seen n.addr with
        | Some bucket -> add (Free_live_overlap { bucket })
        | None -> ());
        go n.next
      end
    in
    go head;
    if !count <> recorded then
      add (Free_count_mismatch { single; counted = !count; recorded })
  in
  check_free ~single:true t.free.lists.(0) t.free.lengths.(0);
  check_free ~single:false t.free.lists.(1) t.free.lengths.(1);
  (* three-way disjointness: a limbo node must be neither chained nor
     on a free list *)
  Chain.check_limbo t.chain audit ~report (fun n ->
      if Hashtbl.mem free_seen n.addr then
        add (Limbo_free_overlap { single = Array.length n.w = 1 }));
  Chain.check_count t.chain audit ~report;
  let recorded_bytes = Chain.bytes t.chain in
  if audit.counted_bytes <> recorded_bytes then
    add
      (Byte_count_mismatch
         { counted = audit.counted_bytes; recorded = recorded_bytes });
  List.rev !out

(* --- repair: rebuild a consistent table from surviving mappings --- *)

let repair t =
  let violations = check t in
  let factor = t.config.Config.subblock_factor in
  let h = Chain.harvest () in
  let dropped_valid_words (n : node) =
    Array.iter
      (fun w -> if Pte.Word.is_valid (Pte.Word.decode w) then Chain.drop h)
      n.w
  in
  let harvest_block_node (n : node) =
    let block_uvpn = Int64.shift_left (Int64.of_int n.tag) t.factor_bits in
    let len = Array.length n.w in
    let i = ref 0 in
    while !i < len do
      let w = n.w.(!i) in
      match Pte.Word.decode w with
      | Pte.Word.Base bw ->
          (if bw.valid then
             if t.unit_shift = 0 then
               let vpn = Int64.add block_uvpn (Int64.of_int !i) in
               Chain.keep h (Base (vpn, bw.ppn, bw.attr))
             else Chain.drop h);
          incr i
      | Pte.Word.Psb _ ->
          (* torn-write garbage *)
          Chain.drop h;
          incr i
      | Pte.Word.Superpage sp when not sp.valid -> incr i (* filler *)
      | Pte.Word.Superpage sp ->
          let sz = sz_of_sp sp in
          (* 0 when the size cannot live inside a block node *)
          let covered =
            if sz >= t.sz_code_block || sz < t.unit_shift then 0
            else 1 lsl (sz - t.unit_shift)
          in
          (* a run survives whole from its leader; an orphan replica
             or a torn run is dropped *)
          let intact = ref (covered > 0 && !i land (covered - 1) = 0) in
          for j = !i to !i + covered - 1 do
            if !intact && not (Int64.equal n.w.(j) w) then intact := false
          done;
          if !intact then begin
            let vpn =
              Int64.shift_left (Int64.add block_uvpn (Int64.of_int !i))
                t.unit_shift
            in
            Chain.keep h (Sp (vpn, sp.size, sp.ppn, sp.attr));
            i := !i + covered
          end
          else begin
            Chain.drop h;
            incr i
          end
    done
  in
  Chain.harvest_chains h t.chain (fun n ->
      if n.tag = Chain.retired then
        (* a reclaimed node's words are not trustworthy *)
        dropped_valid_words n
      else
        let len = Array.length n.w in
        if len <> 1 && len <> factor then dropped_valid_words n
        else if single_node t n then begin
          match Pte.Word.decode n.w.(0) with
          | Pte.Word.Psb p ->
              let vmask = p.vmask land factor_mask t in
              if t.unit_shift = 0 && vmask <> 0 then
                Chain.keep h (Psb (Int64.of_int n.tag, vmask, p.ppn, p.attr))
              else if vmask <> 0 then Chain.drop h
          | Pte.Word.Superpage sp ->
              if sp.valid then begin
                let sz = sz_of_sp sp in
                if sz >= t.sz_code_block then
                  let block_vpn =
                    Int64.of_int (n.tag lsl (t.factor_bits + t.unit_shift))
                  in
                  Chain.keep_replica h ~word:n.w.(0) ~block_vpn sp
                else Chain.drop h (* small sp can't head a single node *)
              end
          | Pte.Word.Base bw -> if bw.valid then Chain.drop h
        end
        else harvest_block_node n);
  Fault.suspended (fun () ->
      (* Detach everything and rebuild.  Corrupted chains and free
         lists are unsafe to walk for freeing, so the old nodes' arena
         bytes are abandoned (the arena is a simulator bump allocator;
         [clear] remains the true-freeing path for healthy tables). *)
      Chain.abandon t.chain;
      reset_free t;
      let kept, dropped =
        Chain.reinsert h ~factor_bits:t.factor_bits ~base:(insert_base t)
          ~superpage:(insert_superpage t) ~psb:(insert_psb t)
      in
      { Pt_common.Intf.violations; kept; dropped })

(* --- bucket images (the service's undo journal, the checkpoints) --- *)

type bucket_image = (int * int64 array) list

let snapshot_bucket t ~bucket = Chain.snapshot_bucket t.chain ~bucket

let iter_images t f = Chain.iter_images t.chain f

let restore_bucket t ~bucket image =
  Fault.suspended (fun () -> Chain.restore_bucket t.chain ~bucket image)

(* --- corruption injection (tests and the fsck CLI) --- *)

(* the classes beyond the engine's four chain-shape ones *)
type corruption =
  | C_stale  (* retag a live node with the reclaimed-node tag *)
  | C_torn of int64
      (* write a structurally illegal word at [vpn]'s block offset —
         what a torn multi-word update leaves behind *)
  | C_torn_replica  (* drop one replica of a multi-block superpage *)
  | C_head_tag  (* clobber a bucket's flattened head tag *)
  | C_free_reattach  (* double-free a live node onto its free list *)
  | C_overlap  (* shadow a valid base word with a psb node *)

let is_multi_block_sp t (n : node) =
  Array.length n.w = 1
  &&
  match Pte.Word.decode n.w.(0) with
  | Pte.Word.Superpage sp -> sp.valid && sz_of_sp sp > t.sz_code_block
  | _ -> false

(* the first valid base word of any block node, as (tag, offset) *)
let first_base_word t =
  let target = ref None in
  Chain.iter t.chain (fun n ->
      if !target = None && Array.length n.w > 1 then
        Array.iteri
          (fun i w ->
            match Pte.Word.decode w with
            | Pte.Word.Base bw when bw.valid && !target = None ->
                target := Some (n.tag, i)
            | _ -> ())
          n.w);
  !target

let inject t kind =
  match kind with
  | C_stale -> (
      match Chain.first_nonempty t.chain with
      | None -> false
      | Some b ->
          t.chain.heads.(b).tag <- Chain.retired;
          (* keep the mirror consistent so only the stale tag trips *)
          t.chain.head_tags.(b) <- Chain.retired;
          true)
  | C_torn vpn ->
      if t.unit_shift <> 0 then false
      else begin
        let vpbn, boff = split t vpn in
        let n = block_node t ~tag:(Int64.to_int vpbn) in
        n.w.(boff) <- Chain.torn_word;
        true
      end
  | C_torn_replica ->
      (* drop one replica node of a multi-block superpage *)
      let drop n = if is_multi_block_sp t n then `Unlink else `Skip in
      let rec scan b =
        b < buckets t
        && (Chain.unlink_first t.chain ~bucket:b drop || scan (b + 1))
      in
      scan 0
  | C_head_tag -> (
      match Chain.first_nonempty t.chain with
      | None -> false
      | Some b ->
          t.chain.head_tags.(b) <- t.chain.head_tags.(b) + 1;
          true)
  | C_free_reattach -> (
      match Chain.first_nonempty t.chain with
      | None -> false
      | Some b ->
          let n = t.chain.heads.(b) in
          Chain.set_head t.chain b n.next;
          (* park it on its free list with none of the release
             bookkeeping: a lost-update double-free *)
          park_free t.free n;
          true)
  | C_overlap -> (
      (* shadow a valid base word of some block with a psb node *)
      if t.unit_shift <> 0 then false
      else
        match first_base_word t with
        | None -> false
        | Some (tag, i) ->
            let vmask = 1 lsl i and attr = Pte.Attr.default in
            let word = Pte.Psb_pte.(encode (make ~vmask ~ppn:0L ~attr)) in
            ignore (add_node t ~tag [| word |]);
            true)

(* Any in-range page works for the planted torn word: the injector
   creates the node it tears. *)
let corruptions =
  Chain.corruptions
    [
      ("stale", Own C_stale);
      ("torn", Own (C_torn 42L));
      ("torn_replica", Own C_torn_replica);
      ("head_tag", Own C_head_tag);
      ("count", Drift);
      ("free_reattach", Own C_free_reattach);
      ("overlap", Own C_overlap);
    ]

let corruption_kinds = List.map fst corruptions

let corrupt t name =
  Fault.suspended (fun () -> Chain.corrupt t.chain corruptions (inject t) name)

let tear t ~vpn = Fault.suspended (fun () -> inject t (C_torn vpn))
