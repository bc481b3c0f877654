module Types = Pt_common.Types

(* Chain nodes carry their tag as an immediate [int] (a VPBN fits in
   well under 62 bits) so the hot-path tag comparison is an unboxed
   integer compare instead of [Int64.equal] on two boxed values, and
   links are direct [node] pointers terminated by the [nil] sentinel
   instead of [node option], so traversal never pattern-matches an
   allocation.  The simulated address is an immediate too (arena
   addresses are far below 2^62): charging a read of the node neither
   chases a boxed [int64] nor allocates one. *)
type node = {
  mutable tag : int;
      (* mutable so a reclaimed node can be retagged on reuse; live
         nodes never change tag in place *)
  mutable words : int64 array;
  addr : int;
  node_bytes : int;
  mutable next : node;
}

let rec nil = { tag = min_int; words = [||]; addr = -1; node_bytes = 0; next = nil }

let empty_tag = min_int

type t = {
  config : Config.t;
  arena : Mem.Sim_memory.t;
  heads : node array;  (* nil = empty bucket *)
  head_tags : int array;
      (* the first node's tag, flattened into the bucket array — the
         OCaml mirror of the [heads_addr] embedding below: a probe of
         the bucket decides "empty / head matches / walk the chain"
         without dereferencing any node *)
  heads_addr : int;
      (* bucket array embedding the first nodes: an empty bucket's
         probe still reads one line *)
  hash_shift : int;  (* 64 - log2 buckets, fixed at create *)
  unit_shift : int;  (* page_shift - 12: base pages per table unit *)
  factor_bits : int;
  sz_code_block : int;  (* SZ code of a whole page block *)
  logical_bytes : int Atomic.t;
  nodes : int Atomic.t;
  (* Emptied nodes are kept on per-size free lists (threaded through
     [next]) and reused before the arena grows: under churn, a
     map/unmap cycle settles into a steady state where node memory is
     recycled instead of leaking bump-allocator address space.  Freed
     nodes are excluded from [logical_bytes]/[nodes] — they are
     capacity, not live page-table state. *)
  mutable free_single : node;  (* 24-byte single-word nodes *)
  mutable free_block : node;  (* full block nodes *)
  mutable free_single_n : int;
  mutable free_block_n : int;
  free_lock : Mutex.t;
      (* like the arena's lock: per-bucket locking covers the chains,
         not this cross-bucket reclamation state *)
  limbo : node Mem.Limbo.t;
      (* while its hook is set, unlinked nodes are retired here instead
         of parking on the free lists; [reclaim] moves them on once the
         caller proves no reader can still hold them *)
}

let name = "clustered"

let create ?arena config =
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let factor_bits = Addr.Bits.log2_exact config.Config.subblock_factor in
  let unit_shift = config.Config.page_shift - Addr.Page_size.base_shift in
  {
    config;
    arena;
    heads = Array.make config.Config.buckets nil;
    head_tags = Array.make config.Config.buckets empty_tag;
    heads_addr =
      Int64.to_int
        (Mem.Sim_memory.alloc arena
           ~bytes:(config.Config.buckets * 16)
           ~align:4096);
    hash_shift = Config.hash_shift config;
    unit_shift;
    factor_bits;
    sz_code_block = unit_shift + factor_bits;
    logical_bytes = Atomic.make 0;
    nodes = Atomic.make 0;
    free_single = nil;
    free_block = nil;
    free_single_n = 0;
    free_block_n = 0;
    free_lock = Mutex.create ();
    limbo = Mem.Limbo.create ();
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

let buckets t = Array.length t.heads

(* [Config.hash] with the shift computed once, keyed by the node tag *)
let hash t tag = Addr.Bits.hash_index tag ~shift:t.hash_shift

let bucket_of t ~vpn =
  let vpbn, _ = split t vpn in
  hash t (Int64.to_int vpbn)

(* --- node management --- *)

let pop_free t ~single =
  Mutex.lock t.free_lock;
  let n = if single then t.free_single else t.free_block in
  if n != nil then
    if single then begin
      t.free_single <- n.next;
      t.free_single_n <- t.free_single_n - 1
    end
    else begin
      t.free_block <- n.next;
      t.free_block_n <- t.free_block_n - 1
    end;
  Mutex.unlock t.free_lock;
  n

let alloc_node t ~tag ~words =
  (* injected allocation failure: fires before any counter or free-list
     mutation, so an aborted insert leaves the table exactly as it was
     (modulo words the caller already wrote — its journal's problem) *)
  Fault.fire Fault.Alloc_node;
  let node_bytes = 16 + (8 * Array.length words) in
  ignore (Atomic.fetch_and_add t.logical_bytes node_bytes);
  ignore (Atomic.fetch_and_add t.nodes 1);
  let reuse = pop_free t ~single:(Array.length words = 1) in
  if reuse != nil then begin
    (* reuse before growing: same size class, so the arena address and
       byte accounting carry over unchanged *)
    reuse.tag <- tag;
    reuse.words <- words;
    reuse.next <- nil;
    reuse
  end
  else
    let addr =
      Mem.Sim_memory.alloc t.arena ~bytes:node_bytes
        ~align:t.config.Config.node_align
    in
    { tag; words; addr = Int64.to_int addr; node_bytes; next = nil }

let park_free t n =
  Mutex.lock t.free_lock;
  if Array.length n.words = 1 then begin
    n.next <- t.free_single;
    t.free_single <- n;
    t.free_single_n <- t.free_single_n + 1
  end
  else begin
    n.next <- t.free_block;
    t.free_block <- n;
    t.free_block_n <- t.free_block_n + 1
  end;
  Mutex.unlock t.free_lock

(* Unlink bookkeeping: the node leaves the live set.  The tag is reset
   to the unmatchable [empty_tag] so a stale pointer can never
   tag-match. *)
let leave_live t n =
  ignore (Atomic.fetch_and_add t.logical_bytes (-n.node_bytes));
  ignore (Atomic.fetch_and_add t.nodes (-1));
  n.tag <- empty_tag

let release_node t n =
  leave_live t n;
  park_free t n

(* With a reclaim hook the node waits in limbo instead, its [next] and
   [words] exactly as they were: an optimistic reader that reached it
   before the unlink must be able to finish its (doomed, to-be-retried)
   walk without chasing recycled pointers. *)
let unlink_node t n =
  leave_live t n;
  match Mem.Limbo.hook t.limbo with
  | None -> park_free t n
  | Some stamp_of -> Mem.Limbo.retire t.limbo ~stamp:(stamp_of ()) n

let set_reclaim_hook t hook = Mem.Limbo.set_hook t.limbo hook

(* free-list threading may now scribble on [next]: no reader pinned
   before [upto] remains, per the caller's epoch manager *)
let reclaim t ~upto = Mem.Limbo.reclaim t.limbo ~upto (park_free t)

let limbo_nodes t = Mem.Limbo.count t.limbo

(* really return a node's bytes to the arena (only [clear] does) *)
let arena_free t n =
  Mem.Sim_memory.free t.arena ~addr:(Int64.of_int n.addr) ~bytes:n.node_bytes
    ~align:t.config.Config.node_align

let set_head t bucket n =
  t.heads.(bucket) <- n;
  t.head_tags.(bucket) <- if n == nil then empty_tag else n.tag

let link t bucket n =
  n.next <- t.heads.(bucket);
  set_head t bucket n

let invalid_base_word = Pte.Base_pte.(encode invalid)

(* Classification of a node by the S field of its first word: the same
   single decode the paper's miss handler performs after a tag match. *)
type node_class =
  | Single_psb of Pte.Psb_pte.t
  | Single_sp of Pte.Superpage_pte.t
  | Block

let classify t n =
  match Pte.Word.decode n.words.(0) with
  | Pte.Word.Psb p -> Single_psb p
  | Pte.Word.Superpage sp
    when Addr.Page_size.sz_code sp.Pte.Superpage_pte.size >= t.sz_code_block ->
      Single_sp sp
  | Pte.Word.Superpage _ | Pte.Word.Base _ -> Block

(* decode-free classification for the hot paths: reads only the S and
   SZ bits, with shifts (an invalid S code still raises) *)
let is_single t n =
  let w0 = n.words.(0) in
  match Pte.Layout.s_code w0 with
  | 0 -> false
  | 1 -> true
  | _ -> Pte.Layout.sz_code w0 >= t.sz_code_block

(* --- translations --- *)

let sp_translation vpn (sp : Pte.Superpage_pte.t) =
  let sz = Addr.Page_size.sz_code sp.size in
  let vpn_base = Addr.Bits.align_down vpn sz in
  {
    Types.vpn;
    ppn = Int64.add sp.ppn (Int64.sub vpn vpn_base);
    vpn_base;
    ppn_base = sp.ppn;
    kind = Types.Superpage sp.size;
    attr = sp.attr;
  }

let psb_translation t vpn (p : Pte.Psb_pte.t) =
  let vpbn, boff = split t vpn in
  {
    Types.vpn;
    ppn = Pte.Psb_pte.ppn_for p ~boff;
    vpn_base = Int64.shift_left vpbn t.factor_bits;
    ppn_base = p.ppn;
    kind = Types.Partial_subblock (p.vmask land factor_mask t);
    attr = p.attr;
  }

let base_translation vpn (b : Pte.Base_pte.t) =
  Types.base_translation ~vpn ~ppn:b.ppn ~attr:b.attr

(* Reading the mapping of [vpn] out of a tag-matched node; None means
   "no valid mapping here, keep searching the chain" (Section 5). *)
let node_translation t n ~vpn ~boff =
  match classify t n with
  | Single_psb p ->
      if t.unit_shift = 0 && Pte.Psb_pte.valid_at p ~boff then
        Some (psb_translation t vpn p)
      else None
  | Single_sp sp -> if sp.valid then Some (sp_translation vpn sp) else None
  | Block -> (
      match Pte.Word.decode n.words.(boff) with
      | Pte.Word.Base b when b.valid && t.unit_shift = 0 ->
          Some (base_translation vpn b)
      | Pte.Word.Superpage sp when sp.valid -> Some (sp_translation vpn sp)
      | Pte.Word.Base _ | Pte.Word.Superpage _ | Pte.Word.Psb _ -> None)

(* --- lookup --- *)

let word_addr n i = n.addr + 16 + (8 * i)

let charge_empty_head_acc t ~bucket acc =
  Mem.Walk_acc.read_int acc ~addr:(t.heads_addr + (bucket * 16)) ~bytes:16;
  Mem.Walk_acc.probe acc

(* The miss handler's chain walk, from [n] on.  Top level, so a walk
   allocates no closure.  A base word at Boff of a base-format node
   becomes its translation straight from the bits; every other format
   takes [node_translation]. *)
let rec walk_chain t acc ~vpn ~tag ~boff n =
  if n == nil then None
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
          let w = n.words.(boff) in
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
  if t.head_tags.(bucket) = empty_tag then begin
    charge_empty_head_acc t ~bucket acc;
    None
  end
  else walk_chain t acc ~vpn ~tag ~boff t.heads.(bucket)

let lookup t ~vpn =
  let acc = Mem.Walk_acc.create ~capacity:8 () in
  let tr = lookup_into t acc ~vpn in
  (tr, Types.acc_to_walk acc)

let lookup_block t ~vpn ~subblock_factor =
  if subblock_factor = t.config.Config.subblock_factor && t.unit_shift = 0 then begin
    (* one chain traversal serves the whole block: mappings for all the
       block's base pages are adjacent in the matching nodes
       (Section 4.4: prefetch penalty is "reasonable" for clustered) *)
    let vpbn, _ = split t vpn in
    let tag = Int64.to_int vpbn in
    let block_base = Int64.shift_left vpbn t.factor_bits in
    let found = Array.make subblock_factor None in
    let acc = Mem.Walk_acc.create ~capacity:8 () in
    let rec go n =
      if n == nil then ()
      else begin
        Mem.Walk_acc.read_int acc ~addr:n.addr ~bytes:16;
        Mem.Walk_acc.probe acc;
        if n.tag <> tag then go n.next
        else begin
          Mem.Walk_acc.read_int acc ~addr:(word_addr n 0)
            ~bytes:(8 * Array.length n.words);
          for i = 0 to subblock_factor - 1 do
            if found.(i) = None then
              let page = Int64.add block_base (Int64.of_int i) in
              match node_translation t n ~vpn:page ~boff:i with
              | Some tr -> found.(i) <- Some tr
              | None -> ()
          done;
          go n.next
        end
      end
    in
    let bucket = hash t tag in
    if t.head_tags.(bucket) = empty_tag then
      charge_empty_head_acc t ~bucket acc
    else go t.heads.(bucket);
    let results = ref [] in
    for i = subblock_factor - 1 downto 0 do
      match found.(i) with
      | Some tr -> results := (i, tr) :: !results
      | None -> ()
    done;
    (!results, Types.acc_to_walk acc)
  end
  else begin
    (* mismatched factor: gather page by page *)
    let block_pages = subblock_factor in
    let base =
      Int64.mul
        (Int64.div vpn (Int64.of_int block_pages))
        (Int64.of_int block_pages)
    in
    let results = ref [] and walk = ref Types.empty_walk in
    for i = block_pages - 1 downto 0 do
      let page = Int64.add base (Int64.of_int i) in
      let tr, w = lookup t ~vpn:page in
      walk := Types.walk_join w !walk;
      match tr with
      | Some tr -> results := (i, tr) :: !results
      | None -> ()
    done;
    (!results, !walk)
  end

(* --- insertion --- *)

let find_block_node t bucket tag =
  let rec go n =
    if n == nil then None
    else if n.tag = tag && not (is_single t n) then Some n
    else go n.next
  in
  go t.heads.(bucket)

let block_node t ~tag =
  let bucket = hash t tag in
  match find_block_node t bucket tag with
  | Some n -> n
  | None ->
      let words =
        Array.make t.config.Config.subblock_factor invalid_base_word
      in
      let n = alloc_node t ~tag ~words in
      link t bucket n;
      n

let no_coarse_base () =
  invalid_arg "Clustered_pt: base pages not representable in a coarse table"

let insert_base t ~vpn ~ppn ~attr =
  if t.unit_shift <> 0 then no_coarse_base ();
  let vpbn, boff = split t vpn in
  let n = block_node t ~tag:(Int64.to_int vpbn) in
  n.words.(boff) <- Pte.Base_pte.(encode (make ~ppn ~attr ()))

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
      n.words.(boff + i) <-
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
      let vpbn = Int64.add first_vpbn (Int64.of_int i) in
      let tag = Int64.to_int vpbn in
      let bucket = hash t tag in
      let rec find n =
        if n == nil then None
        else if n.tag <> tag then find n.next
        else
          match classify t n with Single_sp _ -> Some n | _ -> find n.next
      in
      match find t.heads.(bucket) with
      | Some n -> n.words.(0) <- word
      | None ->
          let n = alloc_node t ~tag ~words:[| word |] in
          link t bucket n
    done
  end
  else begin
    (* smaller than the page block: live inside a block node, the word
       replicated at each covered block offset *)
    let vpbn, boff = split t vpn in
    let n = block_node t ~tag:(Int64.to_int vpbn) in
    let covered = 1 lsl (sz - t.unit_shift) in
    for i = boff to boff + covered - 1 do
      n.words.(i) <- word
    done
  end

let insert_psb t ~vpbn ~vmask ~ppn ~attr =
  if t.unit_shift <> 0 then
    invalid_arg "Clustered_pt: partial-subblocks only in base-page tables";
  if vmask land lnot (factor_mask t) <> 0 then
    invalid_arg "Clustered_pt.insert_psb: vmask exceeds subblock factor";
  let tag = Int64.to_int vpbn in
  let bucket = hash t tag in
  let rec find n =
    if n == nil then None
    else if n.tag <> tag then find n.next
    else
      match classify t n with Single_psb p -> Some (n, p) | _ -> find n.next
  in
  match find t.heads.(bucket) with
  | Some (n, existing) when Int64.equal existing.Pte.Psb_pte.ppn ppn ->
      let merged = existing.Pte.Psb_pte.vmask lor vmask in
      n.words.(0) <- Pte.Psb_pte.(encode (make ~vmask:merged ~ppn ~attr))
  | Some (n, _) ->
      n.words.(0) <- Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr))
  | None ->
      let word = Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)) in
      let n = alloc_node t ~tag ~words:[| word |] in
      link t bucket n

(* --- removal --- *)

(* block nodes only ever hold valid words or the canonical invalid
   word, so emptiness is a plain comparison *)
let block_node_empty n =
  Array.for_all (fun w -> Int64.equal w invalid_base_word) n.words

(* Drop [n] from [bucket]'s chain: one store into its predecessor (or
   the bucket head), so a concurrent optimistic reader sees the chain
   either with [n] or without it. *)
let unlink_after t ~bucket prev n =
  if prev == nil then set_head t bucket n.next else prev.next <- n.next;
  unlink_node t n

let valid w = Addr.Bits.test_bit w Pte.Layout.valid_bit

(* Clear the pending pages a block node maps; returns those still
   pending.  A small superpage's word is cleared at every replica, so
   it answers for the first of its pages only: the others are no
   longer mapped here. *)
let unmap_block t n pending =
  let left = ref pending in
  for boff = 0 to Array.length n.words - 1 do
    if !left land (1 lsl boff) <> 0 then begin
      let w = n.words.(boff) in
      if valid w then
        match Pte.Layout.s_code w with
        | 0 ->
            n.words.(boff) <- invalid_base_word;
            left := !left land lnot (1 lsl boff)
        | 2 ->
            let covered = 1 lsl (Pte.Layout.sz_code w - t.unit_shift) in
            let first = boff land lnot (covered - 1) in
            Array.fill n.words first covered invalid_base_word;
            left := !left land lnot (1 lsl boff)
        | _ -> ()
    end
  done;
  !left

(* Take from one tag-matched node the pending pages it maps; returns
   those still pending, unlinking the node if that left it empty.  A
   block-sized superpage goes whole for the first pending page. *)
let unmap_node t ~bucket prev n pending =
  let w0 = n.words.(0) in
  if not (is_single t n) then begin
    let left = unmap_block t n pending in
    if left <> pending && block_node_empty n then unlink_after t ~bucket prev n;
    left
  end
  else if Pte.Layout.s_code w0 = 1 then begin
    let p = Pte.Psb_pte.decode w0 in
    let hit = p.Pte.Psb_pte.vmask land pending in
    if hit <> 0 then begin
      let vmask = p.vmask land lnot hit in
      if vmask land factor_mask t = 0 then unlink_after t ~bucket prev n
      else n.words.(0) <- Pte.Psb_pte.encode { p with vmask }
    end;
    pending land lnot hit
  end
  else if valid w0 then begin
    unlink_after t ~bucket prev n;
    pending land (pending - 1)
  end
  else pending

(* One chain walk removes a run: [pending] holds the block offsets not
   yet removed, and every node with the run's tag, in chain order,
   takes the pending pages it maps.  Each page thus leaves the first
   node that maps it — where [remove] page by page would find it, since
   removing a page changes only the node that held it. *)
let rec unmap_walk t ~bucket ~tag pending prev n =
  if pending <> 0 && n != nil then begin
    (* read before an unlink can recycle [n] onto a free list *)
    let next = n.next in
    if n.tag <> tag then unmap_walk t ~bucket ~tag pending n next
    else
      let left = unmap_node t ~bucket prev n pending in
      (* an unlinked node wears [empty_tag] and is no predecessor *)
      let prev = if n.tag = empty_tag then prev else n in
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
      nil t.heads.(bucket)
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
let reattr_block t n ~lo ~hi ~f memo =
  let memo = ref memo and i = ref lo in
  while !i <= hi do
    let w = n.words.(!i) in
    if Pte.Layout.s_code w = 0 then begin
      if valid w then begin
        memo := attr_memo !memo ~f (Int64.to_int w land attr_mask);
        n.words.(!i) <-
          Pte.Base_pte.with_attr_bits w ~bits:(!memo land attr_mask)
      end;
      incr i
    end
    else
      match Pt_common.Decode.reencode_attr w ~f with
      | Some w' when Pte.Layout.s_code w = 2 ->
          let covered = 1 lsl (Pte.Layout.sz_code w - t.unit_shift) in
          let first = !i land lnot (covered - 1) in
          Array.fill n.words first covered w';
          i := first + covered
      | Some w' ->
          n.words.(!i) <- w';
          incr i
      | None -> incr i
  done;
  !memo

let rec reattr_chain t ~tag ~lo ~hi ~f memo n =
  if n == nil then memo
  else if n.tag <> tag then reattr_chain t ~tag ~lo ~hi ~f memo n.next
  else if is_single t n then begin
    (match Pt_common.Decode.reencode_attr n.words.(0) ~f with
    | Some w -> n.words.(0) <- w
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
      memo := reattr_chain t ~tag ~lo ~hi ~f !memo t.heads.(hash t tag)
    done;
    last_tag - first_tag + 1
  end

(* --- accounting --- *)

let size_bytes t = Atomic.get t.logical_bytes

let iter_nodes t f =
  Array.iter
    (fun chain ->
      let rec go n =
        if n == nil then ()
        else begin
          f n;
          go n.next
        end
      in
      go chain)
    t.heads

let unit_pages t = 1 lsl t.unit_shift

let population t =
  let count = ref 0 in
  iter_nodes t (fun n ->
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
            n.words);
  !count

let clear t =
  (* [clear] really empties the table: live nodes and parked free-list
     nodes alike give their bytes back to the arena *)
  let to_free = ref [] in
  iter_nodes t (fun n -> to_free := n :: !to_free);
  List.iter
    (fun n ->
      ignore (Atomic.fetch_and_add t.logical_bytes (-n.node_bytes));
      ignore (Atomic.fetch_and_add t.nodes (-1));
      arena_free t n)
    !to_free;
  let rec drain n =
    if n != nil then begin
      let next = n.next in
      arena_free t n;
      drain next
    end
  in
  drain t.free_single;
  drain t.free_block;
  t.free_single <- nil;
  t.free_block <- nil;
  t.free_single_n <- 0;
  t.free_block_n <- 0;
  (* limbo nodes left the logical accounting at retirement; their
     bytes go back to the arena like the free lists' *)
  Mem.Limbo.drain t.limbo (arena_free t);
  Array.fill t.heads 0 (Array.length t.heads) nil;
  Array.fill t.head_tags 0 (Array.length t.head_tags) empty_tag

let free_nodes t =
  Mutex.lock t.free_lock;
  let n = t.free_single_n + t.free_block_n in
  Mutex.unlock t.free_lock;
  n

let node_count t = Atomic.get t.nodes

let chain_length t ~bucket =
  let rec go acc n = if n == nil then acc else go (acc + 1) n.next in
  go 0 t.heads.(bucket)

let load_factor t =
  float_of_int (Atomic.get t.nodes) /. float_of_int (Array.length t.heads)

let iter_chain_tags t ~bucket f =
  let rec go n =
    if n == nil then ()
    else begin
      f (Int64.of_int n.tag);
      go n.next
    end
  in
  go t.heads.(bucket)

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
  let rec go n =
    if n == nil then ()
    else begin
      (if n.tag = tag then
         match classify t n with
         | Single_psb p -> psb_vmask := !psb_vmask lor (p.vmask land factor_mask t)
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
                 | Pte.Word.Base _ | Pte.Word.Superpage _ | Pte.Word.Psb _ ->
                     ())
               n.words);
      go n.next
    end
  in
  go t.heads.(bucket);
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
  iter_chain_tags t ~bucket (fun tag ->
      if not (List.mem tag !seen) then begin
        seen := tag :: !seen;
        let vpn = Int64.shift_left tag (t.factor_bits + t.unit_shift) in
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
  for bucket = 0 to buckets t - 1 do
    iter_chain_tags t ~bucket (fun vpbn ->
        if not (Hashtbl.mem seen vpbn) then begin
          Hashtbl.add seen vpbn ();
          let base = Int64.mul vpbn (Int64.of_int factor) in
          List.iter
            (fun (boff, tr) -> f (Int64.add base (Int64.of_int boff)) tr)
            (fst (lookup_block t ~vpn:base ~subblock_factor:factor))
        end)
  done

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
          match lookup t ~vpn:block_base_vpn with
          | Some tr, _ -> tr.Types.attr
          | None, _ -> assert false
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
      if n == nil then None
      else if n.tag <> tag then find n.next
      else
        match classify t n with
        | Single_psb p -> Some (`Psb p)
        | Single_sp sp when sp.valid -> Some (`Sp sp)
        | _ -> find n.next
    in
    match find t.heads.(bucket) with
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
  | Limbo_count_mismatch of { counted : int; recorded : int }
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
  | Limbo_count_mismatch _ -> "limbo_count_mismatch"
  | Node_count_mismatch _ -> "node_count_mismatch"
  | Byte_count_mismatch _ -> "byte_count_mismatch"

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
      Format.fprintf ppf "cycle in the %s free list"
        (if single then "single-node" else "block-node")
  | Free_list_live_tag { single } ->
      Format.fprintf ppf "%s free list holds a node with a live tag"
        (if single then "single-node" else "block-node")
  | Free_live_overlap { bucket } ->
      Format.fprintf ppf "free list holds a node still chained in bucket %d"
        bucket
  | Free_count_mismatch { single; counted; recorded } ->
      Format.fprintf ppf "%s free list length %d, recorded %d"
        (if single then "single-node" else "block-node")
        counted recorded
  | Limbo_live_overlap { bucket } ->
      Format.fprintf ppf "limbo holds a node still chained in bucket %d"
        bucket
  | Limbo_free_overlap { single } ->
      Format.fprintf ppf "limbo holds a node also on the %s free list"
        (if single then "single-node" else "block-node")
  | Limbo_live_tag ->
      Format.fprintf ppf "limbo holds a node with a live tag"
  | Limbo_count_mismatch { counted; recorded } ->
      Format.fprintf ppf "limbo length %d, recorded %d" counted recorded
  | Node_count_mismatch { counted; recorded } ->
      Format.fprintf ppf "%d live nodes counted, %d recorded" counted recorded
  | Byte_count_mismatch { counted; recorded } ->
      Format.fprintf ppf "%d live bytes counted, %d recorded" counted recorded

let sz_of_sp (sp : Pte.Superpage_pte.t) = Addr.Page_size.sz_code sp.size

let lowest_bit m =
  let rec go m i = if m land 1 <> 0 then i else go (m lsr 1) (i + 1) in
  if m = 0 then 0 else go m 0

(* Locate the single-node replica of a multi-block superpage for
   [vpbn].  Cycle-safe: bounded by a visited set on node identity
   ([addr] is unique per allocation), so a corrupted chain cannot trap
   the checker itself. *)
let find_sp_replica t vpbn =
  let tag = Int64.to_int vpbn in
  let bucket = hash t tag in
  let visited = Hashtbl.create 8 in
  let rec go n =
    if n == nil || Hashtbl.mem visited n.addr then None
    else begin
      Hashtbl.add visited n.addr ();
      if n.tag = tag && Array.length n.words = 1 then
        match Pte.Word.decode n.words.(0) with
        | Pte.Word.Superpage sp when sp.valid && sz_of_sp sp >= t.sz_code_block
          ->
            Some n.words.(0)
        | _ -> go n.next
      else go n.next
    end
  in
  go t.heads.(bucket)

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
  let factor = t.config.Config.subblock_factor in
  (* node identity -> first bucket that reached it *)
  let seen : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let counted = ref 0 and counted_bytes = ref 0 in
  let check_block_words b n (agg : tag_agg) =
    let tag64 = Int64.of_int n.tag in
    for i = 0 to Array.length n.words - 1 do
      let w = n.words.(i) in
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
              let covered = 1 lsl (sz - t.unit_shift) in
              let first = i land lnot (covered - 1) in
              if i <> first then begin
                if not (Int64.equal n.words.(first) w) then
                  add (Torn_replica { bucket = b; tag = tag64; boff = i })
              end
              else begin
                let torn = ref false in
                for j = first to first + covered - 1 do
                  if not (Int64.equal n.words.(j) w) then torn := true
                done;
                if !torn then
                  add (Torn_replica { bucket = b; tag = tag64; boff = first })
              end;
              agg.a_word_mask <- agg.a_word_mask lor (1 lsl i)
            end
          end
    done
  in
  for b = 0 to Array.length t.heads - 1 do
    let head = t.heads.(b) in
    (if head == nil then begin
       if t.head_tags.(b) <> empty_tag then add (Head_tag_mismatch { bucket = b })
     end
     else if t.head_tags.(b) <> head.tag then
       add (Head_tag_mismatch { bucket = b }));
    let chain_seen = Hashtbl.create 8 in
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
    let rec walk n =
      if n == nil then ()
      else if Hashtbl.mem chain_seen n.addr then
        add (Chain_cycle { bucket = b })
      else
        match Hashtbl.find_opt seen n.addr with
        | Some first_bucket ->
            (* shared tail: already verified from its first bucket *)
            add (Cross_link { bucket = b; first_bucket })
        | None ->
            Hashtbl.add chain_seen n.addr ();
            Hashtbl.add seen n.addr b;
            incr counted;
            counted_bytes := !counted_bytes + n.node_bytes;
            (if n.tag = empty_tag then add (Stale_tag { bucket = b })
             else begin
               let tag64 = Int64.of_int n.tag in
               if hash t n.tag <> b then
                 add (Wrong_bucket { bucket = b; tag = tag64 });
               let agg = agg_for n.tag in
               let len = Array.length n.words in
               if len <> 1 && len <> factor then
                 add (Bad_word { bucket = b; tag = tag64; boff = -1 })
               else if len = 1 then begin
                 match Pte.Word.decode n.words.(0) with
                 | Pte.Word.Psb p ->
                     if
                       t.unit_shift <> 0
                       || p.vmask land factor_mask t = 0
                     then add (Bad_word { bucket = b; tag = tag64; boff = 0 })
                     else begin
                       agg.a_psb <- agg.a_psb + 1;
                       agg.a_psb_mask <-
                         agg.a_psb_mask lor (p.vmask land factor_mask t)
                     end
                 | Pte.Word.Superpage sp ->
                     if (not sp.valid) || sz_of_sp sp < t.sz_code_block then
                       add (Bad_word { bucket = b; tag = tag64; boff = 0 })
                     else begin
                       agg.a_sp <- agg.a_sp + 1;
                       (* a multi-block superpage is replicated once per
                          covered block across buckets: the base block's
                          node sweeps its siblings, the others verify the
                          base, so a missing or diverged replica is
                          reported from whichever side survives *)
                       let n_blocks = 1 lsl (sz_of_sp sp - t.sz_code_block) in
                       if n_blocks > 1 then begin
                         let first_vpbn =
                           Int64.logand tag64
                             (Int64.lognot (Int64.of_int (n_blocks - 1)))
                         in
                         if Int64.equal tag64 first_vpbn then
                           for i = 1 to n_blocks - 1 do
                             let sib = Int64.add first_vpbn (Int64.of_int i) in
                             match find_sp_replica t sib with
                             | Some w when Int64.equal w n.words.(0) -> ()
                             | _ ->
                                 add
                                   (Torn_replica
                                      { bucket = b; tag = tag64; boff = i })
                           done
                         else begin
                           match find_sp_replica t first_vpbn with
                           | Some w when Int64.equal w n.words.(0) -> ()
                           | _ ->
                               add
                                 (Torn_replica
                                    { bucket = b; tag = tag64; boff = 0 })
                         end
                       end
                     end
                 | Pte.Word.Base _ ->
                     add (Bad_word { bucket = b; tag = tag64; boff = 0 })
               end
               else begin
                 agg.a_block <- agg.a_block + 1;
                 check_block_words b n agg
               end
             end);
            walk n.next
    in
    walk head;
    List.iter
      (fun a ->
        let tag64 = Int64.of_int a.agg_tag in
        if a.a_psb > 1 || a.a_sp > 1 || a.a_block > 1 then
          add (Dup_node { bucket = b; tag = tag64 });
        let inter = a.a_psb_mask land a.a_word_mask in
        if inter <> 0 then
          add
            (Coverage_overlap
               { bucket = b; tag = tag64; boff = lowest_bit inter })
        else if a.a_sp > 0 && a.a_psb_mask lor a.a_word_mask <> 0 then
          add
            (Coverage_overlap
               {
                 bucket = b;
                 tag = tag64;
                 boff = lowest_bit (a.a_psb_mask lor a.a_word_mask);
               }))
      (List.rev !aggs)
  done;
  let free_seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let check_free ~single head recorded =
    let visited = Hashtbl.create 16 in
    let count = ref 0 in
    let rec go n =
      if n == nil then ()
      else if Hashtbl.mem visited n.addr then add (Free_list_cycle { single })
      else begin
        Hashtbl.add visited n.addr ();
        Hashtbl.replace free_seen n.addr ();
        incr count;
        if n.tag <> empty_tag then add (Free_list_live_tag { single });
        (match Hashtbl.find_opt seen n.addr with
        | Some bucket -> add (Free_live_overlap { bucket })
        | None -> ());
        go n.next
      end
    in
    go head;
    if !count <> recorded then
      add (Free_count_mismatch { single; counted = !count; recorded })
  in
  check_free ~single:true t.free_single t.free_single_n;
  check_free ~single:false t.free_block t.free_block_n;
  (* three-way disjointness: a limbo node must be neither chained nor
     on a free list — it is exactly the state between unlink and
     recycling — and must already wear the retired tag *)
  let limbo_counted = ref 0 in
  Mem.Limbo.iter t.limbo (fun n ->
      incr limbo_counted;
      if n.tag <> empty_tag then add Limbo_live_tag;
      (match Hashtbl.find_opt seen n.addr with
      | Some bucket -> add (Limbo_live_overlap { bucket })
      | None -> ());
      if Hashtbl.mem free_seen n.addr then
        add (Limbo_free_overlap { single = Array.length n.words = 1 }));
  let limbo_recorded = Mem.Limbo.count t.limbo in
  if !limbo_counted <> limbo_recorded then
    add
      (Limbo_count_mismatch
         { counted = !limbo_counted; recorded = limbo_recorded });
  let recorded_nodes = Atomic.get t.nodes in
  if !counted <> recorded_nodes then
    add (Node_count_mismatch { counted = !counted; recorded = recorded_nodes });
  let recorded_bytes = Atomic.get t.logical_bytes in
  if !counted_bytes <> recorded_bytes then
    add
      (Byte_count_mismatch
         { counted = !counted_bytes; recorded = recorded_bytes });
  List.rev !out

(* --- repair: rebuild a consistent table from surviving mappings --- *)

let repair t =
  let violations = check t in
  let factor = t.config.Config.subblock_factor in
  let kept = ref 0 and dropped = ref 0 in
  let visited = Hashtbl.create 256 in
  (* multi-block superpages: vpn_base -> word, to fold replicas into
     one candidate (a diverged replica is a conflict, not a survivor) *)
  let sp_seen : (int64, int64) Hashtbl.t = Hashtbl.create 16 in
  let cands = ref [] in
  let cand c = cands := c :: !cands in
  let dropped_valid_words n =
    Array.iter
      (fun w -> if Pte.Word.is_valid (Pte.Word.decode w) then incr dropped)
      n.words
  in
  let harvest_block_node n =
    let tag64 = Int64.of_int n.tag in
    let block_uvpn = Int64.shift_left tag64 t.factor_bits in
    let len = Array.length n.words in
    let i = ref 0 in
    while !i < len do
      let w = n.words.(!i) in
      match Pte.Word.decode w with
      | Pte.Word.Base bw ->
          (if bw.valid then
             if t.unit_shift = 0 then
               cand
                 (`Base
                   (Int64.add block_uvpn (Int64.of_int !i), bw.ppn, bw.attr))
             else incr dropped);
          incr i
      | Pte.Word.Psb _ ->
          (* torn-write garbage *)
          incr dropped;
          incr i
      | Pte.Word.Superpage sp ->
          if not sp.valid then incr i (* filler, maps nothing *)
          else begin
            let sz = sz_of_sp sp in
            if sz >= t.sz_code_block || sz < t.unit_shift then begin
              incr dropped;
              incr i
            end
            else begin
              let covered = 1 lsl (sz - t.unit_shift) in
              let first = !i land lnot (covered - 1) in
              if !i <> first then begin
                (* orphan replica: its run leader did not claim it *)
                incr dropped;
                incr i
              end
              else begin
                let consistent = ref true in
                for j = first to first + covered - 1 do
                  if not (Int64.equal n.words.(j) w) then consistent := false
                done;
                if !consistent then begin
                  let vpn =
                    Int64.shift_left
                      (Int64.add block_uvpn (Int64.of_int first))
                      t.unit_shift
                  in
                  cand (`Sp (vpn, sp.size, sp.ppn, sp.attr));
                  i := first + covered
                end
                else begin
                  incr dropped;
                  incr i
                end
              end
            end
          end
    done
  in
  Array.iter
    (fun head ->
      let rec walk n =
        if n == nil || Hashtbl.mem visited n.addr then ()
        else begin
          Hashtbl.add visited n.addr ();
          (if n.tag = empty_tag then
             (* a reclaimed node's words are not trustworthy *)
             dropped_valid_words n
           else
             let len = Array.length n.words in
             if len <> 1 && len <> factor then dropped_valid_words n
             else if len = 1 then begin
               match Pte.Word.decode n.words.(0) with
               | Pte.Word.Psb p ->
                   let vmask = p.vmask land factor_mask t in
                   if t.unit_shift = 0 && vmask <> 0 then
                     cand (`Psb (Int64.of_int n.tag, vmask, p.ppn, p.attr))
                   else if vmask <> 0 then incr dropped
               | Pte.Word.Superpage sp ->
                   if sp.valid then begin
                     let sz = sz_of_sp sp in
                     if sz >= t.sz_code_block then begin
                       let block_vpn =
                         Int64.shift_left
                           (Int64.shift_left (Int64.of_int n.tag)
                              t.factor_bits)
                           t.unit_shift
                       in
                       let vpn_base = Addr.Bits.align_down block_vpn sz in
                       match Hashtbl.find_opt sp_seen vpn_base with
                       | Some w0 when Int64.equal w0 n.words.(0) -> ()
                       | Some _ -> incr dropped
                       | None ->
                           Hashtbl.add sp_seen vpn_base n.words.(0);
                           cand (`Sp (vpn_base, sp.size, sp.ppn, sp.attr))
                     end
                     else incr dropped (* small sp can't head a single node *)
                   end
               | Pte.Word.Base bw -> if bw.valid then incr dropped
             end
             else harvest_block_node n);
          walk n.next
        end
      in
      walk head)
    t.heads;
  (* first-wins page claims arbitrate between surviving candidates that
     cover the same base page (e.g. a duplicated node) *)
  let claimed : (int64, unit) Hashtbl.t = Hashtbl.create 1024 in
  let spans c =
    match c with
    | `Base (vpn, _, _) -> [ (vpn, 1) ]
    | `Sp (vpn, size, _, _) -> [ (vpn, Addr.Page_size.base_pages size) ]
    | `Psb (vpbn, vmask, _, _) ->
        let base = Int64.shift_left vpbn t.factor_bits in
        let l = ref [] in
        for i = factor - 1 downto 0 do
          if vmask land (1 lsl i) <> 0 then
            l := (Int64.add base (Int64.of_int i), 1) :: !l
        done;
        !l
  in
  let try_claim c =
    let pages = spans c in
    let free =
      List.for_all
        (fun (v0, np) ->
          let ok = ref true in
          for i = 0 to np - 1 do
            if Hashtbl.mem claimed (Int64.add v0 (Int64.of_int i)) then
              ok := false
          done;
          !ok)
        pages
    in
    if free then
      List.iter
        (fun (v0, np) ->
          for i = 0 to np - 1 do
            Hashtbl.add claimed (Int64.add v0 (Int64.of_int i)) ()
          done)
        pages;
    free
  in
  let survivors = List.rev !cands in
  Fault.suspended (fun () ->
      (* Detach everything and rebuild.  Corrupted chains and free
         lists are unsafe to walk for freeing, so the old nodes' arena
         bytes are abandoned (the arena is a simulator bump allocator;
         [clear] remains the true-freeing path for healthy tables). *)
      Array.fill t.heads 0 (Array.length t.heads) nil;
      Array.fill t.head_tags 0 (Array.length t.head_tags) empty_tag;
      Atomic.set t.nodes 0;
      Atomic.set t.logical_bytes 0;
      t.free_single <- nil;
      t.free_block <- nil;
      t.free_single_n <- 0;
      t.free_block_n <- 0;
      Mem.Limbo.forget t.limbo;
      List.iter
        (fun c ->
          if not (try_claim c) then incr dropped
          else
            try
              (match c with
              | `Base (vpn, ppn, attr) -> insert_base t ~vpn ~ppn ~attr
              | `Sp (vpn, size, ppn, attr) ->
                  insert_superpage t ~vpn ~size ~ppn ~attr
              | `Psb (vpbn, vmask, ppn, attr) ->
                  insert_psb t ~vpbn ~vmask ~ppn ~attr);
              incr kept
            with Invalid_argument _ -> incr dropped)
        survivors);
  { Pt_common.Intf.violations; kept = !kept; dropped = !dropped }

(* --- bucket images (the service's undo journal, the checkpoints) --- *)

type bucket_image = (int * int64 array) list

let snapshot_bucket t ~bucket =
  let rec go acc n =
    if n == nil then List.rev acc
    else go ((n.tag, Array.copy n.words) :: acc) n.next
  in
  go [] t.heads.(bucket)

let rec iter_chain_images f bucket n =
  if n != nil then begin
    f bucket n.tag n.words;
    iter_chain_images f bucket n.next
  end

let iter_images t f =
  for bucket = 0 to Array.length t.heads - 1 do
    let n = t.heads.(bucket) in
    if n != nil then iter_chain_images f bucket n
  done

let restore_bucket t ~bucket image =
  Fault.suspended (fun () ->
      let rec drop n =
        if n != nil then begin
          let next = n.next in
          (* deferred when a reclaim hook is set: the journal rollback
             runs under the write lock while optimistic readers may
             still be walking these nodes *)
          unlink_node t n;
          drop next
        end
      in
      drop t.heads.(bucket);
      set_head t bucket nil;
      (* [link] prepends, so rebuild tail-first to restore chain order *)
      List.iter
        (fun (tag, words) ->
          let n = alloc_node t ~tag ~words in
          link t bucket n)
        (List.rev image))

(* --- corruption injection (tests and the fsck CLI) --- *)

type corruption =
  | C_cycle  (* tie a chain's tail back to its head *)
  | C_cross_link  (* link one chain's tail into another bucket's chain *)
  | C_misplace  (* move a node to a bucket its tag doesn't hash to *)
  | C_duplicate  (* clone a node into its own bucket *)
  | C_stale  (* retag a live node with the reclaimed-node tag *)
  | C_torn of int64
      (* write a structurally illegal word at [vpn]'s block offset —
         what a torn multi-word update leaves behind *)
  | C_torn_replica  (* drop one replica of a multi-block superpage *)
  | C_head_tag  (* clobber a bucket's flattened head tag *)
  | C_count  (* drift the node and byte counters *)
  | C_free_reattach  (* double-free a live node onto its free list *)
  | C_overlap  (* shadow a valid base word with a psb node *)

let first_nonempty t =
  let rec go b =
    if b >= Array.length t.heads then None
    else if t.heads.(b) != nil then Some b
    else go (b + 1)
  in
  go 0

let chain_tail n =
  let rec go n = if n.next == nil then n else go n.next in
  go n

let torn_garbage_word =
  (* a psb-encoded word: structurally illegal at any block-node offset *)
  Pte.Psb_pte.(encode (make ~vmask:1 ~ppn:0L ~attr:Pte.Attr.default))

let inject t kind =
  Fault.suspended (fun () ->
      match kind with
      | C_cycle -> (
          match first_nonempty t with
          | None -> false
          | Some b ->
              let head = t.heads.(b) in
              (chain_tail head).next <- head;
              true)
      | C_cross_link -> (
          match first_nonempty t with
          | None -> false
          | Some b -> (
              let rec next_nonempty b' =
                if b' >= Array.length t.heads then None
                else if t.heads.(b') != nil then Some b'
                else next_nonempty (b' + 1)
              in
              match next_nonempty (b + 1) with
              | None -> false
              | Some b2 ->
                  (chain_tail t.heads.(b)).next <- t.heads.(b2);
                  true))
      | C_misplace -> (
          if Array.length t.heads < 2 then false
          else
            match first_nonempty t with
            | None -> false
            | Some b ->
                let n = t.heads.(b) in
                set_head t b n.next;
                let b2 = (b + 1) mod Array.length t.heads in
                n.next <- t.heads.(b2);
                set_head t b2 n;
                true)
      | C_duplicate -> (
          match first_nonempty t with
          | None -> false
          | Some b ->
              let n = t.heads.(b) in
              let clone = alloc_node t ~tag:n.tag ~words:(Array.copy n.words) in
              link t b clone;
              true)
      | C_stale -> (
          match first_nonempty t with
          | None -> false
          | Some b ->
              t.heads.(b).tag <- empty_tag;
              (* keep the mirror consistent so only the stale tag trips *)
              t.head_tags.(b) <- empty_tag;
              true)
      | C_torn vpn ->
          if t.unit_shift <> 0 then false
          else begin
            let vpbn, boff = split t vpn in
            let n = block_node t ~tag:(Int64.to_int vpbn) in
            n.words.(boff) <- torn_garbage_word;
            true
          end
      | C_torn_replica ->
          (* drop one replica node of a multi-block superpage *)
          let removed = ref false in
          for b = 0 to Array.length t.heads - 1 do
            if not !removed then begin
              let rec go prev n =
                if n == nil || !removed then ()
                else begin
                  (match Pte.Word.decode n.words.(0) with
                  | Pte.Word.Superpage sp
                    when Array.length n.words = 1
                         && sp.valid
                         && sz_of_sp sp > t.sz_code_block ->
                      if prev == nil then set_head t b n.next
                      else prev.next <- n.next;
                      release_node t n;
                      removed := true
                  | _ -> ());
                  if not !removed then go n n.next
                end
              in
              go nil t.heads.(b)
            end
          done;
          !removed
      | C_head_tag -> (
          match first_nonempty t with
          | None -> false
          | Some b ->
              t.head_tags.(b) <- t.head_tags.(b) + 1;
              true)
      | C_count ->
          ignore (Atomic.fetch_and_add t.nodes 1);
          ignore (Atomic.fetch_and_add t.logical_bytes 8);
          true
      | C_free_reattach -> (
          match first_nonempty t with
          | None -> false
          | Some b ->
              let n = t.heads.(b) in
              set_head t b n.next;
              (* park it on its free list with none of the release
                 bookkeeping: a lost-update double-free *)
              Mutex.lock t.free_lock;
              if Array.length n.words = 1 then begin
                n.next <- t.free_single;
                t.free_single <- n;
                t.free_single_n <- t.free_single_n + 1
              end
              else begin
                n.next <- t.free_block;
                t.free_block <- n;
                t.free_block_n <- t.free_block_n + 1
              end;
              Mutex.unlock t.free_lock;
              true)
      | C_overlap ->
          (* shadow a valid base word of some block with a psb node *)
          if t.unit_shift <> 0 then false
          else begin
            let target = ref None in
            for b = 0 to Array.length t.heads - 1 do
              if !target = None then
                let rec go n =
                  if n == nil || !target <> None then ()
                  else begin
                    (if Array.length n.words > 1 then
                       Array.iteri
                         (fun i w ->
                           if !target = None then
                             match Pte.Word.decode w with
                             | Pte.Word.Base bw when bw.valid ->
                                 target := Some (n.tag, i)
                             | _ -> ())
                         n.words);
                    go n.next
                  end
                in
                go t.heads.(b)
            done;
            match !target with
            | None -> false
            | Some (tag, i) ->
                let word =
                  Pte.Psb_pte.(
                    encode (make ~vmask:(1 lsl i) ~ppn:0L ~attr:Pte.Attr.default))
                in
                let node = alloc_node t ~tag ~words:[| word |] in
                link t (hash t tag) node;
                true
          end)

(* Any in-range page works for the planted torn word: the injector
   creates the node it tears. *)
let corruptions =
  [
    ("cycle", C_cycle);
    ("cross_link", C_cross_link);
    ("misplace", C_misplace);
    ("duplicate", C_duplicate);
    ("stale", C_stale);
    ("torn", C_torn 42L);
    ("torn_replica", C_torn_replica);
    ("head_tag", C_head_tag);
    ("count", C_count);
    ("free_reattach", C_free_reattach);
    ("overlap", C_overlap);
  ]

let corruption_kinds = List.map fst corruptions

let corrupt t name =
  match List.assoc_opt name corruptions with
  | Some kind -> inject t kind
  | None -> false

let tear t ~vpn = inject t (C_torn vpn)
