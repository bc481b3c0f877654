module Types = Pt_common.Types
module Chain = Pt_common.Chain

type sp_mode =
  | No_superpages
  | Two_tables of { coarse_first : bool }
  | Superpage_index

(* A node is a [Chain.node] whose payload is its one PTE word, held
   inline: the tag (a VPN, VPBN or block base, all far below 2^62) and
   the simulated address are immediates, and links end at the chain's
   [nil] sentinel.  A probe compares two ints and follows one pointer;
   no [node option] sits between a node and its successor. *)
type node = int64 Chain.node

type t = {
  mode : sp_mode;
  buckets : int;
  factor : int;
  factor_bits : int;
  node_bytes : int;
  hash_shift : int;  (* 64 - log2 buckets, fixed at create *)
  fine : int64 Chain.t;
  fine_heads_addr : int;
      (* the bucket array embeds first nodes (Figure 4: "an array of
         hash nodes"), so probing an empty bucket still reads a line *)
  coarse : int64 Chain.t;  (* Two_tables mode only; no buckets otherwise *)
  coarse_heads_addr : int;
}

let name = "hashed"

let node_align = 256

let create ?arena ?(buckets = 4096) ?(subblock_factor = 16) ?(packed = false)
    ?(mode = No_superpages) () =
  if not (Addr.Bits.is_pow2 buckets) then
    invalid_arg "Hashed_pt: buckets must be a power of two";
  if not (Addr.Bits.is_pow2 subblock_factor) then
    invalid_arg "Hashed_pt: subblock factor must be a power of two";
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let node_bytes = if packed then 16 else 24 in
  let heads_addr () =
    Int64.to_int
      (Mem.Sim_memory.alloc arena ~bytes:(buckets * node_bytes) ~align:4096)
  in
  let fine_heads_addr = heads_addr () in
  let coarse_buckets, coarse_heads_addr =
    match mode with
    | Two_tables _ -> (buckets, heads_addr ())
    | No_superpages | Superpage_index -> (0, 0)
  in
  (* both chain sets end at one sentinel *)
  let sentinel = Chain.sentinel 0L in
  let alloc ~tag w : node =
    let addr = Mem.Sim_memory.alloc arena ~bytes:node_bytes ~align:node_align in
    { tag; w; addr = Int64.to_int addr; next = sentinel }
  in
  let release (n : node) =
    Mem.Sim_memory.free arena ~addr:(Int64.of_int n.addr) ~bytes:node_bytes
      ~align:node_align
  in
  let chains buckets =
    Chain.create ~nil:sentinel ~buckets ~payload:(Word node_bytes) ~alloc
      ~release
  in
  {
    mode;
    buckets;
    factor = subblock_factor;
    factor_bits = Addr.Bits.log2_exact subblock_factor;
    node_bytes;
    hash_shift = 64 - Addr.Bits.log2_exact buckets;
    fine = chains buckets;
    fine_heads_addr;
    coarse = chains coarse_buckets;
    coarse_heads_addr;
  }

let mode t = t.mode

(* [key] is a node tag: a VPN in the fine table, a VPBN in the coarse
   one and the superpage index *)
let hash t key = Addr.Bits.hash_index key ~shift:t.hash_shift

let vpbn t vpn = Int64.shift_right_logical vpn t.factor_bits

let boff t vpn =
  Int64.to_int (Addr.Bits.extract vpn ~lo:0 ~width:t.factor_bits)

let block_base t vpn = Int64.shift_left (vpbn t vpn) t.factor_bits

let factor_mask t = (1 lsl t.factor) - 1

(* --- deferred reclamation (lock-free readers) --- *)

let set_reclaim_hook t hook =
  Chain.set_reclaim_hook t.fine hook;
  Chain.set_reclaim_hook t.coarse hook

let reclaim t ~upto =
  Chain.reclaim t.fine ~upto;
  Chain.reclaim t.coarse ~upto

let limbo_nodes t = Chain.limbo_nodes t.fine + Chain.limbo_nodes t.coarse

(* --- translations --- *)

let translation_of_word t ~vpn word =
  Pt_common.Decode.translation_of_word ~subblock_factor:t.factor ~vpn word

(* Does a node in the coarse or superpage-index table match [vpn]? *)
let node_matches t ~vpn (n : node) =
  match Pte.Word.decode n.w with
  | Pte.Word.Base b -> b.valid && n.tag = Int64.to_int vpn
  | Pte.Word.Superpage sp ->
      sp.valid
      &&
      let sz = Addr.Page_size.sz_code sp.size in
      n.tag = Int64.to_int (Addr.Bits.align_down vpn sz)
  | Pte.Word.Psb p ->
      n.tag = Int64.to_int (block_base t vpn)
      && Pte.Psb_pte.valid_at p ~boff:(boff t vpn)

(* --- chain search, charging reads into the caller's accumulator --- *)

(* A probe reads a node's tag and next pointer (16 bytes); interpreting
   the mapping reads its word (8 more bytes in the same node). *)
let probe acc (n : node) =
  Mem.Walk_acc.read_int acc ~addr:n.addr ~bytes:16;
  Mem.Walk_acc.probe acc

let read_word acc (n : node) =
  Mem.Walk_acc.read_int acc ~addr:(n.addr + 16) ~bytes:8

(* An empty bucket still costs one read of its embedded head node. *)
let charge_empty_head t ~heads_addr ~bucket acc =
  Mem.Walk_acc.read_int acc ~addr:(heads_addr + (bucket * t.node_bytes))
    ~bytes:16;
  Mem.Walk_acc.probe acc

(* Search a chain from [n] on for [vpn]'s node: tagged [key] (a VPN or
   a VPBN), or, with [key] -1, one [node_matches] accepts (a
   superpage-index chain mixes tag kinds).  The probe loop compares
   immediates only and, being top level, allocates no closure; the word
   is interpreted once a node matches. *)
let rec search_chain t acc (c : int64 Chain.t) ~key ~vpn (n : node) =
  if n == c.nil then None
  else begin
    probe acc n;
    if n.tag = key || (key < 0 && node_matches t ~vpn n) then begin
      read_word acc n;
      match translation_of_word t ~vpn n.w with
      | Some _ as tr -> tr
      | None -> search_chain t acc c ~key ~vpn n.next
    end
    else search_chain t acc c ~key ~vpn n.next
  end

let search_keyed t acc (c : int64 Chain.t) ~heads_addr ~bucket ~key ~vpn =
  let head = c.heads.(bucket) in
  if head == c.nil then begin
    charge_empty_head t ~heads_addr ~bucket acc;
    None
  end
  else search_chain t acc c ~key ~vpn head

let search_fine t acc ~vpn =
  let heads_addr = t.fine_heads_addr in
  match t.mode with
  | Superpage_index ->
      let bucket = hash t (Int64.to_int (vpbn t vpn)) in
      search_keyed t acc t.fine ~heads_addr ~bucket ~key:(-1) ~vpn
  | No_superpages | Two_tables _ ->
      let key = Int64.to_int vpn in
      search_keyed t acc t.fine ~heads_addr ~bucket:(hash t key) ~key ~vpn

let search_coarse t acc ~vpn =
  let key = Int64.to_int (vpbn t vpn) in
  search_keyed t acc t.coarse ~heads_addr:t.coarse_heads_addr
    ~bucket:(hash t key) ~key ~vpn

let lookup_into t acc ~vpn =
  match t.mode with
  | No_superpages | Superpage_index -> search_fine t acc ~vpn
  | Two_tables { coarse_first } ->
      let first, second =
        if coarse_first then (search_coarse, search_fine)
        else (search_fine, search_coarse)
      in
      (match first t acc ~vpn with
      | Some _ as tr -> tr
      | None -> second t acc ~vpn)

let lookup_block t acc ~vpn ~subblock_factor =
  (* One probe per base page: the cost that makes complete-subblock
     prefetch "terrible" for hashed tables (Section 6.3 / Figure 11d).
     Pages already covered by a found multi-page entry are skipped. *)
  let base = Types.block_base ~vpn ~subblock_factor in
  let covered = Array.make subblock_factor false in
  let results = ref [] in
  for i = 0 to subblock_factor - 1 do
    if not covered.(i) then begin
      let found = lookup_into t acc ~vpn:(Int64.add base (Int64.of_int i)) in
      Option.iter
        (fun (tr : Types.translation) ->
          (* the block's pages this entry maps: a psb entry's valid
             pages, a superpage's span *)
          let first = Int64.to_int (Int64.sub tr.vpn_base base) in
          for idx = max 0 first to subblock_factor - 1 do
            let j = idx - first in
            let maps =
              match tr.kind with
              | Types.Base -> idx = i
              | Types.Superpage _ -> j < Types.covered_pages tr
              | Types.Partial_subblock vmask ->
                  j < subblock_factor && vmask land (1 lsl j) <> 0
            in
            if maps then begin
              covered.(idx) <- true;
              let at_idx =
                if idx = i then tr
                else
                  {
                    tr with
                    vpn = Int64.add base (Int64.of_int idx);
                    ppn = Int64.add tr.ppn_base (Int64.of_int j);
                  }
              in
              results := (idx, at_idx) :: !results
            end
          done)
        found
    end
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !results

(* --- insertion --- *)

(* A node's kind, for the superpage-index table where tags of
   different kinds share a bucket: base, psb, or a superpage of each
   size.  Insert replaces only a node of the same tag and kind, and fsck
   calls two such nodes duplicates. *)
let node_kind w =
  match Pte.Word.decode w with
  | Pte.Word.Base _ -> 0
  | Pte.Word.Psb _ -> 1
  | Pte.Word.Superpage sp -> 2 + Addr.Page_size.sz_code sp.size

(* The first node from [n] on with [tag] and, unless [kind] is -1, that
   kind; [nil] if none.  Top level, so an insert's search allocates
   nothing. *)
let rec find_node (c : int64 Chain.t) ~tag ~kind (n : node) =
  if n == c.nil || (n.tag = tag && (kind < 0 || node_kind n.w = kind)) then n
  else find_node c ~tag ~kind n.next

(* Store [word] in [bucket]'s node for [tag] (and [kind]), linking a new
   node when there is none. *)
let insert_word (c : int64 Chain.t) ~bucket ~tag ~kind word =
  let n = find_node c ~tag ~kind c.heads.(bucket) in
  if n != c.nil then n.w <- word else Chain.link c bucket (c.alloc ~tag word)

let insert_node t ~coarse ~tag ~word =
  let tag = Int64.to_int tag in
  insert_word
    (if coarse then t.coarse else t.fine)
    ~bucket:(hash t tag) ~tag ~kind:(-1) word

let insert_node_spindex t ~bucket_key ~tag ~word =
  insert_word t.fine
    ~bucket:(hash t (Int64.to_int bucket_key))
    ~tag:(Int64.to_int tag) ~kind:(node_kind word) word

let insert_base t ~vpn ~ppn ~attr =
  let word = Pte.Base_pte.(encode (make ~ppn ~attr ())) in
  match t.mode with
  | No_superpages | Two_tables _ -> insert_node t ~coarse:false ~tag:vpn ~word
  | Superpage_index ->
      insert_node_spindex t ~bucket_key:(vpbn t vpn) ~tag:vpn ~word

let insert_superpage t ~vpn ~size ~ppn ~attr =
  let sz = Addr.Page_size.sz_code size in
  if not (Addr.Bits.is_aligned vpn sz) then
    invalid_arg "Hashed_pt.insert_superpage: VPN not aligned";
  let word = Pte.Superpage_pte.(encode (make ~size ~ppn ~attr ())) in
  match t.mode with
  | No_superpages ->
      invalid_arg "Hashed_pt: superpages unsupported in this mode"
  | Two_tables _ ->
      if sz < t.factor_bits then
        invalid_arg "Hashed_pt: superpage smaller than the coarse block";
      (* one coarse node per covered 64 KB block (replication for the
         rare larger sizes, Section 4.2) *)
      let n_blocks = 1 lsl (sz - t.factor_bits) in
      let first = vpbn t vpn in
      for i = 0 to n_blocks - 1 do
        insert_node t ~coarse:true ~tag:(Int64.add first (Int64.of_int i)) ~word
      done
  | Superpage_index ->
      if sz > t.factor_bits then
        invalid_arg
          "Hashed_pt: superpage larger than the hash index block must be \
           handled another way (Section 4.2)";
      insert_node_spindex t ~bucket_key:(vpbn t vpn) ~tag:vpn ~word

let insert_psb t ~vpbn:block ~vmask ~ppn ~attr =
  if vmask land lnot (factor_mask t) <> 0 then
    invalid_arg "Hashed_pt.insert_psb: vmask exceeds subblock factor";
  let merge_into existing =
    match Pte.Word.decode existing with
    | Pte.Word.Psb p when Int64.equal p.ppn ppn ->
        Pte.Psb_pte.(encode (make ~vmask:(p.vmask lor vmask) ~ppn ~attr))
    | _ -> Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr))
  in
  (* the coarse node of a block takes any kind; a superpage-index
     chain may also hold base and superpage nodes of the block's tag *)
  let c, tag, kind =
    match t.mode with
    | No_superpages ->
        invalid_arg "Hashed_pt: partial-subblocks unsupported in this mode"
    | Two_tables _ -> (t.coarse, block, -1)
    | Superpage_index -> (t.fine, Int64.shift_left block t.factor_bits, 1)
  in
  let bucket = hash t (Int64.to_int block) and tag = Int64.to_int tag in
  let n = find_node c ~tag ~kind c.heads.(bucket) in
  if n != c.nil then n.w <- merge_into n.w
  else
    Chain.link c bucket
      (c.alloc ~tag Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)))

(* --- removal --- *)

let select_for_remove t ~vpn (n : node) =
  match Pte.Word.decode n.w with
  | Pte.Word.Base b when b.valid && n.tag = Int64.to_int vpn -> `Unlink
  | Pte.Word.Superpage sp when sp.valid -> (
      let sz = Addr.Page_size.sz_code sp.size in
      (* a fine-table sp node is tagged by vpn_base; a coarse node by
         vpbn — accept either tag form *)
      let vpn_base = Addr.Bits.align_down vpn sz in
      if n.tag = Int64.to_int vpn_base || n.tag = Int64.to_int (vpbn t vpn)
      then
        `Unlink
      else `Skip)
  | Pte.Word.Psb p -> (
      let tag_matches =
        n.tag = Int64.to_int (block_base t vpn)
        || n.tag = Int64.to_int (vpbn t vpn)
      in
      let b = boff t vpn in
      if tag_matches && Pte.Psb_pte.valid_at p ~boff:b then begin
        let p = Pte.Psb_pte.clear_valid p ~boff:b in
        if p.Pte.Psb_pte.vmask land factor_mask t = 0 then `Unlink
        else begin
          n.w <- Pte.Psb_pte.encode p;
          `Updated
        end
      end
      else `Skip)
  | Pte.Word.Base _ | Pte.Word.Superpage _ -> `Skip

let remove t ~vpn =
  let key = Int64.to_int vpn and block = Int64.to_int (vpbn t vpn) in
  let removed_fine =
    match t.mode with
    | Superpage_index ->
        Chain.unlink_first t.fine ~bucket:(hash t block)
          (select_for_remove t ~vpn)
    | No_superpages | Two_tables _ ->
        Chain.unlink_first t.fine ~bucket:(hash t key) (fun n ->
            if n.tag = key then select_for_remove t ~vpn n else `Skip)
  in
  if not removed_fine then
    match t.mode with
    | Two_tables _ ->
        ignore
          (Chain.unlink_first t.coarse ~bucket:(hash t block) (fun n ->
               if n.tag = block then select_for_remove t ~vpn n else `Skip))
    | No_superpages | Superpage_index -> ()

(* A hashed table's lock section is one page, so a run is a page-by-page
   loop: one hash search per base page, the paper's baseline. *)
let map_run t ~vpn ~pages ~ppn_of ~attr =
  for i = 0 to pages - 1 do
    let vpn = Int64.add vpn (Int64.of_int i) in
    insert_base t ~vpn ~ppn:(ppn_of vpn) ~attr
  done

let unmap_run t ~vpn ~pages =
  for i = 0 to pages - 1 do
    remove t ~vpn:(Int64.add vpn (Int64.of_int i))
  done

(* --- range attribute updates --- *)

(* The nodes of a searched chain that map [page]: a fine node tagged
   with its VPN, any superpage-index node, or a coarse node (tagged by
   VPBN, not VPN) holding a valid superpage or a psb word valid at the
   page's offset. *)
type reattr = Fine | Spindex | Coarse

let reattr_maps t how ~key ~page (n : node) =
  match how with
  | Fine -> n.tag = key && node_matches t ~vpn:(Int64.of_int page) n
  | Spindex -> node_matches t ~vpn:(Int64.of_int page) n
  | Coarse -> (
      n.tag = key
      &&
      match Pte.Word.decode n.w with
      | Pte.Word.Superpage sp -> sp.valid
      | Pte.Word.Psb p ->
          Pte.Psb_pte.valid_at p ~boff:(page land ((1 lsl t.factor_bits) - 1))
      | Pte.Word.Base _ -> false)

(* Re-encode every node from [n] on that maps [page].  Top level, so a
   page's update allocates no closure. *)
let rec reattr_chain t (c : int64 Chain.t) how ~key ~page ~f (n : node) =
  if n != c.nil then begin
    (if reattr_maps t how ~key ~page n then
       match Pt_common.Decode.reencode_attr n.w ~f with
       | Some w -> n.w <- w
       | None -> ());
    reattr_chain t c how ~key ~page ~f n.next
  end

(* One hash search: [key]'s bucket of [c]. *)
let reattr_search t c how ~key ~page ~f =
  reattr_chain t c how ~key ~page ~f c.Chain.heads.(hash t key)

(* A hashed table pays one hash search per base page (Section 3.1), two
   with a coarse table. *)
let set_attr_range t region ~f =
  let first = Int64.to_int region.Addr.Region.first_vpn in
  for page = first to first + region.Addr.Region.pages - 1 do
    let block = page lsr t.factor_bits in
    match t.mode with
    | No_superpages -> reattr_search t t.fine Fine ~key:page ~page ~f
    | Superpage_index -> reattr_search t t.fine Spindex ~key:block ~page ~f
    | Two_tables _ ->
        reattr_search t t.fine Fine ~key:page ~page ~f;
        reattr_search t t.coarse Coarse ~key:block ~page ~f
  done;
  let searches_per_page =
    match t.mode with Two_tables _ -> 2 | No_superpages | Superpage_index -> 1
  in
  searches_per_page * region.Addr.Region.pages

(* --- accounting --- *)

let size_bytes t = Chain.bytes t.fine + Chain.bytes t.coarse

let buckets t = t.buckets

let bucket_of t ~vpn =
  (* the fine-table bucket: the only chain the single-table modes touch
     for [vpn].  Two-table modes also probe a coarse bucket and need
     coarser exclusion than one stripe. *)
  match t.mode with
  | No_superpages | Two_tables _ -> hash t (Int64.to_int vpn)
  | Superpage_index -> hash t (Int64.to_int (vpbn t vpn))

(* Valid base pages one node's word maps. *)
let word_pages t word =
  match Pte.Word.decode word with
  | Pte.Word.Base b -> if b.valid then 1 else 0
  | Pte.Word.Superpage sp ->
      (* coarse nodes of a big superpage each cover one block *)
      if sp.valid then min (Addr.Page_size.base_pages sp.size) t.factor else 0
  | Pte.Word.Psb p ->
      Addr.Bits.popcount (Int64.of_int (p.vmask land factor_mask t))

let population t =
  let count = ref 0 in
  let add (n : node) = count := !count + word_pages t n.w in
  Chain.iter t.fine add;
  Chain.iter t.coarse add;
  !count

let clear t =
  let free = t.fine.release in
  Chain.clear t.coarse ~free;
  Chain.clear t.fine ~free;
  (* limbo nodes are unlinked, so the chain sweep missed them *)
  Chain.drain_limbo t.fine free;
  Chain.drain_limbo t.coarse free

let node_count t = Chain.node_count t.fine + Chain.node_count t.coarse

let subblock_factor t = t.factor

let pages_per_section _ = 1

let chain_length t ~bucket = Chain.length t.fine ~bucket

let iter_node_util t ~bucket f =
  Chain.iter_bucket t.fine ~bucket (fun n -> f (word_pages t n.w))

(* Fine-chain tags are VPNs in [No_superpages] mode; [lookup_into]
   resolves what each one actually maps. *)
let iter_mappings t f =
  let acc = Mem.Walk_acc.create () in
  for bucket = 0 to t.buckets - 1 do
    Chain.iter_bucket t.fine ~bucket (fun n ->
        let vpn = Int64.of_int n.tag in
        Mem.Walk_acc.reset acc;
        match lookup_into t acc ~vpn with Some tr -> f vpn tr | None -> ())
  done

let load_factor t =
  float_of_int (Chain.node_count t.fine) /. float_of_int t.buckets

(* --- integrity verification, corruption injection, repair (fsck) --- *)

type violation =
  | Chain_cycle of { coarse : bool; bucket : int }
  | Cross_link of { coarse : bool; bucket : int; first_bucket : int }
  | Wrong_bucket of { coarse : bool; bucket : int; tag : int64 }
  | Dup_node of { coarse : bool; bucket : int; tag : int64 }
  | Bad_word of { coarse : bool; bucket : int; tag : int64 }
  | Torn_replica of { bucket : int; tag : int64 }
  | Coverage_overlap of { vpn : int64 }
  | Limbo_live_overlap of { bucket : int }
  | Limbo_live_tag
  | Node_count_mismatch of { coarse : bool; counted : int; recorded : int }

let violation_code = function
  | Chain_cycle _ -> "chain_cycle"
  | Cross_link _ -> "cross_link"
  | Wrong_bucket _ -> "wrong_bucket"
  | Dup_node _ -> "dup_node"
  | Bad_word _ -> "bad_word"
  | Torn_replica _ -> "torn_replica"
  | Coverage_overlap _ -> "coverage_overlap"
  | Limbo_live_overlap _ -> "limbo_live_overlap"
  | Limbo_live_tag -> "limbo_live_tag"
  | Node_count_mismatch _ -> "node_count_mismatch"

let pp_violation ppf =
  let table coarse = if coarse then "coarse" else "fine" in
  function
  | Chain_cycle { coarse; bucket } ->
      Format.fprintf ppf "chain cycle in %s bucket %d" (table coarse) bucket
  | Cross_link { coarse; bucket; first_bucket } ->
      Format.fprintf ppf
        "%s bucket %d links a node already reachable from bucket %d"
        (table coarse) bucket first_bucket
  | Wrong_bucket { coarse; bucket; tag } ->
      Format.fprintf ppf
        "tag %Ld chained in %s bucket %d but hashes elsewhere" tag
        (table coarse) bucket
  | Dup_node { coarse; bucket; tag } ->
      Format.fprintf ppf "duplicate nodes for tag %Ld in %s bucket %d" tag
        (table coarse) bucket
  | Bad_word { coarse; bucket; tag } ->
      Format.fprintf ppf "malformed mapping word (tag %Ld, %s bucket %d)" tag
        (table coarse) bucket
  | Torn_replica { bucket; tag } ->
      Format.fprintf ppf
        "inconsistent superpage replica (tag %Ld, coarse bucket %d)" tag
        bucket
  | Coverage_overlap { vpn } ->
      Format.fprintf ppf "page %Ld mapped by two representations" vpn
  | Limbo_live_overlap { bucket } ->
      Format.fprintf ppf
        "limbo node still chained from fine bucket %d (premature unlink \
         or relink)"
        bucket
  | Limbo_live_tag ->
      Format.fprintf ppf "limbo node carries a live tag"
  | Node_count_mismatch { coarse; counted; recorded } ->
      Format.fprintf ppf "%d live %s-table nodes counted, %d recorded"
        counted (table coarse) recorded

let of_finding ~coarse : Chain.finding -> violation = function
  | Cycle { bucket } -> Chain_cycle { coarse; bucket }
  | Cross_link { bucket; first_bucket } ->
      Cross_link { coarse; bucket; first_bucket }
  | Wrong_bucket { bucket; tag } ->
      Wrong_bucket { coarse; bucket; tag = Int64.of_int tag }
  | Node_count { counted; recorded } ->
      Node_count_mismatch { coarse; counted; recorded }
  | Limbo_live_tag -> Limbo_live_tag
  | Limbo_live_overlap { bucket } -> Limbo_live_overlap { bucket }

let sz_of_sp (sp : Pte.Superpage_pte.t) = Addr.Page_size.sz_code sp.size

(* the word of the coarse replica of a multi-block superpage covering
   block [block] *)
let find_sp_replica t block =
  Chain.find t.coarse ~bucket:(hash t block) (fun n ->
      n.tag = block
      &&
      match Pte.Word.decode n.w with
      | Pte.Word.Superpage sp -> sp.valid
      | _ -> false)
  |> Option.map (fun (n : node) -> n.w)

let check t =
  let out = ref [] in
  let add v = out := v :: !out in
  let coverage : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  let claim vpn =
    if Hashtbl.mem coverage vpn then add (Coverage_overlap { vpn })
    else Hashtbl.add coverage vpn ()
  in
  let claim_pages vpn ~pages ~mask =
    for i = 0 to pages - 1 do
      if mask land (1 lsl i) <> 0 then claim (Int64.add vpn (Int64.of_int i))
    done
  in
  (* check one table: the engine's chain-shape walk, then duplicate
     (tag, kind) nodes and [check_node]'s per-mode word rules *)
  let scan ~coarse c ~home ~check_node =
    let audit = Chain.audit () and kinds = Hashtbl.create 256 in
    let report f = add (of_finding ~coarse f) in
    for b = 0 to Chain.buckets c - 1 do
      Chain.check_bucket c audit ~home ~report b (fun n ->
          let tag = Int64.of_int n.tag in
          let key = (b, n.tag, node_kind n.w) in
          if Hashtbl.mem kinds key then
            add (Dup_node { coarse; bucket = b; tag })
          else Hashtbl.add kinds key ();
          if not (check_node b n) then
            add (Bad_word { coarse; bucket = b; tag }))
    done;
    Chain.check_count c audit ~report;
    audit
  in
  (* a fine table holds base words tagged by vpn (a torn multi-word
     update leaves a non-base word there); a superpage-index one also
     holds psb words tagged by block base and superpage words smaller
     than a block, one bucket per block.  False for a bad word. *)
  let check_fine _ (n : node) =
    let tag = Int64.of_int n.tag in
    let spindex = t.mode = Superpage_index in
    match Pte.Word.decode n.w with
    | Pte.Word.Base bw ->
        bw.valid && (claim tag; true)
    | Pte.Word.Psb p ->
        spindex
        && p.vmask land factor_mask t <> 0
        && Addr.Bits.is_aligned tag t.factor_bits
        && (claim_pages tag ~pages:t.factor ~mask:p.vmask; true)
    | Pte.Word.Superpage sp ->
        let sz = sz_of_sp sp in
        spindex && sp.valid && sz <= t.factor_bits
        && Addr.Bits.is_aligned tag sz
        && (claim_pages tag ~pages:(1 lsl sz) ~mask:(-1); true)
  in
  (* coarse table (Two_tables): superpage / psb words tagged by vpbn *)
  let check_coarse b (n : node) =
    let block_vpn = Int64.shift_left (Int64.of_int n.tag) t.factor_bits in
    match Pte.Word.decode n.w with
    | Pte.Word.Base _ -> false
    | Pte.Word.Psb p ->
        p.vmask land factor_mask t <> 0
        && (claim_pages block_vpn ~pages:t.factor ~mask:p.vmask; true)
    | Pte.Word.Superpage sp ->
        sp.valid
        && sz_of_sp sp >= t.factor_bits
        && begin
             (* each replica serves exactly its own block *)
             claim_pages block_vpn ~pages:t.factor ~mask:(-1);
             Chain.check_replicas ~tag:n.tag
               ~blocks:(1 lsl (sz_of_sp sp - t.factor_bits))
               ~agrees:(fun block -> find_sp_replica t block = Some n.w)
               ~torn:(fun _ ->
                 add (Torn_replica { bucket = b; tag = Int64.of_int n.tag }));
             true
           end
  in
  let fine =
    let spindex = t.mode = Superpage_index in
    scan ~coarse:false t.fine ~check_node:check_fine ~home:(fun tag ->
        hash t (if spindex then tag lsr t.factor_bits else tag))
  in
  let coarse =
    scan ~coarse:true t.coarse ~home:(hash t) ~check_node:check_coarse
  in
  (* limbo disjointness: a retired node must be off every chain and
     must wear the retired tag (no hashed free list, so two of the
     clustered checker's three ways) *)
  let report f = add (of_finding ~coarse:false f) in
  Chain.check_limbo t.fine fine ~report ignore;
  Chain.check_limbo t.coarse coarse ~report ignore;
  List.rev !out

(* --- repair --- *)

let repair t =
  let violations = check t in
  let h = Chain.harvest () in
  let harvest_node ~fine (n : node) =
    let tag = Int64.of_int n.tag in
    match Pte.Word.decode n.w with
    | Pte.Word.Base bw ->
        (* base words are fine-table-only in every mode *)
        if bw.valid then
          if fine then Chain.keep h (Base (tag, bw.ppn, bw.attr))
          else Chain.drop h
    | Pte.Word.Psb p -> (
        let vmask = p.vmask land factor_mask t in
        if vmask = 0 then Chain.drop h
        else
          match t.mode with
          | Two_tables _ when not fine ->
              Chain.keep h (Psb (tag, vmask, p.ppn, p.attr))
          | Superpage_index
            when fine && Addr.Bits.is_aligned tag t.factor_bits ->
              Chain.keep h (Psb (vpbn t tag, vmask, p.ppn, p.attr))
          | _ -> Chain.drop h)
    | Pte.Word.Superpage sp ->
        if not sp.valid then Chain.drop h
        else begin
          let sz = sz_of_sp sp in
          match t.mode with
          | Two_tables _ when (not fine) && sz >= t.factor_bits ->
              let block_vpn = Int64.shift_left tag t.factor_bits in
              Chain.keep_replica h ~word:n.w ~block_vpn sp
          | Superpage_index
            when fine && sz <= t.factor_bits && Addr.Bits.is_aligned tag sz
            ->
              Chain.keep h (Sp (tag, sp.size, sp.ppn, sp.attr))
          | _ -> Chain.drop h
        end
  in
  Chain.harvest_chains h t.fine (harvest_node ~fine:true);
  Chain.harvest_chains h t.coarse (harvest_node ~fine:false);
  (* The old nodes' arena bytes and limbo are abandoned: corrupted
     chains are unsafe to walk for freeing, and corruption may have
     relinked a limbo node into a chain, so freeing could double-free *)
  Chain.abandon t.fine;
  Chain.abandon t.coarse;
  let kept, dropped =
    Chain.reinsert h ~factor_bits:t.factor_bits ~base:(insert_base t)
      ~superpage:(insert_superpage t) ~psb:(insert_psb t)
  in
  { Pt_common.Intf.violations; kept; dropped }

(* --- fine-bucket images (the service's undo journal, the checkpoints):
   a node is a one-word node --- *)

type bucket_image = (int * int64 array) list

let snapshot_bucket t ~bucket = Chain.snapshot_bucket t.fine ~bucket

let iter_images t f = Chain.iter_images t.fine f

(* rollback runs under the bucket's write lock, but optimistic readers
   may still be walking the dropped nodes: the engine retires, not
   recycles, them *)
let restore_bucket t ~bucket image = Chain.restore_bucket t.fine ~bucket image

(* --- corruption injection (tests and the fsck CLI), on the fine
   table --- *)

(* Plant in [vpn]'s bucket what a torn multi-word update leaves in a
   fine bucket: a non-base word where only base words belong.  Any
   in-range page works: the injector creates the node it tears. *)
let tear t ~vpn =
  let tag = Int64.to_int vpn in
  Chain.link t.fine (hash t tag) (t.fine.alloc ~tag Chain.torn_word);
  true

let corruptions =
  Chain.corruptions [ ("torn", Own 42L); ("count", Drift) ]

let corruption_kinds = List.map fst corruptions

let corrupt t name =
  Chain.corrupt t.fine corruptions (fun vpn -> tear t ~vpn) name
