module Types = Pt_common.Types

type sp_mode =
  | No_superpages
  | Two_tables of { coarse_first : bool }
  | Superpage_index

(* The clustered table's chain layout: the tag (a VPN, VPBN or block
   base, all far below 2^62) and the simulated address are immediates,
   and links are direct [node] pointers ending at the [nil] sentinel.
   A probe compares two ints and follows one pointer; no [node option]
   or boxed [int64] sits between a node and its successor. *)
type node = {
  mutable tag : int;
  mutable word : int64;
  addr : int;
  mutable next : node;
}

let rec nil = { tag = min_int; word = 0L; addr = -1; next = nil }

type t = {
  arena : Mem.Sim_memory.t;
  mode : sp_mode;
  buckets : int;
  factor : int;
  factor_bits : int;
  node_bytes : int;
  node_align : int;
  hash_shift : int;  (* 64 - log2 buckets, fixed at create *)
  fine : node array;  (* nil = empty bucket *)
  fine_heads_addr : int;
      (* the bucket array embeds first nodes (Figure 4: "an array of
         hash nodes"), so probing an empty bucket still reads a line *)
  (* Two_tables mode only; empty array otherwise *)
  coarse : node array;
  coarse_heads_addr : int;
  (* atomic: concurrent mutators serialize per bucket (lib/service),
     and the node counts are the only cross-bucket mutable state *)
  fine_nodes : int Atomic.t;
  coarse_nodes : int Atomic.t;
  limbo : node Mem.Limbo.t;
      (* deferred reclamation (see [Mem.Limbo] for the full story):
         unlinked nodes whose [next] pointers stay intact so optimistic
         lock-free readers already past the unlink can finish their
         walk *)
}

let name = "hashed"

let node_align_default = 256

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
  let fine_heads_addr =
    Mem.Sim_memory.alloc arena ~bytes:(buckets * node_bytes) ~align:4096
  in
  let coarse, coarse_heads_addr =
    match mode with
    | Two_tables _ ->
        ( Array.make buckets nil,
          Mem.Sim_memory.alloc arena ~bytes:(buckets * node_bytes) ~align:4096
        )
    | No_superpages | Superpage_index -> ([||], 0L)
  in
  {
    arena;
    mode;
    buckets;
    factor = subblock_factor;
    factor_bits = Addr.Bits.log2_exact subblock_factor;
    node_bytes;
    node_align = node_align_default;
    hash_shift = 64 - Addr.Bits.log2_exact buckets;
    fine = Array.make buckets nil;
    fine_heads_addr = Int64.to_int fine_heads_addr;
    coarse;
    coarse_heads_addr = Int64.to_int coarse_heads_addr;
    fine_nodes = Atomic.make 0;
    coarse_nodes = Atomic.make 0;
    limbo = Mem.Limbo.create ();
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

let alloc_node t ~coarse:_ ~tag ~word =
  let addr =
    Mem.Sim_memory.alloc t.arena ~bytes:t.node_bytes ~align:t.node_align
  in
  { tag; word; addr = Int64.to_int addr; next = nil }

let release_node t n =
  Mem.Sim_memory.free t.arena ~addr:(Int64.of_int n.addr) ~bytes:t.node_bytes
    ~align:t.node_align

(* --- deferred reclamation (lock-free readers) --- *)

(* Retired-node tag sentinel.  Every live tag (a vpn, vpbn or block
   base) is non-negative, so this can never match a reader's key: a
   doomed reader walking through a retired node skips it and follows
   the intact [next] pointer. *)
let limbo_tag = min_int

let unlink_node t n =
  match Mem.Limbo.hook t.limbo with
  | None -> release_node t n
  | Some stamp_of ->
      n.tag <- limbo_tag;
      Mem.Limbo.retire t.limbo ~stamp:(stamp_of ()) n

let set_reclaim_hook t hook = Mem.Limbo.set_hook t.limbo hook

let reclaim t ~upto = Mem.Limbo.reclaim t.limbo ~upto (release_node t)

let limbo_nodes t = Mem.Limbo.count t.limbo

(* --- translations --- *)

let translation_of_word t ~vpn word =
  Pt_common.Decode.translation_of_word ~subblock_factor:t.factor ~vpn word

(* Does a node in the coarse or superpage-index table match [vpn]? *)
let node_matches t ~vpn n =
  match Pte.Word.decode n.word with
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
let probe acc n =
  Mem.Walk_acc.read_int acc ~addr:n.addr ~bytes:16;
  Mem.Walk_acc.probe acc

let read_word acc n = Mem.Walk_acc.read_int acc ~addr:(n.addr + 16) ~bytes:8

(* An empty bucket still costs one read of its embedded head node. *)
let charge_empty_head t ~heads_addr ~bucket acc =
  Mem.Walk_acc.read_int acc ~addr:(heads_addr + (bucket * t.node_bytes))
    ~bytes:16;
  Mem.Walk_acc.probe acc

(* Search a chain for [key] (a VPN or a VPBN), from [n] on.  The probe
   loop compares immediates only and, being top level, allocates no
   closure; the word is interpreted once a tag matches. *)
let rec search_chain t acc ~key ~vpn n =
  if n == nil then None
  else begin
    probe acc n;
    if n.tag = key then begin
      read_word acc n;
      match translation_of_word t ~vpn n.word with
      | Some _ as tr -> tr
      | None -> search_chain t acc ~key ~vpn n.next
    end
    else search_chain t acc ~key ~vpn n.next
  end

let search_keyed t acc table ~heads_addr ~key ~vpn =
  let bucket = hash t key in
  let head = table.(bucket) in
  if head == nil then begin
    charge_empty_head t ~heads_addr ~bucket acc;
    None
  end
  else search_chain t acc ~key ~vpn head

let search_fine t acc ~vpn =
  search_keyed t acc t.fine ~heads_addr:t.fine_heads_addr
    ~key:(Int64.to_int vpn) ~vpn

let search_coarse t acc ~vpn =
  search_keyed t acc t.coarse ~heads_addr:t.coarse_heads_addr
    ~key:(Int64.to_int (vpbn t vpn)) ~vpn

let search_spindex t acc ~vpn =
  let rec go n =
    if n == nil then None
    else begin
      probe acc n;
      if node_matches t ~vpn n then begin
        read_word acc n;
        match translation_of_word t ~vpn n.word with
        | Some _ as tr -> tr
        | None -> go n.next
      end
      else go n.next
    end
  in
  let bucket = hash t (Int64.to_int (vpbn t vpn)) in
  let head = t.fine.(bucket) in
  if head == nil then begin
    charge_empty_head t ~heads_addr:t.fine_heads_addr ~bucket acc;
    None
  end
  else go head

let lookup_into t acc ~vpn =
  match t.mode with
  | No_superpages -> search_fine t acc ~vpn
  | Superpage_index -> search_spindex t acc ~vpn
  | Two_tables { coarse_first } ->
      let first, second =
        if coarse_first then (search_coarse, search_fine)
        else (search_fine, search_coarse)
      in
      (match first t acc ~vpn with
      | Some _ as tr -> tr
      | None -> second t acc ~vpn)

let lookup t ~vpn =
  let acc = Mem.Walk_acc.create ~capacity:8 () in
  let tr = lookup_into t acc ~vpn in
  (tr, Types.acc_to_walk acc)

let lookup_block t ~vpn ~subblock_factor =
  (* One probe per base page: the cost that makes complete-subblock
     prefetch "terrible" for hashed tables (Section 6.3 / Figure 11d).
     Pages already covered by a found multi-page entry are skipped. *)
  let base =
    Int64.mul
      (Int64.div vpn (Int64.of_int subblock_factor))
      (Int64.of_int subblock_factor)
  in
  let covered = Array.make subblock_factor false in
  let results = ref [] and walk = ref Types.empty_walk in
  for i = 0 to subblock_factor - 1 do
    if not covered.(i) then begin
      let page = Int64.add base (Int64.of_int i) in
      let tr, w = lookup t ~vpn:page in
      walk := Types.walk_join !walk w;
      match tr with
      | None -> ()
      | Some tr ->
          results := (i, tr) :: !results;
          (* mark the other pages this entry maps *)
          (match tr.Types.kind with
          | Types.Base -> ()
          | Types.Superpage _ | Types.Partial_subblock _ ->
              let first = Int64.sub tr.Types.vpn_base base in
              let span = Types.covered_pages tr in
              (match tr.Types.kind with
              | Types.Partial_subblock vmask ->
                  for j = 0 to subblock_factor - 1 do
                    let idx = Int64.to_int first + j in
                    if
                      vmask land (1 lsl j) <> 0
                      && idx >= 0
                      && idx < subblock_factor
                    then begin
                      covered.(idx) <- true;
                      if idx <> i then
                        results :=
                          (idx, { tr with
                                  Types.vpn = Int64.add base (Int64.of_int idx);
                                  ppn = Int64.add tr.Types.ppn_base (Int64.of_int j) })
                          :: !results
                    end
                  done
              | _ ->
                  for j = 0 to span - 1 do
                    let idx = Int64.to_int first + j in
                    if idx >= 0 && idx < subblock_factor then begin
                      covered.(idx) <- true;
                      if idx <> i then
                        results :=
                          (idx, { tr with
                                  Types.vpn = Int64.add base (Int64.of_int idx);
                                  ppn = Int64.add tr.Types.ppn_base (Int64.of_int j) })
                          :: !results
                    end
                  done))
    end
  done;
  (List.sort (fun (a, _) (b, _) -> compare a b) !results, !walk)

(* --- insertion --- *)

let insert_node t ~coarse ~tag ~word =
  let table = if coarse then t.coarse else t.fine in
  let tag = Int64.to_int tag in
  let bucket = hash t tag in
  let rec find n =
    if n == nil then None else if n.tag = tag then Some n else find n.next
  in
  match find table.(bucket) with
  | Some n -> n.word <- word
  | None ->
      let n = alloc_node t ~coarse ~tag ~word in
      n.next <- table.(bucket);
      table.(bucket) <- n;
      ignore
        (Atomic.fetch_and_add
           (if coarse then t.coarse_nodes else t.fine_nodes)
           1)

(* In superpage-index mode, tags of different kinds coexist in a
   bucket; replace only a node of the same tag AND kind. *)
let insert_node_spindex t ~bucket_key ~tag ~word =
  let bucket = hash t (Int64.to_int bucket_key) in
  let tag = Int64.to_int tag in
  let same_kind a b =
    match (Pte.Word.decode a, Pte.Word.decode b) with
    | Pte.Word.Base _, Pte.Word.Base _ -> true
    | Pte.Word.Superpage x, Pte.Word.Superpage y ->
        Addr.Page_size.equal x.size y.size
    | Pte.Word.Psb _, Pte.Word.Psb _ -> true
    | _ -> false
  in
  let rec find n =
    if n == nil then None
    else if n.tag = tag && same_kind n.word word then Some n
    else find n.next
  in
  match find t.fine.(bucket) with
  | Some n -> n.word <- word
  | None ->
      let n = alloc_node t ~coarse:false ~tag ~word in
      n.next <- t.fine.(bucket);
      t.fine.(bucket) <- n;
      ignore (Atomic.fetch_and_add t.fine_nodes 1)

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
  let tag = Int64.shift_left block t.factor_bits in
  match t.mode with
  | No_superpages ->
      invalid_arg "Hashed_pt: partial-subblocks unsupported in this mode"
  | Two_tables _ ->
      let table = t.coarse in
      let key = Int64.to_int block in
      let bucket = hash t key in
      let rec find n =
        if n == nil then None else if n.tag = key then Some n else find n.next
      in
      (match find table.(bucket) with
      | Some n -> n.word <- merge_into n.word
      | None ->
          insert_node t ~coarse:true ~tag:block
            ~word:Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)))
  | Superpage_index ->
      let bucket = hash t (Int64.to_int block) in
      let key = Int64.to_int tag in
      let rec find n =
        if n == nil then None
        else if n.tag <> key then find n.next
        else
          match Pte.Word.decode n.word with
          | Pte.Word.Psb _ -> Some n
          | _ -> find n.next
      in
      (match find t.fine.(bucket) with
      | Some n -> n.word <- merge_into n.word
      | None ->
          insert_node_spindex t ~bucket_key:block ~tag
            ~word:Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)))

(* --- removal --- *)

(* Walk [bucket]'s chain to the first node [select] acts on.  An
   unlinked node is dropped by one store into its predecessor (or the
   bucket head), so a concurrent optimistic reader sees the chain
   either with it or without it; no other node is written. *)
let remove_in_chain t table bucket ~select ~coarse =
  let rec go prev n =
    if n == nil then false
    else
      match select n with
      | `Unlink ->
          if prev == nil then table.(bucket) <- n.next else prev.next <- n.next;
          unlink_node t n;
          ignore
            (Atomic.fetch_and_add
               (if coarse then t.coarse_nodes else t.fine_nodes)
               (-1));
          true
      | `Updated -> true
      | `Skip -> go n n.next
  in
  go nil table.(bucket)

let select_for_remove t ~vpn n =
  match Pte.Word.decode n.word with
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
          n.word <- Pte.Psb_pte.encode p;
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
        remove_in_chain t t.fine (hash t block)
          ~select:(select_for_remove t ~vpn) ~coarse:false
    | No_superpages | Two_tables _ ->
        remove_in_chain t t.fine (hash t key)
          ~select:(fun n ->
            if n.tag = key then select_for_remove t ~vpn n else `Skip)
          ~coarse:false
  in
  if not removed_fine then
    match t.mode with
    | Two_tables _ ->
        ignore
          (remove_in_chain t t.coarse (hash t block)
             ~select:(fun n ->
               if n.tag = block then select_for_remove t ~vpn n else `Skip)
             ~coarse:true)
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

let set_attr_range t region ~f =
  (* a hashed table pays one hash search per base page (Section 3.1) *)
  let searches = ref 0 in
  Addr.Region.iter_vpns region (fun vpn ->
      incr searches;
      let key = Int64.to_int vpn and block = Int64.to_int (vpbn t vpn) in
      (* re-encode every node of [table]'s bucket for [key] that maps
         [vpn] and passes [want] *)
      let update_chain table key ~want =
        let rec go n =
          if n != nil then begin
            (if want n && node_matches t ~vpn n then
               match Pt_common.Decode.reencode_attr n.word ~f with
               | Some w -> n.word <- w
               | None -> ());
            go n.next
          end
        in
        go table.(hash t key)
      in
      match t.mode with
      | No_superpages -> update_chain t.fine key ~want:(fun n -> n.tag = key)
      | Superpage_index -> update_chain t.fine block ~want:(fun _ -> true)
      | Two_tables _ ->
          update_chain t.fine key ~want:(fun n -> n.tag = key);
          incr searches;
          update_chain t.coarse block ~want:(fun n -> n.tag = block));
  !searches

(* --- accounting --- *)

let size_bytes t =
  (Atomic.get t.fine_nodes + Atomic.get t.coarse_nodes) * t.node_bytes

let buckets t = t.buckets

let bucket_of t ~vpn =
  (* the fine-table bucket: the only chain the single-table modes touch
     for [vpn].  Two-table modes also probe a coarse bucket and need
     coarser exclusion than one stripe. *)
  match t.mode with
  | No_superpages | Two_tables _ -> hash t (Int64.to_int vpn)
  | Superpage_index -> hash t (Int64.to_int (vpbn t vpn))

let iter_nodes t f =
  let iter_table table =
    Array.iter
      (fun chain ->
        let rec go n =
          if n != nil then begin
            f n;
            go n.next
          end
        in
        go chain)
      table
  in
  iter_table t.fine;
  match t.mode with Two_tables _ -> iter_table t.coarse | _ -> ()

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
  iter_nodes t (fun n -> count := !count + word_pages t n.word);
  !count

let clear t =
  let nodes = ref [] in
  iter_nodes t (fun n -> nodes := n :: !nodes);
  List.iter (release_node t) !nodes;
  (* limbo nodes are unlinked, so the chain sweep missed them *)
  Mem.Limbo.drain t.limbo (release_node t);
  Array.fill t.fine 0 (Array.length t.fine) nil;
  if Array.length t.coarse > 0 then
    Array.fill t.coarse 0 (Array.length t.coarse) nil;
  Atomic.set t.fine_nodes 0;
  Atomic.set t.coarse_nodes 0

let node_count t = Atomic.get t.fine_nodes + Atomic.get t.coarse_nodes

let subblock_factor t = t.factor

let pages_per_section _ = 1

let chain_length t ~bucket =
  let rec go acc n = if n == nil then acc else go (acc + 1) n.next in
  go 0 t.fine.(bucket)

let iter_chain t ~bucket f =
  let rec go n =
    if n != nil then begin
      f n;
      go n.next
    end
  in
  go t.fine.(bucket)

let iter_node_util t ~bucket f =
  iter_chain t ~bucket (fun n -> f (word_pages t n.word))

(* Fine-chain tags are VPNs in [No_superpages] mode; [lookup] resolves
   what each one actually maps. *)
let iter_mappings t f =
  for bucket = 0 to t.buckets - 1 do
    iter_chain t ~bucket (fun n ->
        let vpn = Int64.of_int n.tag in
        match lookup t ~vpn with Some tr, _ -> f vpn tr | None, _ -> ())
  done

let load_factor t =
  float_of_int (Atomic.get t.fine_nodes) /. float_of_int t.buckets

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
  | Limbo_count_mismatch of { counted : int; recorded : int }
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
  | Limbo_count_mismatch _ -> "limbo_count_mismatch"
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
  | Limbo_count_mismatch { counted; recorded } ->
      Format.fprintf ppf "%d limbo nodes counted, %d recorded" counted
        recorded
  | Node_count_mismatch { coarse; counted; recorded } ->
      Format.fprintf ppf "%d live %s-table nodes counted, %d recorded"
        counted (table coarse) recorded

let sz_of_sp (sp : Pte.Superpage_pte.t) = Addr.Page_size.sz_code sp.size

(* Cycle-safe search for the coarse-table replica of a multi-block
   superpage covering block [block]. *)
let find_sp_replica_h t block =
  let visited = Hashtbl.create 8 in
  let block = Int64.to_int block in
  let rec go n =
    if n == nil || Hashtbl.mem visited n.addr then None
    else begin
      Hashtbl.add visited n.addr ();
      if n.tag = block then
        match Pte.Word.decode n.word with
        | Pte.Word.Superpage sp when sp.valid -> Some n.word
        | _ -> go n.next
      else go n.next
    end
  in
  go t.coarse.(hash t block)

(* A node's kind discriminator for duplicate detection: mirrors the
   replace-in-place rules of the insert paths. *)
let node_kind w =
  match Pte.Word.decode w with
  | Pte.Word.Base _ -> 0
  | Pte.Word.Psb _ -> 1
  | Pte.Word.Superpage sp -> 2 + sz_of_sp sp

let check t =
  let out = ref [] in
  let add v = out := v :: !out in
  (* every chained node across both tables, for the limbo disjointness
     pass: addr -> bucket *)
  let live_seen : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let coverage : (int64, unit) Hashtbl.t = Hashtbl.create 256 in
  let claim_coverage vpn pages =
    for i = 0 to pages - 1 do
      let v = Int64.add vpn (Int64.of_int i) in
      if Hashtbl.mem coverage v then add (Coverage_overlap { vpn = v })
      else Hashtbl.add coverage v ()
    done
  in
  (* check one table; [expected_bucket]/[check_node] give the per-mode
     residency and word rules *)
  let scan_table ~coarse table recorded ~expected_bucket ~check_node =
    let seen : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let counted = ref 0 in
    Array.iteri
      (fun b head ->
        let chain_seen = Hashtbl.create 8 in
        let tags_seen = ref [] in
        let rec walk n =
          if n == nil then ()
          else if Hashtbl.mem chain_seen n.addr then
            add (Chain_cycle { coarse; bucket = b })
          else
            match Hashtbl.find_opt seen n.addr with
            | Some first_bucket ->
                add (Cross_link { coarse; bucket = b; first_bucket })
            | None ->
                Hashtbl.add chain_seen n.addr ();
                Hashtbl.add seen n.addr b;
                Hashtbl.replace live_seen n.addr b;
                incr counted;
                let tag = Int64.of_int n.tag in
                if expected_bucket n <> b then
                  add (Wrong_bucket { coarse; bucket = b; tag });
                let kind = node_kind n.word in
                if
                  List.exists
                    (fun (tg, k) -> tg = n.tag && k = kind)
                    !tags_seen
                then add (Dup_node { coarse; bucket = b; tag })
                else tags_seen := (n.tag, kind) :: !tags_seen;
                check_node b n;
                walk n.next
        in
        walk head)
      table;
    if !counted <> recorded then
      add
        (Node_count_mismatch { coarse; counted = !counted; recorded })
  in
  let bad ~coarse b n =
    add (Bad_word { coarse; bucket = b; tag = Int64.of_int n.tag })
  in
  (* fine table of the single-page-size modes: base words tagged by vpn *)
  let check_fine_base b n =
    let tag = Int64.of_int n.tag in
    match Pte.Word.decode n.word with
    | Pte.Word.Base bw ->
        if not bw.valid then bad ~coarse:false b n
        else claim_coverage tag 1
    | Pte.Word.Psb _ | Pte.Word.Superpage _ ->
        (* a torn multi-word update leaves a non-base word here *)
        bad ~coarse:false b n
  in
  (* coarse table (Two_tables): superpage / psb words tagged by vpbn *)
  let check_coarse b n =
    let tag = Int64.of_int n.tag in
    match Pte.Word.decode n.word with
    | Pte.Word.Base _ -> bad ~coarse:true b n
    | Pte.Word.Psb p ->
        if p.vmask land factor_mask t = 0 then bad ~coarse:true b n
        else begin
          let block_vpn = Int64.shift_left tag t.factor_bits in
          for i = 0 to t.factor - 1 do
            if p.vmask land (1 lsl i) <> 0 then
              claim_coverage (Int64.add block_vpn (Int64.of_int i)) 1
          done
        end
    | Pte.Word.Superpage sp ->
        if (not sp.valid) || sz_of_sp sp < t.factor_bits then
          bad ~coarse:true b n
        else begin
          (* each replica serves exactly its own block *)
          claim_coverage (Int64.shift_left tag t.factor_bits) t.factor;
          let n_blocks = 1 lsl (sz_of_sp sp - t.factor_bits) in
          if n_blocks > 1 then begin
            let first =
              Int64.logand tag (Int64.lognot (Int64.of_int (n_blocks - 1)))
            in
            if Int64.equal tag first then
              for i = 1 to n_blocks - 1 do
                let sib = Int64.add first (Int64.of_int i) in
                match find_sp_replica_h t sib with
                | Some w when Int64.equal w n.word -> ()
                | _ -> add (Torn_replica { bucket = b; tag })
              done
            else
              match find_sp_replica_h t first with
              | Some w when Int64.equal w n.word -> ()
              | _ -> add (Torn_replica { bucket = b; tag })
          end
        end
  in
  (* superpage-index fine table: mixed tag kinds, one bucket per block *)
  let check_spindex b n =
    let tag = Int64.of_int n.tag in
    match Pte.Word.decode n.word with
    | Pte.Word.Base bw ->
        if not bw.valid then bad ~coarse:false b n else claim_coverage tag 1
    | Pte.Word.Psb p ->
        if
          p.vmask land factor_mask t = 0
          || not (Addr.Bits.is_aligned tag t.factor_bits)
        then bad ~coarse:false b n
        else
          for i = 0 to t.factor - 1 do
            if p.vmask land (1 lsl i) <> 0 then
              claim_coverage (Int64.add tag (Int64.of_int i)) 1
          done
    | Pte.Word.Superpage sp ->
        let sz = sz_of_sp sp in
        if
          (not sp.valid)
          || sz > t.factor_bits
          || not (Addr.Bits.is_aligned tag sz)
        then bad ~coarse:false b n
        else claim_coverage tag (1 lsl sz)
  in
  (match t.mode with
  | No_superpages | Two_tables _ ->
      scan_table ~coarse:false t.fine
        (Atomic.get t.fine_nodes)
        ~expected_bucket:(fun n -> hash t n.tag)
        ~check_node:check_fine_base
  | Superpage_index ->
      scan_table ~coarse:false t.fine
        (Atomic.get t.fine_nodes)
        ~expected_bucket:(fun n -> hash t (n.tag lsr t.factor_bits))
        ~check_node:check_spindex);
  (match t.mode with
  | Two_tables _ ->
      scan_table ~coarse:true t.coarse
        (Atomic.get t.coarse_nodes)
        ~expected_bucket:(fun n -> hash t n.tag)
        ~check_node:check_coarse
  | No_superpages | Superpage_index -> ());
  (* limbo disjointness: a retired node must be off every chain and
     must wear the retired tag (no hashed free list, so two of the
     clustered checker's three ways) *)
  let limbo_counted = ref 0 in
  Mem.Limbo.iter t.limbo (fun n ->
      incr limbo_counted;
      if n.tag <> limbo_tag then add Limbo_live_tag;
      match Hashtbl.find_opt live_seen n.addr with
      | Some bucket -> add (Limbo_live_overlap { bucket })
      | None -> ());
  let limbo_recorded = Mem.Limbo.count t.limbo in
  if !limbo_counted <> limbo_recorded then
    add
      (Limbo_count_mismatch
         { counted = !limbo_counted; recorded = limbo_recorded });
  List.rev !out

(* --- repair --- *)

let repair t =
  let violations = check t in
  let kept = ref 0 and dropped = ref 0 in
  let cands = ref [] in
  let cand c = cands := c :: !cands in
  let sp_seen : (int64, int64) Hashtbl.t = Hashtbl.create 16 in
  let harvest_node ~fine n =
    let tag = Int64.of_int n.tag in
    match Pte.Word.decode n.word with
    | Pte.Word.Base bw ->
        (* base words are fine-table-only in every mode *)
        if bw.valid then
          if fine then cand (`Base (tag, bw.ppn, bw.attr))
          else incr dropped
    | Pte.Word.Psb p -> (
        let vmask = p.vmask land factor_mask t in
        if vmask = 0 then incr dropped
        else
          match t.mode with
          | Two_tables _ when not fine ->
              cand (`Psb (tag, vmask, p.ppn, p.attr))
          | Superpage_index
            when fine && Addr.Bits.is_aligned tag t.factor_bits ->
              cand (`Psb (vpbn t tag, vmask, p.ppn, p.attr))
          | _ -> incr dropped)
    | Pte.Word.Superpage sp ->
        if not sp.valid then incr dropped
        else begin
          let sz = sz_of_sp sp in
          match t.mode with
          | Two_tables _ when (not fine) && sz >= t.factor_bits -> (
              let block_vpn = Int64.shift_left tag t.factor_bits in
              let vpn_base = Addr.Bits.align_down block_vpn sz in
              match Hashtbl.find_opt sp_seen vpn_base with
              | Some w0 when Int64.equal w0 n.word -> ()
              | Some _ -> incr dropped
              | None ->
                  Hashtbl.add sp_seen vpn_base n.word;
                  cand (`Sp (vpn_base, sp.size, sp.ppn, sp.attr)))
          | Superpage_index
            when fine && sz <= t.factor_bits && Addr.Bits.is_aligned tag sz
            ->
              cand (`Sp (tag, sp.size, sp.ppn, sp.attr))
          | _ -> incr dropped
        end
  in
  let visited = Hashtbl.create 256 in
  let harvest_table ~fine table =
    Array.iter
      (fun head ->
        let rec walk n =
          if n == nil || Hashtbl.mem visited n.addr then ()
          else begin
            Hashtbl.add visited n.addr ();
            harvest_node ~fine n;
            walk n.next
          end
        in
        walk head)
      table
  in
  harvest_table ~fine:true t.fine;
  if Array.length t.coarse > 0 then harvest_table ~fine:false t.coarse;
  (* first-wins page claims, then reset and reinsert.  The old nodes'
     arena bytes are abandoned: corrupted chains are unsafe to walk for
     freeing. *)
  let claimed : (int64, unit) Hashtbl.t = Hashtbl.create 1024 in
  let spans = function
    | `Base (vpn, _, _) -> [ (vpn, 1) ]
    | `Sp (vpn, size, _, _) -> [ (vpn, Addr.Page_size.base_pages size) ]
    | `Psb (block, vmask, _, _) ->
        let base = Int64.shift_left block t.factor_bits in
        let l = ref [] in
        for i = t.factor - 1 downto 0 do
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
  Array.fill t.fine 0 (Array.length t.fine) nil;
  if Array.length t.coarse > 0 then
    Array.fill t.coarse 0 (Array.length t.coarse) nil;
  Atomic.set t.fine_nodes 0;
  Atomic.set t.coarse_nodes 0;
  (* abandon limbo with the rest of the old nodes: corruption may have
     relinked a limbo node into a chain, so freeing could double-free *)
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
          | `Psb (block, vmask, ppn, attr) ->
              insert_psb t ~vpbn:block ~vmask ~ppn ~attr);
          incr kept
        with Invalid_argument _ -> incr dropped)
    survivors;
  { Pt_common.Intf.violations; kept = !kept; dropped = !dropped }

(* --- fine-bucket images (the service's undo journal, the checkpoints):
   a node is a one-word node --- *)

type bucket_image = (int * int64 array) list

let snapshot_bucket t ~bucket =
  let rec go acc n =
    if n == nil then List.rev acc else go ((n.tag, [| n.word |]) :: acc) n.next
  in
  go [] t.fine.(bucket)

let rec iter_chain_images f bucket n =
  if n != nil then begin
    f bucket n.tag [| n.word |];
    iter_chain_images f bucket n.next
  end

let iter_images t f =
  for bucket = 0 to t.buckets - 1 do
    let n = t.fine.(bucket) in
    if n != nil then iter_chain_images f bucket n
  done

let restore_bucket t ~bucket image =
  let removed = ref 0 in
  (* rollback runs under the bucket's write lock, but optimistic
     readers may still be walking the dropped nodes: retire, don't
     recycle *)
  let rec drop n =
    if n != nil then begin
      let next = n.next in
      unlink_node t n;
      incr removed;
      drop next
    end
  in
  drop t.fine.(bucket);
  t.fine.(bucket) <- nil;
  let added = ref 0 in
  List.iter
    (fun (tag, words) ->
      let n = alloc_node t ~coarse:false ~tag ~word:words.(0) in
      n.next <- t.fine.(bucket);
      t.fine.(bucket) <- n;
      incr added)
    (List.rev image);
  ignore (Atomic.fetch_and_add t.fine_nodes (!added - !removed))

(* --- corruption injection (tests and the fsck CLI) --- *)

type corruption =
  | C_cycle  (* tie a fine chain's tail back to its head *)
  | C_cross_link  (* link a fine tail into another bucket's chain *)
  | C_misplace  (* move a fine node to a bucket its tag doesn't hash to *)
  | C_duplicate  (* clone a fine node into its own bucket *)
  | C_torn of int64  (* plant a structurally illegal word in [vpn]'s bucket *)
  | C_count  (* drift the fine-table node counter *)

let torn_garbage_word =
  Pte.Psb_pte.(encode (make ~vmask:1 ~ppn:0L ~attr:Pte.Attr.default))

let first_nonempty_fine t =
  let rec go b =
    if b >= t.buckets then None
    else if t.fine.(b) != nil then Some (b, t.fine.(b))
    else go (b + 1)
  in
  go 0

let fine_tail n =
  let rec go n = if n.next == nil then n else go n.next in
  go n

let inject t kind =
  match kind with
  | C_cycle -> (
      match first_nonempty_fine t with
      | None -> false
      | Some (_, head) ->
          (fine_tail head).next <- head;
          true)
  | C_cross_link -> (
      match first_nonempty_fine t with
      | None -> false
      | Some (b, head) -> (
          let rec next_nonempty b' =
            if b' >= t.buckets then None
            else if t.fine.(b') != nil then Some t.fine.(b')
            else next_nonempty (b' + 1)
          in
          match next_nonempty (b + 1) with
          | None -> false
          | Some head2 ->
              (fine_tail head).next <- head2;
              true))
  | C_misplace -> (
      if t.buckets < 2 then false
      else
        match first_nonempty_fine t with
        | None -> false
        | Some (b, n) ->
            t.fine.(b) <- n.next;
            let b2 = (b + 1) mod t.buckets in
            n.next <- t.fine.(b2);
            t.fine.(b2) <- n;
            true)
  | C_duplicate -> (
      match first_nonempty_fine t with
      | None -> false
      | Some (b, n) ->
          let clone = alloc_node t ~coarse:false ~tag:n.tag ~word:n.word in
          clone.next <- t.fine.(b);
          t.fine.(b) <- clone;
          ignore (Atomic.fetch_and_add t.fine_nodes 1);
          true)
  | C_torn vpn ->
      (* what a torn multi-word update leaves in a fine bucket: a
         non-base word where only base words belong *)
      let tag = Int64.to_int vpn in
      let bucket = hash t tag in
      let n = alloc_node t ~coarse:false ~tag ~word:torn_garbage_word in
      n.next <- t.fine.(bucket);
      t.fine.(bucket) <- n;
      ignore (Atomic.fetch_and_add t.fine_nodes 1);
      true
  | C_count ->
      ignore (Atomic.fetch_and_add t.fine_nodes 1);
      true

(* Any in-range page works for the planted torn word: the injector
   creates the node it tears. *)
let corruptions =
  [
    ("cycle", C_cycle);
    ("cross_link", C_cross_link);
    ("misplace", C_misplace);
    ("duplicate", C_duplicate);
    ("torn", C_torn 42L);
    ("count", C_count);
  ]

let corruption_kinds = List.map fst corruptions

let corrupt t name =
  match List.assoc_opt name corruptions with
  | Some kind -> inject t kind
  | None -> false

let tear t ~vpn = inject t (C_torn vpn)
