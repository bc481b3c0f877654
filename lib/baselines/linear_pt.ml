module Types = Pt_common.Types

type size_variant = [ `Six_level | `One_level | `Leaf_plus_hash ]

type page = { addr : int64; words : int64 array; mutable valid : int }

type t = {
  arena : Mem.Sim_memory.t;
  levels : int;
  bits : int;
  size_variant : size_variant;
  (* (level, page index) -> page; level 1 is the leaf level *)
  pages : (int * int64, page) Hashtbl.t;
}

let name = "linear"

let page_bytes = 4096

let create ?arena ?(levels = 6) ?(bits_per_level = 9)
    ?(size_variant = `Six_level) () =
  if levels < 1 || levels > 8 then invalid_arg "Linear_pt: levels";
  if bits_per_level < 1 || bits_per_level > 9 then
    invalid_arg "Linear_pt: bits per level";
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  {
    arena;
    levels;
    bits = bits_per_level;
    size_variant;
    pages = Hashtbl.create 256;
  }

let entries t = 1 lsl t.bits

(* page index at [level] covering [vpn] (level 1 = leaf) *)
let index_at t ~level vpn = Int64.shift_right_logical vpn (t.bits * level)

let slot_at t ~level vpn =
  Int64.to_int
    (Addr.Bits.extract vpn ~lo:(t.bits * (level - 1)) ~width:t.bits)

let find_page t ~level vpn = Hashtbl.find_opt t.pages (level, index_at t ~level vpn)

let alloc_page t ~level vpn =
  let addr = Mem.Sim_memory.alloc t.arena ~bytes:page_bytes ~align:page_bytes in
  let p = { addr; words = Array.make (entries t) 0L; valid = 0 } in
  Hashtbl.replace t.pages (level, index_at t ~level vpn) p;
  p

(* Make the leaf page for [vpn] exist, materializing intermediate
   levels bottom-up the way a soft page fault on the page table
   would. *)
let rec ensure_page t ~level vpn =
  match find_page t ~level vpn with
  | Some p -> p
  | None ->
      let p = alloc_page t ~level vpn in
      if level < t.levels then begin
        let parent = ensure_page t ~level:(level + 1) vpn in
        let slot = slot_at t ~level:(level + 1) vpn in
        if parent.words.(slot) = 0L then begin
          parent.words.(slot) <- p.addr;
          parent.valid <- parent.valid + 1
        end
      end;
      p

let rec prune t ~level vpn =
  match find_page t ~level vpn with
  | None -> ()
  | Some p ->
      if p.valid = 0 then begin
        Hashtbl.remove t.pages (level, index_at t ~level vpn);
        Mem.Sim_memory.free t.arena ~addr:p.addr ~bytes:page_bytes
          ~align:page_bytes;
        if level < t.levels then begin
          match find_page t ~level:(level + 1) vpn with
          | Some parent ->
              let slot = slot_at t ~level:(level + 1) vpn in
              if parent.words.(slot) <> 0L then begin
                parent.words.(slot) <- 0L;
                parent.valid <- parent.valid - 1;
                prune t ~level:(level + 1) vpn
              end
          | None -> ()
        end
      end

let set_leaf_word t vpn word =
  let leaf = ensure_page t ~level:1 vpn in
  let slot = slot_at t ~level:1 vpn in
  let was_valid = Pte.Word.is_valid (Pte.Word.decode leaf.words.(slot)) in
  let now_valid = Pte.Word.is_valid (Pte.Word.decode word) in
  leaf.words.(slot) <- word;
  (match (was_valid, now_valid) with
  | false, true -> leaf.valid <- leaf.valid + 1
  | true, false -> leaf.valid <- leaf.valid - 1
  | _ -> ());
  if leaf.valid = 0 then prune t ~level:1 vpn

(* --- lookup --- *)

let lookup_into t acc ~vpn =
  (* one read of the leaf PTE; the page table's own mappings are
     assumed TLB-resident (reserved entries), which the access-time
     experiment charges as opportunity cost *)
  match find_page t ~level:1 vpn with
  | None ->
      Mem.Walk_acc.probe acc;
      None
  | Some leaf ->
      let slot = slot_at t ~level:1 vpn in
      Mem.Walk_acc.read acc
        ~addr:(Int64.add leaf.addr (Int64.of_int (8 * slot)))
        ~bytes:8;
      Mem.Walk_acc.probe acc;
      Pt_common.Decode.translation_of_word ~subblock_factor:16 ~vpn
        leaf.words.(slot)

let lookup_block t acc ~vpn ~subblock_factor =
  (* adjacent leaf PTEs: the block is one contiguous read *)
  let block_base = Types.block_base ~vpn ~subblock_factor in
  match find_page t ~level:1 block_base with
  | None ->
      Mem.Walk_acc.probe acc;
      []
  | Some leaf ->
      let slot0 = slot_at t ~level:1 block_base in
      Mem.Walk_acc.read acc
        ~addr:(Int64.add leaf.addr (Int64.of_int (8 * slot0)))
        ~bytes:(8 * subblock_factor);
      Mem.Walk_acc.probe acc;
      let results = ref [] in
      for i = subblock_factor - 1 downto 0 do
        let page = Int64.add block_base (Int64.of_int i) in
        let slot = slot0 + i in
        if slot < Array.length leaf.words then
          match
            Pt_common.Decode.translation_of_word
              ~subblock_factor:(max subblock_factor 16)
              ~vpn:page leaf.words.(slot)
          with
          | Some tr -> results := (i, tr) :: !results
          | None -> ()
      done;
      !results

(* --- insertion --- *)

let insert_base t ~vpn ~ppn ~attr =
  set_leaf_word t vpn Pte.Base_pte.(encode (make ~ppn ~attr ()))

let insert_superpage t ~vpn ~size ~ppn ~attr =
  (* replicate-PTEs (Section 4.2): the superpage word is stored at
     every covered base-page site, so superpages cannot shrink a
     linear page table *)
  let sz = Addr.Page_size.sz_code size in
  if not (Addr.Bits.is_aligned vpn sz) then
    invalid_arg "Linear_pt.insert_superpage: VPN not aligned";
  let word = Pte.Superpage_pte.(encode (make ~size ~ppn ~attr ())) in
  for i = 0 to Addr.Page_size.base_pages size - 1 do
    set_leaf_word t (Int64.add vpn (Int64.of_int i)) word
  done

let insert_psb t ~vpbn ~vmask ~ppn ~attr =
  (* replicated at each *valid* base site; missing pages keep faulting *)
  let word = Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)) in
  let block_base = Int64.shift_left vpbn 4 in
  for i = 0 to 15 do
    if vmask land (1 lsl i) <> 0 then
      set_leaf_word t (Int64.add block_base (Int64.of_int i)) word
  done

(* --- removal --- *)

let remove t ~vpn =
  match find_page t ~level:1 vpn with
  | None -> ()
  | Some leaf -> (
      let slot = slot_at t ~level:1 vpn in
      match Pte.Word.decode leaf.words.(slot) with
      | Pte.Word.Base b -> if b.valid then set_leaf_word t vpn 0L
      | Pte.Word.Superpage sp ->
          if sp.valid then begin
            (* drop every replica of the superpage *)
            let sz = Addr.Page_size.sz_code sp.size in
            let vpn_base = Addr.Bits.align_down vpn sz in
            for i = 0 to Addr.Page_size.base_pages sp.size - 1 do
              set_leaf_word t (Int64.add vpn_base (Int64.of_int i)) 0L
            done
          end
      | Pte.Word.Psb p ->
          let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor:16 vpn in
          if Pte.Psb_pte.valid_at p ~boff then begin
            (* update the remaining replicas' valid vector *)
            let p' = Pte.Psb_pte.clear_valid p ~boff in
            let block_base = Addr.Bits.align_down vpn 4 in
            set_leaf_word t vpn 0L;
            if p'.Pte.Psb_pte.vmask <> 0 then begin
              let word = Pte.Psb_pte.encode p' in
              for i = 0 to 15 do
                if Pte.Psb_pte.valid_at p' ~boff:i then
                  set_leaf_word t (Int64.add block_base (Int64.of_int i)) word
              done
            end
          end)

(* --- range attribute updates --- *)

let set_attr_range t region ~f =
  if Addr.Region.is_empty region then 0
  else begin
    (* direct indexing: cost is one touch per leaf page *)
    let first = region.Addr.Region.first_vpn in
    let last = Addr.Region.last_vpn region in
    let touched = Hashtbl.create 8 in
    let vpn = ref first in
    while Int64.unsigned_compare !vpn last <= 0 do
      (match find_page t ~level:1 !vpn with
      | Some leaf ->
          Hashtbl.replace touched (index_at t ~level:1 !vpn) ();
          let slot = slot_at t ~level:1 !vpn in
          (match Pt_common.Decode.reencode_attr leaf.words.(slot) ~f with
          | Some w -> leaf.words.(slot) <- w
          | None -> ())
      | None -> ());
      vpn := Int64.succ !vpn
    done;
    Hashtbl.length touched
  end

(* --- accounting --- *)

let pages_at_level t ~level =
  Hashtbl.fold
    (fun (l, _) _ acc -> if l = level then acc + 1 else acc)
    t.pages 0

let leaf_pages t = pages_at_level t ~level:1

let size_bytes t =
  match t.size_variant with
  | `Six_level -> Hashtbl.length t.pages * page_bytes
  | `One_level -> leaf_pages t * page_bytes
  | `Leaf_plus_hash -> leaf_pages t * (page_bytes + 24)

let population t =
  Hashtbl.fold
    (fun (level, _) p acc -> if level = 1 then acc + p.valid else acc)
    t.pages 0

let clear t =
  Hashtbl.iter
    (fun _ p ->
      Mem.Sim_memory.free t.arena ~addr:p.addr ~bytes:page_bytes
        ~align:page_bytes)
    t.pages;
  Hashtbl.reset t.pages

let pt_virtual_base_vpn = 0xFF00_0000_0000L

let leaf_page_vpn t ~vpn =
  Int64.add pt_virtual_base_vpn (index_at t ~level:1 vpn)
