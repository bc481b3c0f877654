module Types = Pt_common.Types

type sp_strategy = [ `Replicate | `Intermediate ]

type slot = Empty | Child of node | Word of int64

and node = {
  addr : int64;
  slots : slot array;
  mutable valid : int;
  level : int; (* 0 = root *)
}

type t = {
  arena : Mem.Sim_memory.t;
  bits : int array;
  shifts : int array; (* VPN bits below each level's index field *)
  sp_strategy : sp_strategy;
  guarded : bool;
  root : node;
  mutable nodes : int;
  mutable bytes : int;
}

let name = "forward-mapped"

let node_align = 256

let default_bits = [| 8; 8; 8; 8; 8; 6; 6 |]

let alloc_node t ~level =
  let entries = 1 lsl t.bits.(level) in
  let bytes = entries * 8 in
  let addr = Mem.Sim_memory.alloc t.arena ~bytes ~align:node_align in
  t.nodes <- t.nodes + 1;
  t.bytes <- t.bytes + bytes;
  { addr; slots = Array.make entries Empty; valid = 0; level }

let release_node t n =
  let bytes = Array.length n.slots * 8 in
  Mem.Sim_memory.free t.arena ~addr:n.addr ~bytes ~align:node_align;
  t.nodes <- t.nodes - 1;
  t.bytes <- t.bytes - bytes

let create ?arena ?(bits_per_level = default_bits) ?(sp_strategy = `Replicate)
    ?(guarded = false) () =
  if Array.length bits_per_level < 2 then
    invalid_arg "Forward_mapped_pt: need at least two levels";
  Array.iter
    (fun b ->
      if b < 1 || b > 12 then invalid_arg "Forward_mapped_pt: bits per level")
    bits_per_level;
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  let n = Array.length bits_per_level in
  let shifts = Array.make n 0 in
  let below = ref 0 in
  for i = n - 1 downto 0 do
    shifts.(i) <- !below;
    below := !below + bits_per_level.(i)
  done;
  let t =
    {
      arena;
      bits = bits_per_level;
      shifts;
      sp_strategy;
      guarded;
      root =
        {
          addr = 0L;
          slots = [||];
          valid = 0;
          level = 0;
        };
      nodes = 0;
      bytes = 0;
    }
  in
  (* replace the placeholder root with a real allocated node *)
  let root = alloc_node t ~level:0 in
  { t with root }

let levels t = Array.length t.bits

let index_at t ~level vpn =
  Int64.to_int (Addr.Bits.extract vpn ~lo:t.shifts.(level) ~width:t.bits.(level))

let slot_addr n idx = Int64.add n.addr (Int64.of_int (8 * idx))

(* base pages covered by one slot at [level] *)
let span_at t ~level = Int64.shift_left 1L t.shifts.(level)

(* --- lookup --- *)

(* A single-child intermediate node is compressed away under guarded
   page tables: the guard lives in the parent's pointer, so the node
   costs no read.  The root and the leaf are always real. *)
let compressed t n =
  t.guarded && n.level > 0 && n.level < levels t - 1 && n.valid = 1
  &&
  match n.slots.(
    (* its only slot *)
    let rec first i = if n.slots.(i) = Empty then first (i + 1) else i in
    first 0)
  with
  | Child _ -> true
  | Word _ | Empty -> false

let lookup_into t acc ~vpn =
  let rec descend n =
    let idx = index_at t ~level:n.level vpn in
    if not (compressed t n) then begin
      Mem.Walk_acc.read acc ~addr:(slot_addr n idx) ~bytes:8;
      Mem.Walk_acc.probe acc
    end;
    match n.slots.(idx) with
    | Empty -> None
    | Word w -> Pt_common.Decode.translation_of_word ~subblock_factor:16 ~vpn w
    | Child c -> descend c
  in
  descend t.root

let lookup_block t acc ~vpn ~subblock_factor =
  (* descend once, then the block's leaf slots are adjacent memory *)
  let block_base = Types.block_base ~vpn ~subblock_factor in
  let leaf_level = levels t - 1 in
  let rec descend n =
    let idx = index_at t ~level:n.level block_base in
    if n.level = leaf_level then begin
      Mem.Walk_acc.read acc ~addr:(slot_addr n idx)
        ~bytes:(8 * subblock_factor);
      Mem.Walk_acc.probe acc;
      let results = ref [] in
      for i = subblock_factor - 1 downto 0 do
        let page = Int64.add block_base (Int64.of_int i) in
        if idx + i < Array.length n.slots then
          match n.slots.(idx + i) with
          | Word w -> (
              match
                Pt_common.Decode.translation_of_word ~subblock_factor:16
                  ~vpn:page w
              with
              | Some tr -> results := (i, tr) :: !results
              | None -> ())
          | Empty | Child _ -> ()
      done;
      !results
    end
    else begin
      Mem.Walk_acc.read acc ~addr:(slot_addr n idx) ~bytes:8;
      Mem.Walk_acc.probe acc;
      match n.slots.(idx) with
      | Empty -> []
      | Word w ->
          (* an intermediate superpage covers the whole block *)
          let results = ref [] in
          for i = subblock_factor - 1 downto 0 do
            let page = Int64.add block_base (Int64.of_int i) in
            match
              Pt_common.Decode.translation_of_word ~subblock_factor:16
                ~vpn:page w
            with
            | Some tr -> results := (i, tr) :: !results
            | None -> ()
          done;
          !results
      | Child c -> descend c
    end
  in
  descend t.root

(* --- insertion --- *)

let rec ensure_path t n vpn ~down_to =
  if n.level = down_to then n
  else
    let idx = index_at t ~level:n.level vpn in
    match n.slots.(idx) with
    | Child c -> ensure_path t c vpn ~down_to
    | Empty ->
        let c = alloc_node t ~level:(n.level + 1) in
        n.slots.(idx) <- Child c;
        n.valid <- n.valid + 1;
        ensure_path t c vpn ~down_to
    | Word _ ->
        invalid_arg
          "Forward_mapped_pt: mapping conflict with an intermediate superpage"

let set_word_at t vpn ~level word =
  let n = ensure_path t t.root vpn ~down_to:level in
  let idx = index_at t ~level vpn in
  (match n.slots.(idx) with
  | Empty -> n.valid <- n.valid + 1
  | Word _ -> ()
  | Child _ ->
      invalid_arg "Forward_mapped_pt: slot holds a subtree");
  n.slots.(idx) <- Word word

let insert_base t ~vpn ~ppn ~attr =
  set_word_at t vpn ~level:(levels t - 1)
    Pte.Base_pte.(encode (make ~ppn ~attr ()))

let insert_superpage t ~vpn ~size ~ppn ~attr =
  let sz = Addr.Page_size.sz_code size in
  if not (Addr.Bits.is_aligned vpn sz) then
    invalid_arg "Forward_mapped_pt.insert_superpage: VPN not aligned";
  let word = Pte.Superpage_pte.(encode (make ~size ~ppn ~attr ())) in
  let replicate () =
    for i = 0 to Addr.Page_size.base_pages size - 1 do
      set_word_at t (Int64.add vpn (Int64.of_int i)) ~level:(levels t - 1) word
    done
  in
  match t.sp_strategy with
  | `Replicate -> replicate ()
  | `Intermediate -> (
      (* a size matching some level's span stores one word there *)
      let matching = ref None in
      Array.iteri
        (fun level _ ->
          if span_at t ~level = Int64.of_int (Addr.Page_size.base_pages size)
          then matching := Some level)
        t.bits;
      match !matching with
      | Some level -> set_word_at t vpn ~level word
      | None -> replicate ())

let insert_psb t ~vpbn ~vmask ~ppn ~attr =
  let word = Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)) in
  let block_base = Int64.shift_left vpbn 4 in
  for i = 0 to 15 do
    if vmask land (1 lsl i) <> 0 then
      set_word_at t (Int64.add block_base (Int64.of_int i))
        ~level:(levels t - 1) word
  done

(* --- removal --- *)

let clear_site t vpn =
  (* descend with the path recorded, clear the site, prune empties *)
  let rec descend n path =
    let idx = index_at t ~level:n.level vpn in
    match n.slots.(idx) with
    | Empty -> ()
    | Word _ ->
        n.slots.(idx) <- Empty;
        n.valid <- n.valid - 1;
        prune path n
    | Child c -> descend c ((n, idx) :: path)
  and prune path n =
    if n.valid = 0 && n.level > 0 then
      match path with
      | (parent, idx) :: rest ->
          parent.slots.(idx) <- Empty;
          parent.valid <- parent.valid - 1;
          release_node t n;
          prune rest parent
      | [] -> ()
  in
  descend t.root []

let find_word_site t vpn =
  let rec descend n =
    let idx = index_at t ~level:n.level vpn in
    match n.slots.(idx) with
    | Empty -> None
    | Word w -> Some (w, n.level)
    | Child c -> descend c
  in
  descend t.root


let remove t ~vpn =
  match find_word_site t vpn with
  | None -> ()
  | Some (w, site_level) -> (
      match Pte.Word.decode w with
      | Pte.Word.Base _ -> clear_site t vpn
      | Pte.Word.Superpage sp ->
          if sp.valid then begin
            let sz = Addr.Page_size.sz_code sp.size in
            let vpn_base = Addr.Bits.align_down vpn sz in
            if site_level < levels t - 1 then
              (* stored once at an intermediate node *)
              clear_site t vpn_base
            else
              for i = 0 to Addr.Page_size.base_pages sp.size - 1 do
                clear_site t (Int64.add vpn_base (Int64.of_int i))
              done
          end
      | Pte.Word.Psb p ->
          let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor:16 vpn in
          if Pte.Psb_pte.valid_at p ~boff then begin
            let p' = Pte.Psb_pte.clear_valid p ~boff in
            let block_base = Addr.Bits.align_down vpn 4 in
            clear_site t vpn;
            if p'.Pte.Psb_pte.vmask <> 0 then begin
              let word = Pte.Psb_pte.encode p' in
              for i = 0 to 15 do
                if Pte.Psb_pte.valid_at p' ~boff:i then
                  set_word_at t
                    (Int64.add block_base (Int64.of_int i))
                    ~level:(levels t - 1) word
              done
            end
          end)

(* --- range attribute updates --- *)

let set_attr_range t region ~f =
  if Addr.Region.is_empty region then 0
  else begin
    let touched = Hashtbl.create 8 in
    Addr.Region.iter_vpns region (fun vpn ->
        let rec descend n =
          let idx = index_at t ~level:n.level vpn in
          match n.slots.(idx) with
          | Empty -> ()
          | Word w ->
              Hashtbl.replace touched n.addr ();
              (match Pt_common.Decode.reencode_attr w ~f with
              | Some w' -> n.slots.(idx) <- Word w'
              | None -> ())
          | Child c -> descend c
        in
        descend t.root);
    Hashtbl.length touched
  end

(* --- accounting --- *)

let size_bytes t =
  if not t.guarded then t.bytes
  else begin
    (* compressed nodes store nothing *)
    let saved = ref 0 in
    let rec visit n =
      if compressed t n then saved := !saved + (Array.length n.slots * 8);
      Array.iter (function Child c -> visit c | _ -> ()) n.slots
    in
    visit t.root;
    t.bytes - !saved
  end

let node_count t = t.nodes

let population t =
  let count = ref 0 in
  let rec visit n =
    Array.iter
      (function
        | Empty -> ()
        | Child c -> visit c
        | Word w -> (
            match Pte.Word.decode w with
            | Pte.Word.Base b -> if b.valid then incr count
            | Pte.Word.Superpage sp ->
                if sp.valid then
                  if n.level = levels t - 1 then incr count
                  else
                    count :=
                      !count + Int64.to_int (span_at t ~level:n.level)
            | Pte.Word.Psb _ -> incr count))
      n.slots
  in
  visit t.root;
  !count

let clear t =
  let rec free n =
    Array.iteri
      (fun i slot ->
        match slot with
        | Child c ->
            free c;
            n.slots.(i) <- Empty
        | Word _ -> n.slots.(i) <- Empty
        | Empty -> ())
      n.slots;
    if n.level > 0 then release_node t n
  in
  free t.root;
  t.root.valid <- 0
