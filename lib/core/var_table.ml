module Types = Pt_common.Types

let factor = 16

let factor_bits = 4

let quarter = 4

type node = {
  tag : int64; (* VPBN at factor 16 *)
  off : int; (* first covered block offset (0 unless a quarter node) *)
  words : int64 array; (* 16 = full, 4 = quarter, 1 = psb/superpage *)
  addr : int64;
  node_bytes : int;
  mutable next : node option;
}

type t = {
  arena : Mem.Sim_memory.t;
  buckets : node option array;
  heads_addr : int64;
  node_align : int;
  mutable logical_bytes : int;
  mutable nodes : int;
}

let name = "clustered-var"

let create ?arena ?(buckets = 4096) () =
  if not (Addr.Bits.is_pow2 buckets) then
    invalid_arg "Var_table: buckets must be a power of two";
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  {
    arena;
    buckets = Array.make buckets None;
    heads_addr = Mem.Sim_memory.alloc arena ~bytes:(buckets * 16) ~align:4096;
    node_align = 256;
    logical_bytes = 0;
    nodes = 0;
  }

let hash t vpbn =
  let bits = Addr.Bits.log2_exact (Array.length t.buckets) in
  Int64.to_int (Int64.shift_right_logical (Addr.Bits.mix64 vpbn) (64 - bits))

let split vpn =
  ( Int64.shift_right_logical vpn factor_bits,
    Int64.to_int (Addr.Bits.extract vpn ~lo:0 ~width:factor_bits) )

let invalid_word = Pte.Base_pte.(encode invalid)

let alloc_node t ~tag ~off ~len =
  let node_bytes = 16 + (8 * len) in
  let addr =
    Mem.Sim_memory.alloc t.arena ~bytes:node_bytes ~align:t.node_align
  in
  t.logical_bytes <- t.logical_bytes + node_bytes;
  t.nodes <- t.nodes + 1;
  { tag; off; words = Array.make len invalid_word; addr; node_bytes; next = None }

let release_node t n =
  Mem.Sim_memory.free t.arena ~addr:n.addr ~bytes:n.node_bytes
    ~align:t.node_align;
  t.logical_bytes <- t.logical_bytes - n.node_bytes;
  t.nodes <- t.nodes - 1

let link t bucket n =
  n.next <- t.buckets.(bucket);
  t.buckets.(bucket) <- Some n

let covers n boff =
  Array.length n.words > 1
  && boff >= n.off
  && boff < n.off + Array.length n.words

(* multi-word nodes only hold valid words or the canonical invalid
   word *)
let node_empty n = Array.for_all (fun w -> Int64.equal w invalid_word) n.words

(* the mapping a tag-matched node provides for boff, if any *)
let node_translation n ~vpn ~boff =
  if Array.length n.words = 1 then
    (* psb or block-sized-or-larger superpage node *)
    Pt_common.Decode.translation_of_word ~subblock_factor:factor ~vpn
      n.words.(0)
  else if covers n boff then
    Pt_common.Decode.translation_of_word ~subblock_factor:factor ~vpn
      n.words.(boff - n.off)
  else None

let charge_empty_head t ~bucket acc =
  Mem.Walk_acc.read acc
    ~addr:(Int64.add t.heads_addr (Int64.of_int (bucket * 16)))
    ~bytes:16;
  Mem.Walk_acc.probe acc

(* The miss handler's chain walk.  Top level, so a walk allocates only
   the translation it returns. *)
let rec walk_chain acc ~vpn ~vpbn ~boff = function
  | None -> None
  | Some n ->
      (* the tag word carries the node's factor and offset in spare
         bits, so the range check costs no extra read *)
      Mem.Walk_acc.read acc ~addr:n.addr ~bytes:16;
      Mem.Walk_acc.probe acc;
      if not (Int64.equal n.tag vpbn) then
        walk_chain acc ~vpn ~vpbn ~boff n.next
      else if Array.length n.words > 1 && not (covers n boff) then
        walk_chain acc ~vpn ~vpbn ~boff n.next
      else begin
        let word_idx = if Array.length n.words = 1 then 0 else boff - n.off in
        Mem.Walk_acc.read acc
          ~addr:(Int64.add n.addr (Int64.of_int (16 + (8 * word_idx))))
          ~bytes:8;
        match node_translation n ~vpn ~boff with
        | Some _ as tr -> tr
        | None -> walk_chain acc ~vpn ~vpbn ~boff n.next
      end

let lookup_into t acc ~vpn =
  let vpbn, boff = split vpn in
  let bucket = hash t vpbn in
  match t.buckets.(bucket) with
  | None ->
      charge_empty_head t ~bucket acc;
      None
  | chain -> walk_chain acc ~vpn ~vpbn ~boff chain

let lookup_block t acc ~vpn ~subblock_factor =
  if subblock_factor <> factor then
    invalid_arg "Var_table.lookup_block: factor mismatch";
  let vpbn, _ = split vpn in
  let block_base = Int64.shift_left vpbn factor_bits in
  let bucket = hash t vpbn in
  let found = Array.make factor None in
  let rec go = function
    | None -> ()
    | Some n ->
        Mem.Walk_acc.read acc ~addr:n.addr ~bytes:16;
        Mem.Walk_acc.probe acc;
        if Int64.equal n.tag vpbn then begin
          Mem.Walk_acc.read acc ~addr:(Int64.add n.addr 16L)
            ~bytes:(8 * Array.length n.words);
          for i = 0 to factor - 1 do
            if found.(i) = None then
              let page = Int64.add block_base (Int64.of_int i) in
              found.(i) <- node_translation n ~vpn:page ~boff:i
          done
        end;
        go n.next
  in
  (match t.buckets.(bucket) with
  | None -> charge_empty_head t ~bucket acc
  | chain -> go chain);
  let results = ref [] in
  for i = factor - 1 downto 0 do
    match found.(i) with
    | Some tr -> results := (i, tr) :: !results
    | None -> ()
  done;
  !results

(* --- node management for inserts --- *)

let find_node t vpbn ~pred =
  let rec go = function
    | None -> None
    | Some n -> if Int64.equal n.tag vpbn && pred n then Some n else go n.next
  in
  go t.buckets.(hash t vpbn)

let unlink_matching t vpbn ~pred =
  let bucket = hash t vpbn in
  let rec go = function
    | None -> None
    | Some n ->
        if Int64.equal n.tag vpbn && pred n then begin
          release_node t n;
          go n.next
        end
        else begin
          n.next <- go n.next;
          Some n
        end
  in
  t.buckets.(bucket) <- go t.buckets.(bucket)

let is_quarter n = Array.length n.words = quarter

let is_full n = Array.length n.words = factor

(* Merge the block's quarter nodes into one full node.  Triggered when
   a third quarter would appear: 3 x 48 bytes already equals the full
   node, and one node means one probe. *)
let promote_to_full t vpbn =
  let full =
    match find_node t vpbn ~pred:is_full with
    | Some n -> n
    | None ->
        let n = alloc_node t ~tag:vpbn ~off:0 ~len:factor in
        link t (hash t vpbn) n;
        n
  in
  let rec copy_quarters = function
    | None -> ()
    | Some n ->
        if Int64.equal n.tag vpbn && is_quarter n then
          Array.iteri
            (fun i w ->
              if Pte.Word.is_valid (Pte.Word.decode w) then
                full.words.(n.off + i) <- w)
            n.words;
        copy_quarters n.next
  in
  copy_quarters t.buckets.(hash t vpbn);
  unlink_matching t vpbn ~pred:is_quarter;
  full

let insert_base t ~vpn ~ppn ~attr =
  let vpbn, boff = split vpn in
  let word = Pte.Base_pte.(encode (make ~ppn ~attr ())) in
  match find_node t vpbn ~pred:is_full with
  | Some n -> n.words.(boff) <- word
  | None -> (
      let qoff = boff land lnot (quarter - 1) in
      match find_node t vpbn ~pred:(fun n -> is_quarter n && n.off = qoff) with
      | Some n -> n.words.(boff - qoff) <- word
      | None ->
          let existing_quarters =
            let count = ref 0 in
            let rec go = function
              | None -> !count
              | Some n ->
                  if Int64.equal n.tag vpbn && is_quarter n then incr count;
                  go n.next
            in
            go t.buckets.(hash t vpbn)
          in
          if existing_quarters >= 2 then begin
            (* a third quarter: merge everything into a full node *)
            let full = promote_to_full t vpbn in
            full.words.(boff) <- word
          end
          else begin
            let n = alloc_node t ~tag:vpbn ~off:qoff ~len:quarter in
            n.words.(boff - qoff) <- word;
            link t (hash t vpbn) n
          end)

let insert_superpage t ~vpn ~size ~ppn ~attr =
  let sz = Addr.Page_size.sz_code size in
  if not (Addr.Bits.is_aligned vpn sz) then
    invalid_arg "Var_table.insert_superpage: VPN not aligned";
  let word = Pte.Superpage_pte.(encode (make ~size ~ppn ~attr ())) in
  if sz >= factor_bits then begin
    (* one 24-byte single node per covered block, as in Table *)
    let n_blocks = 1 lsl (sz - factor_bits) in
    let first_vpbn, _ = split vpn in
    for i = 0 to n_blocks - 1 do
      let vpbn = Int64.add first_vpbn (Int64.of_int i) in
      match
        find_node t vpbn ~pred:(fun n ->
            Array.length n.words = 1
            && Pte.Layout.read_s n.words.(0) = Pte.Layout.S_superpage)
      with
      | Some n -> n.words.(0) <- word
      | None ->
          let n = alloc_node t ~tag:vpbn ~off:0 ~len:1 in
          n.words.(0) <- word;
          link t (hash t vpbn) n
    done
  end
  else begin
    let vpbn, boff = split vpn in
    let covered = 1 lsl sz in
    (* if the superpage fits inside one quarter, a quarter node will do *)
    let qoff = boff land lnot (quarter - 1) in
    if covered <= quarter && boff + covered <= qoff + quarter then begin
      (match find_node t vpbn ~pred:is_full with
      | Some n ->
          for i = boff to boff + covered - 1 do
            n.words.(i) <- word
          done
      | None -> (
          match
            find_node t vpbn ~pred:(fun n -> is_quarter n && n.off = qoff)
          with
          | Some n ->
              for i = boff to boff + covered - 1 do
                n.words.(i - qoff) <- word
              done
          | None ->
              let n = alloc_node t ~tag:vpbn ~off:qoff ~len:quarter in
              for i = boff to boff + covered - 1 do
                n.words.(i - qoff) <- word
              done;
              link t (hash t vpbn) n))
    end
    else begin
      let full = promote_to_full t vpbn in
      for i = boff to boff + covered - 1 do
        full.words.(i) <- word
      done
    end
  end

let insert_psb t ~vpbn ~vmask ~ppn ~attr =
  if vmask land lnot ((1 lsl factor) - 1) <> 0 then
    invalid_arg "Var_table.insert_psb: vmask exceeds subblock factor";
  match
    find_node t vpbn ~pred:(fun n ->
        Array.length n.words = 1
        && Pte.Layout.read_s n.words.(0) = Pte.Layout.S_partial_subblock)
  with
  | Some n -> (
      match Pte.Word.decode n.words.(0) with
      | Pte.Word.Psb p when Int64.equal p.ppn ppn ->
          n.words.(0) <-
            Pte.Psb_pte.(encode (make ~vmask:(p.vmask lor vmask) ~ppn ~attr))
      | _ -> n.words.(0) <- Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr)))
  | None ->
      let n = alloc_node t ~tag:vpbn ~off:0 ~len:1 in
      n.words.(0) <- Pte.Psb_pte.(encode (make ~vmask ~ppn ~attr));
      link t (hash t vpbn) n

(* --- removal --- *)

let remove t ~vpn =
  let vpbn, boff = split vpn in
  let bucket = hash t vpbn in
  let rec go chain =
    match chain with
    | None -> None
    | Some n ->
        if not (Int64.equal n.tag vpbn) then begin
          n.next <- go n.next;
          Some n
        end
        else if Array.length n.words = 1 then begin
          match Pte.Word.decode n.words.(0) with
          | Pte.Word.Psb p when Pte.Psb_pte.valid_at p ~boff ->
              let p = Pte.Psb_pte.clear_valid p ~boff in
              if p.Pte.Psb_pte.vmask = 0 then begin
                release_node t n;
                n.next
              end
              else begin
                n.words.(0) <- Pte.Psb_pte.encode p;
                Some n
              end
          | Pte.Word.Superpage sp when sp.valid ->
              release_node t n;
              n.next
          | Pte.Word.Psb _ | Pte.Word.Superpage _ | Pte.Word.Base _ ->
              n.next <- go n.next;
              Some n
        end
        else if covers n boff then begin
          let idx = boff - n.off in
          match Pte.Word.decode n.words.(idx) with
          | Pte.Word.Base b when b.valid ->
              n.words.(idx) <- invalid_word;
              if node_empty n then begin
                release_node t n;
                n.next
              end
              else Some n
          | Pte.Word.Superpage sp when sp.valid ->
              (* clear every replica of the small superpage *)
              let covered = 1 lsl Addr.Page_size.sz_code sp.size in
              let first = boff land lnot (covered - 1) in
              for i = first to first + covered - 1 do
                if covers n i then n.words.(i - n.off) <- invalid_word
              done;
              if node_empty n then begin
                release_node t n;
                n.next
              end
              else Some n
          | Pte.Word.Base _ | Pte.Word.Superpage _ | Pte.Word.Psb _ ->
              n.next <- go n.next;
              Some n
        end
        else begin
          n.next <- go n.next;
          Some n
        end
  in
  t.buckets.(bucket) <- go t.buckets.(bucket)

(* --- range attribute updates --- *)

let set_attr_range t region ~f =
  if Addr.Region.is_empty region then 0
  else begin
    let blocks = Addr.Region.blocks ~subblock_factor:factor region in
    let searches = ref 0 in
    List.iter
      (fun (vpbn, first_boff, count) ->
        incr searches;
        let rec go = function
          | None -> ()
          | Some n ->
              (if Int64.equal n.tag vpbn then
                 if Array.length n.words = 1 then (
                   match Pt_common.Decode.reencode_attr n.words.(0) ~f with
                   | Some w -> n.words.(0) <- w
                   | None -> ())
                 else
                   for boff = first_boff to first_boff + count - 1 do
                     if covers n boff then
                       match Pt_common.Decode.reencode_attr n.words.(boff - n.off) ~f with
                       | Some w -> n.words.(boff - n.off) <- w
                       | None -> ()
                   done);
              go n.next
        in
        go t.buckets.(hash t vpbn))
      blocks;
    !searches
  end

(* --- accounting --- *)

let size_bytes t = t.logical_bytes

let iter_nodes t f =
  Array.iter
    (fun chain ->
      let rec go = function
        | None -> ()
        | Some n ->
            f n;
            go n.next
      in
      go chain)
    t.buckets

let population t =
  let count = ref 0 in
  iter_nodes t (fun n ->
      if Array.length n.words = 1 then
        match Pte.Word.decode n.words.(0) with
        | Pte.Word.Psb p ->
            count :=
              !count
              + Addr.Bits.popcount (Int64.of_int (p.vmask land ((1 lsl factor) - 1)))
        | Pte.Word.Superpage sp -> if sp.valid then count := !count + factor
        | Pte.Word.Base _ -> ()
      else
        Array.iter
          (fun w ->
            if Pte.Word.is_valid (Pte.Word.decode w) then incr count)
          n.words);
  !count

let clear t =
  let to_free = ref [] in
  iter_nodes t (fun n -> to_free := n :: !to_free);
  List.iter (release_node t) !to_free;
  Array.fill t.buckets 0 (Array.length t.buckets) None

let node_count t = t.nodes

let quarter_nodes t =
  let c = ref 0 in
  iter_nodes t (fun n -> if is_quarter n then incr c);
  !c

let full_nodes t =
  let c = ref 0 in
  iter_nodes t (fun n -> if is_full n then incr c);
  !c
