(* The TLB-miss path: TLB probe, table walk, fill and line count.

   These tests pin the allocation-free representation against reference
   models of the representation it replaced: the option-array TLB store
   with its two-scan TLBs, and the decode-every-word translation of a
   tag-matched node. *)

module Types = Pt_common.Types
module T = Clustered_pt.Table
module H = Baselines.Hashed_pt

(* ------------------------------------------------------------------ *)
(* Reference TLBs: an option-array store scanned once to find an entry
   and again to refresh it, and the four TLB designs over it. *)

module Ref_assoc = struct
  type policy = Tlb.Assoc.policy

  type 'e t = {
    slots : 'e option array;
    stamps : int array;
    policy : policy;
    mutable rng : int64;
    mutable clock : int;
  }

  let create ~policy ~entries =
    let rng = match policy with Tlb.Assoc.Random seed -> seed | _ -> 0L in
    {
      slots = Array.make entries None;
      stamps = Array.make entries 0;
      policy;
      rng;
      clock = 0;
    }

  let next_random t =
    t.rng <- Int64.add t.rng 0x9E3779B97F4A7C15L;
    Addr.Bits.mix64 t.rng

  let find t ~f =
    let n = Array.length t.slots in
    let rec go i =
      if i >= n then None
      else
        match t.slots.(i) with
        | Some e when f e -> Some e
        | Some _ | None -> go (i + 1)
    in
    go 0

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let touch t ~f =
    if t.policy = Tlb.Assoc.Lru then begin
      let n = Array.length t.slots in
      let rec go i =
        if i < n then
          match t.slots.(i) with
          | Some e when f e -> t.stamps.(i) <- tick t
          | Some _ | None -> go (i + 1)
      in
      go 0
    end

  let insert t e =
    let n = Array.length t.slots in
    let free = ref None and victim = ref 0 in
    for i = n - 1 downto 0 do
      if t.slots.(i) = None then free := Some i
      else if t.stamps.(i) < t.stamps.(!victim) || t.slots.(!victim) = None
      then victim := i
    done;
    (match t.policy with
    | Tlb.Assoc.Lru | Tlb.Assoc.Fifo -> ()
    | Tlb.Assoc.Random _ ->
        if !free = None then
          victim :=
            Int64.to_int
              (Int64.rem
                 (Int64.shift_right_logical (next_random t) 3)
                 (Int64.of_int n)));
    match !free with
    | Some i ->
        t.slots.(i) <- Some e;
        t.stamps.(i) <- tick t;
        None
    | None ->
        let old = t.slots.(!victim) in
        t.slots.(!victim) <- Some e;
        t.stamps.(!victim) <- tick t;
        old

  let flush t =
    Array.fill t.slots 0 (Array.length t.slots) None;
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    t.clock <- 0
end

let factor = 16

let factor_bits = 4

let split vpn =
  ( Int64.shift_right_logical vpn factor_bits,
    Int64.to_int (Int64.logand vpn (Int64.of_int (factor - 1))) )

let count_evicted (stats : Tlb.Stats.t) = function
  | Some _ -> stats.Tlb.Stats.evictions <- stats.Tlb.Stats.evictions + 1
  | None -> ()

let hit (stats : Tlb.Stats.t) ~sp =
  stats.Tlb.Stats.hits <- stats.Tlb.Stats.hits + 1;
  if sp then stats.Tlb.Stats.sp_hits <- stats.Tlb.Stats.sp_hits + 1
  else stats.Tlb.Stats.base_hits <- stats.Tlb.Stats.base_hits + 1;
  `Hit

let block_miss (stats : Tlb.Stats.t) =
  stats.Tlb.Stats.block_misses <- stats.Tlb.Stats.block_misses + 1;
  `Block_miss

module Ref_fa = struct
  type entry = { vpn : int64 }

  type t = { store : entry Ref_assoc.t; stats : Tlb.Stats.t }

  let create ~policy ~entries =
    { store = Ref_assoc.create ~policy ~entries; stats = Tlb.Stats.create () }

  let access t ~vpn =
    t.stats.Tlb.Stats.accesses <- t.stats.Tlb.Stats.accesses + 1;
    let matches e = Int64.equal e.vpn vpn in
    match Ref_assoc.find t.store ~f:matches with
    | Some _ ->
        Ref_assoc.touch t.store ~f:matches;
        hit t.stats ~sp:false
    | None -> block_miss t.stats

  let fill t (tr : Types.translation) =
    count_evicted t.stats (Ref_assoc.insert t.store { vpn = tr.vpn })
end

module Ref_sp = struct
  type entry = { vpn_base : int64; pages : int }

  type t = { store : entry Ref_assoc.t; stats : Tlb.Stats.t }

  let create ~policy ~entries =
    { store = Ref_assoc.create ~policy ~entries; stats = Tlb.Stats.create () }

  let covers e vpn =
    Int64.unsigned_compare vpn e.vpn_base >= 0
    && Int64.unsigned_compare vpn
         (Int64.add e.vpn_base (Int64.of_int e.pages))
       < 0

  let access t ~vpn =
    t.stats.Tlb.Stats.accesses <- t.stats.Tlb.Stats.accesses + 1;
    let matches e = covers e vpn in
    match Ref_assoc.find t.store ~f:matches with
    | Some e ->
        Ref_assoc.touch t.store ~f:matches;
        hit t.stats ~sp:(e.pages > 1)
    | None -> block_miss t.stats

  let fill t (tr : Types.translation) =
    let e =
      match tr.kind with
      | Types.Superpage size ->
          { vpn_base = tr.vpn_base; pages = Addr.Page_size.base_pages size }
      | Types.Base | Types.Partial_subblock _ ->
          { vpn_base = tr.vpn; pages = 1 }
    in
    count_evicted t.stats (Ref_assoc.insert t.store e)
end

(* subblock TLBs: a block's entry with its valid and superpage masks *)
type sb_entry = {
  vpbn : int64;
  mutable vmask : int;
  mutable sp_mask : int;
  ppn_base : int64;
}

let sb_access store stats ~vpn =
  stats.Tlb.Stats.accesses <- stats.Tlb.Stats.accesses + 1;
  let vpbn, boff = split vpn in
  let covers e = Int64.equal e.vpbn vpbn && e.vmask land (1 lsl boff) <> 0 in
  match Ref_assoc.find store ~f:covers with
  | Some e ->
      Ref_assoc.touch store ~f:covers;
      hit stats ~sp:(e.sp_mask land (1 lsl boff) <> 0)
  | None ->
      if Ref_assoc.find store ~f:(fun e -> Int64.equal e.vpbn vpbn) <> None
      then begin
        stats.Tlb.Stats.subblock_misses <- stats.Tlb.Stats.subblock_misses + 1;
        `Subblock_miss
      end
      else block_miss stats

let set_bits e ~sp vmask =
  e.vmask <- e.vmask lor vmask;
  if sp then e.sp_mask <- e.sp_mask lor vmask
  else e.sp_mask <- e.sp_mask land lnot vmask

module Ref_psb = struct
  type t = { store : sb_entry Ref_assoc.t; stats : Tlb.Stats.t }

  let create ~policy ~entries =
    { store = Ref_assoc.create ~policy ~entries; stats = Tlb.Stats.create () }

  let access t ~vpn = sb_access t.store t.stats ~vpn

  let fill_bits t ~sp ~vpbn ~vmask ~ppn_base =
    let compatible e =
      Int64.equal e.vpbn vpbn && Int64.equal e.ppn_base ppn_base
    in
    match Ref_assoc.find t.store ~f:compatible with
    | Some e ->
        set_bits e ~sp vmask;
        Ref_assoc.touch t.store ~f:compatible
    | None ->
        count_evicted t.stats
          (Ref_assoc.insert t.store
             { vpbn; vmask; sp_mask = (if sp then vmask else 0); ppn_base })

  let fill t (tr : Types.translation) =
    let vpbn, boff = split tr.vpn in
    match tr.kind with
    | Types.Partial_subblock vmask ->
        fill_bits t ~sp:false ~vpbn ~vmask ~ppn_base:tr.ppn_base
    | Types.Base ->
        fill_bits t ~sp:false ~vpbn ~vmask:(1 lsl boff)
          ~ppn_base:(Int64.sub tr.ppn (Int64.of_int boff))
    | Types.Superpage size ->
        let pages = Addr.Page_size.base_pages size in
        if pages >= factor then
          let block_base_vpn = Int64.shift_left vpbn factor_bits in
          fill_bits t ~sp:true ~vpbn
            ~vmask:((1 lsl factor) - 1)
            ~ppn_base:
              (Int64.add tr.ppn_base (Int64.sub block_base_vpn tr.vpn_base))
        else
          let _, first_boff = split tr.vpn_base in
          fill_bits t ~sp:true ~vpbn
            ~vmask:(((1 lsl pages) - 1) lsl first_boff)
            ~ppn_base:(Int64.sub tr.ppn_base (Int64.of_int first_boff))
end

module Ref_csb = struct
  type t = { store : sb_entry Ref_assoc.t; stats : Tlb.Stats.t }

  let create ~policy ~entries =
    { store = Ref_assoc.create ~policy ~entries; stats = Tlb.Stats.create () }

  let access t ~vpn = sb_access t.store t.stats ~vpn

  let entry t vpbn =
    let same e = Int64.equal e.vpbn vpbn in
    match Ref_assoc.find t.store ~f:same with
    | Some e ->
        Ref_assoc.touch t.store ~f:same;
        e
    | None ->
        let e = { vpbn; vmask = 0; sp_mask = 0; ppn_base = 0L } in
        count_evicted t.stats (Ref_assoc.insert t.store e);
        e

  (* the block offsets of [vpbn] that [tr] maps *)
  let offsets vpbn (tr : Types.translation) =
    match tr.kind with
    | Types.Base -> 1 lsl snd (split tr.vpn)
    | Types.Partial_subblock vmask -> vmask land ((1 lsl factor) - 1)
    | Types.Superpage size ->
        let pages = Int64.of_int (Addr.Page_size.base_pages size) in
        let block_base = Int64.shift_left vpbn factor_bits in
        let m = ref 0 in
        for i = 0 to factor - 1 do
          let off =
            Int64.sub (Int64.add block_base (Int64.of_int i)) tr.vpn_base
          in
          if Int64.compare off 0L >= 0 && Int64.compare off pages < 0 then
            m := !m lor (1 lsl i)
        done;
        !m

  let is_sp (tr : Types.translation) =
    match tr.kind with Types.Superpage _ -> true | _ -> false

  let fill t (tr : Types.translation) =
    let vpbn, _ = split tr.vpn in
    set_bits (entry t vpbn) ~sp:(is_sp tr) (offsets vpbn tr)

  let fill_block t trs =
    match trs with
    | [] -> ()
    | (_, (tr0 : Types.translation)) :: _ ->
        let e = entry t (fst (split tr0.vpn)) in
        List.iter
          (fun (boff, tr) -> set_bits e ~sp:(is_sp tr) (1 lsl boff))
          trs
end

(* ------------------------------------------------------------------ *)
(* random op streams over 64 VPNs (four page blocks), so entries are
   hit, refreshed and evicted *)

type op =
  | Access of int64
  | Fill of Types.translation
  | Fill_block of (int * Types.translation) list
  | Flush

let attr = Pte.Attr.default

let gen_translation =
  let open QCheck.Gen in
  let* vpn = map Int64.of_int (int_bound 63) in
  let* ppn = map Int64.of_int (int_bound 4095) in
  frequency
    [
      (4, return (Types.base_translation ~vpn ~ppn ~attr));
      ( 2,
        let* size =
          oneofl Addr.Page_size.[ kb16; kb64; kb256 ]
        in
        let sz = Addr.Page_size.sz_code size in
        let vpn_base = Addr.Bits.align_down vpn sz
        and ppn_base = Addr.Bits.align_down ppn sz in
        return
          {
            Types.vpn;
            ppn = Int64.add ppn_base (Int64.sub vpn vpn_base);
            vpn_base;
            ppn_base;
            kind = Types.Superpage size;
            attr;
          } );
      ( 2,
        let* bits = int_bound 0xFFFF in
        let vpbn, boff = split vpn in
        let vmask = bits lor (1 lsl boff) in
        let ppn_base = Addr.Bits.align_down ppn factor_bits in
        return
          {
            Types.vpn;
            ppn = Int64.add ppn_base (Int64.of_int boff);
            vpn_base = Int64.shift_left vpbn factor_bits;
            ppn_base;
            kind = Types.Partial_subblock vmask;
            attr;
          } );
    ]

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun v -> Access (Int64.of_int v)) (int_bound 63));
      (3, map (fun tr -> Fill tr) gen_translation);
      ( 1,
        let* block = int_bound 3 and* bits = int_range 1 0xFFFF
        and* ppn = int_bound 255 in
        let trs = ref [] in
        for i = factor - 1 downto 0 do
          if bits land (1 lsl i) <> 0 then
            let vpn = Int64.of_int ((block * factor) + i) in
            let ppn = Int64.of_int (ppn + i) in
            trs := (i, Types.base_translation ~vpn ~ppn ~attr) :: !trs
        done;
        return (Fill_block !trs) );
      (1, return Flush);
    ]

let gen_case =
  let open QCheck.Gen in
  let* policy =
    oneof
      [
        return Tlb.Assoc.Lru;
        return Tlb.Assoc.Fifo;
        map (fun s -> Tlb.Assoc.Random (Int64.of_int s)) nat;
      ]
  and* entries = int_range 1 8
  and* ops = list_size (int_range 1 300) gen_op in
  return (policy, entries, ops)

let print_case (policy, entries, ops) =
  Printf.sprintf "%s entries=%d ops=%d"
    (match policy with
    | Tlb.Assoc.Lru -> "lru"
    | Tlb.Assoc.Fifo -> "fifo"
    | Tlb.Assoc.Random s -> Printf.sprintf "random %Ld" s)
    entries (List.length ops)

let stats_tuple (s : Tlb.Stats.t) =
  Tlb.Stats.
    ( s.accesses,
      s.hits,
      s.base_hits,
      s.sp_hits,
      s.block_misses,
      s.subblock_misses,
      s.evictions )

(* Run one op stream through a TLB and its reference; every access
   result and, after every op, the whole [Stats] must agree (so the
   eviction sequences agree too). *)
let equivalent (type a) (module M : Tlb.Intf.TLB with type t = a) (tlb : a)
    ~ref_access ~ref_fill ~ref_fill_block ~ref_flush ~ref_stats ops =
  List.for_all
    (fun op ->
      let same_result =
        match op with
        | Access vpn -> M.access tlb ~vpn = ref_access vpn
        | Fill tr ->
            M.fill tlb tr;
            ref_fill tr;
            true
        | Fill_block trs ->
            M.fill_block tlb trs;
            ref_fill_block trs;
            true
        | Flush ->
            M.flush tlb;
            ref_flush ();
            true
      in
      same_result && stats_tuple (M.stats tlb) = stats_tuple (ref_stats ()))
    ops

let prop_tlb_equivalence =
  QCheck.Test.make ~name:"TLBs replace exactly like the option-array store"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (policy, entries, ops) ->
      let fa =
        let r = Ref_fa.create ~policy ~entries in
        equivalent
          (module Tlb.Fa_tlb)
          (Tlb.Fa_tlb.create ~policy ~entries ())
          ~ref_access:(fun vpn -> Ref_fa.access r ~vpn)
          ~ref_fill:(Ref_fa.fill r)
          ~ref_fill_block:(List.iter (fun (_, tr) -> Ref_fa.fill r tr))
          ~ref_flush:(fun () -> Ref_assoc.flush r.Ref_fa.store)
          ~ref_stats:(fun () -> r.Ref_fa.stats)
          ops
      and sp =
        let r = Ref_sp.create ~policy ~entries in
        equivalent
          (module Tlb.Superpage_tlb)
          (Tlb.Superpage_tlb.create ~policy ~entries ())
          ~ref_access:(fun vpn -> Ref_sp.access r ~vpn)
          ~ref_fill:(Ref_sp.fill r)
          ~ref_fill_block:(List.iter (fun (_, tr) -> Ref_sp.fill r tr))
          ~ref_flush:(fun () -> Ref_assoc.flush r.Ref_sp.store)
          ~ref_stats:(fun () -> r.Ref_sp.stats)
          ops
      and psb =
        let r = Ref_psb.create ~policy ~entries in
        equivalent
          (module Tlb.Psb_tlb)
          (Tlb.Psb_tlb.create ~policy ~entries ())
          ~ref_access:(fun vpn -> Ref_psb.access r ~vpn)
          ~ref_fill:(Ref_psb.fill r)
          ~ref_fill_block:(List.iter (fun (_, tr) -> Ref_psb.fill r tr))
          ~ref_flush:(fun () -> Ref_assoc.flush r.Ref_psb.store)
          ~ref_stats:(fun () -> r.Ref_psb.stats)
          ops
      and csb =
        let r = Ref_csb.create ~policy ~entries in
        equivalent
          (module Tlb.Csb_tlb)
          (Tlb.Csb_tlb.create ~policy ~entries ())
          ~ref_access:(fun vpn -> Ref_csb.access r ~vpn)
          ~ref_fill:(Ref_csb.fill r)
          ~ref_fill_block:(Ref_csb.fill_block r)
          ~ref_flush:(fun () -> Ref_assoc.flush r.Ref_csb.store)
          ~ref_stats:(fun () -> r.Ref_csb.stats)
          ops
      in
      fa && sp && psb && csb)

(* ------------------------------------------------------------------ *)
(* Fast path = decode *)

let test_attr_table () =
  (* the shared table against a field-by-field decode of every value *)
  for bits = 0 to (1 lsl Pte.Attr.width) - 1 do
    let w = Int64.of_int bits in
    let b i = Addr.Bits.test_bit w i in
    let expected =
      {
        Pte.Attr.referenced = b 0;
        modified = b 1;
        writable = b 2;
        executable = b 3;
        user = b 4;
        cacheable = b 5;
        global = b 6;
        locked = b 7;
        soft = Int64.to_int (Addr.Bits.extract w ~lo:8 ~width:4);
      }
    in
    if Pte.Attr.of_bits w <> expected then
      Alcotest.failf "Attr.of_bits 0x%03x" bits;
    (* high bits of the word do not leak into the field *)
    if Pte.Attr.of_bits (Int64.logor w 0xFFFF_F000_0000_0000L) <> expected then
      Alcotest.failf "Attr.of_bits 0x%03x with high bits" bits;
    if Pte.Attr.to_bits expected <> w then
      Alcotest.failf "Attr.to_bits 0x%03x" bits
  done

(* an arbitrary word with a chosen S code and SZ field *)
let gen_word =
  let open QCheck.Gen in
  let* r = ui64
  and* s =
    frequency [ (3, return 0); (3, return 1); (3, return 2); (1, return 3) ]
  and* sz = int_bound 15 in
  let clear_field w lo width =
    Int64.logand w (Int64.lognot (Int64.shift_left (Addr.Bits.mask width) lo))
  in
  let w = clear_field (clear_field r Pte.Layout.s_lo 2) Pte.Layout.sz_lo 4 in
  return
    (Int64.logor w
       (Int64.logor
          (Int64.shift_left (Int64.of_int s) Pte.Layout.s_lo)
          (Int64.shift_left (Int64.of_int sz) Pte.Layout.sz_lo)))

let gen_vpn = QCheck.Gen.(map Int64.of_int (int_bound ((1 lsl 36) - 1)))

(* the translation a decode of every word gives *)
let decoded_sp ~vpn (sp : Pte.Superpage_pte.t) =
  let vpn_base = Addr.Bits.align_down vpn (Addr.Page_size.sz_code sp.size) in
  {
    Types.vpn;
    ppn = Int64.add sp.ppn (Int64.sub vpn vpn_base);
    vpn_base;
    ppn_base = sp.ppn;
    kind = Types.Superpage sp.size;
    attr = sp.attr;
  }

let decoded_psb ~vpn (p : Pte.Psb_pte.t) =
  let vpbn, boff = split vpn in
  if Pte.Psb_pte.valid_at p ~boff then
    Some
      {
        Types.vpn;
        ppn = Pte.Psb_pte.ppn_for p ~boff;
        vpn_base = Int64.shift_left vpbn factor_bits;
        ppn_base = p.ppn;
        kind = Types.Partial_subblock (p.vmask land ((1 lsl factor) - 1));
        attr = p.attr;
      }
  else None

(* A clustered node for [vpn]'s block holding [words] (factor 16, 4 KB
   units): word 0 decides single or block, a block node's Boff word
   maps the page. *)
let decoded_clustered ~vpn words =
  let _, boff = split vpn in
  match Pte.Word.decode words.(0) with
  | Pte.Word.Psb p -> decoded_psb ~vpn p
  | Pte.Word.Superpage sp when Addr.Page_size.sz_code sp.size >= factor_bits
    ->
      if sp.valid then Some (decoded_sp ~vpn sp) else None
  | Pte.Word.Superpage _ | Pte.Word.Base _ -> (
      match Pte.Word.decode words.(boff) with
      | Pte.Word.Base b when b.valid ->
          Some (Types.base_translation ~vpn ~ppn:b.ppn ~attr:b.attr)
      | Pte.Word.Superpage sp when sp.valid -> Some (decoded_sp ~vpn sp)
      | Pte.Word.Base _ | Pte.Word.Superpage _ | Pte.Word.Psb _ -> None)

let decoded_hashed ~vpn word =
  match Pte.Word.decode word with
  | Pte.Word.Base b when b.valid ->
      Some (Types.base_translation ~vpn ~ppn:b.ppn ~attr:b.attr)
  | Pte.Word.Superpage sp when sp.valid -> Some (decoded_sp ~vpn sp)
  | Pte.Word.Psb p -> decoded_psb ~vpn p
  | Pte.Word.Base _ | Pte.Word.Superpage _ -> None

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let s_code w = Int64.to_int (Int64.shift_right_logical w Pte.Layout.s_lo) land 3

let clustered_walk ~vpn words =
  let t = T.create Clustered_pt.Config.default in
  let vpbn, _ = split vpn in
  (* the table takes ownership of restored words: hand it a copy, the
     callers reuse [words] *)
  T.restore_bucket t ~bucket:(T.bucket_of t ~vpn)
    [ (Int64.to_int vpbn, Array.copy words) ];
  outcome (fun () -> T.lookup_into t (Mem.Walk_acc.create ()) ~vpn)

let prop_clustered_fast_path =
  QCheck.Test.make ~name:"clustered lookup = decode of every word" ~count:2000
    (QCheck.make
       ~print:(fun (vpn, words) ->
         Printf.sprintf "vpn=%Lx words=[%s]" vpn
           (String.concat ";"
              (Array.to_list (Array.map (Printf.sprintf "%Lx") words))))
       QCheck.Gen.(
         pair gen_vpn
           (frequency
              [
                (3, array_repeat factor gen_word);
                (1, map (fun w -> [| w |]) gen_word);
              ])))
    (fun (vpn, words) ->
      let got = clustered_walk ~vpn words in
      got = outcome (fun () -> decoded_clustered ~vpn words)
      (* an invalid S code in the word that classifies the node still
         raises *)
      && (s_code words.(0) <> 3 || got = Error ()))

let prop_hashed_fast_path =
  QCheck.Test.make ~name:"hashed lookup = decode of the word" ~count:2000
    (QCheck.make
       ~print:(fun (vpn, w) -> Printf.sprintf "vpn=%Lx word=%Lx" vpn w)
       QCheck.Gen.(pair gen_vpn gen_word))
    (fun (vpn, word) ->
      let t = H.create ~buckets:64 () in
      H.restore_bucket t ~bucket:(H.bucket_of t ~vpn)
        [ (Int64.to_int vpn, [| word |]) ];
      let got =
        outcome (fun () -> H.lookup_into t (Mem.Walk_acc.create ()) ~vpn)
      in
      got = outcome (fun () -> decoded_hashed ~vpn word)
      && (s_code word <> 3 || got = Error ()))

let test_invalid_s_raises () =
  let bad = Int64.shift_left 3L Pte.Layout.s_lo in
  let valid_base =
    Pte.Base_pte.(encode (make ~ppn:0x42L ~attr:Pte.Attr.default ()))
  in
  let vpn = 0x1235L in
  let words = Array.make factor valid_base in
  words.(5) <- bad;
  Alcotest.(check bool) "bad Boff word of a block node" true
    (clustered_walk ~vpn words = Error ());
  Alcotest.(check bool) "base word beside it still translates" true
    (Result.is_ok (clustered_walk ~vpn:0x1234L words));
  Alcotest.(check bool) "bad single word" true
    (clustered_walk ~vpn [| bad |] = Error ());
  let t = H.create () in
  H.restore_bucket t
    ~bucket:(H.bucket_of t ~vpn)
    [ (Int64.to_int vpn, [| bad |]) ];
  Alcotest.check_raises "bad hashed word"
    (Invalid_argument "Layout.s_class_of_code") (fun () ->
      ignore (H.lookup_into t (Mem.Walk_acc.create ()) ~vpn))

(* ------------------------------------------------------------------ *)
(* Allocation bounds *)

let calls = 10_000

(* minor-heap words per call of [f] over [calls] calls *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let check_words name ~max words =
  if words > max then
    Alcotest.failf "%s: %.2f words per call, bound %.0f" name words max

let test_allocation_bounds () =
  let acc = Mem.Walk_acc.create () in
  let addr = 0x1000_0040L in
  check_words "Walk_acc.read" ~max:0.01
    (words_per_call (fun () ->
         if Mem.Walk_acc.count acc = 64 then Mem.Walk_acc.reset acc;
         Mem.Walk_acc.read acc ~addr ~bytes:16));
  let tlb = Tlb.Fa_tlb.create () in
  for i = 0 to 63 do
    let vpn = Int64.of_int i in
    Tlb.Fa_tlb.fill tlb (Types.base_translation ~vpn ~ppn:vpn ~attr)
  done;
  let vpn = 63L in
  check_words "fa-TLB hit" ~max:0.01
    (words_per_call (fun () -> ignore (Tlb.Fa_tlb.access tlb ~vpn)));
  let t = T.create Clustered_pt.Config.default in
  let miss = 0x77_0000L in
  check_words "clustered miss on an empty bucket" ~max:0.01
    (words_per_call (fun () ->
         Mem.Walk_acc.reset acc;
         ignore (T.lookup_into t acc ~vpn:miss)));
  let vpn = 0x4_2345L in
  T.insert_base t ~vpn ~ppn:0x99L ~attr;
  (* the returned translation: record, boxed PPN and [Some] *)
  check_words "clustered hit" ~max:16.
    (words_per_call (fun () ->
         Mem.Walk_acc.reset acc;
         ignore (T.lookup_into t acc ~vpn)))

let test_walk_acc_roundtrip () =
  (* up to the linear page table's virtual array, ~2^60 *)
  let top = Int64.shift_left 0xFF00_0000_0000L 12 in
  let addrs =
    [
      0L;
      1L;
      0x1000_0000L;
      0xFFFF_FFFFL;
      Int64.pred top;
      top;
      Int64.add top 0xFFF_FFFFL;
    ]
  in
  let acc = Mem.Walk_acc.create ~capacity:2 () in
  List.iteri
    (fun i addr -> Mem.Walk_acc.read acc ~addr ~bytes:(8 * (i + 1)))
    addrs;
  Alcotest.(check int) "count" (List.length addrs) (Mem.Walk_acc.count acc);
  List.iteri
    (fun i addr ->
      Alcotest.(check int64) "addr" addr (Mem.Walk_acc.addr acc i);
      Alcotest.(check int) "bytes" (8 * (i + 1)) (Mem.Walk_acc.bytes acc i))
    addrs;
  let seen = ref [] in
  Mem.Walk_acc.iter acc (fun a _ -> seen := a :: !seen);
  Alcotest.(check (list int64)) "iter" addrs (List.rev !seen);
  Alcotest.check_raises "negative address"
    (Invalid_argument "Walk_acc.read: address") (fun () ->
      Mem.Walk_acc.read acc ~addr:(-16L) ~bytes:8);
  Alcotest.check_raises "read past count"
    (Invalid_argument "Walk_acc: read index") (fun () ->
      ignore (Mem.Walk_acc.addr acc (List.length addrs)))

let suite =
  ( "miss-path",
    [
      QCheck_alcotest.to_alcotest prop_tlb_equivalence;
      Alcotest.test_case "attr table = field decode" `Quick test_attr_table;
      QCheck_alcotest.to_alcotest prop_clustered_fast_path;
      QCheck_alcotest.to_alcotest prop_hashed_fast_path;
      Alcotest.test_case "invalid S code raises" `Quick test_invalid_s_raises;
      Alcotest.test_case "allocation bounds" `Quick test_allocation_bounds;
      Alcotest.test_case "walk accumulator round trip" `Quick
        test_walk_acc_roundtrip;
    ] )
