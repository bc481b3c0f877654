(* Runs against the page-by-page loops they replace.

   A run is a span of pages inside one page block: the service hands
   each one to [map_run], [unmap_run] or [set_attr_range] under one
   write section.  Two tables get the same seed mappings; one then takes
   each random operation as a run, the other page by page ([insert_base],
   [remove], one-page [set_attr_range]).  After every step the two must
   agree on their mappings and their shape, both must check clean, and
   the run table must match a model of the per-page semantics: removing
   one page of a superpage removes the whole superpage, protecting one
   page of a superpage or partial-subblock PTE re-protects the PTE.
   The model is what catches a fault shared by both paths, such as a
   walk that stops at the first node with the block's tag.

   The tables have four buckets, so every chain mixes several blocks,
   and a clustered block may hold a block node, a partial-subblock node
   and small superpages at once, or one block-sized superpage. *)

module Types = Pt_common.Types

let factor = 16

let blocks = 6

(* spread so that the four buckets chain several blocks each *)
let block_vpn k = Int64.of_int ((5 + (3 * k)) * factor)

let vpn_of k off = Int64.add (block_vpn k) (Int64.of_int off)

(* every mapping, whatever its format, puts page [vpn] at this frame:
   0x5000 is aligned to the block, so superpage and psb frames line up *)
let ppn_of vpn = Int64.add vpn 0x5000L

let attr_w writable = { Pte.Attr.default with writable }

(* --- the model: page -> (PTE kind, first page of the PTE, writable) --- *)

(* the pages sharing [off]'s PTE: a superpage's, or every valid page of
   a psb PTE *)
type kind = Base | Psb | Sp of int (* pages *)

let model_span model k off =
  match Hashtbl.find_opt model (vpn_of k off) with
  | Some (Sp pages, base, _) ->
      List.init pages (fun i -> Int64.add base (Int64.of_int i))
  | Some (Psb, _, _) ->
      List.filter_map
        (fun o ->
          match Hashtbl.find_opt model (vpn_of k o) with
          | Some (Psb, _, _) -> Some (vpn_of k o)
          | _ -> None)
        (List.init factor Fun.id)
  | Some (Base, _, _) -> [ vpn_of k off ]
  | None -> []

type op =
  | Map of int * int * int * bool  (* block, first offset, pages, writable *)
  | Unmap of int * int * int
  | Protect of int * int * int * bool

let pp_op = function
  | Map (k, lo, n, w) -> Printf.sprintf "map b%d+%d x%d w=%b" k lo n w
  | Unmap (k, lo, n) -> Printf.sprintf "unmap b%d+%d x%d" k lo n
  | Protect (k, lo, n, w) -> Printf.sprintf "protect b%d+%d x%d w=%b" k lo n w

(* one run in four is a whole block, which empties every node of the
   block in one walk *)
let random_op rng =
  let k = Random.State.int rng blocks in
  let lo, n =
    if Random.State.int rng 4 = 0 then (0, factor)
    else
      let lo = Random.State.int rng factor in
      (lo, 1 + Random.State.int rng (factor - lo))
  in
  let w = Random.State.bool rng in
  match Random.State.int rng 3 with
  | 0 -> Map (k, lo, n, w)
  | 1 -> Unmap (k, lo, n)
  | _ -> Protect (k, lo, n, w)

let apply_model model = function
  | Map (k, lo, n, w) ->
      for off = lo to lo + n - 1 do
        Hashtbl.replace model (vpn_of k off) (Base, vpn_of k off, w)
      done
  | Unmap (k, lo, n) ->
      for off = lo to lo + n - 1 do
        match Hashtbl.find_opt model (vpn_of k off) with
        | Some (Psb, _, _) -> Hashtbl.remove model (vpn_of k off)
        | _ -> List.iter (Hashtbl.remove model) (model_span model k off)
      done
  | Protect (k, lo, n, w) ->
      let set v =
        let kind, base, _ = Hashtbl.find model v in
        Hashtbl.replace model v (kind, base, w)
      in
      for off = lo to lo + n - 1 do
        List.iter set (model_span model k off)
      done;
      (* a block's psb PTE is one word its search re-protects, whichever
         of the block's pages the range holds *)
      for off = 0 to factor - 1 do
        match Hashtbl.find_opt model (vpn_of k off) with
        | Some (Psb, _, _) -> set (vpn_of k off)
        | _ -> ()
      done

(* a map over a page some superpage or psb PTE maps would overlap two
   representations, which no caller does: such ops are skipped *)
let map_allowed model = function
  | Map (k, lo, n, _) ->
      List.for_all
        (fun off ->
          match Hashtbl.find_opt model (vpn_of k off) with
          | Some ((Psb | Sp _), _, _) -> false
          | Some (Base, _, _) | None -> true)
        (List.init n (fun i -> lo + i))
  | Unmap _ | Protect _ -> true

let show kind base w = Printf.sprintf "%s at 0x%Lx, writable %b" kind base w

let show_entry = function
  | None -> "unmapped"
  | Some (kind, base, w) ->
      let kind =
        match kind with
        | Base -> "base"
        | Psb -> "psb"
        | Sp n -> Printf.sprintf "sp%d" n
      in
      show kind base w

let show_translation = function
  | None -> "unmapped"
  | Some (tr : Types.translation) ->
      let kind =
        match tr.kind with
        | Types.Base -> "base"
        | Types.Partial_subblock _ -> "psb"
        | Types.Superpage sz ->
            Printf.sprintf "sp%d" (Addr.Page_size.base_pages sz)
      in
      show kind tr.vpn_base tr.attr.Pte.Attr.writable

(* --- seeding: the same mappings into both tables and the model --- *)

type seed_pte =
  | S_base of int64
  | S_psb of int * int  (* block, vmask *)
  | S_sp of int64 * int  (* first page, pages *)

let random_subset rng ~excluding =
  let m = ref 0 in
  for i = 0 to factor - 1 do
    if excluding land (1 lsl i) = 0 && Random.State.bool rng then
      m := !m lor (1 lsl i)
  done;
  !m

let bases_of k mask =
  List.filter_map
    (fun i ->
      if mask land (1 lsl i) <> 0 then Some (S_base (vpn_of k i)) else None)
    (List.init factor Fun.id)

(* One block's PTEs: base pages only, base pages beside a psb node,
   a small superpage with psb and base neighbours, or a block-sized
   superpage; the order is shuffled so chains see every node order. *)
let seed_block rng ~mixed k =
  let shape = Random.State.int rng (if mixed then 5 else 2) in
  let ptes =
    match shape with
    | 0 -> []
    | 1 -> bases_of k (random_subset rng ~excluding:0)
    | 2 ->
        let psb = random_subset rng ~excluding:0 lor 1 in
        S_psb (k, psb) :: bases_of k (random_subset rng ~excluding:psb)
    | 3 ->
        let pages = 2 lsl Random.State.int rng 3 in
        let at = pages * Random.State.int rng (factor / pages) in
        let sp_mask = ((1 lsl pages) - 1) lsl at in
        let psb = random_subset rng ~excluding:sp_mask in
        (S_sp (vpn_of k at, pages)
        :: (if psb = 0 then [] else [ S_psb (k, psb) ]))
        @ bases_of k (random_subset rng ~excluding:(sp_mask lor psb))
    | _ -> [ S_sp (block_vpn k, factor) ]
  in
  List.map snd
    (List.sort compare (List.map (fun p -> (Random.State.bits rng, p)) ptes))

let sp_size pages =
  Addr.Page_size.of_shift
    (Addr.Page_size.base_shift + Addr.Bits.log2_exact pages)

let seed_into (type a)
    (module T : Pt_common.Intf.CONCURRENT_TABLE with type t = a) (t : a)
    ptes =
  let attr = Pte.Attr.default in
  List.iter
    (function
      | S_base vpn -> T.insert_base t ~vpn ~ppn:(ppn_of vpn) ~attr
      | S_psb (k, vmask) ->
          T.insert_psb t
            ~vpbn:(Int64.div (block_vpn k) (Int64.of_int factor))
            ~vmask ~ppn:(ppn_of (block_vpn k)) ~attr
      | S_sp (vpn, pages) ->
          T.insert_superpage t ~vpn ~size:(sp_size pages) ~ppn:(ppn_of vpn)
            ~attr)
    ptes

let seed_model model k = function
  | S_base vpn -> Hashtbl.replace model vpn (Base, vpn, true)
  | S_psb (_, vmask) ->
      for i = 0 to factor - 1 do
        if vmask land (1 lsl i) <> 0 then
          Hashtbl.replace model (vpn_of k i) (Psb, block_vpn k, true)
      done
  | S_sp (vpn, pages) ->
      for i = 0 to pages - 1 do
        Hashtbl.replace model
          (Int64.add vpn (Int64.of_int i))
          (Sp pages, vpn, true)
      done

(* --- one case --- *)

let steps = 24

let run_case (type a)
    (module T : Pt_common.Intf.CONCURRENT_TABLE with type t = a)
    (make : unit -> a) ~mixed ~hook seed =
  let rng = Random.State.make [| seed |] in
  let runs = make () and pages = make () in
  let clock = ref 0 in
  if hook then
    List.iter
      (fun t -> T.set_reclaim_hook t (Some (fun () -> !clock)))
      [ runs; pages ];
  let model = Hashtbl.create 64 in
  for k = 0 to blocks - 1 do
    let ptes = seed_block rng ~mixed k in
    seed_into (module T) runs ptes;
    seed_into (module T) pages ptes;
    List.iter (seed_model model k) ptes
  done;
  let fail after what =
    QCheck.Test.fail_reportf "seed %d, after %s: %s" seed after what
  in
  let mappings t =
    let l = ref [] in
    T.iter_mappings t (fun vpn tr -> l := (vpn, tr) :: !l);
    List.sort compare !l
  in
  let compare_tables after =
    if mappings runs <> mappings pages then fail after "iter_mappings differ";
    let same name f =
      if f runs <> f pages then
        fail after
          (Printf.sprintf "%s: runs %d, pages %d" name (f runs) (f pages))
    in
    same "population" T.population;
    same "size_bytes" T.size_bytes;
    same "node_count" T.node_count;
    same "limbo_nodes" T.limbo_nodes;
    List.iter
      (fun (name, t) ->
        match T.check t with
        | [] -> ()
        | v :: _ ->
            fail after
              (Format.asprintf "%s table: %a" name T.pp_violation v))
      [ ("run", runs); ("per-page", pages) ];
    for k = 0 to blocks - 1 do
      for off = 0 to factor - 1 do
        let vpn = vpn_of k off in
        let got = Walk.find T.lookup_into runs ~vpn in
        let want = Hashtbl.find_opt model vpn in
        let at_ppn (tr : Types.translation) = Int64.equal tr.ppn (ppn_of vpn) in
        if show_translation got <> show_entry want
           || not (Option.fold ~none:true ~some:at_ppn got)
        then
          fail after
            (Printf.sprintf "page 0x%Lx: table %s, model %s" vpn
               (show_translation got) (show_entry want))
      done
    done
  in
  compare_tables "seeding";
  for step = 1 to steps do
    let op = random_op rng in
    if map_allowed model op then begin
      (match op with
      | Map (k, lo, n, w) ->
          let attr = attr_w w in
          T.map_run runs ~vpn:(vpn_of k lo) ~pages:n ~ppn_of ~attr;
          for off = lo to lo + n - 1 do
            let vpn = vpn_of k off in
            T.insert_base pages ~vpn ~ppn:(ppn_of vpn) ~attr
          done
      | Unmap (k, lo, n) ->
          T.unmap_run runs ~vpn:(vpn_of k lo) ~pages:n;
          for off = lo to lo + n - 1 do
            T.remove pages ~vpn:(vpn_of k off)
          done
      | Protect (k, lo, n, writable) ->
          let f a = { a with Pte.Attr.writable } in
          ignore
            (T.set_attr_range runs
               (Addr.Region.make ~first_vpn:(vpn_of k lo) ~pages:n)
               ~f);
          for off = lo to lo + n - 1 do
            ignore
              (T.set_attr_range pages
                 (Addr.Region.make ~first_vpn:(vpn_of k off) ~pages:1)
                 ~f)
          done);
      apply_model model op;
      incr clock;
      if hook && step mod 5 = 0 then
        List.iter (fun t -> T.reclaim t ~upto:!clock) [ runs; pages ];
      compare_tables (Printf.sprintf "step %d (%s)" step (pp_op op))
    end
  done;
  true

let clustered () =
  Clustered_pt.Table.create
    (Clustered_pt.Config.make ~subblock_factor:factor ~buckets:4 ())

let hashed () = Baselines.Hashed_pt.create ~buckets:4 ~subblock_factor:factor ()

let prop name table make ~mixed ~hook =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:150 QCheck.(int_bound 1_000_000_000)
       (fun seed -> run_case table make ~mixed ~hook seed))

(* With subblock factor 1 a page block is one page, so a clustered
   node is a hashed node: a 24-byte node per page, tagged by its VPN,
   hashed to the same bucket and linked at the head.  The two tables
   run on one chain engine, so they must agree node for node. *)
let clustered_factor1 () =
  Clustered_pt.Table.create
    (Clustered_pt.Config.make ~subblock_factor:1 ~buckets:4 ())

(* A removal relinks only the predecessor of the node it unlinks: on
   four buckets with long collided chains, removing nodes from heads,
   middles and tails leaves every survivor in its chain order, with or
   without a reclaim hook. *)
let test_middle_removals (type a)
    (module T : Pt_common.Intf.CONCURRENT_TABLE with type t = a)
    (make : unit -> a) ~hook () =
  let t = make () in
  let clock = ref 0 in
  if hook then T.set_reclaim_hook t (Some (fun () -> !clock));
  let pages = 96 in
  for i = 0 to pages - 1 do
    let vpn = Int64.of_int i in
    T.insert_base t ~vpn ~ppn:(ppn_of vpn) ~attr:Pte.Attr.default
  done;
  let chains () =
    List.init (T.buckets t) (fun bucket -> T.snapshot_bucket t ~bucket)
  in
  let before = chains () in
  let gone tag = tag mod 3 = 1 in
  for i = 0 to pages - 1 do
    if gone i then T.remove t ~vpn:(Int64.of_int i)
  done;
  let survivors =
    List.map (List.filter (fun (tag, _) -> not (gone tag))) before
  in
  Alcotest.(check bool) "survivors keep their chain order" true
    (chains () = survivors);
  Alcotest.(check int) "nodes" (pages - (pages / 3)) (T.node_count t);
  Alcotest.(check int)
    "limbo" (if hook then pages / 3 else 0) (T.limbo_nodes t);
  Alcotest.(check bool) "checks clean" true (T.check t = []);
  List.iter
    (fun chain ->
      Alcotest.(check bool) "long chains" true (List.length chain >= 16))
    before

let test_hashed_middle_removals =
  test_middle_removals (module Baselines.Hashed_pt) hashed

let test_factor1_middle_removals =
  test_middle_removals (module Clustered_pt.Table) clustered_factor1

(* One random stream of single-page operations, fed to a factor-1
   clustered table and a hashed table alike: after every step the two
   must hold the same chains, bucket by bucket, and the same counts,
   and both must check clean. *)
let factor1_case ~hook seed =
  let module C = Clustered_pt.Table in
  let module H = Baselines.Hashed_pt in
  let rng = Random.State.make [| seed |] in
  let c = clustered_factor1 () and h = hashed () in
  let clock = ref 0 in
  if hook then begin
    C.set_reclaim_hook c (Some (fun () -> !clock));
    H.set_reclaim_hook h (Some (fun () -> !clock))
  end;
  let fail step what =
    QCheck.Test.fail_reportf "seed %d, step %d: %s" seed step what
  in
  for step = 1 to 60 do
    let vpn = Int64.of_int (Random.State.int rng 40) in
    let attr = attr_w (Random.State.bool rng) in
    (match Random.State.int rng 5 with
    | 0 ->
        C.insert_base c ~vpn ~ppn:(ppn_of vpn) ~attr;
        H.insert_base h ~vpn ~ppn:(ppn_of vpn) ~attr
    | 1 ->
        C.remove c ~vpn;
        H.remove h ~vpn
    | 2 ->
        C.map_run c ~vpn ~pages:1 ~ppn_of ~attr;
        H.map_run h ~vpn ~pages:1 ~ppn_of ~attr
    | 3 ->
        C.unmap_run c ~vpn ~pages:1;
        H.unmap_run h ~vpn ~pages:1
    | _ ->
        let region =
          Addr.Region.make ~first_vpn:vpn ~pages:(1 + Random.State.int rng 4)
        in
        let f a = { a with Pte.Attr.writable = not a.Pte.Attr.writable } in
        if C.set_attr_range c region ~f <> H.set_attr_range h region ~f then
          fail step "set_attr_range searches differ");
    incr clock;
    if hook && step mod 5 = 0 then begin
      C.reclaim c ~upto:!clock;
      H.reclaim h ~upto:!clock
    end;
    for bucket = 0 to H.buckets h - 1 do
      if C.snapshot_bucket c ~bucket <> H.snapshot_bucket h ~bucket then
        fail step (Printf.sprintf "bucket %d images differ" bucket)
    done;
    let same name a b =
      if a <> b then
        fail step (Printf.sprintf "%s: clustered %d, hashed %d" name a b)
    in
    same "population" (C.population c) (H.population h);
    same "size_bytes" (C.size_bytes c) (H.size_bytes h);
    same "node_count" (C.node_count c) (H.node_count h);
    same "limbo_nodes" (C.limbo_nodes c) (H.limbo_nodes h);
    if C.check c <> [] || H.check h <> [] then fail step "a check is not clean"
  done;
  true

let prop_factor1 name ~hook =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:150 QCheck.(int_bound 1_000_000_000)
       (factor1_case ~hook))

let suite =
  ( "runs",
    [
      Alcotest.test_case "hashed middle removals" `Quick
        (test_hashed_middle_removals ~hook:false);
      Alcotest.test_case "hashed middle removals, reclaim hook" `Quick
        (test_hashed_middle_removals ~hook:true);
      Alcotest.test_case "factor-1 clustered middle removals" `Quick
        (test_factor1_middle_removals ~hook:false);
      Alcotest.test_case "factor-1 clustered middle removals, reclaim hook"
        `Quick
        (test_factor1_middle_removals ~hook:true);
      prop_factor1 "factor-1 clustered = hashed" ~hook:false;
      prop_factor1 "factor-1 clustered = hashed, reclaim hook" ~hook:true;
      prop "clustered runs = per-page loop"
        (module Clustered_pt.Table) clustered ~mixed:true ~hook:false;
      prop "clustered runs = per-page loop, reclaim hook"
        (module Clustered_pt.Table) clustered ~mixed:true ~hook:true;
      prop "hashed runs = per-page loop"
        (module Baselines.Hashed_pt) hashed ~mixed:false ~hook:false;
      prop "hashed runs = per-page loop, reclaim hook"
        (module Baselines.Hashed_pt) hashed ~mixed:false ~hook:true;
    ] )
