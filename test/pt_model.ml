(* Model-based checking shared by every page-table implementation:
   random insert/remove/lookup sequences are mirrored in a Hashtbl and
   the table must agree with the model afterwards. *)

module Intf = Pt_common.Intf
module Types = Pt_common.Types

type op =
  | Insert of int64 * int64 (* vpn, ppn *)
  | Remove of int64

let op_gen ~vpn_space =
  QCheck.Gen.(
    int_bound (vpn_space - 1) >>= fun v ->
    let vpn = Int64.of_int v in
    frequency
      [
        ( 3,
          map
            (fun p -> Insert (vpn, Int64.of_int p))
            (int_bound ((1 lsl 20) - 1)) );
        (1, return (Remove vpn));
      ])

let ops_arbitrary ~vpn_space ~len =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 len) (op_gen ~vpn_space))
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Insert (v, p) -> Printf.sprintf "I(%Ld,%Ld)" v p
             | Remove v -> Printf.sprintf "R(%Ld)" v)
           ops))

(* Run ops against [make ()] and a Hashtbl model; check full agreement
   over the touched VPN space, plus the population count. *)
let agrees ~make ops =
  let pt = make () in
  let model : (int64, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (function
      | Insert (vpn, ppn) ->
          Intf.insert_base pt ~vpn ~ppn ~attr:Pte.Attr.default;
          Hashtbl.replace model vpn ppn
      | Remove vpn ->
          Intf.remove pt ~vpn;
          Hashtbl.remove model vpn)
    ops;
  let vpns =
    List.sort_uniq compare
      (List.map (function Insert (v, _) -> v | Remove v -> v) ops)
  in
  List.for_all
    (fun vpn ->
      let got = Walk.find Intf.lookup_into pt ~vpn in
      match (Hashtbl.find_opt model vpn, got) with
      | None, None -> true
      | Some ppn, Some tr ->
          Int64.equal tr.Types.ppn ppn && Types.covered_pages tr = 1
      | Some _, None | None, Some _ -> false)
    vpns
  && Intf.population pt = Hashtbl.length model

let model_test ~name ~make =
  QCheck.Test.make ~name ~count:100
    (ops_arbitrary ~vpn_space:200 ~len:120)
    (fun ops -> agrees ~make ops)

(* Size must return to zero after removing everything. *)
let drain_test ~name ~make =
  QCheck.Test.make ~name ~count:50
    (ops_arbitrary ~vpn_space:100 ~len:60)
    (fun ops ->
      let pt = make () in
      List.iter
        (function
          | Insert (vpn, ppn) ->
              Intf.insert_base pt ~vpn ~ppn ~attr:Pte.Attr.default
          | Remove vpn -> Intf.remove pt ~vpn)
        ops;
      for v = 0 to 99 do
        Intf.remove pt ~vpn:(Int64.of_int v)
      done;
      Intf.population pt = 0)

(* --- mixed-format model checking ---

   Sequences mixing base pages, 64 KB superpages and partial-subblock
   PTEs, with the documented removal semantics (removing any page of a
   superpage removes the whole superpage; removing a psb page clears
   one valid bit).  The model tracks per-page frames plus what kind of
   entry covers each page, and the same semantics apply to the model
   and the table under test — which works uniformly for clustered,
   hashed (two tables), linear and forward-mapped because they all
   implement the same documented behaviour. *)

type mixed_op =
  | MBase of int64 * int64 (* vpn, ppn *)
  | MRemove of int64
  | MSp of int64 * int64 (* vpbn, block-aligned ppn *)
  | MPsb of int64 * int * int64 (* vpbn, vmask, block-aligned ppn *)

let mixed_op_gen ~blocks =
  QCheck.Gen.(
    int_bound (blocks - 1) >>= fun block ->
    let vpbn = Int64.of_int block in
    int_bound 15 >>= fun boff ->
    let vpn = Int64.add (Int64.shift_left vpbn 4) (Int64.of_int boff) in
    let aligned_ppn = map (fun b -> Int64.of_int (b lsl 4)) (int_bound 0xFFF) in
    frequency
      [
        (4, map (fun p -> MBase (vpn, Int64.of_int p)) (int_bound 0xFFFFF));
        (2, return (MRemove vpn));
        (1, map (fun p -> MSp (vpbn, p)) aligned_ppn);
        ( 2,
          map2
            (fun vmask p -> MPsb (vpbn, (vmask lor 1), p))
            (int_bound 0xFFFF) aligned_ppn );
      ])

let mixed_ops_arbitrary ~blocks ~len =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 len) (mixed_op_gen ~blocks))
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | MBase (v, p) -> Printf.sprintf "B(%Ld,%Ld)" v p
             | MRemove v -> Printf.sprintf "R(%Ld)" v
             | MSp (b, p) -> Printf.sprintf "S(%Ld,%Ld)" b p
             | MPsb (b, m, p) -> Printf.sprintf "P(%Ld,%x,%Ld)" b m p)
           ops))

(* The reference model: page -> frame, plus the covering-entry kind. *)
module Model = struct
  type entry = EBase | ESp of int64 (* block base vpn *) | EPsb

  type t = (int64, int64 * entry) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let remove m vpn =
    match Hashtbl.find_opt m vpn with
    | None -> ()
    | Some (_, EBase) | Some (_, EPsb) -> Hashtbl.remove m vpn
    | Some (_, ESp base) ->
        for i = 0 to 15 do
          Hashtbl.remove m (Int64.add base (Int64.of_int i))
        done

  let clear_block m vpbn =
    for i = 0 to 15 do
      remove m (Int64.add (Int64.shift_left vpbn 4) (Int64.of_int i))
    done
end

let apply_mixed pt model op =
  let attr = Pte.Attr.default in
  let clear_block vpbn =
    Model.clear_block model vpbn;
    for i = 0 to 15 do
      let vpn = Int64.add (Int64.shift_left vpbn 4) (Int64.of_int i) in
      Intf.remove pt ~vpn;
      (* a psb node and base words can coexist on a chain; drain *)
      while Walk.find Intf.lookup_into pt ~vpn <> None do
        Intf.remove pt ~vpn
      done
    done
  in
  match op with
  | MBase (vpn, ppn) ->
      Model.remove model vpn;
      Intf.remove pt ~vpn;
      while Walk.find Intf.lookup_into pt ~vpn <> None do
        Intf.remove pt ~vpn
      done;
      Hashtbl.replace model vpn (ppn, Model.EBase);
      Intf.insert_base pt ~vpn ~ppn ~attr
  | MRemove vpn ->
      Model.remove model vpn;
      Intf.remove pt ~vpn
  | MSp (vpbn, ppn) ->
      clear_block vpbn;
      let base = Int64.shift_left vpbn 4 in
      for i = 0 to 15 do
        Hashtbl.replace model
          (Int64.add base (Int64.of_int i))
          (Int64.add ppn (Int64.of_int i), Model.ESp base)
      done;
      Intf.insert_superpage pt ~vpn:base ~size:Addr.Page_size.kb64 ~ppn ~attr
  | MPsb (vpbn, vmask, ppn) ->
      clear_block vpbn;
      let base = Int64.shift_left vpbn 4 in
      for i = 0 to 15 do
        if vmask land (1 lsl i) <> 0 then
          Hashtbl.replace model
            (Int64.add base (Int64.of_int i))
            (Int64.add ppn (Int64.of_int i), Model.EPsb)
      done;
      Intf.insert_psb pt ~vpbn ~vmask ~ppn ~attr

let mixed_agrees ~make ops =
  let pt = make () in
  let model = Model.create () in
  List.iter (apply_mixed pt model) ops;
  let ok = ref true in
  for v = 0 to (8 * 16) - 1 do
    let vpn = Int64.of_int v in
    let got = Walk.find Intf.lookup_into pt ~vpn in
    (match (Hashtbl.find_opt model vpn, got) with
    | None, None -> ()
    | Some (ppn, _), Some tr when Int64.equal tr.Types.ppn ppn -> ()
    | _, _ -> ok := false)
  done;
  !ok && Intf.population pt = Hashtbl.length model

let mixed_model_test ~name ~make =
  QCheck.Test.make ~name ~count:100 (mixed_ops_arbitrary ~blocks:8 ~len:60)
    (fun ops -> mixed_agrees ~make ops)

(* --- concurrent history checking (the lib/service oracle) ---

   Each service domain records the operations it issued, in program
   order, together with what it observed.  When every domain owns a
   disjoint key set, per-domain program order IS a linearization of
   the per-key histories: replaying each domain's history against this
   sequential model must reproduce every observation, and merging the
   models must reproduce the final table.  Any lost insert, resurrected
   remove, or torn lookup under concurrency shows up as a divergence. *)

type hist_op =
  | HInsert of int64 * int64  (* vpn, ppn *)
  | HRemove of int64
  | HLookup of int64 * bool  (* vpn, observed hit *)
  | HProtect of int64 * int * int  (* first vpn, pages, observed searches *)

(* Replay one domain's history into [model]; false on the first
   observation the sequential model cannot explain. *)
let replay_history model hist =
  List.for_all
    (function
      | HInsert (vpn, ppn) ->
          Hashtbl.replace model vpn ppn;
          true
      | HRemove vpn ->
          Hashtbl.remove model vpn;
          true
      | HLookup (vpn, hit) -> Hashtbl.mem model vpn = hit
      | HProtect (_, _, searches) -> searches >= 0)
    hist

let touched_keys histories =
  let keys = Hashtbl.create 1024 in
  List.iter
    (List.iter (function
      | HInsert (v, _) | HRemove v | HLookup (v, _) ->
          Hashtbl.replace keys v ()
      | HProtect (first, pages, _) ->
          for i = 0 to pages - 1 do
            Hashtbl.replace keys (Int64.add first (Int64.of_int i)) ()
          done))
    histories;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

(* Check per-domain histories (disjoint key sets) against the final
   service state: every observation sequentially explainable, every
   touched key's final presence agreed (mapped AND unmapped), and the
   population identical. *)
let check_histories ~lookup ~population histories =
  let model : (int64, int64) Hashtbl.t = Hashtbl.create 1024 in
  List.for_all (replay_history model) histories
  && List.for_all
       (fun vpn -> lookup vpn = Hashtbl.mem model vpn)
       (touched_keys histories)
  && population = Hashtbl.length model
