open Pt_common.Intf

type table = concurrent

let org (Concurrent ((module T), _)) = T.name

type finding = { code : string; detail : string }

type report = { r_org : string; findings : finding list }

let findings (type v) (module T : CONCURRENT_TABLE with type violation = v)
    (vs : v list) =
  List.map
    (fun v ->
      {
        code = T.violation_code v;
        detail = Format.asprintf "%a" T.pp_violation v;
      })
    vs

let check (Concurrent ((module T), t)) =
  { r_org = T.name; findings = findings (module T) (T.check t) }

let clean r = r.findings = []

type repair_outcome = { pre : report; kept : int; dropped : int }

let repair (Concurrent ((module T), t)) =
  let r = T.repair t in
  {
    pre = { r_org = T.name; findings = findings (module T) r.violations };
    kept = r.kept;
    dropped = r.dropped;
  }

let corruption_kinds (Concurrent ((module T), _)) = T.corruption_kinds

let corrupt_by_name (Concurrent ((module T), t)) name = T.corrupt t name

(* --- cross-replica agreement (NUMA replication) --- *)

let live_mappings (Concurrent ((module T), t)) =
  let out = ref [] in
  T.iter_mappings t (fun vpn (tr : Pt_common.Types.translation) ->
      out := (vpn, tr.ppn, tr.attr) :: !out);
  List.sort_uniq compare !out

let check_replicas ?generations tables =
  if Array.length tables = 0 then
    invalid_arg "Fsck.check_replicas: need at least one replica";
  let r_org = org tables.(0) in
  let findings = ref [] in
  let add code detail = findings := { code; detail } :: !findings in
  let primary = live_mappings tables.(0) in
  for r = 1 to Array.length tables - 1 do
    if org tables.(r) <> r_org then
      add "replica_org"
        (Printf.sprintf "replica %d is %s, primary is %s" r (org tables.(r))
           r_org)
    else begin
      (* merge-walk two vpn-sorted mapping lists *)
      let rec go p l =
        match (p, l) with
        | [], [] -> ()
        | (vpn, _, _) :: p', [] ->
            add "replica_divergence"
              (Printf.sprintf "replica %d: vpn 0x%Lx missing" r vpn);
            go p' []
        | [], (vpn, _, _) :: l' ->
            add "replica_divergence"
              (Printf.sprintf "replica %d: vpn 0x%Lx extra" r vpn);
            go [] l'
        | ((pv, pp, pa) as ph) :: p', ((lv, lp, la) as lh) :: l' ->
            let c = Int64.compare pv lv in
            if c < 0 then begin
              add "replica_divergence"
                (Printf.sprintf "replica %d: vpn 0x%Lx missing" r pv);
              go p' (lh :: l')
            end
            else if c > 0 then begin
              add "replica_divergence"
                (Printf.sprintf "replica %d: vpn 0x%Lx extra" r lv);
              go (ph :: p') l'
            end
            else begin
              if not (Int64.equal pp lp) then
                add "replica_divergence"
                  (Printf.sprintf
                     "replica %d: vpn 0x%Lx maps ppn 0x%Lx, primary has \
                      0x%Lx"
                     r lv lp pp)
              else if not (Pte.Attr.equal pa la) then
                add "replica_divergence"
                  (Printf.sprintf "replica %d: vpn 0x%Lx attr differs" r lv);
              go p' l'
            end
      in
      go primary (live_mappings tables.(r))
    end
  done;
  (match generations with
  | None -> ()
  | Some gens ->
      let g0 = gens.(0) in
      for r = 1 to Array.length gens - 1 do
        let gr = gens.(r) in
        if Array.length gr <> Array.length g0 then
          add "replica_generation"
            (Printf.sprintf "replica %d: %d buckets of generations, primary \
                             has %d"
               r (Array.length gr) (Array.length g0))
        else
          Array.iteri
            (fun b v ->
              if v <> g0.(b) then
                add "replica_generation"
                  (Printf.sprintf
                     "bucket %d: replica %d at generation %d, primary at %d" b
                     r v g0.(b)))
            gr
      done);
  { r_org; findings = List.rev !findings }

(* Cross-shard ASID disjointness (the fleet layer's invariant): tenant
   address spaces are dealt over shards by ASID, so a live ASID must
   be resident in exactly one shard — and, when the caller supplies
   the placement function, in exactly the shard it was dealt to. *)
let check_shards ?(asid_shift = 50) ?expected_shard tables =
  if Array.length tables = 0 then
    invalid_arg "Fsck.check_shards: need at least one shard";
  let r_org = org tables.(0) in
  let findings = ref [] in
  let add code detail = findings := { code; detail } :: !findings in
  let owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun s t ->
      (* live_mappings is vpn-sorted and the ASID occupies the top
         bits, so equal ASIDs form runs — dedup by peeking at the last
         one collected *)
      let seen = ref [] in
      List.iter
        (fun (vpn, _, _) ->
          let asid = Int64.to_int (Int64.shift_right_logical vpn asid_shift) in
          match !seen with
          | a :: _ when a = asid -> ()
          | _ -> seen := asid :: !seen)
        (live_mappings t);
      List.iter
        (fun asid ->
          (match Hashtbl.find_opt owner asid with
          | Some s0 when s0 <> s ->
              add "asid_overlap"
                (Printf.sprintf "asid %d live in shards %d and %d" asid s0 s)
          | Some _ -> ()
          | None -> Hashtbl.replace owner asid s);
          match expected_shard with
          | Some f when f asid <> s ->
              add "asid_misplaced"
                (Printf.sprintf "asid %d lives in shard %d, expected shard %d"
                   asid s (f asid))
          | _ -> ())
        (List.rev !seen))
    tables;
  { r_org; findings = List.rev !findings }

let report_to_json r =
  let finding f =
    Jsonx.obj
      [ ("code", Jsonx.string f.code); ("detail", Jsonx.string f.detail) ]
  in
  Jsonx.obj
    [
      ("org", Jsonx.string r.r_org); ("clean", Jsonx.bool (clean r));
      ("findings", Jsonx.list (List.map finding r.findings));
    ]

let pp_report ppf r =
  if clean r then Format.fprintf ppf "%s: clean" r.r_org
  else begin
    Format.fprintf ppf "%s: %d finding(s)@," r.r_org (List.length r.findings);
    List.iter
      (fun f -> Format.fprintf ppf "  [%s] %s@," f.code f.detail)
      r.findings
  end
