module Intf = Pt_common.Intf

type design = Single | Superpage | Psb | Csb

let design_name = function
  | Single -> "single-page-size"
  | Superpage -> "superpage"
  | Psb -> "partial-subblock"
  | Csb -> "complete-subblock"

let policy_of_design = function
  | Single | Csb -> `Base
  | Superpage -> `Superpage
  | Psb -> `Psb

type result = {
  workload : string;
  pt : string;
  mean_lines : float;
  lines : int;
  misses : int;
}

type workload_run = {
  spec : Workload.Spec.t;
  base_misses : int;
  accesses : int;
  results : result list;
}

let default_pt_kinds =
  [
    Factory.Linear1;
    Factory.Forward_mapped;
    Factory.Hashed;
    Factory.clustered16;
  ]

let kinds_for = function
  | Single ->
      [
        Factory.Linear1;
        Factory.Forward_mapped;
        Factory.Hashed;
        Factory.clustered16;
      ]
  | Superpage | Psb ->
      [
        Factory.Linear1;
        Factory.Forward_mapped;
        Factory.Hashed_two_tables { coarse_first = false };
        Factory.clustered16;
      ]
  | Csb ->
      [
        Factory.Linear1;
        Factory.Forward_mapped;
        Factory.Hashed;
        Factory.clustered16;
      ]

let make_tlb design ~entries ~subblock_factor =
  match design with
  | Single -> Tlb.Intf.fa ~entries ()
  | Superpage -> Tlb.Intf.superpage ~entries ()
  | Psb -> Tlb.Intf.psb ~entries ~subblock_factor ()
  | Csb -> Tlb.Intf.csb ~entries ~subblock_factor ()

type miss = { proc : int; vpn : int64; block_miss : bool }

(* Run the trace through a TLB, filling from the reference tables, and
   record the miss stream.  Prefetch fills apply for Csb designs
   (Section 4.4). *)
let record_misses ?(design = Single) ?(subblock_factor = 16) trace tlb
    ~reference =
  let misses = ref [] and count = ref 0 in
  let acc = Mem.Walk_acc.create () in
  Array.iter
    (function
      | Workload.Trace.Switch _ -> Tlb.Intf.flush tlb
      | Workload.Trace.Access (proc, vpn) -> (
          match Tlb.Intf.access tlb ~vpn with
          | `Hit -> ()
          | (`Block_miss | `Subblock_miss) as m ->
              let block_miss = m = `Block_miss in
              incr count;
              misses := { proc; vpn; block_miss } :: !misses;
              let pt = reference.(proc) in
              Mem.Walk_acc.reset acc;
              if design = Csb && block_miss then
                Tlb.Intf.fill_block tlb
                  (Intf.lookup_block pt acc ~vpn ~subblock_factor)
              else
                match Intf.lookup_into pt acc ~vpn with
                | Some tr -> Tlb.Intf.fill tlb tr
                | None -> ())
      | _ -> () (* churn ops never appear in access traces *))
    trace;
  (List.rev !misses, !count)

let replay_misses ?hist ?(design = Single)
    ?(line_size = Mem.Cache_model.default_line_size) ?(subblock_factor = 16)
    misses tables =
  let counter = Mem.Cache_model.create_counter ~line_size () in
  let acc = Mem.Walk_acc.create () in
  List.iter
    (fun { proc; vpn; block_miss } ->
      let pt = tables.(proc) in
      Mem.Walk_acc.reset acc;
      if design = Csb && block_miss then
        ignore (Intf.lookup_block pt acc ~vpn ~subblock_factor)
      else ignore (Intf.lookup_into pt acc ~vpn);
      let lines = Mem.Cache_model.record_acc counter acc in
      match hist with Some h -> Obs.Hist.observe h lines | None -> ())
    misses;
  Mem.Cache_model.total_lines counter

type residency = {
  res_pt : string;
  cold_lines : float;
  warm_lines : float;
  hit_ratio : float;
}

let is_linear = function
  | Factory.Linear6 | Factory.Linear1 | Factory.Linear_hashed -> true
  | _ -> false

let run ?(line_size = Mem.Cache_model.default_line_size)
    ?(subblock_factor = 16) ~design ~pt_kinds (fx : Builder.fixture) =
  let spec = fx.Builder.spec in
  let policy = policy_of_design design in
  let build kind = Builder.tables kind ~policy fx.Builder.assignments in
  (* the clustered table supports every PTE format natively, so it
     serves as the fill reference for the miss-recording pass *)
  let reference = build Factory.clustered16 in
  let trace = Lazy.force fx.Builder.trace in
  (* the Table 1 metric: misses of a 64-entry single-page-size TLB *)
  let base_misses =
    let tlb = make_tlb Single ~entries:64 ~subblock_factor in
    snd (record_misses trace tlb ~reference)
  in
  let tlb64 = make_tlb design ~entries:64 ~subblock_factor in
  let misses64, n64 =
    record_misses trace tlb64 ~reference ~design ~subblock_factor
  in
  (* the linear tables' miss stream uses 56 entries (8 reserved) *)
  let misses56 =
    if List.exists is_linear pt_kinds then begin
      let tlb56 = make_tlb design ~entries:56 ~subblock_factor in
      Some
        (fst (record_misses trace tlb56 ~reference ~design ~subblock_factor))
    end
    else None
  in
  (* merged telemetry: the miss totals the design produced and, per
     organization, the per-miss cache-line distribution the paper's
     Figure 11 averages.  Each spec runs whole on one domain, so the
     shard observations are deterministic and merge order-free. *)
  let shard = Obs.Ambient.get () in
  Obs.Metrics.add
    (Obs.Metrics.counter shard "sim.accesses")
    (Workload.Trace.accesses trace);
  Obs.Metrics.add (Obs.Metrics.counter shard "sim.tlb_misses") n64;
  let results =
    List.map
      (fun kind ->
        let tables = build kind in
        let miss_stream =
          if is_linear kind then Option.get misses56 else misses64
        in
        let lines =
          replay_misses
            ~hist:
              (Obs.Metrics.hist shard ("sim.walk_lines." ^ Factory.name kind))
            miss_stream tables ~design ~line_size ~subblock_factor
        in
        {
          workload = spec.Workload.Spec.name;
          pt = Factory.name kind;
          mean_lines =
            (if n64 = 0 then 0.0 else float_of_int lines /. float_of_int n64);
          lines;
          misses = n64;
        })
      pt_kinds
  in
  {
    spec;
    base_misses;
    accesses = Workload.Trace.accesses trace;
    results;
  }

let run_residency ?(seed = 0x7ACE_1995L) ?(length = 80_000)
    ?(placement_p = 0.95) ?(line_size = Mem.Cache_model.default_line_size)
    ?domains ~sets ~ways ~pt_kinds spec =
  let fx = Builder.fixture spec ~seed ~placement_p ~length in
  let build kind = Builder.tables kind ~policy:`Base fx.Builder.assignments in
  let misses, n =
    record_misses (Lazy.force fx.Builder.trace)
      (Tlb.Intf.fa ~entries:64 ())
      ~reference:(build Factory.clustered16)
  in
  Exec.Soak.map ?domains
    (fun _ kind ->
      let tables = build kind in
      let cache = Mem.Cache_sim.create ~line_size ~sets ~ways () in
      let cold = ref 0 and warm = ref 0 in
      let acc = Mem.Walk_acc.create () in
      let cold_counter = Mem.Cache_model.create_counter ~line_size () in
      List.iter
        (fun { proc; vpn; _ } ->
          Mem.Walk_acc.reset acc;
          ignore (Intf.lookup_into tables.(proc) acc ~vpn);
          cold := !cold + Mem.Cache_model.record_acc cold_counter acc;
          (* replay into the warm cache last read first: LRU state,
             hence the warm column, depends on this order *)
          for i = Mem.Walk_acc.count acc - 1 downto 0 do
            let _hits, misses =
              Mem.Cache_sim.access_bytes cache ~addr:(Mem.Walk_acc.addr acc i)
                ~bytes:(Mem.Walk_acc.bytes acc i)
            in
            warm := !warm + misses
          done)
        misses;
      {
        res_pt = Factory.name kind;
        cold_lines = float_of_int !cold /. float_of_int n;
        warm_lines = float_of_int !warm /. float_of_int n;
        hit_ratio = Mem.Cache_sim.hit_ratio cache;
      })
    (Array.of_list pt_kinds)
  |> Array.to_list
