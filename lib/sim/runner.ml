type options = {
  seed : int64;
  length : int;
  placement_p : float;
  quick : bool;
}

let default_options =
  { seed = 0x1995_5051L; length = 80_000; placement_p = 0.95; quick = false }

let trace_specs options =
  if options.quick then
    [ Workload.Table1.coral; Workload.Table1.gcc; Workload.Table1.nasa7 ]
  else Workload.Table1.all

(* Fan independent jobs (one per workload or configuration) out over
   [Exec.Soak.map], then print from the joined results.  Each job
   derives its seeds from its own spec/index, never from execution
   order, so every entry point is bit-identical for any [domains],
   including [~domains:1], which runs the jobs in order on the calling
   domain. *)
let par_map ?domains f xs =
  Array.to_list (Exec.Soak.map ?domains (fun _ x -> f x) (Array.of_list xs))

let fixture ?quantum options spec =
  Builder.fixture spec ~seed:options.seed ~placement_p:options.placement_p
    ~length:options.length ?quantum

let base_size kind fx =
  Size_exp.size_of kind ~policy:`Base ~assignments:fx.Builder.assignments

(* TLB misses of [fx]'s trace, each filled from a clustered table: the
   reference tables are built once and serve every TLB passed in *)
let tlb_misses fx =
  let reference =
    Builder.tables Factory.clustered16 ~policy:`Base fx.Builder.assignments
  in
  let trace = Lazy.force fx.Builder.trace in
  fun tlb -> snd (Access_exp.record_misses trace tlb ~reference)

(* --- Table 1 --- *)

let table1 ?(options = default_options) ?domains () =
  let specs = trace_specs options in
  let computed =
    par_map ?domains
      (fun spec ->
        let fx = fixture options spec in
        let run =
          Access_exp.run ~design:Access_exp.Single ~pt_kinds:[ Factory.Hashed ]
            fx
        in
        let hashed_bytes = base_size Factory.Hashed fx in
        (* 40-cycle miss penalty (Section 6.2).  Trace events are
           page-granular; one event stands for ~25 in-page references of
           a real instruction stream (calibration constant, see
           EXPERIMENTS.md). *)
        let refs_per_event = 25.0 in
        let m = float_of_int run.Access_exp.base_misses in
        let a = float_of_int run.Access_exp.accesses *. refs_per_event in
        let pct = 100.0 *. (m *. 40.0) /. (a +. (m *. 40.0)) in
        let paper = spec.Workload.Spec.paper in
        let row =
          [
            spec.Workload.Spec.name;
            string_of_int paper.Workload.Spec.tlb_misses_k ^ "k";
            string_of_int run.Access_exp.base_misses;
            Printf.sprintf "%d%%" paper.Workload.Spec.pct_tlb;
            Printf.sprintf "%.0f%%" pct;
            string_of_int paper.Workload.Spec.hashed_kb ^ "KB";
            Report.kb hashed_bytes;
          ]
        in
        ( (spec.Workload.Spec.name, run.Access_exp.base_misses, pct,
           hashed_bytes),
          row ))
      specs
  in
  let out = List.map fst computed and rows = List.map snd computed in
  Report.print_table ~title:"Table 1: workload characteristics"
    ~header:
      [
        "workload"; "paper misses"; "sim misses"; "paper %tlb"; "sim %tlb";
        "paper hashed"; "sim hashed";
      ]
    ~rows;
  Report.note
    "Simulated traces are scaled-down (default 80k accesses); compare \
     percentages and sizes, not absolute miss counts.";
  out

(* --- Figures 9 and 10 --- *)

let print_size_rows ~title rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      let header =
        "workload" :: "pages"
        :: List.map (fun c -> c.Size_exp.label) first.Size_exp.cells
      in
      let body =
        List.map
          (fun row ->
            row.Size_exp.workload
            :: string_of_int row.Size_exp.pages
            :: List.map (fun c -> Report.ratio c.Size_exp.ratio) row.Size_exp.cells)
          rows
      in
      Report.print_table ~title ~header ~rows:body;
      Report.note "Normalized to hashed page table size (= 1.00)."

let figure9 ?(options = default_options) ?domains () =
  let rows = Size_exp.figure9 ~seed:options.seed ?domains () in
  print_size_rows ~title:"Figure 9: page table size, single page size" rows;
  rows

let figure10 ?(options = default_options) ?domains () =
  let rows =
    Size_exp.figure10 ~seed:options.seed ?domains
      ~placement_p:options.placement_p ()
  in
  print_size_rows
    ~title:"Figure 10: page table size with superpage/partial-subblock PTEs"
    rows;
  rows

(* --- Figure 11 --- *)

let figure11 ?(options = default_options) ?domains ~design () =
  let specs = trace_specs options in
  let runs =
    par_map ?domains
      (fun spec ->
        Access_exp.run ~design ~pt_kinds:(Access_exp.kinds_for design)
          (fixture options spec))
      specs
  in
  (match runs with
  | [] -> ()
  | first :: _ ->
      let header =
        "workload" :: "misses"
        :: List.map (fun r -> r.Access_exp.pt) first.Access_exp.results
      in
      let rows =
        List.map
          (fun run ->
            run.Access_exp.spec.Workload.Spec.name
            :: string_of_int
                 (match run.Access_exp.results with
                 | r :: _ -> r.Access_exp.misses
                 | [] -> 0)
            :: List.map
                 (fun r -> Report.lines_metric r.Access_exp.mean_lines)
                 run.Access_exp.results)
          runs
      in
      Report.print_table
        ~title:
          (Printf.sprintf "Figure 11%s: cache lines per TLB miss, %s TLB"
             (match design with
             | Access_exp.Single -> "a"
             | Access_exp.Superpage -> "b"
             | Access_exp.Psb -> "c"
             | Access_exp.Csb -> "d")
             (Access_exp.design_name design))
        ~header ~rows);
  runs

(* --- Table 2 cross-check --- *)

let nactive snap p =
  List.fold_left
    (fun acc proc -> acc + Workload.Snapshot.active_blocks ~subblock_factor:p proc)
    0 snap.Workload.Snapshot.procs

let table2 ?(options = default_options) ?domains () =
  let rows =
    par_map ?domains
      (fun spec ->
        let fx = fixture options spec in
        let snap = fx.Builder.snap in
        let sim kind = base_size kind fx in
        let n1 = nactive snap 1 in
        let n16 = nactive snap 16 in
        let hashed_ratio =
          float_of_int (sim Factory.Hashed)
          /. float_of_int (Analytic.hashed_size ~nactive1:n1)
        in
        let clustered_ratio =
          float_of_int (sim Factory.clustered16)
          /. float_of_int
               (Analytic.clustered_size ~subblock_factor:16 ~nactive_s:n16)
        in
        let linear_ratio =
          float_of_int (sim Factory.Linear6)
          /. float_of_int
               (Analytic.multi_level_linear_size
                  ~nactive:(fun p -> nactive snap p)
                  ~levels:6)
        in
        let fm_ratio =
          float_of_int (sim Factory.Forward_mapped)
          /. float_of_int
               (Analytic.forward_mapped_size
                  ~nactive:(fun p -> nactive snap p)
                  ~bits_per_level:[| 8; 8; 8; 8; 8; 6; 6 |])
        in
        [
          spec.Workload.Spec.name;
          Printf.sprintf "%.3f" hashed_ratio;
          Printf.sprintf "%.3f" clustered_ratio;
          Printf.sprintf "%.3f" linear_ratio;
          Printf.sprintf "%.3f" fm_ratio;
        ])
      Workload.Table1.all_with_kernel
  in
  Report.print_table
    ~title:"Table 2 cross-check: simulated size / analytic size"
    ~header:[ "workload"; "hashed"; "clustered"; "linear-6L"; "fwd-mapped" ]
    ~rows;
  Report.note
    "1.000 means the simulator matches the appendix formula exactly; \
     clustered deviates upward where psb/superpage single nodes (24B) \
     replace full nodes."

(* --- Ablations (Sections 6.3 and 7) --- *)

let ablation_line_size ?(options = default_options) ?domains () =
  let fx = fixture options Workload.Table1.coral in
  (* the jobs share the fixture: generate the trace before they start *)
  ignore (Lazy.force fx.Builder.trace);
  let out =
    par_map ?domains
      (fun line_size ->
        let run =
          Access_exp.run ~line_size ~design:Access_exp.Single
            ~pt_kinds:[ Factory.clustered16 ] fx
        in
        let mean =
          match run.Access_exp.results with
          | [ r ] -> r.Access_exp.mean_lines
          | _ -> 0.0
        in
        (line_size, mean))
      [ 64; 128; 256 ]
  in
  Report.print_table
    ~title:"Ablation: clustered sensitivity to cache line size (coral)"
    ~header:[ "line size"; "lines/miss" ]
    ~rows:
      (List.map
         (fun (ls, m) -> [ string_of_int ls ^ "B"; Report.lines_metric m ])
         out);
  Report.note
    "A 144-byte clustered node spans multiple small lines: the paper \
     predicts +0.125 at 128B and +0.625 at 64B over the 256B baseline.";
  out

let ablation_subblock ?(options = default_options) ?domains () =
  let factors = [ 2; 4; 8; 16 ] in
  let rows =
    par_map ?domains
      (fun spec ->
        let sweep = Size_exp.subblock_sweep ~seed:options.seed ~factors spec in
        spec.Workload.Spec.name
        :: List.map (fun (_, r) -> Report.ratio r) sweep)
      Workload.Table1.all_with_kernel
  in
  Report.print_table ~title:"Ablation: clustered size vs subblock factor"
    ~header:("workload" :: List.map (fun f -> Printf.sprintf "k=%d" f) factors)
    ~rows

let ablation_buckets ?(options = default_options) ?domains () =
  let assignments = (fixture options Workload.Table1.ml).Builder.assignments in
  let out =
    par_map ?domains
      (fun buckets ->
        (* build a clustered table with this bucket count and measure
           chain behaviour over every mapped page *)
        let table =
          Clustered_pt.Table.create (Clustered_pt.Config.make ~buckets ())
        in
        let instance =
          Pt_common.Intf.Instance ((module Clustered_pt.Table), table)
        in
        Array.iter
          (fun a -> Builder.populate instance a ~policy:`Base)
          assignments;
        let counter = Mem.Cache_model.create_counter () in
        let acc = Mem.Walk_acc.create () in
        Array.iter
          (fun a ->
            Builder.iter_pages a (fun vpn _ ->
                Mem.Walk_acc.reset acc;
                ignore (Clustered_pt.Table.lookup_into table acc ~vpn);
                ignore (Mem.Cache_model.record_acc counter acc)))
          assignments;
        ( buckets,
          Clustered_pt.Table.load_factor table,
          Mem.Cache_model.mean_lines counter ))
      [ 256; 512; 1024; 2048; 4096; 8192 ]
  in
  Report.print_table
    ~title:"Ablation: hash buckets vs load factor and lines/lookup (ML)"
    ~header:[ "buckets"; "load factor"; "lines/lookup" ]
    ~rows:
      (List.map
         (fun (b, lf, m) ->
           [
             string_of_int b;
             Printf.sprintf "%.3f" lf;
             Report.lines_metric m;
           ])
         out);
  Report.note
    "Appendix formula: lines = 1 + load/2 under uniform hashing; spatial \
     locality in real lookups lands close to it.";
  out

let ablation_residency ?(options = default_options) ?domains () =
  let spec = Workload.Table1.ml in
  let out =
    Access_exp.run_residency ~seed:options.seed ~length:options.length
      ~placement_p:options.placement_p ?domains ~sets:1024 ~ways:4
      ~pt_kinds:
        [
          Factory.Linear1;
          Factory.Forward_mapped;
          Factory.Hashed;
          Factory.clustered16;
        ]
      spec
  in
  Report.print_table
    ~title:"Ablation: page-table cache residency (ML, 1MB 4-way L2)"
    ~header:[ "page table"; "cold lines/miss"; "warm lines/miss"; "hit ratio" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.Access_exp.res_pt;
             Report.lines_metric r.Access_exp.cold_lines;
             Report.lines_metric r.Access_exp.warm_lines;
             Printf.sprintf "%.2f" r.Access_exp.hit_ratio;
           ])
         out);
  Report.note
    "Section 6.1 concedes the headline metric ignores residency and \
     predicts smaller tables would look even better: the warm column \
     confirms it.";
  out

let ablation_reverse_order ?(options = default_options) ?domains () =
  let specs = trace_specs options in
  let rows =
    par_map ?domains
      (fun spec ->
        let run =
          Access_exp.run ~design:Access_exp.Psb
            ~pt_kinds:
              [
                Factory.Hashed_two_tables { coarse_first = false };
                Factory.Hashed_two_tables { coarse_first = true };
                Factory.clustered16;
              ]
            (fixture options spec)
        in
        spec.Workload.Spec.name
        :: List.map
             (fun r -> Report.lines_metric r.Access_exp.mean_lines)
             run.Access_exp.results)
      specs
  in
  Report.print_table
    ~title:
      "Ablation: hashed two-table probe order under a partial-subblock TLB"
    ~header:[ "workload"; "4KB first"; "64KB first"; "clustered" ]
    ~rows;
  Report.note
    "Section 6.3: \"doing the page traversals in the reverse order ... \
     would be a better option\" when most misses hit psb PTEs."

let ablation_asid ?(options = default_options) ?domains () =
  let specs = [ Workload.Table1.compress; Workload.Table1.gcc ] in
  let out =
    par_map ?domains
      (fun spec ->
        (* pipeline-synchronized processes (compress | sh; make/cc1)
           switch on pipe and wait boundaries, far more often than a
           timer quantum *)
        let fx = fixture ~quantum:120 options spec in
        let reference =
          Builder.tables Factory.clustered16 ~policy:`Base
            fx.Builder.assignments
        in
        let trace = Lazy.force fx.Builder.trace in
        let flush_run entries =
          let tlb = Tlb.Intf.fa ~entries () in
          snd (Access_exp.record_misses trace tlb ~reference)
        in
        let acc = Mem.Walk_acc.create () in
        let tagged_run entries =
          let tlb = Tlb.Tagged_tlb.create (Tlb.Intf.fa ~entries ()) in
          Array.iter
            (function
              | Workload.Trace.Switch proc ->
                  Tlb.Tagged_tlb.set_context tlb ~asid:proc
              | Workload.Trace.Access (proc, vpn) -> (
                  Tlb.Tagged_tlb.set_context tlb ~asid:proc;
                  match Tlb.Tagged_tlb.access tlb ~vpn with
                  | `Hit -> ()
                  | `Block_miss | `Subblock_miss -> (
                      Mem.Walk_acc.reset acc;
                      match
                        Pt_common.Intf.lookup_into reference.(proc) acc ~vpn
                      with
                      | Some tr -> Tlb.Tagged_tlb.fill tlb tr
                      | None -> ()))
              | _ -> ())
            trace;
          Tlb.Stats.misses (Tlb.Tagged_tlb.stats tlb)
        in
        ( spec.Workload.Spec.name,
          flush_run 64,
          tagged_run 64,
          flush_run 256,
          tagged_run 256 ))
      specs
  in
  let pct f t =
    Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (float_of_int t /. float_of_int f)))
  in
  Report.print_table
    ~title:"Ablation: context-switch flush vs ASID-tagged TLB"
    ~header:
      [
        "workload"; "flush@64"; "tagged@64"; "saved"; "flush@256"; "tagged@256";
        "saved";
      ]
    ~rows:
      (List.map
         (fun (name, f64, t64, f256, t256) ->
           [
             name;
             string_of_int f64;
             string_of_int t64;
             pct f64 t64;
             string_of_int f256;
             string_of_int t256;
             pct f256 t256;
           ])
         out);
  Report.note
    "Section 7: multiprogramming inflates TLB misses on untagged TLBs \
     (the paper's SuperSPARC flushes on switch; MIPS-style ASIDs do not). \
     Tagging pays off once the TLB can hold several contexts at once.";
  List.map (fun (name, f64, t64, _, _) -> (name, f64, t64)) out

let ablation_placement ?(options = default_options) ?domains () =
  let spec = Workload.Table1.ml in
  let rows =
    par_map ?domains
      (fun p ->
        let rows =
          Size_exp.figure10 ~seed:options.seed ~domains:1 ~placement_p:p
            ~specs:[ spec ] ()
        in
        let row = List.hd rows in
        let get label =
          (List.find (fun c -> c.Size_exp.label = label) row.Size_exp.cells)
            .Size_exp.ratio
        in
        [
          Printf.sprintf "%.2f" p;
          Report.ratio (get "clustered+sp");
          Report.ratio (get "clustered+psb");
          Report.ratio (get "hashed+sp");
        ])
      [ 0.25; 0.5; 0.75; 0.95; 1.0 ]
  in
  Report.print_table
    ~title:"Ablation: compact-PTE savings vs reservation success (ML)"
    ~header:[ "placement p"; "clustered+sp"; "clustered+psb"; "hashed+sp" ]
    ~rows;
  Report.note
    "Section 7: \"When physical memory demand is high, the operating \
     system may not be able to use superpages or partial-subblocking as \
     effectively\"."

let ablation_tlb_size ?(options = default_options) ?domains () =
  let specs =
    [ Workload.Table1.coral; Workload.Table1.nasa7; Workload.Table1.ml ]
  in
  let rows =
    par_map ?domains
      (fun spec ->
        let misses = tlb_misses (fixture options spec) in
        spec.Workload.Spec.name
        :: List.map
             (fun entries -> string_of_int (misses (Tlb.Intf.fa ~entries ())))
             [ 32; 64; 128; 256 ])
      specs
  in
  Report.print_table
    ~title:"Ablation: TLB size sensitivity (single-page-size misses)"
    ~header:[ "workload"; "32"; "64"; "128"; "256" ]
    ~rows

let ablation_guarded ?(options = default_options) ?domains () =
  let specs = [ Workload.Table1.gcc; Workload.Table1.ml ] in
  let rows =
    par_map ?domains
      (fun spec ->
        let run =
          Access_exp.run ~design:Access_exp.Single
            ~pt_kinds:
              [
                Factory.Forward_mapped;
                Factory.Forward_guarded;
                Factory.clustered16;
              ]
            (fixture options spec)
        in
        spec.Workload.Spec.name
        :: List.map
             (fun r -> Report.lines_metric r.Access_exp.mean_lines)
             run.Access_exp.results)
      specs
  in
  Report.print_table
    ~title:"Ablation: guarded page tables [Lied95] vs clustered"
    ~header:[ "workload"; "fwd-mapped"; "fwd-guarded"; "clustered" ]
    ~rows;
  Report.note
    "Guards compress single-child levels, but the tree still branches: \
     Section 2 calls the technique \"partially effective but still \
     require many levels\"."

let ablation_shared_table ?(options = default_options) ?domains () =
  (* gcc: four processes.  Per-process: one clustered table each, its
     own 4096 buckets.  Shared: one table, same total bucket count,
     VPNs tagged with the process id in the top bits. *)
  let assignments =
    (fixture options Workload.Table1.gcc).Builder.assignments
  in
  let tag proc vpn =
    Int64.logor vpn (Int64.shift_left (Int64.of_int (proc + 1)) 52)
  in
  let per_process_tables =
    (* independent tables: build one per domain-pool job.  The shared
       table below stays serial — its chain order depends on global
       insertion order *)
    Exec.Soak.map ?domains
      (fun _ a ->
        let t = Clustered_pt.Table.create (Clustered_pt.Config.make ()) in
        Builder.populate
          (Pt_common.Intf.Instance ((module Clustered_pt.Table), t))
          a ~policy:`Base;
        t)
      assignments
  in
  let per_process =
    Array.map
      (fun t -> Pt_common.Intf.Instance ((module Clustered_pt.Table), t))
      per_process_tables
  in
  let shared = Clustered_pt.Table.create (Clustered_pt.Config.make ()) in
  Array.iteri
    (fun proc a ->
      Builder.iter_pages a (fun vpn ppn ->
          Clustered_pt.Table.insert_base shared ~vpn:(tag proc vpn) ~ppn
            ~attr:Builder.attr))
    assignments;
  (* chain statistics *)
  let max_chain table =
    let m = ref 0 in
    for b = 0 to 4095 do
      m := max !m (Clustered_pt.Table.chain_length table ~bucket:b)
    done;
    !m
  in
  (* mean lines over each process's pages, both ways *)
  let counter_pp = Mem.Cache_model.create_counter () in
  let counter_sh = Mem.Cache_model.create_counter () in
  let acc = Mem.Walk_acc.create () in
  Array.iteri
    (fun proc a ->
      Builder.iter_pages a (fun vpn _ ->
          Mem.Walk_acc.reset acc;
          ignore (Pt_common.Intf.lookup_into per_process.(proc) acc ~vpn);
          ignore (Mem.Cache_model.record_acc counter_pp acc);
          Mem.Walk_acc.reset acc;
          ignore
            (Clustered_pt.Table.lookup_into shared acc ~vpn:(tag proc vpn));
          ignore (Mem.Cache_model.record_acc counter_sh acc)))
    assignments;
  Report.print_table
    ~title:"Ablation: shared vs per-process clustered tables (gcc)"
    ~header:[ "organization"; "tables"; "max chain"; "lines/lookup" ]
    ~rows:
      [
        [
          "per-process";
          string_of_int (Array.length per_process);
          string_of_int
            (Array.fold_left
               (fun acc t -> max acc (max_chain t))
               0 per_process_tables);
          Report.lines_metric (Mem.Cache_model.mean_lines counter_pp);
        ];
        [
          "shared, pid-tagged";
          "1";
          string_of_int (max_chain shared);
          Report.lines_metric (Mem.Cache_model.mean_lines counter_sh);
        ];
      ];
  Report.note
    "Section 7: a shared table's hash distribution depends on the whole \
     process mix; per-process tables keep lookups predictable."

(* Serial: one spec, and both software TLBs mutate as the trace runs. *)
let ablation_software_tlb ?(options = default_options) () =
  let fx = fixture options Workload.Table1.ml in
  (* a conventional TSB: 4096 16-byte entries (64 KB, reach 16 MB) and
     the clustered TSB: 512 144-byte slots (72 KB, reach 32 MB) *)
  let conventional = Baselines.Software_tlb.create ~entries:4096 () in
  let conventional_i =
    Pt_common.Intf.Instance ((module Baselines.Software_tlb), conventional)
  in
  let clustered_tsb = Clustered_pt.Clustered_tsb.create ~slots:512 () in
  let clustered_i =
    Pt_common.Intf.Instance ((module Clustered_pt.Clustered_tsb), clustered_tsb)
  in
  Array.iter
    (fun a ->
      Builder.populate conventional_i a ~policy:`Base;
      Builder.populate clustered_i a ~policy:`Base)
    fx.Builder.assignments;
  let tlb = Tlb.Intf.fa ~entries:64 () in
  let c_conv = Mem.Cache_model.create_counter () in
  let c_clus = Mem.Cache_model.create_counter () in
  let acc = Mem.Walk_acc.create () in
  Array.iter
    (function
      | Workload.Trace.Switch _ -> Tlb.Intf.flush tlb
      | Workload.Trace.Access (_, vpn) -> (
          match Tlb.Intf.access tlb ~vpn with
          | `Hit -> ()
          | `Block_miss | `Subblock_miss -> (
              Mem.Walk_acc.reset acc;
              let tr1 = Pt_common.Intf.lookup_into conventional_i acc ~vpn in
              ignore (Mem.Cache_model.record_acc c_conv acc);
              Mem.Walk_acc.reset acc;
              ignore (Pt_common.Intf.lookup_into clustered_i acc ~vpn);
              ignore (Mem.Cache_model.record_acc c_clus acc);
              match tr1 with
              | Some tr -> Tlb.Intf.fill tlb tr
              | None -> ()))
      | _ -> ())
    (Lazy.force fx.Builder.trace);
  let ratio hits misses =
    let t = hits + misses in
    if t = 0 then 0.0 else float_of_int hits /. float_of_int t
  in
  Report.print_table
    ~title:"Ablation: conventional TSB vs clustered TSB (ML, ~64KB each)"
    ~header:[ "software TLB"; "bytes"; "reach"; "hit ratio"; "lines/miss" ]
    ~rows:
      [
        [
          "conventional (4096x1 page)";
          string_of_int (4096 * 16);
          "16MB";
          Printf.sprintf "%.2f"
            (ratio
               (Baselines.Software_tlb.tsb_hits conventional)
               (Baselines.Software_tlb.tsb_misses conventional));
          Report.lines_metric (Mem.Cache_model.mean_lines c_conv);
        ];
        [
          "clustered (512x16 pages)";
          string_of_int (512 * 144);
          "32MB";
          Printf.sprintf "%.2f"
            (ratio
               (Clustered_pt.Clustered_tsb.tsb_hits clustered_tsb)
               (Clustered_pt.Clustered_tsb.tsb_misses clustered_tsb));
          Report.lines_metric (Mem.Cache_model.mean_lines c_clus);
        ];
      ];
  Report.note
    "Section 7 / [Tall95]: clustering the software TLB gives one tag per \
     page block, tripling reach at equal bytes."

let ablation_nested_linear ?(options = default_options) ?domains () =
  let rows =
    par_map ?domains
      (fun spec ->
        let fx = fixture options spec in
        let assignments = fx.Builder.assignments in
        let reference =
          Builder.tables Factory.clustered16 ~policy:`Base assignments
        in
        (* concrete linear tables (to ask for leaf-page VPNs) and the
           hashed side table holding the page table's own mappings *)
        let linears =
          Array.map
            (fun a ->
              let t = Baselines.Linear_pt.create () in
              Builder.populate
                (Pt_common.Intf.Instance ((module Baselines.Linear_pt), t))
                a ~policy:`Base;
              t)
            assignments
        in
        let side = Baselines.Hashed_pt.create () in
        Array.iteri
          (fun pi a ->
            Builder.iter_pages a (fun vpn _ ->
                let leaf =
                  Baselines.Linear_pt.leaf_page_vpn linears.(pi) ~vpn
                in
                (* the side table maps page-table pages; tag the process
                   into low PPN bits to keep entries apart *)
                Baselines.Hashed_pt.insert_base side ~vpn:leaf
                  ~ppn:(Int64.of_int pi) ~attr:Builder.attr))
          assignments;
        (* drive the data TLB; on each miss consult the reserved
           8-entry TLB for the page table's own mapping *)
        let tlb = Tlb.Intf.fa ~entries:56 () in
        let reserved = Tlb.Intf.fa ~entries:8 () in
        let misses = ref 0 and nested = ref 0 in
        let counter = Mem.Cache_model.create_counter () in
        let acc = Mem.Walk_acc.create () in
        Array.iter
          (function
            | Workload.Trace.Switch _ -> Tlb.Intf.flush tlb
            | Workload.Trace.Access (proc, vpn) -> (
                match Tlb.Intf.access tlb ~vpn with
                | `Hit -> ()
                | `Block_miss | `Subblock_miss -> (
                    incr misses;
                    let leaf =
                      Baselines.Linear_pt.leaf_page_vpn linears.(proc) ~vpn
                    in
                    Mem.Walk_acc.reset acc;
                    ignore
                      (Baselines.Linear_pt.lookup_into linears.(proc) acc ~vpn);
                    (match Tlb.Intf.access reserved ~vpn:leaf with
                    | `Hit -> ()
                    | `Block_miss | `Subblock_miss -> (
                        incr nested;
                        match
                          Baselines.Hashed_pt.lookup_into side acc ~vpn:leaf
                        with
                        | Some tr -> Tlb.Intf.fill reserved tr
                        | None -> ()));
                    ignore (Mem.Cache_model.record_acc counter acc);
                    Mem.Walk_acc.reset acc;
                    match
                      Pt_common.Intf.lookup_into reference.(proc) acc ~vpn
                    with
                    | Some tr -> Tlb.Intf.fill tlb tr
                    | None -> ()))
            | _ -> ())
          (Lazy.force fx.Builder.trace);
        let r = float_of_int !nested /. float_of_int (max 1 !misses) in
        [
          spec.Workload.Spec.name;
          string_of_int !misses;
          Printf.sprintf "%.3f" r;
          Report.lines_metric (Mem.Cache_model.mean_lines counter);
        ])
      [ Workload.Table1.coral; Workload.Table1.future64 ]
  in
  Report.print_table
    ~title:
      "Ablation: linear-table nested misses (8 reserved TLB entries, \
       hashed side table)"
    ~header:[ "workload"; "misses"; "r (nested ratio)"; "lines/miss" ]
    ~rows;
  Report.note
    "Table 2's 1 + r*m: the paper's 32-bit workloads never overflow the \
     reserved entries (footnote 2); a sparse 64-bit address space does."

let ablation_variable_factor ?(options = default_options) ?domains () =
  let specs =
    [
      Workload.Table1.ml;
      Workload.Table1.coral;
      Workload.Table1.spice;
      Workload.Table1.gcc;
      Workload.Table1.future64;
    ]
  in
  let rows =
    par_map ?domains
      (fun spec ->
        let fx = fixture options spec in
        let hashed = base_size Factory.Hashed fx in
        let ratio kind =
          float_of_int (base_size kind fx) /. float_of_int hashed
        in
        [
          spec.Workload.Spec.name;
          Report.ratio (ratio Factory.clustered16);
          Report.ratio (ratio (Factory.Clustered { subblock_factor = 4 }));
          Report.ratio (ratio Factory.Clustered_variable);
        ])
      specs
  in
  Report.print_table
    ~title:"Ablation: variable subblock factors ([Tall95], Section 3)"
    ~header:[ "workload"; "fixed k=16"; "fixed k=4"; "variable" ]
    ~rows;
  Report.note
    "The variable table matches whichever fixed factor suits each \
     workload's density: \"better memory utilization\" for a few extra \
     miss-handler instructions."

let ablation_replacement ?(options = default_options) ?domains () =
  let specs = trace_specs options in
  let rows =
    par_map ?domains
      (fun spec ->
        let misses = tlb_misses (fixture options spec) in
        spec.Workload.Spec.name
        :: List.map
             (fun policy ->
               string_of_int (misses (Tlb.Intf.fa ~policy ~entries:64 ())))
             [ Tlb.Assoc.Lru; Tlb.Assoc.Fifo; Tlb.Assoc.Random 0xC0DEL ])
      specs
  in
  Report.print_table
    ~title:"Ablation: TLB replacement policy (64-entry conventional TLB)"
    ~header:[ "workload"; "LRU"; "FIFO"; "random (R4000-style)" ]
    ~rows;
  Report.note
    "The paper assumes LRU; the MIPS R4000 replaces a random non-wired \
     entry.  Figure 11's lines-per-miss metric is unchanged by policy."

let extension_future64 ?(options = default_options) ?domains () =
  let rows =
    Size_exp.figure9 ~seed:options.seed ?domains
      ~specs:[ Workload.Table1.future64 ] ()
  in
  (match rows with
  | [ row ] ->
      Report.print_table
        ~title:"Extension: the Section 6.2 'future 64-bit workload'"
        ~header:
          ("pages"
          :: List.map (fun c -> c.Size_exp.label) row.Size_exp.cells)
        ~rows:
          [
            string_of_int row.Size_exp.pages
            :: List.map
                 (fun c -> Report.ratio c.Size_exp.ratio)
                 row.Size_exp.cells;
          ]
  | _ -> ());
  Report.note
    "60k pages scattered through 16 TB: linear and forward-mapped tables \
     collapse while clustered stays under the hashed baseline — \"such \
     workloads would make ... both hashed and clustered page tables more \
     attractive\" (Section 6.2)."

(* --- Extension: dynamic address-space churn (lib/dynamics) --- *)

type churn_row = {
  churn_name : string;  (* table label, e.g. "clustered-16" *)
  churn_policy : string;  (* "base" | "sp" | "psb" *)
  churn_seeds : int;
  churn_peak_kb : float;  (* mean over seeds of the sampled peak *)
  churn_final_bytes : float;  (* mean over seeds, after the drain *)
  churn_insert_lines : float;  (* mean cache lines per insert walk *)
  churn_delete_lines : float;
  churn_promotions : int;  (* summed over seeds *)
  churn_demotions : int;
  churn_cow_breaks : int;
  churn_final_nodes : int;  (* seed-0 run; 0 when the org has no probe *)
  churn_series : (int * int * int) list;
      (* seed-0 time series: (op, live pages, pt bytes) *)
}

(* The one churn-row encoder: ptsim's churn --json and the bench
   JSON's churn section print the same row shape. *)
let churn_row_to_json r =
  Jsonx.obj
    [
      ("table", Jsonx.string r.churn_name);
      ("policy", Jsonx.string r.churn_policy);
      ("seeds", Jsonx.int r.churn_seeds);
      ("peak_kb", Jsonx.fixed ~dp:1 r.churn_peak_kb);
      ("final_bytes", Jsonx.fixed ~dp:0 r.churn_final_bytes);
      ("insert_lines", Jsonx.fixed ~dp:3 r.churn_insert_lines);
      ("delete_lines", Jsonx.fixed ~dp:3 r.churn_delete_lines);
      ("promotions", Jsonx.int r.churn_promotions);
      ("demotions", Jsonx.int r.churn_demotions);
      ("cow_breaks", Jsonx.int r.churn_cow_breaks);
      ("final_nodes", Jsonx.int r.churn_final_nodes);
    ]

let churn_policy_tag = function
  | Os_policy.Address_space.Base_only -> "base"
  | Os_policy.Address_space.Partial_subblock -> "psb"
  | Os_policy.Address_space.Superpage_promotion -> "sp"

(* Every organization family, each under the strongest page-size policy
   it supports: orgs without superpage storage run base-only, the rest
   promote, and clustered additionally runs the psb policy. *)
let churn_configs =
  [
    (Factory.Linear1, Os_policy.Address_space.Superpage_promotion);
    (Factory.Forward_mapped, Os_policy.Address_space.Superpage_promotion);
    (Factory.Hashed, Os_policy.Address_space.Base_only);
    ( Factory.Hashed_two_tables { coarse_first = false },
      Os_policy.Address_space.Superpage_promotion );
    (Factory.Inverted, Os_policy.Address_space.Base_only);
    (Factory.Software_tlb, Os_policy.Address_space.Base_only);
    (Factory.clustered16, Os_policy.Address_space.Superpage_promotion);
    (Factory.clustered16, Os_policy.Address_space.Partial_subblock);
    (Factory.Clustered_variable, Os_policy.Address_space.Superpage_promotion);
    (Factory.Clustered_two_tables, Os_policy.Address_space.Superpage_promotion);
  ]

let churn ?(options = default_options) ?domains ?(seeds = 3) ?(ops = 8_000)
    ?(procs = 8) ?(sample_every = 0) () =
  let seeds = max 1 seeds in
  let sample_every =
    if sample_every <= 0 then max 1 (ops / 16) else sample_every
  in
  let spec = { Dynamics.Churn.default with ops; max_procs = max 1 procs } in
  (* jobs are (config, seed-index) pairs; both the trace seed and the
     engine are functions of the pair alone, so the fan-out is
     bit-identical for any domain count *)
  let jobs =
    List.concat_map
      (fun cfg -> List.init seeds (fun s -> (cfg, s)))
      churn_configs
  in
  let results =
    par_map ?domains
      (fun ((kind, policy), s) ->
        let seed = Int64.add options.seed (Int64.of_int (0x6C1 * s)) in
        let trace = Dynamics.Churn.generate ~spec ~seed () in
        let cfg =
          {
            Dynamics.Engine.make_pt = (fun () -> Factory.make_probed kind);
            policy;
            subblock_factor = 16;
            total_pages = 1 lsl 18;
            sample_every;
            line_size = Mem.Cache_model.default_line_size;
          }
        in
        Dynamics.Engine.run cfg trace)
      jobs
  in
  let rec chunk = function
    | [] -> []
    | rs ->
        let rec split i acc = function
          | r :: tl when i < seeds -> split (i + 1) (r :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let group, rest = split 0 [] rs in
        group :: chunk rest
  in
  let groups = chunk results in
  let mean f rs =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rs /. float_of_int seeds
  in
  let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let rows =
    List.map2
      (fun (kind, policy) rs ->
        let first = List.hd rs in
        {
          churn_name = Factory.name kind;
          churn_policy = churn_policy_tag policy;
          churn_seeds = seeds;
          churn_peak_kb =
            mean
              (fun r ->
                float_of_int r.Dynamics.Engine.peak_pt_bytes /. 1024.0)
              rs;
          churn_final_bytes =
            mean (fun r -> float_of_int r.Dynamics.Engine.final_pt_bytes) rs;
          churn_insert_lines = mean (fun r -> r.Dynamics.Engine.insert_lines) rs;
          churn_delete_lines = mean (fun r -> r.Dynamics.Engine.delete_lines) rs;
          churn_promotions = sum (fun r -> r.Dynamics.Engine.promotions) rs;
          churn_demotions = sum (fun r -> r.Dynamics.Engine.demotions) rs;
          churn_cow_breaks = sum (fun r -> r.Dynamics.Engine.cow_breaks) rs;
          churn_final_nodes = first.Dynamics.Engine.final_pt_nodes;
          churn_series =
            Array.to_list
              (Array.map
                 (fun (s : Dynamics.Engine.sample) ->
                   (s.op, s.live_pages, s.pt_bytes))
                 first.Dynamics.Engine.samples);
        })
      churn_configs groups
  in
  let label row = row.churn_name ^ "/" ^ row.churn_policy in
  (* publish the seed-0 footprint series (already domain-invariant:
     each sample is a pure function of (config, seed 0)) *)
  List.iter
    (fun r ->
      List.iter
        (fun (op, live, bytes) ->
          Obs.Series.push ~label:("churn:" ^ label r) ~index:op
            [ ("churn.live_pages", live); ("churn.pt_bytes", bytes) ])
        r.churn_series)
    rows;
  Report.print_table
    ~title:
      (Printf.sprintf
         "Churn: page-table modify costs under address-space churn (%d ops, \
          %d seed%s)"
         ops seeds
         (if seeds = 1 then "" else "s"))
    ~header:
      [
        "table"; "peak KB"; "final B"; "ins lines"; "del lines"; "promote";
        "demote"; "cow copy";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             label r;
             Printf.sprintf "%.1f" r.churn_peak_kb;
             Printf.sprintf "%.0f" r.churn_final_bytes;
             Report.lines_metric r.churn_insert_lines;
             Report.lines_metric r.churn_delete_lines;
             string_of_int r.churn_promotions;
             string_of_int r.churn_demotions;
             string_of_int r.churn_cow_breaks;
           ])
         rows);
  Report.note
    "Mmap/munmap/fork/exit/COW streams from lib/dynamics: inserts and \
     deletes are charged the cache lines of the walk that finds the slot \
     (Section 3.1); the drain suffix unmaps everything, so 'final B' is \
     each table's empty footprint — node-based and linear tables reclaim \
     fully, forward-mapped keeps its upper-level directory, and the \
     fixed-size structures (inverted frame table, TSB arrays) never \
     shrink.";
  (* the Figure-9-over-time headline: footprint tracking live mappings *)
  (match rows with
  | first :: _ ->
      let steps = List.length first.churn_series in
      let series_rows =
        List.init steps (fun i ->
            let op, live, _ = List.nth first.churn_series i in
            string_of_int op :: string_of_int live
            :: List.map
                 (fun r ->
                   let _, _, bytes = List.nth r.churn_series i in
                   Printf.sprintf "%.1f" (float_of_int bytes /. 1024.0))
                 rows)
      in
      Report.print_table
        ~title:"Churn: page-table KB over time (seed 0)"
        ~header:("op" :: "live pages" :: List.map label rows)
        ~rows:series_rows;
      Report.note
        "Clustered footprints track the live-page curve through the \
         grow/churn/shrink phases and return to the empty-table baseline \
         after the drain; replicating organizations swing far wider for \
         the same mappings."
  | [] -> ());
  rows

let ablations ?(options = default_options) ?domains () =
  ignore (ablation_line_size ~options ?domains ());
  ablation_subblock ~options ?domains ();
  ignore (ablation_buckets ~options ?domains ());
  ignore (ablation_residency ~options ?domains ());
  ablation_reverse_order ~options ?domains ();
  ignore (ablation_asid ~options ?domains ());
  ablation_placement ~options ?domains ();
  ablation_tlb_size ~options ?domains ();
  ablation_software_tlb ~options ();
  ablation_shared_table ~options ?domains ();
  ablation_guarded ~options ?domains ();
  ablation_nested_linear ~options ?domains ();
  ablation_variable_factor ~options ?domains ();
  ablation_replacement ~options ?domains ();
  extension_future64 ~options ?domains ()

let all ?(options = default_options) ?domains () =
  ignore (table1 ~options ?domains ());
  ignore (figure9 ~options ?domains ());
  ignore (figure10 ~options ?domains ());
  ignore (figure11 ~options ?domains ~design:Access_exp.Single ());
  ignore (figure11 ~options ?domains ~design:Access_exp.Superpage ());
  ignore (figure11 ~options ?domains ~design:Access_exp.Psb ());
  ignore (figure11 ~options ?domains ~design:Access_exp.Csb ());
  table2 ~options ?domains ();
  ablations ~options ?domains ()

(* churn defaults scaled for [all]-style full runs vs --quick smokes *)
let churn_for_suite ?(options = default_options) ?domains () =
  churn ~options ?domains
    ~seeds:(if options.quick then 1 else 2)
    ~ops:(if options.quick then 2_000 else 6_000)
    ()

type verify_report = {
  claims : (string * bool) list;
  lines_per_miss : (string * string * float) list;
}

let verify_report ?(options = default_options) ?domains () =
  let acc = ref [] in
  let check name cond = acc := (name, cond) :: !acc in
  (* Figure 9 *)
  let rows = Size_exp.figure9 ~seed:options.seed ?domains () in
  let get row label =
    (List.find (fun c -> c.Size_exp.label = label) row.Size_exp.cells)
      .Size_exp.ratio
  in
  check "Fig 9: clustered < hashed on every workload"
    (List.for_all (fun r -> get r "clustered" < 1.0) rows);
  check "Fig 9: clustered <= 1-level linear on every workload"
    (List.for_all (fun r -> get r "clustered" <= get r "linear-1L") rows);
  check "Fig 9: 6-level linear > 5x hashed on gcc and compress"
    (List.for_all
       (fun r -> get r "linear-6L" > 5.0)
       (List.filter
          (fun r ->
            r.Size_exp.workload = "gcc" || r.Size_exp.workload = "compress")
          rows));
  (* Figure 10 *)
  let rows10 =
    Size_exp.figure10 ~seed:options.seed ?domains
      ~placement_p:options.placement_p ()
  in
  (* the paper's claims are "upto 75%" / "upto 80%": best-case cuts *)
  let best f =
    List.fold_left (fun acc r -> max acc (f r)) 0.0 rows10
  in
  check "Fig 10: superpage PTEs never grow the table"
    (List.for_all (fun r -> get r "clustered+sp" <= get r "clustered") rows10);
  check "Fig 10: superpage PTEs cut clustered size by up to >= 55%"
    (best (fun r -> 1.0 -. (get r "clustered+sp" /. get r "clustered")) >= 0.55);
  check "Fig 10: psb PTEs cut clustered size by up to >= 75%"
    (best (fun r -> 1.0 -. (get r "clustered+psb" /. get r "clustered")) >= 0.75);
  (* Figure 11, on a fast subset *)
  let spec = Workload.Table1.nasa7 in
  let mean run pt_prefix =
    (List.find
       (fun r ->
         String.length r.Access_exp.pt >= String.length pt_prefix
         && String.sub r.Access_exp.pt 0 (String.length pt_prefix) = pt_prefix)
       run.Access_exp.results)
      .Access_exp.mean_lines
  in
  let fx = fixture options spec in
  let run design =
    Access_exp.run ~design ~pt_kinds:(Access_exp.kinds_for design) fx
  in
  let a = run Access_exp.Single in
  check "Fig 11a: forward-mapped = 7 lines/miss" (mean a "fwd-mapped" = 7.0);
  check "Fig 11a: clustered within 20% of one line" (mean a "clustered" < 1.2);
  let b = run Access_exp.Superpage in
  check "Fig 11b: superpages cut misses by > 50%"
    ((List.hd b.Access_exp.results).Access_exp.misses * 2
    < (List.hd a.Access_exp.results).Access_exp.misses);
  check "Fig 11b: hashed pays more than clustered"
    (mean b "hashed" > mean b "clustered");
  let d = run Access_exp.Csb in
  check "Fig 11d: prefetch from hashed costs > 8 lines" (mean d "hashed" > 8.0);
  check "Fig 11d: prefetch from clustered stays near one line"
    (mean d "clustered" < 1.5);
  (* Table 2 *)
  let n p = nactive fx.Builder.snap p in
  check "Table 2: clustered size = (8s+16) * Nactive(16)"
    (base_size Factory.clustered16 fx
    = Analytic.clustered_size ~subblock_factor:16 ~nactive_s:(n 16));
  check "Table 2: hashed size = 24 * Nactive(1)"
    (base_size Factory.Hashed fx = Analytic.hashed_size ~nactive1:(n 1));
  let lines_of tag run =
    List.map
      (fun r -> (tag, r.Access_exp.pt, r.Access_exp.mean_lines))
      run.Access_exp.results
  in
  {
    claims = List.rev !acc;
    lines_per_miss =
      lines_of "single" a @ lines_of "superpage" b @ lines_of "csb" d;
  }

let verify ?(options = default_options) ?domains () =
  Printf.printf "\n== Verifying the paper's headline claims ==\n";
  let report = verify_report ~options ?domains () in
  List.iter
    (fun (name, cond) ->
      Printf.printf "  [%s] %s\n%!" (if cond then "PASS" else "FAIL") name)
    report.claims;
  let ok = List.for_all snd report.claims in
  Printf.printf "%s\n"
    (if ok then "All headline claims hold." else "SOME CLAIMS FAILED.");
  ok

(* --- service throughput (lib/service): ops/sec vs domains --- *)

type throughput_row = {
  tp_org : string;
  tp_locking : string;
  tp_domains : int;
  tp_total_ops : int;
  tp_elapsed_s : float;
  tp_ops_per_sec : float;
  tp_read_locks : int;
  tp_write_locks : int;
  tp_read_contention : int;
  tp_sq_retries : int;
  tp_sq_fallbacks : int;
  tp_population : int;
}

(* Deterministic fields first, the timing fields last (the differs
   compare the former and ignore the latter). *)
let throughput_row_to_json r =
  Jsonx.obj
    [
      ("table", Jsonx.string r.tp_org); ("locking", Jsonx.string r.tp_locking);
      ("domains", Jsonx.int r.tp_domains);
      ("total_ops", Jsonx.int r.tp_total_ops);
      ("read_locks", Jsonx.int r.tp_read_locks);
      ("write_locks", Jsonx.int r.tp_write_locks);
      ("read_contention", Jsonx.int r.tp_read_contention);
      ("seqlock_retries", Jsonx.int r.tp_sq_retries);
      ("seqlock_fallbacks", Jsonx.int r.tp_sq_fallbacks);
      ("population", Jsonx.int r.tp_population);
      ("ops_per_sec", Jsonx.fixed ~dp:0 r.tp_ops_per_sec);
      ("elapsed_s", Jsonx.fixed ~dp:3 r.tp_elapsed_s);
    ]

let row_of_result (r : Pt_service.Throughput.result) =
  {
    tp_org = Pt_service.Service.org_name r.Pt_service.Throughput.org;
    tp_locking =
      Pt_service.Service.locking_name r.Pt_service.Throughput.locking;
    tp_domains = r.Pt_service.Throughput.domains;
    tp_total_ops = r.Pt_service.Throughput.total_ops;
    tp_elapsed_s = r.Pt_service.Throughput.elapsed_s;
    tp_ops_per_sec = r.Pt_service.Throughput.ops_per_sec;
    tp_read_locks = r.Pt_service.Throughput.read_locks;
    tp_write_locks = r.Pt_service.Throughput.write_locks;
    tp_read_contention = r.Pt_service.Throughput.read_contention;
    tp_sq_retries = r.Pt_service.Throughput.seqlock_retries;
    tp_sq_fallbacks = r.Pt_service.Throughput.seqlock_fallbacks;
    tp_population = r.Pt_service.Throughput.population;
  }

let throughput ?(domains_list = [ 1; 2; 4; 8 ]) ?(streams = 0)
    ?(ops_per_domain = 100_000) ?(vpns_per_domain = 4_096) ?(seed = 42)
    ?(pairs =
      Pt_service.Service.
        [
          (Clustered, Striped);
          (Clustered, Global);
          (Clustered, Seqlock);
          (Hashed, Striped);
          (Hashed, Global);
          (Hashed, Seqlock);
        ]) () =
  let m = Pt_service.Throughput.default_mix in
  Printf.printf "\n== Service throughput: mixed ops against one shared table ==\n";
  Printf.printf
    "  mix %d/%d/%d/%d lookup/insert/remove/protect; %d ops, %d-page \
     working set per domain\n"
    m.Pt_service.Throughput.lookup_pct m.Pt_service.Throughput.insert_pct
    m.Pt_service.Throughput.remove_pct m.Pt_service.Throughput.protect_pct
    ops_per_domain vpns_per_domain;
  Printf.printf "  %-10s %-8s %8s %14s %9s %12s %12s\n" "table" "locking"
    "domains" "ops/sec" "speedup" "read locks" "write locks";
  List.concat_map
    (fun (org, locking) ->
      let base_rate = ref 0.0 in
      List.mapi
        (fun i domains ->
          let cfg =
            {
              Pt_service.Throughput.default_config with
              domains;
              streams;
              ops_per_domain;
              vpns_per_domain;
              seed;
            }
          in
          let r = Pt_service.Throughput.run ~org ~locking cfg in
          (* series point per completed row; the index is the row's
             position in the sweep, not the domain count, so a
             single-row sweep marks index 0 for any --domains *)
          Obs.Series.mark
            ~label:
              (Printf.sprintf "throughput:%s/%s"
                 (Pt_service.Service.org_name org)
                 (Pt_service.Service.locking_name locking))
            ~index:i;
          if !base_rate = 0.0 then
            base_rate := r.Pt_service.Throughput.ops_per_sec;
          Printf.printf "  %-10s %-8s %8d %14.0f %8.2fx %12d %12d\n%!"
            (Pt_service.Service.org_name org)
            (Pt_service.Service.locking_name locking)
            domains r.Pt_service.Throughput.ops_per_sec
            (r.Pt_service.Throughput.ops_per_sec /. !base_rate)
            r.Pt_service.Throughput.read_locks
            r.Pt_service.Throughput.write_locks;
          row_of_result r)
        domains_list)
    pairs

let throughput_for_suite ?(options = default_options) () =
  if options.quick then
    throughput ~domains_list:[ 1; 2 ] ~ops_per_domain:20_000 ()
  else throughput ()

(* Lookup-throughput-vs-domains under the read-mostly mix: the
   lock-free (seqlock) read path against the striped lock it falls
   back to.  Few buckets on purpose — stripes are genuinely shared
   between domains, so the striped lock pays its cache-line ping-pong
   while optimistic readers touch no lock word at all.  [streams] is
   fixed across the sweep, keeping every logical column of a row
   (ops, write locks, population) identical for any domain count.

   Each row is run [reps] times and the median-rate rep is reported:
   with more domains than cores the timed region is at the mercy of
   the scheduler (and of stop-the-world GC rendezvous), and a single
   sample of a sub-second region is a coin flip.  The logical columns
   are identical across reps — only the clock varies. *)
let throughput_curve ?(domains_list = [ 1; 2; 4; 8 ]) ?(streams = 8)
    ?(ops_per_domain = 50_000) ?(vpns_per_domain = 2_048) ?(buckets = 256)
    ?(seed = 42) ?(reps = 5) () =
  let m = Pt_service.Throughput.read_mostly_mix in
  Printf.printf
    "\n== Lock-free lookup scaling: seqlock vs striped, read-mostly ==\n";
  Printf.printf
    "  mix %d/%d/%d/%d lookup/insert/remove/protect; %d streams over %d \
     buckets, %d ops per stream; median of %d reps\n"
    m.Pt_service.Throughput.lookup_pct m.Pt_service.Throughput.insert_pct
    m.Pt_service.Throughput.remove_pct m.Pt_service.Throughput.protect_pct
    streams buckets ops_per_domain reps;
  Printf.printf "  %-10s %-8s %8s %14s %9s %10s %10s %10s\n" "table" "locking"
    "domains" "ops/sec" "speedup" "rd locks" "retries" "fallbacks";
  List.concat_map
    (fun (org, locking) ->
      let base_rate = ref 0.0 in
      List.map
        (fun domains ->
          let cfg =
            {
              Pt_service.Throughput.default_config with
              domains;
              streams;
              ops_per_domain;
              vpns_per_domain;
              buckets;
              mix = m;
              seed;
            }
          in
          let runs =
            List.init (max 1 reps) (fun _ ->
                Pt_service.Throughput.run ~org ~locking cfg)
          in
          let r =
            List.nth
              (List.sort
                 (fun a b ->
                   compare a.Pt_service.Throughput.ops_per_sec
                     b.Pt_service.Throughput.ops_per_sec)
                 runs)
              (max 1 reps / 2)
          in
          if !base_rate = 0.0 then
            base_rate := r.Pt_service.Throughput.ops_per_sec;
          Printf.printf "  %-10s %-8s %8d %14.0f %8.2fx %10d %10d %10d\n%!"
            (Pt_service.Service.org_name org)
            (Pt_service.Service.locking_name locking)
            domains r.Pt_service.Throughput.ops_per_sec
            (r.Pt_service.Throughput.ops_per_sec /. !base_rate)
            r.Pt_service.Throughput.read_locks
            r.Pt_service.Throughput.seqlock_retries
            r.Pt_service.Throughput.seqlock_fallbacks;
          row_of_result r)
        domains_list)
    Pt_service.Service.
      [
        (Clustered, Seqlock);
        (Clustered, Striped);
        (Hashed, Seqlock);
        (Hashed, Striped);
      ]

let throughput_curve_for_suite ?(options = default_options) () =
  if options.quick then
    (* 4 domains stays in the quick sweep: the scaling claim the bench
       gate checks lives at >= 4.  Ops stay high enough that each row's
       timed region is long against scheduler and GC-rendezvous noise
       — at 10k ops per stream the 4-domain rows were coin flips. *)
    throughput_curve ~domains_list:[ 1; 2; 4 ] ~ops_per_domain:30_000 ()
  else throughput_curve ()

(* --- ptsim inspect: structural telemetry for built tables --- *)

type inspect_row = {
  ins_workload : string;
  ins_nodes : int;
  ins_bucket_obs : int;  (** chain-length observations = buckets x procs *)
  ins_chain_mean : float;
  ins_alpha : float;  (** analytic load factor, Nactive(s) / buckets *)
  ins_lines : float;  (** appendix lines-per-miss at that load factor *)
  ins_report : Obs.Probe.report;
}

(* Build each workload's per-process tables exactly as the size
   experiments do (fresh table per process, Base policy), probe their
   structure, and put the measured chain-length mean next to the
   appendix's load factor.  The probe observes every bucket, so the
   mean is node_count / buckets — with one node per active block under
   [`Base], that is alpha = Nactive(s) / buckets up to builder
   rounding, which is the 5%-agreement check [verify] leans on. *)
let inspect ?(options = default_options) ?domains
    ?(org = `Clustered) () =
  let specs = trace_specs options in
  let make, lines_at =
    match org with
    | `Clustered ->
        ( (fun () ->
            Pt_common.Intf.Concurrent
              ( (module Clustered_pt.Table),
                Clustered_pt.Table.create (Clustered_pt.Config.make ()) )),
          Analytic.clustered_lines )
    | `Hashed ->
        ( (fun () ->
            Pt_common.Intf.Concurrent
              ((module Baselines.Hashed_pt), Baselines.Hashed_pt.create ())),
          Analytic.hashed_lines )
  in
  (* an empty table names the organization and its block size *)
  let (Concurrent ((module T), sample)) = make () in
  let factor = T.pages_per_section sample in
  let rows =
    par_map ?domains
      (fun spec ->
        let fx = fixture options spec in
        let report = Obs.Probe.create () in
        let nodes = ref 0
        and buckets = ref 0 in
        Array.iter
          (fun a ->
            let (Concurrent ((module T), table)) = make () in
            Builder.populate (Instance ((module T), table)) a ~policy:`Base;
            ignore (Obs.Probe.table (module T) ~into:report table);
            nodes := !nodes + T.node_count table;
            buckets := !buckets + T.buckets table)
          fx.Builder.assignments;
        let alpha =
          float_of_int (nactive fx.Builder.snap factor) /. float_of_int !buckets
        in
        let lines = lines_at ~load_factor:alpha in
        (* export under a per-workload prefix so --metrics-out carries
           the same distributions the report prints *)
        Obs.Probe.to_metrics (Obs.Ambient.get ())
          ~prefix:("inspect." ^ spec.Workload.Spec.name)
          report;
        {
          ins_workload = spec.Workload.Spec.name;
          ins_nodes = !nodes;
          ins_bucket_obs = !buckets;
          ins_chain_mean = Obs.Hist.mean report.Obs.Probe.chain_length;
          ins_alpha = alpha;
          ins_lines = lines;
          ins_report = report;
        })
      specs
  in
  Printf.printf "\n== Structure: %s tables built per Table 1 workload ==\n"
    T.name;
  List.iter
    (fun row ->
      Printf.printf "\n-- %s (%d nodes over %d buckets) --\n" row.ins_workload
        row.ins_nodes row.ins_bucket_obs;
      Format.printf "%a@." Obs.Probe.pp row.ins_report)
    rows;
  Report.print_table
    ~title:
      (Printf.sprintf "Chain length vs appendix load factor (%s)" T.name)
    ~header:
      [ "workload"; "mean chain"; "analytic alpha"; "delta"; "lines/miss" ]
    ~rows:
      (List.map
         (fun row ->
           let delta =
             if row.ins_alpha = 0.0 then 0.0
             else
               100.0
               *. (row.ins_chain_mean -. row.ins_alpha)
               /. row.ins_alpha
           in
           [
             row.ins_workload;
             Printf.sprintf "%.4f" row.ins_chain_mean;
             Printf.sprintf "%.4f" row.ins_alpha;
             Printf.sprintf "%+.1f%%" delta;
             Printf.sprintf "%.3f" row.ins_lines;
           ])
         rows);
  Report.note
    "mean chain = nodes/buckets over every bucket; the appendix's \
     lines-per-miss is 1 + alpha/2 (Table 2).";
  rows
