(* The paper's title question, end to end: what happens to each page
   table when the address space actually goes 64-bit?

   Section 6.2 predicts "future 64-bit workloads and object-oriented
   programs to have larger and sparser address spaces ... make both
   hashed and clustered page tables more attractive".  This example
   runs the synthetic future workload (60k pages scattered through
   16 TB) against every organization.

   Run with: dune exec examples/sixty_four_bit.exe *)

module Intf = Pt_common.Intf

let () =
  let spec = Workload.Table1.future64 in
  let seed = 0x64_64L in
  let snap = Workload.Snapshot.generate spec ~seed in
  Printf.printf
    "a 64-bit object store: %d pages in %d objects, scattered over 16 TB\n\n"
    (Workload.Snapshot.total_pages snap)
    (List.fold_left
       (fun acc p -> acc + List.length p.Workload.Snapshot.segments)
       0 snap.Workload.Snapshot.procs);

  let assignments =
    List.mapi
      (fun i proc ->
        Sim.Builder.assign proc ~seed:(Int64.add seed (Int64.of_int i)) ())
      snap.Workload.Snapshot.procs
    |> Array.of_list
  in
  let size kind = Sim.Size_exp.size_of kind ~policy:`Base ~assignments in
  let hashed = size Sim.Factory.Hashed in
  Printf.printf "page-table memory (hashed = %.0f KB = 1.00):\n"
    (float_of_int hashed /. 1024.0);
  List.iter
    (fun kind ->
      let bytes = size kind in
      Printf.printf "  %-14s %8.0f KB  (%.2fx)\n" (Sim.Factory.name kind)
        (float_of_int bytes /. 1024.0)
        (float_of_int bytes /. float_of_int hashed))
    [
      Sim.Factory.Linear6;
      Sim.Factory.Forward_mapped;
      Sim.Factory.Forward_guarded;
      Sim.Factory.Hashed;
      Sim.Factory.clustered16;
      Sim.Factory.Clustered_variable;
    ];

  (* and the access side: the trees pay per level, the hashes pay per
     chain node, the clustered table pays one node *)
  Printf.printf "\ncache lines per TLB miss (single-page-size TLB):\n";
  let run =
    Sim.Access_exp.run ~design:Sim.Access_exp.Single
      ~pt_kinds:
        [
          Sim.Factory.Linear1;
          Sim.Factory.Forward_mapped;
          Sim.Factory.Forward_guarded;
          Sim.Factory.Hashed;
          Sim.Factory.clustered16;
        ]
      (Sim.Builder.fixture spec ~seed ~length:40_000)
  in
  List.iter
    (fun r ->
      Printf.printf "  %-14s %.2f\n" r.Sim.Access_exp.pt
        r.Sim.Access_exp.mean_lines)
    run.Sim.Access_exp.results;

  print_endline
    "\nLinear and forward-mapped tables pay for 64 bits in both memory\n\
     (a page or node per scattered object) and, for the trees, in walk\n\
     depth; guards only soften the latter.  At 4096 buckets both hash\n\
     tables are overloaded, but clustering divides the load factor by\n\
     the pages-per-block (8.2 vs 1.9 lines here) and Section 7's fix —\n\
     more buckets — costs the clustered table 16x less to apply:";

  (* apply the Section 7 fix: grow the bucket array to the population *)
  let table =
    Clustered_pt.Table.create (Clustered_pt.Config.make ~buckets:16384 ())
  in
  let instance =
    Pt_common.Intf.Instance ((module Clustered_pt.Table), table)
  in
  Array.iter
    (fun a -> Sim.Builder.populate instance a ~policy:`Base)
    assignments;
  let counter = Mem.Cache_model.create_counter () in
  let acc = Mem.Walk_acc.create () in
  Array.iter
    (fun a ->
      Sim.Builder.iter_pages a (fun vpn _ ->
          Mem.Walk_acc.reset acc;
          ignore (Clustered_pt.Table.lookup_into table acc ~vpn);
          ignore (Mem.Cache_model.record_acc counter acc)))
    assignments;
  Printf.printf "  clustered @ 16384 buckets: %.2f lines/lookup\n"
    (Mem.Cache_model.mean_lines counter)
