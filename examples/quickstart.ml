(* Quickstart: create a clustered page table, map some memory, service
   a TLB miss, and watch the node structure do its thing.

   Run with: dune exec examples/quickstart.exe *)

let attr = Pte.Attr.default

let () =
  (* A clustered page table with the paper's parameters: subblock
     factor 16 (64 KB page blocks), 4096 hash buckets. *)
  let table = Clustered_pt.Table.create Clustered_pt.Config.default in

  (* Map a 40-page buffer starting at virtual address 0x4100_0000. *)
  let first_vpn = Addr.Vaddr.vpn 0x4100_0000L in
  for i = 0 to 39 do
    Clustered_pt.Table.insert_base table
      ~vpn:(Int64.add first_vpn (Int64.of_int i))
      ~ppn:(Int64.of_int (0x200 + i))
      ~attr
  done;

  (* Forty pages span three 16-page blocks: three nodes, not forty. *)
  Printf.printf "mapped %d pages in %d nodes (%d bytes of page table)\n"
    (Clustered_pt.Table.population table)
    (Clustered_pt.Table.node_count table)
    (Clustered_pt.Table.size_bytes table);
  Printf.printf "a hashed page table would need %d bytes (24 per page)\n\n"
    (24 * 40);

  (* Service a TLB miss: translate a faulting address. *)
  let faulting = 0x4100_5678L in
  (* the walk's reads are charged to an accumulator *)
  let walk = Mem.Walk_acc.create () in
  (match
     Clustered_pt.Table.lookup_into table walk ~vpn:(Addr.Vaddr.vpn faulting)
   with
  | Some tr ->
      Format.printf "lookup %a -> %a@." Addr.Vaddr.pp faulting
        Pt_common.Types.pp_translation tr;
      Printf.printf "the walk read %d node(s) and touched %d cache line(s)\n\n"
        (Mem.Walk_acc.probes walk)
        (Mem.Cache_model.record_acc (Mem.Cache_model.create_counter ()) walk)
  | None -> print_endline "page fault!");

  (* The OS notices the first block is fully populated and properly
     placed, and promotes it to a 64 KB superpage PTE (Section 5). *)
  let summary = Clustered_pt.Table.block_summary table ~vpn:first_vpn in
  Printf.printf "block summary: base pages 0x%04x, promotable: %s\n"
    summary.Clustered_pt.Table.base_vmask
    (match summary.Clustered_pt.Table.promotable_ppn with
    | Some ppn -> Printf.sprintf "yes (block frame 0x%Lx)" ppn
    | None -> "no");
  ignore (Clustered_pt.Table.promote_block table ~vpn:first_vpn);
  Printf.printf "after promotion: %d bytes of page table\n"
    (Clustered_pt.Table.size_bytes table);

  (* The promoted mapping translates the same addresses. *)
  Mem.Walk_acc.reset walk;
  match Clustered_pt.Table.lookup_into table walk ~vpn:first_vpn with
  | Some tr ->
      Format.printf "lookup after promotion -> %a@."
        Pt_common.Types.pp_translation tr
  | None -> print_endline "page fault!"
