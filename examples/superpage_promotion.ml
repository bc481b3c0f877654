(* Demand paging under the three page-size policies of Section 6.1:
   base pages only, partial-subblock PTEs, and dynamic superpage
   promotion — with page reservation making the latter two possible.

   Run with: dune exec examples/superpage_promotion.exe *)

module A = Os_policy.Address_space
module Intf = Pt_common.Intf

let attr = Pte.Attr.default

let clustered () =
  Intf.Instance
    ((module Clustered_pt.Table), Clustered_pt.Table.create Clustered_pt.Config.default)

let run policy name =
  let pt = clustered () in
  let aspace = A.create ~pt ~total_pages:8192 ~policy () in
  (* an mmap'd file: 24 blocks (1.5 MB), faulted in page by page the
     way a streaming read would touch it *)
  let region = Addr.Region.make ~first_vpn:0x9000L ~pages:384 in
  A.declare_region aspace region attr;
  Addr.Region.iter_vpns region (fun vpn ->
      match A.fault aspace ~vpn with
      | `Mapped _ -> ()
      | `Already_mapped _ | `Segfault | `Oom -> assert false);
  let stats = A.allocator_stats aspace in
  Printf.printf
    "%-22s page table: %6d bytes   promotions: %2d   reservations: %d\n" name
    (Intf.size_bytes pt) (A.promotions aspace)
    stats.Mem.Phys_alloc.reservations_made;
  pt

let () =
  Printf.printf "Faulting in 384 pages (1.5 MB) under each policy:\n\n";
  let base = run A.Base_only "base pages only" in
  let psb = run A.Partial_subblock "partial-subblock" in
  let sp = run A.Superpage_promotion "superpage promotion" in
  Printf.printf
    "\nbase:%d  psb:%d  superpage:%d bytes — the compact formats cut the\n\
     table by %.0f%% (Figure 10's effect, live)\n"
    (Intf.size_bytes base) (Intf.size_bytes psb) (Intf.size_bytes sp)
    (100.0
    *. (1.0 -. float_of_int (Intf.size_bytes sp) /. float_of_int (Intf.size_bytes base)));
  (* and the TLB sees superpage translations now *)
  match Intf.lookup_into sp (Mem.Walk_acc.create ()) ~vpn:0x9010L with
  | Some tr ->
      Format.printf "a miss to 0x9010 now loads: %a@."
        Pt_common.Types.pp_translation tr
  | None -> assert false
