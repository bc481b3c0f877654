type t = { fine : Table.t; coarse : Table.t }

let name = "clustered-2t"

let fine_block_sz_code = 4 (* 64 KB blocks: log2(64KB / 4KB) *)

let create ?arena ?(buckets = 4096) () =
  let arena =
    match arena with Some a -> a | None -> Mem.Sim_memory.create ()
  in
  {
    fine = Table.create ~arena (Config.make ~buckets ());
    coarse =
      Table.create ~arena (Config.make ~buckets ~page_shift:16 ());
  }

let fine t = t.fine

let coarse t = t.coarse

let lookup_into t acc ~vpn =
  match Table.lookup_into t.fine acc ~vpn with
  | Some _ as tr -> tr
  | None -> Table.lookup_into t.coarse acc ~vpn

let lookup_block t acc ~vpn ~subblock_factor =
  match Table.lookup_block t.fine acc ~vpn ~subblock_factor with
  | [] -> Table.lookup_block t.coarse acc ~vpn ~subblock_factor
  | found -> found

let insert_base t ~vpn ~ppn ~attr = Table.insert_base t.fine ~vpn ~ppn ~attr

let insert_superpage t ~vpn ~size ~ppn ~attr =
  if Addr.Page_size.sz_code size <= fine_block_sz_code then
    Table.insert_superpage t.fine ~vpn ~size ~ppn ~attr
  else Table.insert_superpage t.coarse ~vpn ~size ~ppn ~attr

let insert_psb t ~vpbn ~vmask ~ppn ~attr =
  Table.insert_psb t.fine ~vpbn ~vmask ~ppn ~attr

let remove t ~vpn =
  match Table.lookup_into t.fine (Mem.Walk_acc.create ()) ~vpn with
  | Some _ -> Table.remove t.fine ~vpn
  | None -> Table.remove t.coarse ~vpn

let set_attr_range t region ~f =
  Table.set_attr_range t.fine region ~f + Table.set_attr_range t.coarse region ~f

let size_bytes t = Table.size_bytes t.fine + Table.size_bytes t.coarse

let node_count t = Table.node_count t.fine + Table.node_count t.coarse

let population t = Table.population t.fine + Table.population t.coarse

let clear t =
  Table.clear t.fine;
  Table.clear t.coarse
