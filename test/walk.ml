(* Lookups into a fresh accumulator, and the charges read back out of
   it, for the suites' assertions.  Line counts go through
   [Mem.Cache_model.record_acc], the function every experiment runs. *)

let lookup lookup_into t ~vpn =
  let acc = Mem.Walk_acc.create () in
  let tr = lookup_into t acc ~vpn in
  (tr, acc)

let find lookup_into t ~vpn = fst (lookup lookup_into t ~vpn)

let block lookup_block t ~vpn ~subblock_factor =
  let acc = Mem.Walk_acc.create () in
  let found = lookup_block t acc ~vpn ~subblock_factor in
  (found, acc)

let lines ?(line_size = Mem.Cache_model.default_line_size) acc =
  Mem.Cache_model.record_acc (Mem.Cache_model.create_counter ~line_size ()) acc

let probes = Mem.Walk_acc.probes

let reads = Mem.Walk_acc.count
