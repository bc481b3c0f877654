module Intf = Pt_common.Intf

type switch_policy = Flush | Asid

type outcome = [ `Tlb_hit | `Filled | `Page_fault_filled | `Fault ]

type proc = { name : string; aspace : Address_space.t; pt : Intf.instance }

type tlb_front = F_plain of Tlb.Intf.instance | F_tagged of Tlb.Tagged_tlb.t

type t = {
  procs : proc array;
  tlb : tlb_front;
  switch_policy : switch_policy;
  counter : Mem.Cache_model.counter;
  acc : Mem.Walk_acc.t;  (* the current miss's walk, reset per miss *)
  allocator : Mem.Phys_alloc.t;
  mutable cur : int;
  mutable page_faults : int;
  mutable switches : int;
}

let create ?(entries = 64) ?(switch_policy = Flush)
    ?(policy = Address_space.Base_only) ?line_size ~make_pt ~total_pages
    ~names () =
  if names = [] then invalid_arg "System.create: no processes";
  let allocator = Mem.Phys_alloc.create ~total_pages ~subblock_factor:16 in
  let procs =
    Array.of_list
      (List.map
         (fun name ->
           let pt = make_pt () in
           {
             name;
             pt;
             aspace = Address_space.create ~pt ~allocator ~total_pages ~policy ();
           })
         names)
  in
  let tlb =
    match switch_policy with
    | Flush -> F_plain (Tlb.Intf.fa ~entries ())
    | Asid -> F_tagged (Tlb.Tagged_tlb.create (Tlb.Intf.fa ~entries ()))
  in
  {
    procs;
    tlb;
    switch_policy;
    counter = Mem.Cache_model.create_counter ?line_size ();
    acc = Mem.Walk_acc.create ();
    allocator;
    cur = 0;
    page_faults = 0;
    switches = 0;
  }

let process_count t = Array.length t.procs

let check_pid t pid =
  if pid < 0 || pid >= Array.length t.procs then
    invalid_arg "System: pid out of range"

let aspace t ~pid =
  check_pid t pid;
  t.procs.(pid).aspace

let page_table t ~pid =
  check_pid t pid;
  t.procs.(pid).pt

let mmap t ~pid region attr =
  check_pid t pid;
  Address_space.declare_region t.procs.(pid).aspace region attr

let current t = t.cur

let switch_to t ~pid =
  check_pid t pid;
  if pid <> t.cur then begin
    t.cur <- pid;
    t.switches <- t.switches + 1;
    match t.tlb with
    | F_plain tlb -> Tlb.Intf.flush tlb
    | F_tagged tlb -> Tlb.Tagged_tlb.set_context tlb ~asid:pid
  end

let tlb_access t ~vpn =
  match t.tlb with
  | F_plain tlb -> Tlb.Intf.access tlb ~vpn
  | F_tagged tlb -> Tlb.Tagged_tlb.access tlb ~vpn

let tlb_fill t tr =
  match t.tlb with
  | F_plain tlb -> Tlb.Intf.fill tlb tr
  | F_tagged tlb -> Tlb.Tagged_tlb.fill tlb tr

let walk t ~vpn =
  let p = t.procs.(t.cur) in
  Mem.Walk_acc.reset t.acc;
  let tr = Intf.lookup_into p.pt t.acc ~vpn in
  ignore (Mem.Cache_model.record_acc t.counter t.acc);
  tr

let access t ~vpn =
  match tlb_access t ~vpn with
  | `Hit -> `Tlb_hit
  | `Block_miss | `Subblock_miss -> (
      match walk t ~vpn with
      | Some tr ->
          tlb_fill t tr;
          `Filled
      | None -> (
          let p = t.procs.(t.cur) in
          match Address_space.fault p.aspace ~vpn with
          | `Mapped _ | `Already_mapped _ -> (
              t.page_faults <- t.page_faults + 1;
              match walk t ~vpn with
              | Some tr ->
                  tlb_fill t tr;
                  `Page_fault_filled
              | None -> `Fault)
          | `Segfault | `Oom -> `Fault))

let run_trace t trace =
  Array.iter
    (function
      | Workload.Trace.Switch pid -> switch_to t ~pid
      | Workload.Trace.Access (pid, vpn) ->
          switch_to t ~pid;
          ignore (access t ~vpn)
      | Workload.Trace.Mmap _ | Workload.Trace.Munmap _
      | Workload.Trace.Protect _ | Workload.Trace.Fork _
      | Workload.Trace.Exit _ | Workload.Trace.Touch _ ->
          (* lifecycle ops need an interpreter that creates and destroys
             address spaces — that is [Dynamics.Engine]'s job; this
             replay loop runs over a fixed process set *)
          invalid_arg "System.run_trace: churn event in an access trace")
    trace

let tlb_stats t =
  match t.tlb with
  | F_plain tlb -> Tlb.Intf.stats tlb
  | F_tagged tlb -> Tlb.Tagged_tlb.stats tlb

let tlb_misses t = Tlb.Stats.misses (tlb_stats t)

let page_faults t = t.page_faults

let switches t = t.switches

let mean_lines_per_miss t = Mem.Cache_model.mean_lines t.counter

let total_mapped_pages t =
  Array.fold_left
    (fun acc p -> acc + Address_space.mapped_pages p.aspace)
    0 t.procs

let free_frames t = Mem.Phys_alloc.free_pages t.allocator
