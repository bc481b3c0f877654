module Intf = Pt_common.Intf

type outcome = [ `Tlb_hit | `Filled | `Page_fault_filled | `Fault ]

type t = {
  tlb : Tlb.Intf.instance;
  pt : Intf.instance;
  aspace : Address_space.t option;
  prefetch : bool;
  factor : int;
  counter : Mem.Cache_model.counter;
  acc : Mem.Walk_acc.t;  (* the current miss's walk, reset per miss *)
  mutable page_faults : int;
  (* telemetry handles into the creating domain's shard, resolved once
     here so the per-miss cost is a field bump (create the handler on
     the domain that will run it, which every runner does) *)
  m_tlb_hits : Obs.Metrics.counter;
  m_tlb_misses : Obs.Metrics.counter;
  m_page_faults : Obs.Metrics.counter;
  m_walk_reads : Obs.Hist.t;
  m_walk_lines : Obs.Hist.t;
}

let create ~tlb ~pt ?aspace ?(prefetch = false) ?(subblock_factor = 16)
    ?line_size () =
  let shard = Obs.Ambient.get () in
  {
    tlb;
    pt;
    aspace;
    prefetch;
    factor = subblock_factor;
    counter = Mem.Cache_model.create_counter ?line_size ();
    acc = Mem.Walk_acc.create ();
    page_faults = 0;
    m_tlb_hits = Obs.Metrics.counter shard "os.tlb_hits";
    m_tlb_misses = Obs.Metrics.counter shard "os.tlb_misses";
    m_page_faults = Obs.Metrics.counter shard "os.page_faults";
    m_walk_reads = Obs.Metrics.hist shard "os.walk_reads";
    m_walk_lines = Obs.Metrics.hist shard "os.walk_lines";
  }

let record t =
  let lines = Mem.Cache_model.record_acc t.counter t.acc in
  Obs.Hist.observe t.m_walk_reads (Mem.Walk_acc.count t.acc);
  Obs.Hist.observe t.m_walk_lines lines;
  if Obs.Tracer.enabled () then
    for i = 0 to Mem.Walk_acc.count t.acc - 1 do
      Obs.Tracer.instant Obs.Tracer.ev_walk_read (Mem.Walk_acc.bytes t.acc i)
    done

(* Section 3.1: the handler updates reference/modified bits in place,
   without locks, as part of servicing the miss. *)
let update_ref_mod t ~vpn ~write =
  let region = Addr.Region.make ~first_vpn:vpn ~pages:1 in
  ignore
    (Intf.set_attr_range t.pt region ~f:(fun a ->
         {
           a with
           Pte.Attr.referenced = true;
           modified = a.Pte.Attr.modified || write;
         }))

let walk_and_fill t ~vpn ~block_miss =
  Mem.Walk_acc.reset t.acc;
  if t.prefetch && block_miss then begin
    let found = Intf.lookup_block t.pt t.acc ~vpn ~subblock_factor:t.factor in
    record t;
    let boff = Int64.to_int (Int64.rem vpn (Int64.of_int t.factor)) in
    if List.mem_assoc boff found then begin
      Tlb.Intf.fill_block t.tlb found;
      `Filled
    end
    else `Missing
  end
  else begin
    let tr = Intf.lookup_into t.pt t.acc ~vpn in
    record t;
    match tr with
    | Some tr ->
        Tlb.Intf.fill t.tlb tr;
        `Filled
    | None -> `Missing
  end

let service_miss t ~vpn ~write ~block_miss =
  match walk_and_fill t ~vpn ~block_miss with
  | `Filled ->
      update_ref_mod t ~vpn ~write;
      `Filled
  | `Missing -> (
      match t.aspace with
      | None -> `Fault
      | Some aspace -> (
          match Address_space.fault aspace ~vpn with
          | `Mapped _ | `Already_mapped _ -> (
              t.page_faults <- t.page_faults + 1;
              Obs.Metrics.incr t.m_page_faults;
              match walk_and_fill t ~vpn ~block_miss with
              | `Filled ->
                  update_ref_mod t ~vpn ~write;
                  `Page_fault_filled
              | `Missing -> `Fault)
          | `Segfault | `Oom -> `Fault))

let access ?(write = false) t ~vpn =
  match Tlb.Intf.access t.tlb ~vpn with
  | `Hit ->
      Obs.Metrics.incr t.m_tlb_hits;
      `Tlb_hit
  | (`Block_miss | `Subblock_miss) as miss ->
      Obs.Metrics.incr t.m_tlb_misses;
      let block_miss = miss = `Block_miss in
      Obs.Tracer.begin_ Obs.Tracer.ev_miss (Int64.to_int vpn land max_int);
      let outcome = service_miss t ~vpn ~write ~block_miss in
      Obs.Tracer.end_ Obs.Tracer.ev_miss;
      outcome

let access_addr ?write t vaddr = access ?write t ~vpn:(Addr.Vaddr.vpn vaddr)

let tlb_misses t = Tlb.Stats.misses (Tlb.Intf.stats t.tlb)

let page_faults t = t.page_faults

let mean_lines_per_miss t = Mem.Cache_model.mean_lines t.counter

let walks t = Mem.Cache_model.walks t.counter

let tlb t = t.tlb
