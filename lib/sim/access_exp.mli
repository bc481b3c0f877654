(** Page-table access-time experiments: Figure 11 (a-d).

    Trap-driven simulation, as in Section 6.1: a synthetic reference
    trace drives a target TLB; every miss triggers a real page-table
    walk over simulated memory and the walk's distinct cache lines are
    counted.  The metric is cache lines per miss normalized by the
    number of misses a 64-entry TLB of the same design incurs.

    The miss *sequence* depends only on the TLB design and the PTE
    policy, not on the page-table organization, so each trace runs
    once per design and the recorded misses replay against every page
    table — the comparisons see identical miss streams.

    Linear page tables get the paper's special treatment: eight of the
    64 TLB entries are reserved for the page table's own mappings, so
    their misses are recorded with a 56-entry TLB while the normalizer
    stays at 64 entries (the "opportunity cost" of reservation), and
    each walk is the single leaf read. *)

type design = Single | Superpage | Psb | Csb

val design_name : design -> string

val policy_of_design : design -> Builder.pte_policy

type result = {
  workload : string;
  pt : string;
  mean_lines : float;
  lines : int;  (** total distinct lines over all replayed misses *)
  misses : int;  (** misses of the 64-entry target TLB (the normalizer) *)
}

type workload_run = {
  spec : Workload.Spec.t;
  base_misses : int;  (** 64-entry single-page-size TLB misses *)
  accesses : int;
  results : result list;
}

type miss = { proc : int; vpn : int64; block_miss : bool }

val record_misses :
  ?design:design ->
  ?subblock_factor:int ->
  Workload.Trace.t ->
  Tlb.Intf.instance ->
  reference:Pt_common.Intf.instance array ->
  miss list * int
(** Run the trace through the TLB (flushed at every context switch),
    filling each miss from the process's [reference] table, and return
    the miss stream and its length.  Under [Csb] (default [Single]) a
    block miss prefetches the whole block (Section 4.4). *)

val replay_misses :
  ?hist:Obs.Hist.t ->
  ?design:design ->
  ?line_size:int ->
  ?subblock_factor:int ->
  miss list ->
  Pt_common.Intf.instance array ->
  int
(** Walk every recorded miss in the process's table and return the
    total distinct cache lines touched; each walk's count also goes to
    [hist]. *)

val run :
  ?line_size:int ->
  ?subblock_factor:int ->
  design:design ->
  pt_kinds:Factory.kind list ->
  Builder.fixture ->
  workload_run
(** Run one design over a fixture's trace, building every table from
    its assignments.  Default 256-byte lines, factor 16. *)

val default_pt_kinds : Factory.kind list
(** linear-1L, forward-mapped, hashed (mode per design), clustered —
    Figure 11's four curves.  Call {!run} with [pt_kinds] from
    {!kinds_for} to get the per-design hashed variant. *)

val kinds_for : design -> Factory.kind list

type residency = {
  res_pt : string;
  cold_lines : float;  (** the paper's metric: every line charged *)
  warm_lines : float;
      (** only lines absent from a simulated level-two cache dedicated
          to page-table data *)
  hit_ratio : float;  (** page-table data cache hit ratio *)
}

val run_residency :
  ?seed:int64 ->
  ?length:int ->
  ?placement_p:float ->
  ?line_size:int ->
  ?domains:int ->
  sets:int ->
  ways:int ->
  pt_kinds:Factory.kind list ->
  Workload.Spec.t ->
  residency list
(** Quantifies the metric drawback Section 6.1 concedes: "it ignores
    that some page table data may still be in cache, particularly for
    page tables that are smaller".  Replays the single-page-size TLB
    miss stream through a set-associative LRU cache holding page-table
    data; smaller tables keep more of themselves resident, so the
    *warm* cost gap between clustered and larger tables widens. *)
