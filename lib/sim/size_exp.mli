(** Page-table size experiments: Figures 9 and 10.

    Sizes are computed from real populated tables (not the appendix
    formulae), summed across a workload's processes, and normalized by
    the plain hashed page table's size — the paper's presentation. *)

type cell = { label : string; bytes : int; ratio : float }

type row = {
  workload : string;
  pages : int;
  hashed_bytes : int;  (** the normalizer *)
  cells : cell list;
}

val figure9 :
  ?seed:int64 ->
  ?domains:int ->
  ?specs:Workload.Spec.t list ->
  unit ->
  row list
(** Single-page-size tables: linear 6-level, linear 1-level,
    forward-mapped, hashed, clustered (factor 16).  Workloads fan out
    over [domains] domains (default
    [Domain.recommended_domain_count ()]); results are identical for
    any domain count. *)

val figure10 :
  ?seed:int64 ->
  ?domains:int ->
  ?placement_p:float ->
  ?specs:Workload.Spec.t list ->
  unit ->
  row list
(** Tables below 1.0 with superpage / partial-subblock PTEs: hashed
    with a superpage table, clustered base, clustered + superpage,
    clustered + partial-subblock. *)

val subblock_sweep :
  ?seed:int64 -> factors:int list -> Workload.Spec.t -> (int * float) list
(** Clustered size ratio as a function of subblock factor (the
    Section 3 space tradeoff ablation). *)

val size_of :
  Factory.kind ->
  policy:Builder.pte_policy ->
  assignments:Builder.assignment array ->
  int
(** Build fresh tables (one per process) and sum their sizes. *)
