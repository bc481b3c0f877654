(** Populating page tables from workload snapshots.

    A physical {!assignment} is computed once per (process, seed): each
    page gets a frame, block by block, with probability [placement_p]
    that a block's reservation succeeded and its pages are properly
    placed (memory pressure makes reservations fail sometimes,
    Section 7).  The same assignment then populates any number of page
    tables, so every organization in an experiment maps identical
    (vpn, ppn) pairs and the comparisons are exact. *)

(** Which PTE formats the operating system constructs (Section 6.1). *)
type pte_policy =
  [ `Base  (** base PTEs only: the single-page-size system *)
  | `Superpage
    (** fully-populated, properly-placed blocks become 64 KB superpage
        PTEs; everything else base PTEs *)
  | `Psb
    (** properly-placed blocks become partial-subblock PTEs (full ones
        included); unplaced blocks fall back to base PTEs *)
  | `Mixed
    (** Section 5's "both superpages and partial-subblocking in the
        same clustered page table": full placed blocks become
        superpages, partial placed blocks psb PTEs, the rest base *) ]

type block_info = {
  vpbn : int64;
  vmask : int;  (** populated block offsets *)
  placed : bool;
  ppn_base : int64;  (** block-aligned when [placed] *)
  boffs_ppns : (int * int64) list;  (** per-page frames, ascending boff *)
}

type assignment = {
  blocks : block_info list;
      (** insertion order: shuffled, so head insertion gives uniform
          chain positions *)
  pages : int;
  factor : int;  (** the subblock factor the blocks were formed with *)
}

val assign :
  Workload.Snapshot.proc ->
  ?subblock_factor:int ->
  ?placement_p:float ->
  seed:int64 ->
  unit ->
  assignment

val fss : assignment -> policy:pte_policy -> float
(** Fraction of active blocks that the policy maps with a superpage or
    partial-subblock PTE (the appendix's fss). *)

val populate :
  Pt_common.Intf.instance -> assignment -> policy:pte_policy -> unit

val attr : Pte.Attr.t
(** The attribute every built mapping uses. *)

val iter_pages : assignment -> (int64 -> int64 -> unit) -> unit
(** [iter_pages a f] calls [f vpn ppn] for every mapped page, block by
    block in {!populate}'s insertion order, ascending within a block.
    The VPN is derived at the assignment's own subblock factor. *)

(** {2 Experiment fixtures}

    Every experiment derives its inputs from one seed the same way:
    the snapshot from [seed], process [i]'s assignment from
    [seed + i + 1] and the reference trace from [seed + 0x77].  Keeping
    the derivation here keeps every experiment on identical inputs. *)

val assignments :
  ?subblock_factor:int ->
  ?placement_p:float ->
  seed:int64 ->
  Workload.Snapshot.t ->
  assignment array
(** One assignment per process of the snapshot. *)

type fixture = {
  spec : Workload.Spec.t;
  snap : Workload.Snapshot.t;
  assignments : assignment array;  (** one per process *)
  trace : Workload.Trace.t Lazy.t;  (** generated on first use *)
}

val fixture :
  ?placement_p:float ->
  ?length:int ->
  ?quantum:int ->
  seed:int64 ->
  Workload.Spec.t ->
  fixture
(** Default trace length 80_000 accesses; [quantum] as in
    {!Workload.Trace.generate}. *)

val tables :
  Factory.kind -> policy:pte_policy -> assignment array ->
  Pt_common.Intf.instance array
(** A fresh table of [kind] per assignment, populated under [policy]. *)
