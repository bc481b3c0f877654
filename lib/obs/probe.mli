(** Structural probes: walk a built page table and histogram the
    shapes the paper's averages hide (Sections 3–4) — hash-chain
    lengths, per-bucket mapping occupancy, and per-node slot
    utilization.

    A probe reads the table through its public inspection interface;
    it never mutates and is meant to run after a build or a run, not
    on the miss path.  Probing histograms {e every} bucket, including
    empty ones, so [Hist.mean report.chain_length] is exactly
    [node_count / buckets] — the load factor the analytic model
    ({!Sim.Analytic}-style alpha) predicts. *)

type report = {
  chain_length : Hist.t;
      (** Nodes per hash-bucket chain (one observation per bucket). *)
  occupancy : Hist.t;
      (** Valid mappings reachable per bucket (one observation per
          bucket). *)
  node_util : Hist.t;
      (** Valid mapping slots used per node: up to the subblock factor
          for a clustered block node, 1 for a hashed base PTE. *)
}

val create : unit -> report

val table :
  (module Pt_common.Intf.CONCURRENT_TABLE with type t = 'a) ->
  ?into:report ->
  'a ->
  report
(** Probe a table (a hashed table's fine table).  [into] accumulates
    across tables (e.g. the per-process tables of one workload). *)

val to_metrics : Metrics.t -> prefix:string -> report -> unit
(** Merge the report's histograms into a registry as
    [prefix.chain_length], [prefix.occupancy], [prefix.node_util]. *)

val pp : Format.formatter -> report -> unit
