(** The [ptsim fleet] / bench driver: N tenants of churn dealt over M
    {!Sharded} shards, interleaved on fixed streams in context-switch
    quanta, with ASID-tagged vs flush-on-switch TLBs side by side and
    a global frame budget enforced between rounds.

    Determinism: the streams run on {!Exec.Soak}; tenant [t] runs on
    stream [t mod streams]; tenants touch disjoint ASID-prefixed keys,
    so cross-tenant interleaving inside a shard cannot change
    tenant-visible state; budget enforcement runs at round barriers,
    with victims selected from merged Obs touch counters.  {!outcome_to_json} deliberately omits the domain count
    and all timing, and is byte-identical for any [domains]; timing
    (ops/s, p99 from the Obs latency histogram) appears only in
    {!pp_outcome}. *)

type config = {
  tenants : int;
  shards : int;
  streams : int;
  domains : int;
  rounds : int;
  ops_per_tenant : int;  (** churn events generated per tenant *)
  switch_every : int;  (** context-switch quantum, in events *)
  frame_budget : int;  (** fleet-wide page budget; 0 = unlimited *)
  modes : Sharded.range_mode list;
  orgs : Pt_service.Service.org list;
  locking : Pt_service.Service.locking;
  buckets : int;
  tlb_entries : int;
  seed : int;
}

val default_config : config
(** 12 tenants over 4 shards on 4 streams, 3 rounds, both range modes,
    both organizations, seqlock locking, a frame budget tight enough
    to force eviction, seed 42, 1 domain. *)

val quick_config : config
(** CI-sized: 8 tenants, 2 rounds, fewer events. *)

type row = {
  f_mode : Sharded.range_mode;
  f_org : Pt_service.Service.org;
  f_locking : Pt_service.Service.locking;
  f_tenants : int;
  f_shards : int;
  f_streams : int;
  f_rounds : int;
  f_events : int;
  f_mmaps : int;
  f_munmaps : int;
  f_protects : int;
  f_touches : int;
  f_touch_hits : int;
  f_touch_faults : int;
  f_forks : int;
  f_exits : int;
  f_pages_mapped : int;
  f_pages_unmapped : int;
  f_range_pages : int;  (** pages covered by range submissions *)
  f_range_sections : int;  (** write sections those took *)
  f_write_locks : int;  (** write acquisitions summed over shards *)
  f_tagged_hits : int;
  f_tagged_misses : int;
  f_flush_hits : int;
  f_flush_misses : int;
  f_context_switches : int;
  f_shootdowns : int;  (** TLB flushes forced by eviction *)
  f_evictions : int;  (** tenants evicted *)
  f_evicted_pages : int;
  f_resident : int;  (** fleet books at quiesce *)
  f_population : int;  (** shard tables at quiesce *)
  f_footprint_bytes : int;
  f_limbo : int;  (** after quiesce; 0 proves the drain *)
  f_fsck_clean : bool;
  f_elapsed_s : float;
  f_ops_per_sec : float;
  f_p99_ns : int;  (** 99th percentile per-event latency *)
  f_mean_ns : float;
}

val locks_per_page : row -> float
(** [range_sections / range_pages] — the amortisation the batched
    path buys (compare batched vs paged rows). *)

val retained_hits : row -> int
(** Tagged hits in excess of the flush-on-switch baseline: what ASID
    tagging saved across context switches. *)

type outcome = { rows : row list }

val run : config -> outcome
(** One row per (org × range mode).  Raises [Invalid_argument] on a
    non-positive [domains], [streams] or [rounds]. *)

val row_to_json : row -> Jsonx.t

val outcome_to_json : config -> outcome -> Jsonx.t
(** Deterministic: byte-identical for any [domains]. *)

val pp_outcome : Format.formatter -> outcome -> unit

val all_clean : outcome -> bool
(** Every row fsck-clean (shards and cross-shard ASID placement) with
    an empty limbo after quiesce. *)
