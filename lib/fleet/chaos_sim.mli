(** The [ptsim chaos] soak: a fleet of crash-consistent shards
    ({!Durable.Shard} — Service + per-shard WAL + checkpoints) driven
    by churning tenants while shards are killed on purpose — at
    planned WAL byte offsets (torn appends), through the random
    [Fault.Shard_crash] site, halfway through a checkpoint, and
    halfway through a recovery replay.

    A crashed shard is {e degraded}: tenant ops get a deterministic
    bounded retry then a typed rejection, and are parked.  After
    [recovery_delay] rounds the supervisor rebuilds the shard from its
    newest verifiable checkpoint plus the WAL suffix, audits the
    rebuilt table against the acknowledged-op oracle, re-admits
    tenants and replays the parked ops.  {!all_clean} demands every
    recovery converged, the final fleet is fsck- and placement-clean,
    and every shard is lookup-equivalent to a never-crashed oracle
    (the tenants' full-trace intent books).

    Deterministic: one worker stream per shard (tenant [asid] lives on
    stream [asid mod shards]), so each WAL's byte offsets — including
    the planned crash points — and the whole outcome are independent
    of [domains].  {!outcome_to_json} is byte-identical for any domain
    count and omits timing unless [~timing:true]. *)

module Service = Pt_service.Service

type config = {
  tenants : int;
  shards : int;  (** one durable shard = one WAL = one worker stream *)
  domains : int;
  rounds : int;
  ops_per_tenant : int;
  switch_every : int;
  checkpoint_every : int;  (** checkpoint cadence, in rounds *)
  crash_offsets : int list;
      (** planned absolute WAL crash offsets, dealt round-robin over
          shards; [] derives a schedule from the seed *)
  crash_recovery : bool;  (** also crash the first recovery mid-replay *)
  crash_checkpoint : bool;  (** also tear one checkpoint halfway *)
  recovery_delay : int;
      (** rounds a crashed shard stays degraded (rejecting tenant ops)
          before the supervisor rebuilds it *)
  retry_budget : int;  (** retries on a degraded shard before rejection *)
  orgs : Service.org list;
  locking : Service.locking;
  buckets : int;
  sites : Fault.site list;  (** random fault plan; [] = none *)
  rate_ppm : int;
  seed : int;
}

val default_config : config
(** 8 tenants over 4 shards, 4 rounds of 1.5k-op churn, checkpoint
    every round, a seed-derived planned crash per shard plus random
    [Shard_crash] at 2000 ppm, one crash-during-recovery and one
    crash-during-checkpoint, both orgs, striped locking, seed 42. *)

val quick_config : config
(** A CI-sized soak (6 tenants, 3 rounds, 800 ops). *)

exception Degraded of { shard : int }
(** The typed rejection tenants receive from a degraded shard once the
    retry budget is exhausted.  Internal to the soak (callers of
    {!run} never see it) — exposed for tests. *)

val planned_offsets : config -> int list
(** The planned crash schedule the run will use ([config.crash_offsets],
    or the seed-derived default when that is empty). *)

type row = {
  c_org : Service.org;
  c_locking : Service.locking;
  c_tenants : int;
  c_shards : int;
  c_rounds : int;
  c_events : int;
  c_mmaps : int;
  c_munmaps : int;
  c_protects : int;
  c_touches : int;
  c_touch_hits : int;
  c_touch_faults : int;
  c_pages_mapped : int;
  c_pages_unmapped : int;
  c_range_pages : int;
  c_crashes : int;  (** shard kills, all causes *)
  c_wal_records : int;
  c_wal_bytes : int;
  c_torn_truncations : int;
  c_truncated_bytes : int;
  c_checkpoints : int;
  c_torn_checkpoints : int;
  c_compactions : int;
  c_checkpoints_discarded : int;
  c_recovery_attempts : int;
  c_recoveries : int;
  c_recovery_crashes : int;
  c_replayed_records : int;
  c_restored_mappings : int;
  c_degraded_retries : int;
  c_degraded_rejections : int;
  c_pending_replayed : int;  (** parked ops replayed after recovery *)
  c_resident : int;
  c_population : int;
  c_limbo : int;
  c_fsck_clean : bool;
  c_placement_clean : bool;
  c_converged : bool;
      (** every post-recovery audit matched the acknowledged-op oracle *)
  c_equivalent : bool;
      (** final tables equal the never-crashed full-trace oracle *)
  c_elapsed_s : float;
  c_ops_per_sec : float;
}

type outcome = { rows : row list }

val run : config -> outcome
(** One seeded soak per org in [config.orgs].  Raises
    [Invalid_argument] on nonsensical configs (e.g. [domains < 1],
    [checkpoint_every < 1], negative crash offsets). *)

val all_clean : outcome -> bool
(** Every row fsck-clean, placement-clean, zero limbo, every recovery
    converged and every final table oracle-equivalent — the chaos
    gate. *)

val row_to_json : ?timing:bool -> row -> Jsonx.t

val outcome_to_json : ?timing:bool -> config -> outcome -> Jsonx.t
(** Deterministic for a config (byte-identical for any [domains],
    which is deliberately omitted); [~timing] adds wall-clock
    fields. *)

val pp_outcome : Format.formatter -> outcome -> unit
