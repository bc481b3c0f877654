(** Per-domain throughput benchmark for the shared {!Service}.

    The unit of work is an {!Exec.Soak} stream: a seeded,
    self-contained mixed lookup/insert/remove/protect loop over its
    own disjoint VPN range, so everything derived from the streams'
    operation histories — including the {!Obs.Ambient} telemetry —
    depends only on the stream count, seed and op count, never on the
    domain count.  [streams = 0] (the default) runs one stream per
    domain.

    Prepopulation and domain startup happen outside the timed region;
    lookups use the allocation-free path, so the measured loop is
    GC-quiet.

    Telemetry recorded per op: [throughput.ops.*] kind counters,
    [throughput.lookup.hit]/[.miss], and the
    [throughput.protect_searches] histogram — all
    interleaving-invariant.  A structural probe of the final table is
    merged into the calling domain's shard under [service.*]. *)

type mix = {
  lookup_pct : int;
  insert_pct : int;
  remove_pct : int;
  protect_pct : int;
}
(** Must sum to 100. *)

val default_mix : mix
(** 70 / 15 / 10 / 5. *)

val read_mostly_mix : mix
(** 98 / 1 / 1 / 0 — the lookup-dominated mix the lock-free
    ({!Service.Seqlock}) read path targets, with enough churn that
    sequence counters move and nodes pass through limbo.  No protects,
    so [write_locks] stays interleaving-invariant across lock modes. *)

type config = {
  domains : int;
  streams : int;
      (** logical streams of work; 0 = one per domain.  Fix this
          across a domain sweep to make the telemetry comparable. *)
  ops_per_domain : int;  (** ops per {e stream} *)
  vpns_per_domain : int;  (** working-set pages per {e stream} *)
  protect_pages : int;  (** span of each protect region *)
  buckets : int;
      (** table buckets = lock stripes; shrink to sharpen stripe
          contention in a domain sweep *)
  mix : mix;
  seed : int;
}

val default_config : config
(** 1 domain, streams follow domains, 100k ops, 4096-page working set
    per stream, 64-page protects, 4096 buckets, default mix, seed
    42. *)

val stream_count : config -> int

type result = {
  org : Service.org;
  locking : Service.locking;
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_sec : float;
  lookups_hit : int;  (** sanity: > 0 under any default-mix run *)
  read_locks : int;
      (** lock acquisitions inside the timed region; under
          {!Service.Seqlock} these are fallback acquisitions only *)
  write_locks : int;
  read_contention : int;
      (** blocked read acquisitions (interleaving-dependent) *)
  seqlock_retries : int;
      (** invalidated optimistic walks (interleaving-dependent; 0
          outside {!Service.Seqlock}) *)
  seqlock_fallbacks : int;
  population : int;  (** final mapped pages; deterministic per config *)
}

val run : org:Service.org -> locking:Service.locking -> config -> result
