(** A deterministic fault soak over the shared {!Service}.

    Drives [streams] logical operation streams — each owning a
    disjoint VPN window — against one service while a {!Fault} plan
    injects allocation failures, lock timeouts, torn PTE updates and
    worker-domain crashes.  The streams run on {!Exec.Soak}, which
    dispatches a round again after a crash; the streams resume from
    per-stream cursors.  All other faults are healed inside the
    service.  Every
    operation and every fault decision is a pure function of
    [(seed, stream, op)], so the {!outcome} — committed mappings,
    tallies, fsck verdict — is identical for any [domains] count, and
    {!outcome_to_json} serializes byte-identically. *)

type config = {
  seed : int;
  rate_ppm : int;  (** per-site arming probability, parts per million *)
  sites : Fault.site list;
  org : Service.org;
  locking : Service.locking;
  domains : int;
  streams : int;  (** logical streams; the unit of determinism *)
  ops : int;  (** operations per stream *)
  buckets : int;
}

val default_config : config
(** seed 1, 2% rate, all sites, clustered/striped, 1 domain,
    4 streams x 2000 ops, 512 buckets. *)

type outcome = {
  o_seed : int;
  o_org : Service.org;
  o_locking : Service.locking;
  o_streams : int;
  o_ops : int;
  injected : (string * int) list;
      (** injections per site, in {!Fault.all_sites} order *)
  retries : int;
  aborts : int;
  crashes : int;
  restarts : int;  (** worker domains respawned by supervision *)
  repairs : int;
  pre_findings : int;  (** fsck findings before any repair *)
  kept : int;
  dropped : int;
  fsck_clean : bool;  (** the end state — the soak's pass criterion *)
  population : int;
}

val run : config -> outcome
(** Install the plan, soak, deactivate, fsck (repairing if needed).
    The installed plan and tallies are process-global: do not run two
    soaks concurrently.  Arms the {!Obs.Recorder} flight recorder with
    one ring per stream (capacity 512) and leaves it armed on return,
    so a caller seeing a dirty outcome can dump the event tail. *)

val outcome_to_json : outcome -> Jsonx.t
(** One JSON object; deliberately omits the domain count so runs
    differing only in [domains] diff byte-identical. *)

val pp_outcome : Format.formatter -> outcome -> unit
