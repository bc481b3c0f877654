(** A pool of long-lived worker domains.

    Forking and joining fresh domains on every call would put domain
    startup inside any timed region and give each phase a cold set of
    domains.  A [Worker_pool.t] spawns its domains once at
    {!create}; each {!run} dispatches one job to all of them and
    barriers until every worker has finished, so repeated phases (warm
    up, measure, verify) reuse the same domains against the same shared
    structures — the shape a shared-memory page-table service benchmark
    needs. *)

type t

exception Worker_failed of (int * exn) list
(** Raised by {!run} with {e every} exception workers raised during
    that job, as [(worker index, exception)] pairs sorted by index —
    two workers failing the same job both appear.  The run always
    waits for every worker to finish first, so the list is complete. *)

val create : ?epochs:Epoch.t list -> domains:int -> unit -> t
(** Spawn [domains] worker domains, parked awaiting work.  The calling
    domain never executes jobs: with [domains:n], exactly [n] workers
    run each job, so scaling measurements compare like with like.
    Raises [Invalid_argument] if [domains < 1].

    Every worker registers with each epoch manager in [?epochs]
    (default none), in list order, for its whole lifetime, and
    unregisters in reverse on the way out, even via an injected crash
    (a supervised respawn registers its replacement).  So optimistic
    readers pin pre-registered slots and a dead domain never stalls
    reclamation.  A NUMA-replicated service passes one manager per
    replica. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f index] on every worker, [index] ranging over
    [0 .. size t - 1], and returns once all have completed.  Not
    reentrant: one job at a time per pool.

    Supervision: a worker whose job dies of a {!supervised} crash
    terminates its domain for real.  [run] joins each such domain and respawns a fresh worker
    in its slot {e before} raising {!Worker_failed}, so the pool is
    back at full strength for the next job; every respawn is tallied
    (see {!restarts} and [Fault.restarts]). *)

val supervised : exn -> bool
(** [Fault.Injected] at [Domain_crash] or [Shard_crash]: the crashes
    {!run} supervises. *)

val restarts : t -> int
(** Worker domains respawned by supervision since {!create}. *)

val shutdown : t -> unit
(** Stop and join all workers.  Idempotent; {!run} after [shutdown]
    raises [Invalid_argument]. *)

val with_pool : ?epochs:Epoch.t list -> domains:int -> (t -> 'a) -> 'a
(** [create], apply, [shutdown] — also on exception. *)
