(** The one way this library fans work out over domains, on a
    {!Worker_pool}: fixed logical streams, the executor every soak
    driver (faultsim, throughput, numa, fleet, chaos) runs its rounds
    on, and {!map}, the index-keyed fan-out the experiments use.

    {b Determinism contract.}  A soak's unit of work is the logical
    {e stream}, never the domain.  Stream [s] runs on worker
    [s mod domains], and one worker runs its streams in ascending [s].
    A driver keeps its outputs byte-identical for any [domains] count
    by keeping every stream self-contained:

    - a stream's operations, fault keys and flight-recorder ring are
      pure functions of the config and the stream index;
    - streams touch disjoint state (keys, shards, WALs, TLBs) or state
      whose observable result does not depend on interleaving;
    - everything that reads across streams (eviction, supervision,
      checkpoints, series points, audits) runs on the calling domain
      between two {!each} calls, with every worker parked at the
      barrier.

    A supervised crash ([Fault.Injected] at [Domain_crash] or
    [Shard_crash]) kills its worker domain, which the pool respawns;
    {!each} then dispatches the whole round again.  A stream function
    must therefore resume where it stopped: after a re-dispatch, a
    stream that had already finished its slice must do nothing. *)

type t

val with_streams :
  ?epochs:Epoch.t list -> domains:int -> streams:int -> (t -> 'a) -> 'a
(** Spawn a {!Worker_pool} of [domains] workers (registered with every
    manager in [?epochs]), apply, and shut it down, also on exception.
    Raises [Invalid_argument] if [domains < 1] or [streams < 1]. *)

val each : t -> (int -> unit) -> unit
(** [each t f] is one barriered dispatch: [f s] for every stream [s],
    on worker [s mod domains], in ascending [s] per worker; it returns
    once all have finished.  If the only failures are supervised
    crashes, the round is dispatched again until it completes without
    one.  Any other exception is re-raised (the lowest worker's
    first). *)

val restarts : t -> int
(** Worker domains respawned by supervision since {!with_streams}. *)

val map : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map ~domains f inputs] is [Array.mapi f inputs] computed on a
    {!Worker_pool} of [min domains (Array.length inputs)] workers
    ([domains] defaults to [Domain.recommended_domain_count ()]); the
    workers claim indices from one shared counter.  With one domain,
    or at most one input, the jobs run in ascending index on the
    calling domain.

    {b Determinism contract.}  The unit of work is the index, as the
    stream is for {!each}: a job derives its seeds from its index and
    input, never from execution order, and does not observe the other
    jobs' results.  Then the result array is identical for every
    [domains].

    If jobs raise, [map] re-raises the exception of the lowest failing
    index once the workers are idle (no index is claimed after a
    failure, but every lower one has been).  Raises [Invalid_argument]
    if [domains < 1]. *)
