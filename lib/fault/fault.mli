(** Deterministic fault injection.

    A {!plan} is a pure function of [(seed, site, key, attempt)]: it
    names, up front, every point at which this run will fail.  Code
    under test asks the globally installed plan whether the fault at a
    named {!site} is {e armed} for the operation identified by the
    calling domain's current context ([key] — typically
    [stream * ops + op] — and [attempt], the retry ordinal).  Because
    the decision depends only on those integers, never on scheduling,
    wall-clock or allocation order, a fault soak injects the same
    faults at the same operations for any [--domains] count — the
    property the faultsim invariance tests pin down.

    Cost discipline: with no plan installed, every injection site is
    one atomic load and branch — hot paths stay allocation-free and
    fault-free builds measure nothing new.  Sites also stay silent
    while the calling domain has no context set, so installing a plan
    perturbs only code the driver explicitly keys. *)

(** {2 Sites} *)

type site =
  | Alloc_node  (** page-table node acquisition ({!Clustered_pt.Table}) *)
  | Alloc_phys  (** physical frame allocation ({!Mem.Phys_alloc}) *)
  | Lock_timeout  (** lock acquisition ({!Clustered_pt.Bucket_lock.Real}) *)
  | Domain_crash  (** worker-domain death ({!Exec.Soak} streams) *)
  | Torn_write  (** a multi-word PTE update torn halfway (service) *)
  | Seqlock_stall
      (** a writer held mid-bump of a bucket sequence counter, forcing
          concurrent optimistic readers through retry/fallback
          (service, seqlock mode) *)
  | Replica_write
      (** an eager fan-out write to a non-primary NUMA replica dropped
          before it applies — the bucket degrades to lazy and must be
          healed by pull-on-read catch-up ({!Numa.Replicated}) *)
  | Shard_crash
      (** a whole durable shard killed mid-operation: the write-ahead
          log keeps the bytes already flushed (possibly a torn record
          tail), the in-memory table is lost, and the fleet must
          rebuild the shard from checkpoint + WAL replay
          ({!Durable.Shard}, {!Fleet.Chaos_sim}) *)

val all_sites : site list

val site_name : site -> string

val site_of_name : string -> site option

exception Injected of { site : site; key : int }
(** Raised by {!fire} at an armed site.  Deterministic given the plan
    and context. *)

(** {2 Plans} *)

type plan

val plan : ?rate_ppm:int -> ?sites:site list -> seed:int -> unit -> plan
(** A plan arming [sites] (default: all) with probability
    [rate_ppm] / 1e6 (default 20_000, i.e. 2%) per (site, key,
    attempt) triple. *)

val decide : plan -> site:site -> key:int -> attempt:int -> bool
(** Pure: same arguments, same answer, on any domain. *)

val seed : plan -> int

val rate_ppm : plan -> int

val sites : plan -> site list

(** {2 The installed plan and per-domain context} *)

val install : plan -> unit
(** Make [plan] the process-wide active plan and zero the tallies. *)

val deactivate : unit -> unit
(** Remove the active plan; every site goes back to one-branch cost. *)

val active : unit -> bool

val with_plan : plan -> (unit -> 'a) -> 'a
(** [install], run, [deactivate] (also on exception). *)

val set_context : key:int -> unit
(** Set the calling domain's operation key and reset its attempt to 0.
    Sites only arm while a context is set. *)

val set_attempt : int -> unit
(** Update the retry ordinal of the current operation (the key is
    unchanged). *)

val clear_context : unit -> unit

val context_key : unit -> int
(** The calling domain's current key, or -1 when no context is set. *)

val suspended : (unit -> 'a) -> 'a
(** Run [f] with the calling domain's context cleared — all sites
    silent — then restore the saved key and attempt.  Recovery code
    (journal rollback, fsck repair) wraps itself in this so undoing a
    fault can never inject another one. *)

(** {2 Injection sites (hot path)} *)

val armed : site -> bool
(** Whether the active plan arms [site] for the calling domain's
    current (key, attempt).  False when no plan or no context. *)

val armed_mask : unit -> int
(** Bitmask of the sites {!armed} for the calling domain's current
    (key, attempt) context, bit position = the site's index in
    {!all_sites}; 0 with no active plan.  A pure query, for recording
    the plan's decision in flight-recorder events. *)

val trip : site -> bool
(** {!armed}, plus: when armed, tally the injection and return true.
    For sites that fail by return value (e.g. an allocator returning
    [None]). *)

val fire : site -> unit
(** {!trip}, raising {!Injected} when armed.  For sites that fail by
    exception. *)

(** {2 Degraded-mode accounting}

    Atomic process-wide counters, deterministic for a deterministic
    run; zeroed by {!install}. *)

val injected : site -> int
(** Faults tripped or fired at [site] since {!install}. *)

val injected_total : unit -> int

val note_retry : unit -> unit

val note_abort : unit -> unit

val note_restart : unit -> unit

val note_repair : unit -> unit

val retries : unit -> int

val aborts : unit -> int

val restarts : unit -> int

val repairs : unit -> int

val reset_tallies : unit -> unit
