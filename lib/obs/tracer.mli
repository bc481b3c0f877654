(** Bounded ring-buffer event tracer with a Chrome trace-event
    exporter.

    Each domain owns a preallocated ring (the {!Mem.Walk_acc} idiom:
    parallel int arrays, no per-event boxing); recording an event
    writes four array slots and takes one ticket from a global atomic
    logical clock.  When the ring fills it wraps, keeping the most
    recent [capacity] events per domain.

    Cost discipline: with tracing disabled every emit point is a
    single atomic-load-and-branch — no allocation, no ring access —
    so instrumented hot paths stay allocation-free and the benchmark
    baselines are unaffected.  With tracing enabled, recording
    allocates nothing after a domain's first event (which builds its
    ring).

    Timestamps are logical (a global sequence number), not wall-clock:
    exported traces are deterministic for deterministic runs and still
    order events globally.  The exporter emits Chrome trace-event JSON
    ([{"traceEvents":[...]}]) loadable in Perfetto or
    [about://tracing]; durations use ph "B"/"E" pairs, point events ph
    "i". *)

(** {2 Event codes} *)

val ev_miss : int
(** A TLB miss being serviced (B/E pair around the walk + fill). *)

val ev_walk_read : int
(** One page-table read during a walk; arg = bytes read. *)

val ev_lock_read : int
(** A service read lock held (B/E pair); arg = stripe (bucket) or -1
    for the global lock. *)

val ev_lock_write : int
(** A service write lock held (B/E pair); arg as [ev_lock_read]. *)

val ev_churn_mmap : int

val ev_churn_munmap : int

val ev_churn_protect : int

val ev_churn_fork : int

val ev_churn_exit : int

val ev_churn_touch : int
(** Churn ops are instant events; arg = operation-specific size (pages
    touched, etc.). *)

val ev_fault_inject : int
(** An injected fault observed by the service (instant; arg = fault
    site ordinal). *)

val ev_fault_retry : int
(** A self-healing retry of a faulted operation (instant; arg = the
    attempt ordinal being started). *)

val ev_fault_abort : int
(** An operation abandoned after exhausting its retry budget
    (instant; arg = attempts made). *)

val ev_fault_repair : int
(** An fsck repair pass (instant; arg = entries dropped). *)

val ev_seqlock_retry : int
(** An optimistic seqlock walk invalidated by writer interference and
    retried (instant; arg = bucket). *)

val ev_seqlock_fallback : int
(** An optimistic walk that exhausted its retry budget and took the
    striped read lock (instant; arg = bucket). *)

val name_of_code : int -> string

(** {2 Control} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn recording on.  [capacity] (default 65536) sizes rings created
    from now on; rings already built by earlier enables keep their
    size. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded events and restart the logical clock. *)

(** {2 Recording (hot path)} *)

val begin_ : int -> int -> unit
(** [begin_ code arg] opens a duration slice. *)

val end_ : int -> unit

val instant : int -> int -> unit
(** [instant code arg]. *)

(** {2 Export} *)

val event_count : unit -> int
(** Events currently held across all rings (post-wrap). *)

val dropped_count : unit -> int
(** Events lost to ring wrap-around. *)

val export_drop_counter : Metrics.t -> unit
(** Add {!dropped_count} to the [obs.trace.dropped] counter in [m], so
    ring overflow is visible in the metrics JSON and not only in the
    trace footer.  Only call after parallel sections join. *)

val to_chrome_json : unit -> Jsonx.t
(** Only call after parallel sections join. *)
