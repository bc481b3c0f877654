(** Always-on flight recorder: fixed-capacity rings of structured
    operation events, dumped as a JSON crash dump on failure.

    Rings are per {e logical stream}, not per domain.  Drivers deal
    streams round-robin to worker domains, so a stream is written by
    exactly one worker at a time: recording needs no locking, and —
    because the per-stream operation sequence is seed-determined — the
    retained tail is bit-identical for any [--domains].  Event fields
    live in parallel int arrays; {!record} allocates nothing, and when
    the recorder is disarmed every call site is a single atomic load
    and branch.

    The [lat] field is a logical cost (pages touched, retries — never
    wall-clock), keeping dumps deterministic.  [fault] carries the
    armed-fault-site bitmask for the operation (0 when no plan is
    active), and [attempt] the self-healing retry ordinal.

    Arm/disarm/dump only from the main domain, outside parallel
    sections. *)

(** {2 Operation kinds} *)

val k_insert : int

val k_remove : int

val k_lookup : int

val k_protect : int

val k_map : int

val k_unmap : int

val k_touch : int

val k_fork : int

val k_exit : int

val k_read : int

val k_write : int

val k_crash : int
(** A domain-crash fault firing mid-operation. *)

val k_abort : int
(** An operation abandoned after exhausting its retry budget. *)

val k_retry : int
(** A self-healing retry being started. *)

val kind_name : int -> string

(** {2 Lock modes} *)

val l_none : int

val l_striped : int

val l_global : int

val l_seqlock : int

val lock_name : int -> string

(** {2 Control} *)

val arm : streams:int -> capacity:int -> unit
(** Allocate one ring of [capacity] events per stream and start
    recording.  Replaces any previous arming. *)

val disarm : unit -> unit

val armed : unit -> bool

(** {2 Recording (hot path)} *)

val record :
  stream:int ->
  kind:int ->
  asid:int ->
  vpn:int ->
  pages:int ->
  lock:int ->
  attempt:int ->
  fault:int ->
  lat:int ->
  unit
(** Append one event to [stream]'s ring, overwriting the oldest on
    wrap.  No-op when disarmed or [stream] is out of range.  Zero
    allocation. *)

(** {2 Crash dump} *)

val event_count : unit -> int
(** Events currently held across all rings (post-wrap). *)

val dump_json : ?last:int -> label:string -> unit -> Jsonx.t
(** The retained event tail per stream as a JSON document
    ([{"kind":"crash_dump",...}]).  [last] keeps only the most recent
    that many events per stream (default: all retained).  Streams
    appear in index order; with a disarmed recorder the stream list is
    empty. *)
