(** Fully-associative entry store shared by all TLB models.  The
    paper's TLBs are 64-entry fully associative with LRU; real parts
    differ — the MIPS R4000's TLB replaces a *random* (non-wired)
    entry, and FIFO is common — so the victim policy is pluggable.

    Entries live in numbered slots.  A TLB scans once for the slot that
    hits, then reads ({!get}) and refreshes ({!touch_slot}) that slot
    by index. *)

type policy =
  | Lru
  | Fifo
  | Random of int64  (** deterministic, seeded *)

type 'e t

val create : ?policy:policy -> entries:int -> unit -> 'e t
(** Default [Lru]. *)

val entries : 'e t -> int
(** Number of slots. *)

val occupied : 'e t -> int

val is_live : 'e t -> int -> bool
(** Whether slot [i] holds an entry. *)

val get : 'e t -> int -> 'e
(** The entry in slot [i].  Raises [Invalid_argument] on a free slot. *)

val find_slot : 'e t -> f:('e -> bool) -> int
(** Lowest live slot whose entry satisfies [f], or [-1].  Does not
    update recency — call {!touch_slot} on a hit. *)

val find : 'e t -> f:('e -> bool) -> 'e option
(** The entry {!find_slot} selects. *)

val touch_slot : 'e t -> int -> unit
(** Mark slot [i] most recently used (a no-op unless [Lru]). *)

val claim : 'e t -> int
(** The slot the next insertion takes: the lowest free slot, otherwise
    the policy's victim (least recently used, first inserted, or a
    draw from the [Random] stream — drawn only when no slot is free).
    Follow with {!set}; the slot's old entry, if {!is_live}, is the
    one evicted. *)

val set : 'e t -> int -> 'e -> unit
(** Install an entry in slot [i] and stamp it. *)

val insert : 'e t -> 'e -> 'e option
(** {!claim} then {!set}: install into a free slot, or evict the
    policy's victim and return it. *)

val flush : 'e t -> unit
