(** Synthetic page-reference traces.

    Page-granular event streams whose miss behaviour under the four TLB
    designs reproduces each workload's published character: array codes
    sweep large dense runs (superpages help enormously), pointer codes
    jump within a slowly-drifting hot set, the join nests sweeps, the
    GC alternates an allocation front with full-heap scans, and
    multiprogrammed workloads interleave processes with a TLB flush at
    each context switch (no address-space tags, as on the paper's
    SuperSPARC). *)

type event =
  | Access of int * int64  (** (process index, VPN) *)
  | Switch of int  (** context switch to process index: TLB flush *)
  | Mmap of int * int64 * int
      (** (process, first VPN, pages): map an anonymous region *)
  | Munmap of int * int64 * int  (** (process, first VPN, pages) *)
  | Protect of int * int64 * int * bool
      (** (process, first VPN, pages, writable): mprotect a range *)
  | Fork of int * int
      (** (parent, child): child shares the parent's frames COW-style *)
  | Exit of int  (** process exits; every mapping is released *)
  | Touch of int * int64
      (** (process, VPN): a store — faults the page in if needed and
          breaks copy-on-write sharing *)

type t = event array

val format_version : int
(** Version written by {!save} (["# ptsim-trace v2"]).  v1 is the
    headerless access/switch-only format of earlier builds; {!load}
    reads both and rejects anything newer. *)

val generate :
  ?quantum:int -> Spec.t -> Snapshot.t -> seed:int64 -> length:int -> t
(** Deterministic in [seed].  [length] counts [Access] events.
    [quantum] is the scheduling quantum (in events) between context
    switches of multiprogrammed workloads; the default 400 models a
    timer quantum (each page-granular event stands for ~25 real
    references), while pipeline-synchronized processes switch far more
    often. *)

val save : t -> string -> unit
(** A version header, then one line per event: ["A <pid> <vpn-hex>"],
    ["S <pid>"], ["M <pid> <vpn-hex> <pages>"] (mmap),
    ["U <pid> <vpn-hex> <pages>"] (munmap),
    ["P <pid> <vpn-hex> <pages> <0|1>"] (protect),
    ["F <parent> <child>"], ["X <pid>"] (exit) or ["T <pid> <vpn-hex>"]
    (touch). *)

val load : string -> (t, string) result
(** Inverse of {!save}; also reads headerless v1 files.  Never raises:
    an unreadable file, a malformed event (a negative process index, a
    VPN outside the 52-bit VPN space) or an unsupported format version
    is an [Error] naming the file and line. *)

val accesses : t -> int

val distinct_pages : t -> int
