(** JSON values, printed and parsed in one place.

    Every JSON artifact the project writes — experiment outcomes,
    benchmark files, metrics dumps, crash dumps, Chrome traces, anomaly
    reports — is built as a {!t} and printed by {!to_string}; every
    artifact it reads goes through {!parse}.  This module is the only
    one that spells JSON syntax: it holds the one string escaper, the
    one number grammar and the two layouts.

    A number keeps its literal text, so each field's format ([%d],
    [%.4f], ...) is fixed where the value is built and survives a round
    trip: [parse (to_string v) = v] holds exactly, for either layout.
    The type is private, so every number is made by a constructor that
    refuses NaN and the infinities, and no emitter can write invalid
    JSON.  Stdlib only. *)

type t = private
  | Null
  | Bool of bool
  | Num of string  (** the literal text of a finite number *)
  | Str of string  (** raw bytes; non-ASCII bytes pass through *)
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

(** {1 Building} *)

val null : t

val bool : bool -> t

val int : int -> t
(** Printed as [%d]. *)

val fixed : dp:int -> float -> t
(** Printed with [dp] decimals ([%.*f]).
    @raise Invalid_argument on a non-finite float. *)

val float : float -> t
(** An integral value below 1e15 printed as [%.0f], anything else as
    [%g].  @raise Invalid_argument on a non-finite float. *)

val string : string -> t

val list : t list -> t

val obj : (string * t) list -> t

(** {1 Printing} *)

type layout =
  | Compact  (** no whitespace: stdout outcomes, dumps, metrics files *)
  | Indented
      (** a container holding a container prints one member per line,
          indented two spaces per level; a container of scalars prints
          inline as [{ "k": v, ... }] or [[ v, ... ]] *)

val to_string : ?layout:layout -> t -> string
(** [layout] defaults to [Compact].  No trailing newline. *)

(** {1 Parsing} *)

exception Parse_error of string

val parse : string -> t
(** Parse one document (RFC 8259 grammar, surrounding whitespace
    allowed).  [\uXXXX] escapes, surrogate pairs included, decode to
    UTF-8.  Nesting is limited to 512 levels.
    @raise Parse_error naming the fault and its byte offset on any
    malformed input, including a number that is not a finite float;
    never any other exception. *)

val load_file : string -> (t, string) result
(** Read and parse a file; [Error] carries a printable message
    naming the file. *)

(** {1 Reading} *)

val member : string -> t -> t option
(** The first field named [key] of an object; [None] otherwise. *)

val to_float : t -> float option
(** The value of a number; [None] for any other node. *)
