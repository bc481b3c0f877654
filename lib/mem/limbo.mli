(** Epoch-stamped limbo for page-table nodes unlinked under lock-free
    readers: the one copy both the clustered and the hashed table
    retire into.

    While a reclaim hook is installed, a table does not recycle a node
    it unlinks: it retires it here under the hook's stamp (an epoch
    clock), leaving the node's links and words intact so an optimistic
    reader already past the unlink can finish its doomed walk.  Once
    the caller's epoch manager proves every reader pinned before some
    epoch has left, {!reclaim} hands the older nodes back to the table,
    which decides where they go (a free list, the arena).

    Entries are sharded by domain id (8 shards), so retiring writers on
    different domains do not contend on one mutex.  Every hand-over
    ({!reclaim}, {!drain}) and {!iter} visits the shards in order and
    each shard newest first. *)

type 'n t

val create : unit -> 'n t
(** An empty limbo with no hook. *)

val hook : 'n t -> (unit -> int) option
(** The installed stamp clock, if any.  A closure, so this library
    does not depend on the epoch manager's. *)

val set_hook : 'n t -> (unit -> int) option -> unit
(** Install or remove the hook.  Flip only at quiescence. *)

val retire : 'n t -> stamp:int -> 'n -> unit
(** Add a node to the calling domain's shard under [stamp]. *)

val reclaim : 'n t -> upto:int -> ('n -> unit) -> unit
(** Hand every node stamped strictly below [upto] to [f] and forget
    it; a node stamped [upto] or later stays.  [f] runs outside the
    shard's mutex. *)

val count : 'n t -> int
(** Nodes currently held. *)

val iter : 'n t -> ('n -> unit) -> unit
(** Every held node, for an integrity check at quiescence. *)

val drain : 'n t -> ('n -> unit) -> unit
(** Hand every node to [f], whatever its stamp, and empty the limbo. *)

val forget : 'n t -> unit
(** Empty the limbo without handing anything over (a table rebuilt
    from scratch abandons its old nodes). *)
