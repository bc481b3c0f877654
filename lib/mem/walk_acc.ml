(* The walk of a TLB miss: every memory read a page-table search makes,
   and its probes, for the cache-line metric.

   It is the only walk representation.  Under the parallel experiment
   runner each domain replays hundreds of thousands of misses, so a
   walk must not allocate per read: an accumulator is allocated once
   per replay loop and [reset] per miss; [read] only writes into the
   preallocated arrays (growing them by doubling on the rare overflow,
   so the steady state allocates nothing).

   Addresses are stored unboxed in an [int array]: a simulated physical
   address is at most ~2^60 (the linear page table's virtual array), so
   a 63-bit int holds every one exactly, and a read neither boxes an
   [int64] nor pays the write barrier an [int64 array] store costs. *)

type t = {
  mutable addrs : int array;
  mutable sizes : int array;
  mutable n : int;
  mutable probes : int;
  mutable nested_misses : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Walk_acc.create";
  {
    addrs = Array.make capacity 0;
    sizes = Array.make capacity 0;
    n = 0;
    probes = 0;
    nested_misses = 0;
  }

let reset t =
  t.n <- 0;
  t.probes <- 0;
  t.nested_misses <- 0

let rewind t ~count ~probes ~nested_misses =
  if count < 0 || count > t.n then invalid_arg "Walk_acc.rewind";
  t.n <- count;
  t.probes <- probes;
  t.nested_misses <- nested_misses

let grow t =
  let cap = 2 * Array.length t.addrs in
  let addrs = Array.make cap 0 and sizes = Array.make cap 0 in
  Array.blit t.addrs 0 addrs 0 t.n;
  Array.blit t.sizes 0 sizes 0 t.n;
  t.addrs <- addrs;
  t.sizes <- sizes

let read_int t ~addr ~bytes =
  if addr < 0 then invalid_arg "Walk_acc.read: address";
  if t.n = Array.length t.addrs then grow t;
  t.addrs.(t.n) <- addr;
  t.sizes.(t.n) <- bytes;
  t.n <- t.n + 1

let read t ~addr ~bytes =
  let a = Int64.to_int addr in
  if Int64.of_int a <> addr then invalid_arg "Walk_acc.read: address";
  read_int t ~addr:a ~bytes

let probe t = t.probes <- t.probes + 1

let add_nested t k = t.nested_misses <- t.nested_misses + k

let count t = t.n

let probes t = t.probes

let nested_misses t = t.nested_misses

let check_index t i =
  if i < 0 || i >= t.n then invalid_arg "Walk_acc: read index"

let addr_int t i =
  check_index t i;
  t.addrs.(i)

let addr t i = Int64.of_int (addr_int t i)

let bytes t i =
  check_index t i;
  t.sizes.(i)

let iter t f =
  for i = 0 to t.n - 1 do
    f (Int64.of_int t.addrs.(i)) t.sizes.(i)
  done
