(* Log-linear histogram of non-negative integer samples (nanoseconds).

   Values below 1024 get one bucket each; above that every power of two
   is split into 512 buckets, so a bucket is at most 0.2% wide.
   Quantiles interpolate linearly inside the bucket that holds the
   target rank, which keeps the reported figure continuous instead of
   snapping to the 1 ns clock grid. *)

let sub = 512
let linear = 2 * sub
let octaves = 52
let buckets = linear + (octaves * sub)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make buckets 0; n = 0 }

let index v =
  if v < linear then max v 0
  else begin
    let m = ref v and shift = ref 0 in
    while !m >= linear do
      m := !m lsr 1;
      incr shift
    done;
    min (buckets - 1) (linear + ((!shift - 1) * sub) + (!m - sub))
  end

(* [lo, width] of bucket [i] *)
let bounds i =
  if i < linear then (float_of_int i, 1.)
  else
    let j = i - linear in
    let shift = (j / sub) + 1 in
    let m = (j mod sub) + sub in
    (float_of_int (m lsl shift), float_of_int (1 lsl shift))

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let count t = t.n

let reset t =
  Array.fill t.counts 0 buckets 0;
  t.n <- 0

(* [q] in [0, 1]; 0 for an empty histogram *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let target = q *. float_of_int t.n in
    let rec go i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= target then begin
        let lo, width = bounds i in
        lo +. (width *. ((target -. float_of_int cum) /. float_of_int c))
      end
      else go (i + 1) (cum + c)
    in
    go 0 0
  end
