type t = {
  line_size : int;
  sets : int;
  ways : int;
  (* tags.(set) is the set's lines, most-recently-used first *)
  tags : int64 list array;
  mutable hits : int;
  mutable misses : int;
}

let create ?(line_size = Cache_model.default_line_size) ~sets ~ways () =
  if sets <= 0 || not (Addr.Bits.is_pow2 sets) then
    invalid_arg "Cache_sim: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Cache_sim: ways must be positive";
  if not (Addr.Bits.is_pow2 line_size) then
    invalid_arg "Cache_sim: line size must be a power of two";
  { line_size; sets; ways; tags = Array.make sets []; hits = 0; misses = 0 }

let access t addr =
  let line =
    Int64.shift_right_logical addr (Addr.Bits.log2_exact t.line_size)
  in
  let set = Int64.to_int (Int64.rem line (Int64.of_int t.sets)) in
  let lines = t.tags.(set) in
  let hit = List.mem line lines in
  let others = List.filter (fun l -> l <> line) lines in
  let kept =
    if List.length others >= t.ways then
      List.filteri (fun i _ -> i < t.ways - 1) others
    else others
  in
  t.tags.(set) <- line :: kept;
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  hit

let access_bytes t ~addr ~bytes =
  if bytes <= 0 then invalid_arg "Cache_sim: access bytes";
  let shift = Addr.Bits.log2_exact t.line_size in
  let last_byte = Int64.add addr (Int64.of_int (bytes - 1)) in
  let last = Int64.shift_right_logical last_byte shift in
  let rec go line hits misses =
    if Int64.compare line last > 0 then (hits, misses)
    else if access t (Int64.shift_left line shift) then
      go (Int64.succ line) (hits + 1) misses
    else go (Int64.succ line) hits (misses + 1)
  in
  go (Int64.shift_right_logical addr shift) 0 0

let hits t = t.hits

let misses t = t.misses

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let flush t =
  Array.fill t.tags 0 t.sets [];
  t.hits <- 0;
  t.misses <- 0

let capacity_bytes t = t.line_size * t.sets * t.ways
