(* The churn interpreter.

   Every churn replay runs through here: each tenant of a fleet
   (lib/fleet), one shared service ({!Service_replay}) and a
   NUMA-replicated table set ({!Numa_replay}).  The interpreter is
   abstract over an {!ops} record of callbacks, so the layer
   underneath (shard placement, ASID tagging, TLBs, eviction, replica
   nodes) stays with its owner — lib/fleet in particular, which this
   library must not depend on.  It exposes a resumable cursor: [step]
   consumes a bounded number of events, so a stream can round-robin
   its tenants in context-switch quanta and a round barrier can cut
   the trace into deterministic slices.  {!run_families} instead
   splits one trace into process families and replays each on its
   own soak stream.

   Region events become ONE callback per region (the batched range-op
   submission shape); [Fork] and [Exit] coalesce the pid's live pages
   into maximal runs and submit each run as a region.  Pids are folded
   into the tenant-local key's bits 32..43 (churn vpns stay far below
   2^32), leaving the high bits free for the fleet's ASID tag. *)

type ops = {
  map : Addr.Region.t -> int;
      (** map every page of the region; returns lock sections taken *)
  unmap : Addr.Region.t -> int;
  protect : Addr.Region.t -> writable:bool -> int;
  touch : int64 -> bool;
      (** one store to a tenant-local key; false = not mapped (the
          interpreter then demand-faults the page back in) *)
}

type tally = {
  mutable events : int;
  mutable mmaps : int;
  mutable munmaps : int;
  mutable protects : int;
  mutable touches : int;
  mutable touch_hits : int;
  mutable touch_faults : int;
  mutable forks : int;
  mutable exits : int;
  mutable pages_mapped : int;
  mutable pages_unmapped : int;
  mutable range_pages : int;
  mutable range_sections : int;
}

let tally_zero () =
  {
    events = 0;
    mmaps = 0;
    munmaps = 0;
    protects = 0;
    touches = 0;
    touch_hits = 0;
    touch_faults = 0;
    forks = 0;
    exits = 0;
    pages_mapped = 0;
    pages_unmapped = 0;
    range_pages = 0;
    range_sections = 0;
  }

let local_key ~pid ~vpn = Int64.logor (Int64.shift_left (Int64.of_int pid) 32) vpn

type t = {
  ops : ops;
  trace : Workload.Trace.t;
  mutable pos : int;
  tally : tally;
  (* per-pid live vpns (pid-local, untagged) — needed to expand Fork
     and Exit into page runs *)
  live : (int, (int64, unit) Hashtbl.t) Hashtbl.t;
}

let create ops trace = { ops; trace; pos = 0; tally = tally_zero (); live = Hashtbl.create 16 }

let tally t = t.tally
let consumed t = t.pos
let length t = Array.length t.trace
let finished t = t.pos >= Array.length t.trace

let live_of t pid =
  match Hashtbl.find_opt t.live pid with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 256 in
      Hashtbl.add t.live pid s;
      s

(* sorting first makes the runs independent of Hashtbl iteration
   order *)
let coalesce vpns =
  let sorted = List.sort_uniq compare vpns in
  let runs = ref [] in
  let flush first count = if count > 0 then runs := (first, count) :: !runs in
  let first = ref 0L and count = ref 0 in
  List.iter
    (fun v ->
      if !count > 0 && Int64.add !first (Int64.of_int !count) = v then incr count
      else begin
        flush !first !count;
        first := v;
        count := 1
      end)
    sorted;
  flush !first !count;
  List.rev !runs

let submit_range t pid ~unmap runs =
  List.iter
    (fun (vpn, pages) ->
      let region = Addr.Region.make ~first_vpn:(local_key ~pid ~vpn) ~pages in
      let sections = if unmap then t.ops.unmap region else t.ops.map region in
      t.tally.range_pages <- t.tally.range_pages + pages;
      t.tally.range_sections <- t.tally.range_sections + sections)
    runs

let interpret t ev =
  let y = t.tally in
  match (ev : Workload.Trace.event) with
  | Workload.Trace.Mmap (pid, vpn, pages) ->
      let s = live_of t pid in
      for i = 0 to pages - 1 do
        Hashtbl.replace s (Int64.add vpn (Int64.of_int i)) ()
      done;
      submit_range t pid ~unmap:false [ (vpn, pages) ];
      y.mmaps <- y.mmaps + 1;
      y.pages_mapped <- y.pages_mapped + pages
  | Workload.Trace.Munmap (pid, vpn, pages) ->
      let s = live_of t pid in
      for i = 0 to pages - 1 do
        Hashtbl.remove s (Int64.add vpn (Int64.of_int i))
      done;
      submit_range t pid ~unmap:true [ (vpn, pages) ];
      y.munmaps <- y.munmaps + 1;
      y.pages_unmapped <- y.pages_unmapped + pages
  | Workload.Trace.Protect (pid, vpn, pages, writable) ->
      let region = Addr.Region.make ~first_vpn:(local_key ~pid ~vpn) ~pages in
      let sections = t.ops.protect region ~writable in
      y.range_pages <- y.range_pages + pages;
      y.range_sections <- y.range_sections + sections;
      y.protects <- y.protects + 1
  | Workload.Trace.Touch (pid, vpn) ->
      y.touches <- y.touches + 1;
      if t.ops.touch (local_key ~pid ~vpn) then y.touch_hits <- y.touch_hits + 1
      else begin
        (* demand fault: a single-page map, outside the range-op
           tallies so locks-per-page stays a statement about range
           submissions *)
        ignore (t.ops.map (Addr.Region.make ~first_vpn:(local_key ~pid ~vpn) ~pages:1));
        Hashtbl.replace (live_of t pid) vpn ();
        y.touch_faults <- y.touch_faults + 1;
        y.pages_mapped <- y.pages_mapped + 1
      end
  | Workload.Trace.Fork (parent, child) ->
      let pages = Hashtbl.fold (fun vpn () acc -> vpn :: acc) (live_of t parent) [] in
      let s = live_of t child in
      List.iter (fun vpn -> Hashtbl.replace s vpn ()) pages;
      submit_range t child ~unmap:false (coalesce pages);
      y.forks <- y.forks + 1;
      y.pages_mapped <- y.pages_mapped + List.length pages
  | Workload.Trace.Exit pid ->
      let pages = Hashtbl.fold (fun vpn () acc -> vpn :: acc) (live_of t pid) [] in
      Hashtbl.remove t.live pid;
      submit_range t pid ~unmap:true (coalesce pages);
      y.exits <- y.exits + 1;
      y.pages_unmapped <- y.pages_unmapped + List.length pages
  | Workload.Trace.Access _ | Workload.Trace.Switch _ -> ()

let step t ~max_events =
  let n = min max_events (Array.length t.trace - t.pos) in
  for i = t.pos to t.pos + n - 1 do
    interpret t t.trace.(i)
  done;
  t.pos <- t.pos + n;
  t.tally.events <- t.tally.events + n;
  n

let interleave cursors ~tenants ~round ~rounds ~switch_every ~switch ~event =
  if switch_every < 1 then
    invalid_arg "Fleet_replay.interleave: switch_every must be >= 1";
  let left t =
    (length cursors.(t) * (round + 1) / rounds) - consumed cursors.(t)
  in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iter
      (fun t ->
        let n = left t in
        if n > 0 then begin
          switch t;
          for _ = 1 to min switch_every n do
            event t cursors.(t)
          done;
          if left t > 0 then progressed := true
        end)
      tenants
  done

let tally_sum cursors =
  let s = tally_zero () in
  Array.iter
    (fun c ->
      let y = c.tally in
      s.events <- s.events + y.events;
      s.mmaps <- s.mmaps + y.mmaps;
      s.munmaps <- s.munmaps + y.munmaps;
      s.protects <- s.protects + y.protects;
      s.touches <- s.touches + y.touches;
      s.touch_hits <- s.touch_hits + y.touch_hits;
      s.touch_faults <- s.touch_faults + y.touch_faults;
      s.forks <- s.forks + y.forks;
      s.exits <- s.exits + y.exits;
      s.pages_mapped <- s.pages_mapped + y.pages_mapped;
      s.pages_unmapped <- s.pages_unmapped + y.pages_unmapped;
      s.range_pages <- s.range_pages + y.range_pages;
      s.range_sections <- s.range_sections + y.range_sections)
    cursors;
  s

(* --- process families: the unit of concurrent replay --- *)

let pid_of = function
  | Workload.Trace.Mmap (pid, _, _)
  | Workload.Trace.Munmap (pid, _, _)
  | Workload.Trace.Protect (pid, _, _, _)
  | Workload.Trace.Touch (pid, _)
  | Workload.Trace.Exit pid
  | Workload.Trace.Fork (pid, _) ->
      Some pid
  | Workload.Trace.Access _ | Workload.Trace.Switch _ -> None

let families (trace : Workload.Trace.t) =
  (* union-find over Fork edges; the smaller root wins *)
  let parent = Hashtbl.create 16 in
  let rec root p =
    match Hashtbl.find_opt parent p with
    | None -> p
    | Some q ->
        let r = root q in
        Hashtbl.replace parent p r;
        r
  in
  Array.iter
    (function
      | Workload.Trace.Fork (a, b) ->
          let ra = root a and rb = root b in
          if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
      | _ -> ())
    trace;
  (* root -> (index in first-appearance order, events newest first) *)
  let found = Hashtbl.create 16 in
  Array.iter
    (fun ev ->
      match pid_of ev with
      | None -> ()
      | Some pid ->
          let r = root pid in
          let _, evs =
            match Hashtbl.find_opt found r with
            | Some f -> f
            | None ->
                let f = (Hashtbl.length found, ref []) in
                Hashtbl.add found r f;
                f
          in
          evs := ev :: !evs)
    trace;
  let out = Array.make (Hashtbl.length found) [||] in
  Hashtbl.iter
    (fun _ (i, evs) -> out.(i) <- Array.of_list (List.rev !evs))
    found;
  out

let run_families ~epochs ~domains ops_of trace =
  if domains < 1 then
    invalid_arg "Fleet_replay.run_families: domains must be >= 1";
  let cursors =
    Array.mapi (fun f evs -> create (ops_of f) evs) (families trace)
  in
  (* Exec.Soak needs at least one stream *)
  if Array.length cursors > 0 then
    Exec.Soak.with_streams ~epochs ~domains ~streams:(Array.length cursors)
      (fun soak ->
        Exec.Soak.each soak (fun f ->
            ignore (step cursors.(f) ~max_events:max_int)));
  cursors
