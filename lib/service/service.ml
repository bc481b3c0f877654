(* A shared-memory page-table service (paper, Section 3.1).

   One page table — hashed or clustered — shared by N domains, with
   the locking protocol the paper describes for multi-threaded
   operating systems: a readers-writer lock per hash bucket, striped
   over the table's own buckets, plus a coarse single-mutex baseline
   for comparison, plus a lock-free read path ([Seqlock]) where
   lookups take zero lock acquisitions: per-bucket sequence counters
   validate optimistic walks, and epoch-based reclamation (the
   tables' limbo lists stamped by [Exec.Epoch]) keeps removed nodes
   walkable until every reader that could hold a pointer into them
   has moved on.

   The locking is layered strictly outside the tables.  The tables'
   entry points are bucket-local (every lookup/insert/remove touches
   exactly the chain of [bucket_of vpn]; range protects touch one
   bucket per block or per page), and their cross-bucket shared state
   — node counters, arena allocation, free lists — is independently
   thread-safe (atomics and internal mutexes).  Holding the stripe for
   an operation's bucket therefore makes the operation atomic with
   respect to every other operation.

   The hashed backend is restricted to [No_superpages] mode: its other
   modes probe a second (coarse) bucket per operation, which a single
   stripe does not cover. *)

type org = Hashed | Clustered

let org_name = function Hashed -> "hashed" | Clustered -> "clustered"

type locking = Global | Striped | Seqlock

let locking_name = function
  | Global -> "global"
  | Striped -> "striped"
  | Seqlock -> "seqlock"

let lock_code = function
  | Global -> Obs.Recorder.l_global
  | Striped -> Obs.Recorder.l_striped
  | Seqlock -> Obs.Recorder.l_seqlock

(* The coarse baseline is one exclusive mutex.  Acquisitions are
   tallied by intent (read for lookups, write for mutations) so its
   accounting lines up with the striped lock's, even though every
   acquisition excludes everyone. *)
type global_lock = {
  m : Mutex.t;
  mutable g_reads : int;
  mutable g_writes : int;
  mutable g_held : int;
}

(* [Seqlock] keeps the striped lock for writers (and as the readers'
   contention fallback) and adds one sequence counter per bucket:
   even = chain stable, odd = a writer is mid-update.  Readers walk
   with no lock at all — snapshot the counter, walk, re-check — so a
   read-mostly mix scales past the stripe's cache-line ping-pong. *)
type seqlock = {
  sl : Clustered_pt.Bucket_lock.Real.t;
  seqs : int Atomic.t array;
  epoch : Exec.Epoch.t;  (* reclamation domain for this table *)
  sq_retries : int Atomic.t;
  sq_fallbacks : int Atomic.t;
  sq_writes : int Atomic.t;  (* paces [reclaim] sweeps, 1 per 64 *)
}

type locks =
  | Global_lock of global_lock
  | Striped_lock of Clustered_pt.Bucket_lock.Real.t
  | Seqlock_lock of seqlock

(* The backing table, packed with its implementation.  [create] is the
   only place that knows which table serves; every operation unpacks
   the module once and calls through {!Pt_common.Intf.CONCURRENT_TABLE}. *)
type t = {
  org : org;
  locking : locking;
  table : Pt_common.Intf.concurrent;
  locks : locks;
  subblock_factor : int;
}

let create ?(buckets = 4096) ?(subblock_factor = 16) ~org ~locking () =
  let table : Pt_common.Intf.concurrent =
    match org with
    | Hashed ->
        Concurrent
          ( (module Baselines.Hashed_pt),
            Baselines.Hashed_pt.create ~buckets ~subblock_factor
              ~mode:Baselines.Hashed_pt.No_superpages () )
    | Clustered ->
        Concurrent
          ( (module Clustered_pt.Table),
            Clustered_pt.Table.create
              (Clustered_pt.Config.make ~buckets ~subblock_factor ()) )
  in
  let (Concurrent ((module T), tbl)) = table in
  let locks =
    match locking with
    | Global ->
        Global_lock
          { m = Mutex.create (); g_reads = 0; g_writes = 0; g_held = 0 }
    | Striped -> Striped_lock (Clustered_pt.Bucket_lock.Real.create ~buckets)
    | Seqlock ->
        let epoch = Exec.Epoch.create () in
        let stamp_of () = Exec.Epoch.retire_stamp epoch in
        (* with the hook installed, the table retires unlinked nodes
           to its limbo list instead of recycling them — the other
           half of the lock-free read path's safety argument *)
        T.set_reclaim_hook tbl (Some stamp_of);
        Seqlock_lock
          {
            sl = Clustered_pt.Bucket_lock.Real.create ~buckets;
            seqs = Array.init buckets (fun _ -> Atomic.make 0);
            epoch;
            sq_retries = Atomic.make 0;
            sq_fallbacks = Atomic.make 0;
            sq_writes = Atomic.make 0;
          }
  in
  { org; locking; table; locks; subblock_factor }

let org t = t.org
let locking t = t.locking
let subblock_factor t = t.subblock_factor

let bucket_of t ~vpn =
  let (Concurrent ((module T), tbl)) = t.table in
  T.bucket_of tbl ~vpn

(* Lock holds are trace slices (arg: the stripe, or -1 for the global
   mutex).  The begin event precedes acquisition, so the slice also
   shows time spent blocked behind the holder.  With tracing disabled
   each emit point is one branch and the locking code is exactly the
   untraced version — no wrapper closures on the hot path. *)
let traced ev arg body =
  Obs.Tracer.begin_ ev arg;
  match body () with
  | v ->
      Obs.Tracer.end_ ev;
      v
  | exception e ->
      Obs.Tracer.end_ ev;
      raise e

let bump name = Obs.Metrics.incr (Obs.Ambient.counter name)

let site_ordinal = function
  | Fault.Alloc_node -> 0
  | Fault.Alloc_phys -> 1
  | Fault.Lock_timeout -> 2
  | Fault.Domain_crash -> 3
  | Fault.Torn_write -> 4
  | Fault.Seqlock_stall -> 5
  | Fault.Replica_write -> 6
  | Fault.Shard_crash -> 7

let note_injected site =
  bump ("fault.injected." ^ Fault.site_name site);
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant Obs.Tracer.ev_fault_inject (site_ordinal site)

(* Deterministic backoff: an attempt-clock spin, no wall time. *)
let backoff attempt =
  for _ = 1 to (attempt + 1) * 32 do
    Domain.cpu_relax ()
  done

let with_read_global g f =
  Mutex.lock g.m;
  g.g_reads <- g.g_reads + 1;
  g.g_held <- g.g_held + 1;
  Fun.protect
    ~finally:(fun () ->
      g.g_held <- g.g_held - 1;
      Mutex.unlock g.m)
    f

(* --- the lock-free read path ---

   Why an optimistic walk over a chain being rewritten is memory-safe:
   every pointer a walk chases — a node's [next], a clustered node's
   [words] array, the boxed [int64] tag and word cells — is an OCaml
   heap pointer, loaded and stored word-atomically, so a racing read
   sees some complete former or current value, never a torn one.  A
   stale value is harmless: retired nodes keep their [next] intact and
   wear a tag no live key matches, and epoch-based reclamation
   guarantees nothing a pinned reader can still reach is recycled, so
   there is no ABA re-linking and every reachable chain suffix
   terminates.  The only residual hazard is a logically inconsistent
   *combination* of reads (e.g. a words array swapped mid-walk raising
   [Invalid_argument] on a stale index); the sequence re-check
   detects exactly that — any exception while the counter moved is
   interference, retried; with the counter unmoved it is a real error
   and propagates.

   The fallback after [seqlock_attempts] failed walks takes the
   striped read lock under [Fault.suspended]: whether a walk degrades
   to the lock depends on scheduling, so a planned [Lock_timeout]
   must not get a nondeterministic extra trip site there. *)

let seqlock_attempts = 8

let seqlock_fallback s ~bucket f =
  Atomic.incr s.sq_fallbacks;
  bump "service.seqlock_fallbacks";
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant Obs.Tracer.ev_seqlock_fallback bucket;
  Fault.suspended (fun () ->
      Clustered_pt.Bucket_lock.Real.with_read s.sl ~bucket f)

let seqlock_note_retry s bucket n =
  Atomic.incr s.sq_retries;
  bump "service.seqlock_retries";
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant Obs.Tracer.ev_seqlock_retry bucket;
  backoff n

let rec seqlock_attempt s ~bucket seq f n =
  if n >= seqlock_attempts then seqlock_fallback s ~bucket f
  else
    let s1 = Atomic.get seq in
    if s1 land 1 = 1 then begin
      seqlock_note_retry s bucket n;
      seqlock_attempt s ~bucket seq f (n + 1)
    end
    else
      match f () with
      | v ->
          if Atomic.get seq = s1 then v
          else begin
            seqlock_note_retry s bucket n;
            seqlock_attempt s ~bucket seq f (n + 1)
          end
      | exception e ->
          if Atomic.get seq = s1 then raise e
          else begin
            seqlock_note_retry s bucket n;
            seqlock_attempt s ~bucket seq f (n + 1)
          end

(* Top-level helpers and an explicit exception match keep the happy
   path allocation-free (no [Fun.protect] closures): the optimistic
   walk must stay GC-quiet, because a minor collection is a
   stop-the-world rendezvous across every domain — far more expensive
   than the walk it interrupts.

   Epoch protection is amortized ([Epoch.repin], the classic EBR
   shape): a reader stays pinned between walks and only republishes
   its stamp when a retirement moved the epoch, so the steady-state
   entry cost is two plain loads instead of a fenced store per lookup.
   There is deliberately no unpin on exit — the standing pin only
   blocks reclamation of nodes retired {e after} it (a republish
   always confirms the current epoch, so it never blocks draining of
   the past), and a domain done reading returns its slot through
   [Epoch.unpin]/[Epoch.unregister] — worker pools do the latter when
   a worker retires. *)
let with_read_seqlock s ~bucket f =
  Exec.Epoch.repin s.epoch;
  seqlock_attempt s ~bucket s.seqs.(bucket) f 0

(* Writers serialize on the stripe as in [Striped] mode; the sequence
   bump (odd while mutating) is what invalidates concurrent optimistic
   walks.  A planned [Seqlock_stall] holds the counter odd through a
   long spin — readers of this bucket must ride it out through their
   retry/fallback path; nothing raises, so the self-healing layer
   never sees it. *)
let with_write_seqlock s ~bucket f =
  Clustered_pt.Bucket_lock.Real.with_write s.sl ~bucket (fun () ->
      let seq = s.seqs.(bucket) in
      Atomic.incr seq;
      if Fault.trip Fault.Seqlock_stall then begin
        note_injected Fault.Seqlock_stall;
        for _ = 1 to 2048 do
          Domain.cpu_relax ()
        done
      end;
      match f () with
      | v ->
          Atomic.incr seq;
          v
      | exception e ->
          Atomic.incr seq;
          raise e)

let with_read t ~vpn f =
  match t.locks with
  | Global_lock g ->
      if Obs.Tracer.enabled () then
        traced Obs.Tracer.ev_lock_read (-1) (fun () -> with_read_global g f)
      else with_read_global g f
  | Striped_lock l ->
      let bucket = bucket_of t ~vpn in
      if Obs.Tracer.enabled () then
        traced Obs.Tracer.ev_lock_read bucket (fun () ->
            Clustered_pt.Bucket_lock.Real.with_read l ~bucket f)
      else Clustered_pt.Bucket_lock.Real.with_read l ~bucket f
  | Seqlock_lock s ->
      (* no ev_lock_read slice: the optimistic path holds no lock, and
         a fallback's acquisition is visible as its instant event *)
      let bucket = bucket_of t ~vpn in
      with_read_seqlock s ~bucket f

let with_write_global g f =
  Mutex.lock g.m;
  g.g_writes <- g.g_writes + 1;
  g.g_held <- g.g_held + 1;
  Fun.protect
    ~finally:(fun () ->
      g.g_held <- g.g_held - 1;
      Mutex.unlock g.m)
    f

let with_write t ~vpn f =
  match t.locks with
  | Global_lock g ->
      if Obs.Tracer.enabled () then
        traced Obs.Tracer.ev_lock_write (-1) (fun () -> with_write_global g f)
      else with_write_global g f
  | Striped_lock l ->
      let bucket = bucket_of t ~vpn in
      if Obs.Tracer.enabled () then
        traced Obs.Tracer.ev_lock_write bucket (fun () ->
            Clustered_pt.Bucket_lock.Real.with_write l ~bucket f)
      else Clustered_pt.Bucket_lock.Real.with_write l ~bucket f
  | Seqlock_lock s ->
      let bucket = bucket_of t ~vpn in
      let v =
        if Obs.Tracer.enabled () then
          traced Obs.Tracer.ev_lock_write bucket (fun () ->
              with_write_seqlock s ~bucket f)
        else with_write_seqlock s ~bucket f
      in
      (* amortized reclamation sweep, outside the bucket lock: park
         limbo nodes no current or future reader can reach *)
      if Atomic.fetch_and_add s.sq_writes 1 land 63 = 63 then begin
        let (Concurrent ((module T), tbl)) = t.table in
        T.reclaim tbl ~upto:(Exec.Epoch.safe_before s.epoch)
      end;
      v

(* --- self-healing write path (engaged only under a fault plan) ---

   The fault plan can fail an operation three ways: the stripe
   acquisition times out ([Bucket_lock.Real.Timeout], injected before
   any lock state changes), node acquisition fails inside the table
   ([Fault.Injected Alloc_node], fired before any chain mutation), or
   the update itself is torn halfway ([Torn_write] — we plant the torn
   multi-word signature in the bucket, exactly what a real torn store
   of a two-word PTE leaves behind).

   Every guarded attempt journals its bucket image under the write
   lock and rolls back on any exception, so a failed attempt is
   invisible to fsck; the driver retries with a deterministic
   attempt-clock backoff and gives the operation up (degraded mode,
   tallied as an abort) once the budget is spent.  Recovery code runs
   inside [Fault.suspended] — undoing a fault can never inject
   another. *)

let heal_attempts = 4

let observed_site = function
  | Clustered_pt.Bucket_lock.Real.Timeout _ -> Some Fault.Lock_timeout
  | Fault.Injected { site; _ } -> Some site
  | _ -> None

(* The undo journal is the bucket's image; a torn write plants the
   signature a half-completed multi-word PTE store leaves in [vpn]'s
   bucket. *)
let attempt_write t ~vpn f =
  with_write t ~vpn (fun () ->
      let (Concurrent ((module T), tbl)) = t.table in
      let bucket = T.bucket_of tbl ~vpn in
      let img = T.snapshot_bucket tbl ~bucket in
      match
        if Fault.trip Fault.Torn_write then begin
          ignore (T.tear tbl ~vpn);
          raise
            (Fault.Injected
               { site = Fault.Torn_write; key = Fault.context_key () })
        end;
        f ()
      with
      | v -> v
      | exception e ->
          Fault.suspended (fun () -> T.restore_bucket tbl ~bucket img);
          raise e)

let rec heal t ~vpn ~default ~write f attempt =
  Fault.set_attempt attempt;
  match if write then attempt_write t ~vpn f else with_read t ~vpn f with
  | v ->
      Fault.set_attempt 0;
      v
  | exception e -> (
      match observed_site e with
      | None -> raise e
      | Some site ->
          note_injected site;
          if attempt + 1 < heal_attempts then begin
            Fault.note_retry ();
            bump "fault.retries";
            if Obs.Tracer.enabled () then
              Obs.Tracer.instant Obs.Tracer.ev_fault_retry (attempt + 1);
            backoff attempt;
            heal t ~vpn ~default ~write f (attempt + 1)
          end
          else begin
            Fault.note_abort ();
            bump "fault.aborts";
            if Obs.Tracer.enabled () then
              Obs.Tracer.instant Obs.Tracer.ev_fault_abort heal_attempts;
            Fault.set_attempt 0;
            default
          end)

let read_section t ~vpn ~default f =
  if Fault.active () then heal t ~vpn ~default ~write:false f 0
  else with_read t ~vpn f

let write_section t ~vpn ~default f =
  if Fault.active () then heal t ~vpn ~default ~write:true f 0
  else with_write t ~vpn f

let lookup_into t acc ~vpn =
  (* the body may run several times (optimistic retries, self-healing
     retries); rewinding to the entry state on each attempt keeps the
     accumulator charged for exactly one walk *)
  let count = Mem.Walk_acc.count acc in
  let probes = Mem.Walk_acc.probes acc in
  let nested_misses = Mem.Walk_acc.nested_misses acc in
  read_section t ~vpn ~default:false (fun () ->
      Mem.Walk_acc.rewind acc ~count ~probes ~nested_misses;
      let (Concurrent ((module T), tbl)) = t.table in
      T.lookup_into tbl acc ~vpn <> None)

(* [find] wants only the translation, so its walk goes into a
   per-domain scratch accumulator, reset on every attempt (optimistic
   retry or healing retry), and no walk list is built. *)
let find_scratch = Domain.DLS.new_key (fun () -> Mem.Walk_acc.create ())

let find t ~vpn =
  let acc = Domain.DLS.get find_scratch in
  read_section t ~vpn ~default:None (fun () ->
      Mem.Walk_acc.reset acc;
      let (Concurrent ((module T), tbl)) = t.table in
      T.lookup_into tbl acc ~vpn)

let lookup t ~vpn = find t ~vpn <> None

(* Table calls for the write sections.  Unpacking the table here,
   inside a section's closure, keeps that closure capturing [t] rather
   than the module and the table: no extra words per operation. *)
let insert_raw t ~vpn ~ppn ~attr =
  let (Concurrent ((module T), tbl)) = t.table in
  T.insert_base tbl ~vpn ~ppn ~attr

let remove_raw t ~vpn =
  let (Concurrent ((module T), tbl)) = t.table in
  T.remove tbl ~vpn

let set_attr_raw t region ~f =
  let (Concurrent ((module T), tbl)) = t.table in
  T.set_attr_range tbl region ~f

let insert t ~vpn ~ppn ~attr =
  write_section t ~vpn ~default:() (fun () -> insert_raw t ~vpn ~ppn ~attr)

let remove t ~vpn =
  write_section t ~vpn ~default:() (fun () -> remove_raw t ~vpn)

(* --- batched range ops (Section 3.1's range granularity at service
   scale) ---

   One submission covers a whole region.  Arithmetic cuts the region
   into runs at multiples of the table's [pages_per_section] (a page
   block on a clustered table, one page on a hashed one); every page of
   a run shares its bucket, so the table takes a run in one call
   ([map_run], [unmap_run], [set_attr_range]).  Sections group the
   runs: under stripes, one per distinct bucket, in the order the
   buckets first appear, each holding its runs in region order (a
   hashed table's pages, or two blocks of a clustered one, share a
   section only when their buckets collide); under the global lock,
   one for the whole region.  Each section is one write_section, hence
   one undo-journal unit under fault injection: an injected failure
   rolls it back as a unit and the heal path retries it (map, unmap
   and protect are idempotent, so a retry after partial progress is
   safe).

   Grouping allocates nothing per page: a per-domain plan stamps each
   bucket with the submission that last met it, and threads each
   section's runs through an index array.  A plan is read-only while
   its sections run, so healing retries replay the same runs; nothing
   a section runs (table calls, [ppn_of]) starts another range op, so
   one plan per domain suffices. *)
type plan = {
  mutable stamp : int;  (* this submission's stamp *)
  mutable seen : int array;  (* bucket -> stamp of the last plan meeting it *)
  mutable tail : int array;  (* bucket -> its section's last run so far *)
  mutable succ : int array;  (* run -> the next run of its section, or -1 *)
  mutable leaders : int array;  (* section -> its first run *)
  mutable first : int64;  (* the region's first page *)
  mutable pages : int;
  mutable per : int;  (* pages_per_section *)
  mutable skew : int;  (* first mod per: run 0 is that much short *)
}

let plan_key =
  Domain.DLS.new_key (fun () ->
      {
        stamp = 0;
        seen = [||];
        tail = [||];
        succ = [||];
        leaders = [||];
        first = 0L;
        pages = 0;
        per = 1;
        skew = 0;
      })

let at_least a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* Run [i]'s first page, as an offset into the region, and its length. *)
let run_lo p i = if i = 0 then 0 else (i * p.per) - p.skew

let run_vpn p i = Int64.add p.first (Int64.of_int (run_lo p i))

let run_pages p i = min p.pages (((i + 1) * p.per) - p.skew) - run_lo p i

(* Cut [region] into runs in [p]; returns the run count. *)
let cut t p (region : Addr.Region.t) =
  let (Concurrent ((module T), tbl)) = t.table in
  let per = T.pages_per_section tbl in
  p.first <- region.first_vpn;
  p.pages <- region.pages;
  p.per <- per;
  p.skew <- Int64.to_int (Int64.rem region.first_vpn (Int64.of_int per));
  if region.pages = 0 then 0 else (p.skew + region.pages + per - 1) / per

(* Plan [region]'s sections into [p]; returns the section count. *)
let plan_sections t p region =
  let (Concurrent ((module T), tbl)) = t.table in
  let runs = cut t p region in
  p.succ <- at_least p.succ runs;
  p.leaders <- at_least p.leaders runs;
  match t.locks with
  | Global_lock _ ->
      for i = 0 to runs - 1 do
        p.succ.(i) <- (if i = runs - 1 then -1 else i + 1)
      done;
      if runs > 0 then p.leaders.(0) <- 0;
      min runs 1
  | Striped_lock _ | Seqlock_lock _ ->
      let buckets = T.buckets tbl in
      p.seen <- at_least p.seen buckets;
      p.tail <- at_least p.tail buckets;
      p.stamp <- p.stamp + 1;
      let sections = ref 0 in
      for i = 0 to runs - 1 do
        let b = T.bucket_of tbl ~vpn:(run_vpn p i) in
        p.succ.(i) <- -1;
        if p.seen.(b) = p.stamp then p.succ.(p.tail.(b)) <- i
        else begin
          p.seen.(b) <- p.stamp;
          p.leaders.(!sections) <- i;
          incr sections
        end;
        p.tail.(b) <- i
      done;
      !sections

let range_lock_sections t region =
  plan_sections t (Domain.DLS.get plan_key) region

let rec section_runs p run i =
  if i >= 0 then begin
    run (run_vpn p i) (run_pages p i);
    section_runs p run p.succ.(i)
  end

(* The one range path: plan, then one write section per section,
   [run vpn pages] applied to each of its runs. *)
let range_op t region run =
  let p = Domain.DLS.get plan_key in
  let sections = plan_sections t p region in
  for k = 0 to sections - 1 do
    let lead = p.leaders.(k) in
    write_section t ~vpn:(run_vpn p lead) ~default:() (fun () ->
        section_runs p run lead)
  done;
  sections

let map_range t region ~ppn_of ~attr =
  range_op t region (fun vpn pages ->
      let (Concurrent ((module T), tbl)) = t.table in
      T.map_run tbl ~vpn ~pages ~ppn_of ~attr)

let unmap_range t region =
  range_op t region (fun vpn pages ->
      let (Concurrent ((module T), tbl)) = t.table in
      T.unmap_run tbl ~vpn ~pages)

let protect_range t region ~writable =
  let f attr = { attr with Pte.Attr.writable } in
  range_op t region (fun vpn pages ->
      ignore (set_attr_raw t (Addr.Region.make ~first_vpn:vpn ~pages) ~f))

(* Range protect.  This is where lock granularity diverges (the
   Section 3.1 claim the tests verify): one write lock per run — a page
   *block* on clustered, a base *page* on hashed — even where runs'
   buckets collide.  Under the global lock both take a single
   acquisition for the whole range.  Returns the hash searches. *)
let protect t region ~writable =
  let f attr = { attr with Pte.Attr.writable } in
  match t.locks with
  | Global_lock _ ->
      (* representative vpn only selects the (single) lock *)
      write_section t ~vpn:region.Addr.Region.first_vpn ~default:0 (fun () ->
          set_attr_raw t region ~f)
  | Striped_lock _ | Seqlock_lock _ ->
      let p = Domain.DLS.get plan_key in
      let searches = ref 0 in
      for i = 0 to cut t p region - 1 do
        let vpn = run_vpn p i and pages = run_pages p i in
        searches :=
          !searches
          + write_section t ~vpn ~default:0 (fun () ->
                set_attr_raw t (Addr.Region.make ~first_vpn:vpn ~pages) ~f)
      done;
      !searches

let population t =
  let (Concurrent ((module T), tbl)) = t.table in
  T.population tbl

let size_bytes t =
  let (Concurrent ((module T), tbl)) = t.table in
  T.size_bytes tbl

type lock_stats = {
  read_acquisitions : int;
  write_acquisitions : int;
  read_contention : int;
  currently_held : int;
}

let striped_stats l =
  {
    read_acquisitions = Clustered_pt.Bucket_lock.Real.read_acquisitions l;
    write_acquisitions = Clustered_pt.Bucket_lock.Real.write_acquisitions l;
    read_contention = Clustered_pt.Bucket_lock.Real.read_contention l;
    currently_held = Clustered_pt.Bucket_lock.Real.currently_held l;
  }

let lock_stats t =
  match t.locks with
  | Global_lock g ->
      (* mutate-free reads of monotonic counters; exact when quiescent,
         like the striped per-slot sums.  The single mutex has no
         blocked-reader accounting: contention reads as zero. *)
      {
        read_acquisitions = g.g_reads;
        write_acquisitions = g.g_writes;
        read_contention = 0;
        currently_held = g.g_held;
      }
  | Striped_lock l -> striped_stats l
  | Seqlock_lock s ->
      (* read acquisitions here are fallbacks only: the optimistic
         path's whole point is taking zero read locks *)
      striped_stats s.sl

let reset_lock_stats t =
  match t.locks with
  | Global_lock g ->
      g.g_reads <- 0;
      g.g_writes <- 0
  | Striped_lock l -> Clustered_pt.Bucket_lock.Real.reset_counters l
  | Seqlock_lock s ->
      Clustered_pt.Bucket_lock.Real.reset_counters s.sl;
      Atomic.set s.sq_retries 0;
      Atomic.set s.sq_fallbacks 0

let seqlock_retries t =
  match t.locks with
  | Seqlock_lock s -> Atomic.get s.sq_retries
  | Global_lock _ | Striped_lock _ -> 0

let seqlock_fallbacks t =
  match t.locks with
  | Seqlock_lock s -> Atomic.get s.sq_fallbacks
  | Global_lock _ | Striped_lock _ -> 0

let reader_epoch t =
  match t.locks with
  | Seqlock_lock s -> Some s.epoch
  | Global_lock _ | Striped_lock _ -> None

let limbo_nodes t =
  let (Concurrent ((module T), tbl)) = t.table in
  T.limbo_nodes tbl

let quiesce t =
  match t.locks with
  | Global_lock _ | Striped_lock _ -> ()
  | Seqlock_lock s ->
      let (Concurrent ((module T), tbl)) = t.table in
      T.reclaim tbl ~upto:(Exec.Epoch.safe_before s.epoch)

let probe ?into t =
  let (Concurrent ((module T), tbl)) = t.table in
  Obs.Probe.table (module T) ?into tbl

(* --- integrity (fsck) front-end --- *)

let fsck_table t = t.table

let fsck t = Fsck.check t.table

let repair t =
  let r = Fsck.repair t.table in
  Fault.note_repair ();
  bump "fault.repairs";
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant Obs.Tracer.ev_fault_repair r.Fsck.dropped;
  r
