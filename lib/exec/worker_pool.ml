(* Long-lived worker domains: the only place this library spawns one.

   Forking and joining a fresh set of domains per call would put
   domain startup (~hundreds of microseconds plus GC registration)
   inside any timed region, and a lookup/insert service wants the same
   domains to run phase after phase against the same shared structure.
   [Soak] builds both of its executors (streams and the index-keyed
   [map]) on this pool.

   A pool spawns its domains once.  Each [run] publishes one job under
   the pool mutex, bumps an epoch, and wakes every worker; workers run
   the job with their domain index and report back, and [run] returns
   when all of them have.  The caller's domain never runs jobs — with
   [domains:n] exactly [n] workers execute, so scaling curves compare
   like with like.

   Failure handling: every worker exception of an epoch is collected
   (not just the first), and a worker that dies of an injected
   [Fault.Domain_crash] or [Fault.Shard_crash] really exits its
   domain — [run] joins and respawns it before reporting, so the pool
   supervises its own workers back to full strength.  (A shard crash
   also loses the shard's in-memory table; rebuilding it from its
   write-ahead log is the fleet supervisor's job, not the pool's.) *)

type job = int -> unit

type t = {
  n : int;
  m : Mutex.t;
  wake : Condition.t;  (* workers wait here for a new epoch / shutdown *)
  idle : Condition.t;  (* the caller waits here for completions *)
  mutable epoch : int;
  mutable job : job option;
  mutable completed : int;
  mutable failures : (int * exn) list;  (* all failures of the epoch *)
  mutable crashed : int list;  (* workers whose domains exited *)
  mutable restarts_total : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  (* epoch managers every worker registers with for its lifetime, so
     optimistic readers can pin without a first-pin registration race
     and crashed workers give their reclamation slots back.  One entry
     per manager: a NUMA-replicated service has one reclamation domain
     per replica, and every worker must be registered with all of
     them. *)
  reader_epochs : Epoch.t list;
}

exception Worker_failed of (int * exn) list

let () =
  Printexc.register_printer (function
    | Worker_failed fs ->
        Some
          (Printf.sprintf "Worker_pool.Worker_failed([%s])"
             (String.concat "; "
                (List.map
                   (fun (i, e) ->
                     Printf.sprintf "%d: %s" i (Printexc.to_string e))
                   fs)))
    | _ -> None)

let supervised = function
  | Fault.Injected { site = Fault.Domain_crash | Fault.Shard_crash; _ } -> true
  | _ -> false

(* [birth_epoch] is the last epoch already dealt with when the worker
   was spawned — 0 at [create], the crashed job's epoch at a respawn —
   and must be read by the {e spawner}: the new domain's body may only
   start running after the next [run] has already bumped [t.epoch], and
   adopting that value here would skip the job (and deadlock [run]). *)
let worker_body t index ~birth_epoch =
  let seen = ref birth_epoch in
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while t.epoch = !seen && not t.stopping do
      Condition.wait t.wake t.m
    done;
    if t.stopping then begin
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      seen := t.epoch;
      let job = Option.get t.job in
      Mutex.unlock t.m;
      let outcome = match job index with () -> None | exception e -> Some e in
      let crash = match outcome with Some e -> supervised e | None -> false in
      Mutex.lock t.m;
      (match outcome with
      | Some e -> t.failures <- (index, e) :: t.failures
      | None -> ());
      if crash then t.crashed <- index :: t.crashed;
      t.completed <- t.completed + 1;
      if t.completed = t.n then Condition.signal t.idle;
      Mutex.unlock t.m;
      (* an injected domain crash terminates the domain for real *)
      if crash then continue := false
    end
  done

(* Register/unregister around the whole worker loop: [Fun.protect]
   returns the reclamation slots even when the loop exits by crash or
   exception, and a supervised respawn re-registers its fresh domain.
   Unregistration runs in reverse registration order, and a failure to
   register leaves no partial registration behind. *)
let rec with_registered epochs body =
  match epochs with
  | [] -> body ()
  | e :: rest ->
      Epoch.register e;
      Fun.protect
        ~finally:(fun () -> Epoch.unregister e)
        (fun () -> with_registered rest body)

let worker_at t index ~birth_epoch () =
  match t.reader_epochs with
  | [] -> worker_body t index ~birth_epoch
  | epochs -> with_registered epochs (fun () -> worker_body t index ~birth_epoch)

let create ?(epochs = []) ~domains () =
  if domains < 1 then invalid_arg "Worker_pool.create: domains must be >= 1";
  let t =
    {
      n = domains;
      m = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      epoch = 0;
      job = None;
      completed = 0;
      failures = [];
      crashed = [];
      restarts_total = 0;
      stopping = false;
      workers = [||];
      reader_epochs = epochs;
    }
  in
  t.workers <-
    Array.init domains (fun i -> Domain.spawn (worker_at t i ~birth_epoch:0));
  t

let size t = t.n

let restarts t =
  Mutex.lock t.m;
  let r = t.restarts_total in
  Mutex.unlock t.m;
  r

let run t f =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    invalid_arg "Worker_pool.run: pool is shut down"
  end;
  t.job <- Some f;
  t.completed <- 0;
  t.failures <- [];
  t.crashed <- [];
  t.epoch <- t.epoch + 1;
  Condition.broadcast t.wake;
  while t.completed < t.n do
    Condition.wait t.idle t.m
  done;
  let failures =
    List.sort (fun (a, _) (b, _) -> compare a b) t.failures
  in
  let crashed = t.crashed in
  let epoch = t.epoch in
  t.job <- None;
  Mutex.unlock t.m;
  (* supervised restart: join each crashed domain (it has exited its
     loop) and put a fresh one in its slot, so the pool runs the next
     job at full strength.  The replacement is born having seen the
     epoch that killed its predecessor. *)
  List.iter
    (fun i ->
      Domain.join t.workers.(i);
      t.workers.(i) <- Domain.spawn (worker_at t i ~birth_epoch:epoch);
      Fault.note_restart ())
    crashed;
  if crashed <> [] then begin
    Mutex.lock t.m;
    t.restarts_total <- t.restarts_total + List.length crashed;
    Mutex.unlock t.m
  end;
  match failures with [] -> () | fs -> raise (Worker_failed fs)

let shutdown t =
  Mutex.lock t.m;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.wake
  end;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?epochs ~domains f =
  let t = create ?epochs ~domains () in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      shutdown t;
      raise e
