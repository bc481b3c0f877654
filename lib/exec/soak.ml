(* The stream-soak executor; the determinism contract is in soak.mli. *)

type t = { pool : Worker_pool.t; domains : int; streams : int }

let with_streams ?epochs ~domains ~streams f =
  if streams < 1 then invalid_arg "Soak.with_streams: streams must be >= 1";
  Worker_pool.with_pool ?epochs ~domains (fun pool ->
      f { pool; domains; streams })

let rec each t f =
  let job w =
    let s = ref w in
    while !s < t.streams do
      f !s;
      s := !s + t.domains
    done
  in
  match Worker_pool.run t.pool job with
  | () -> ()
  | exception Worker_pool.Worker_failed failures -> (
      match
        List.find_opt (fun (_, e) -> not (Worker_pool.supervised e)) failures
      with
      | Some (_, e) -> raise e
      | None -> each t f)

let restarts t = Worker_pool.restarts t.pool

let map ?(domains = Domain.recommended_domain_count ()) f inputs =
  if domains < 1 then invalid_arg "Soak.map: domains must be >= 1";
  let n = Array.length inputs in
  if domains = 1 || n <= 1 then Array.mapi f inputs
  else begin
    (* workers claim the next index from one counter, so uneven jobs
       balance themselves.  After a failure no new index is claimed,
       but every claimed one runs: the lowest failing index is always
       among them. *)
    let results = Array.make n None in
    let next = Atomic.make 0 and failed = Atomic.make false in
    let rec claim () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             match f i inputs.(i) with
             | v -> Some (Ok v)
             | exception e ->
                 Atomic.set failed true;
                 Some (Error e));
          claim ()
        end
      end
    in
    Worker_pool.with_pool ~domains:(min domains n) (fun pool ->
        Worker_pool.run pool (fun _ -> claim ()));
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end
