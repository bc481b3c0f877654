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
