type 'w node = {
  mutable tag : int;
  mutable w : 'w;
  addr : int;
  mutable next : 'w node;
}

let retired = min_int

let sentinel w =
  let rec nil = { tag = retired; w; addr = -1; next = nil } in
  nil

type 'w payload = Word : int -> int64 payload | Words : int64 array payload

let payload_bytes : type w. w payload -> w -> int =
 fun p w ->
  match p with Word bytes -> bytes | Words -> 16 + (8 * Array.length w)

(* the payload as an image's words; without [copy], a clustered node's
   own array *)
let image_words : type w. w payload -> copy:bool -> w -> int64 array =
 fun p ~copy w ->
  match p with Word _ -> [| w |] | Words -> if copy then Array.copy w else w

(* takes ownership of the array *)
let of_image : type w. w payload -> int64 array -> w =
 fun p words -> match p with Word _ -> words.(0) | Words -> words

type 'w t = {
  nil : 'w node;
  heads : 'w node array;
  head_tags : int array;
  payload : 'w payload;
  alloc : tag:int -> 'w -> 'w node;
  release : 'w node -> unit;
  (* atomic: concurrent mutators serialize per bucket, and the counts
     are the only cross-bucket state a chain set keeps *)
  nodes : int Atomic.t;
  bytes : int Atomic.t;
  limbo : 'w node Mem.Limbo.t;
      (* while its hook is set, unlinked nodes wait here instead of
         going to [release], [next] and payload exactly as they were:
         an optimistic reader that reached one before the unlink must
         be able to finish its (doomed, to-be-retried) walk without
         chasing recycled pointers *)
}

let create ~nil ~buckets ~payload ~alloc ~release =
  {
    nil;
    heads = Array.make buckets nil;
    head_tags = Array.make buckets retired;
    payload;
    alloc;
    release;
    nodes = Atomic.make 0;
    bytes = Atomic.make 0;
    limbo = Mem.Limbo.create ();
  }

let buckets c = Array.length c.heads

let set_head c b n =
  c.heads.(b) <- n;
  c.head_tags.(b) <- (if n == c.nil then retired else n.tag)

let link c b n =
  ignore (Atomic.fetch_and_add c.bytes (payload_bytes c.payload n.w));
  Atomic.incr c.nodes;
  n.next <- c.heads.(b);
  set_head c b n

(* The node leaves the live set.  Its retired tag means a stale pointer
   can never tag-match. *)
let leave c n =
  ignore (Atomic.fetch_and_add c.bytes (-payload_bytes c.payload n.w));
  Atomic.decr c.nodes;
  n.tag <- retired;
  match Mem.Limbo.hook c.limbo with
  | None -> c.release n
  | Some stamp_of -> Mem.Limbo.retire c.limbo ~stamp:(stamp_of ()) n

let unlink c ~bucket prev n =
  if prev == c.nil then set_head c bucket n.next else prev.next <- n.next;
  leave c n

let rec unlink_from c ~bucket select prev n =
  if n == c.nil then false
  else
    match select n with
    | `Unlink ->
        unlink c ~bucket prev n;
        true
    | `Updated -> true
    | `Skip -> unlink_from c ~bucket select n n.next

let unlink_first c ~bucket select =
  unlink_from c ~bucket select c.nil c.heads.(bucket)

let node_count c = Atomic.get c.nodes

let bytes c = Atomic.get c.bytes

let length c ~bucket =
  let rec go acc n = if n == c.nil then acc else go (acc + 1) n.next in
  go 0 c.heads.(bucket)

let rec iter_from c f n =
  if n != c.nil then begin
    f n;
    iter_from c f n.next
  end

let iter_bucket c ~bucket f = iter_from c f c.heads.(bucket)

let iter c f =
  for bucket = 0 to buckets c - 1 do
    iter_bucket c ~bucket f
  done

let rec nonempty_from c b =
  if b >= buckets c then None
  else if c.heads.(b) != c.nil then Some b
  else nonempty_from c (b + 1)

let first_nonempty c = nonempty_from c 0

let reset c =
  Array.fill c.heads 0 (buckets c) c.nil;
  Array.fill c.head_tags 0 (buckets c) retired;
  Atomic.set c.nodes 0;
  Atomic.set c.bytes 0

let clear c ~free =
  let live = ref [] in
  iter c (fun n -> live := n :: !live);
  List.iter free !live;
  reset c

let abandon c =
  reset c;
  Mem.Limbo.forget c.limbo

(* --- deferred reclamation --- *)

let set_reclaim_hook c hook = Mem.Limbo.set_hook c.limbo hook

let reclaim c ~upto = Mem.Limbo.reclaim c.limbo ~upto c.release

let limbo_nodes c = Mem.Limbo.count c.limbo

let drain_limbo c free = Mem.Limbo.drain c.limbo free

(* --- bucket images --- *)

let snapshot_bucket c ~bucket =
  let rec go acc n =
    if n == c.nil then List.rev acc
    else go ((n.tag, image_words c.payload ~copy:true n.w) :: acc) n.next
  in
  go [] c.heads.(bucket)

(* top level, so a checkpoint allocates no closure per bucket *)
let rec iter_chain_images c f bucket n =
  if n != c.nil then begin
    f bucket n.tag (image_words c.payload ~copy:false n.w);
    iter_chain_images c f bucket n.next
  end

let iter_images c f =
  for bucket = 0 to buckets c - 1 do
    iter_chain_images c f bucket c.heads.(bucket)
  done

let restore_bucket c ~bucket image =
  let rec drop n =
    if n != c.nil then begin
      let next = n.next in
      (* to the limbo under a hook: a rollback runs under the write
         lock while optimistic readers may still walk these nodes *)
      leave c n;
      drop next
    end
  in
  drop c.heads.(bucket);
  set_head c bucket c.nil;
  (* [link] prepends, so rebuild tail-first to restore chain order *)
  List.iter
    (fun (tag, words) ->
      link c bucket (c.alloc ~tag (of_image c.payload words)))
    (List.rev image)

(* --- integrity (fsck) --- *)

type finding =
  | Cycle of { bucket : int }
  | Cross_link of { bucket : int; first_bucket : int }
  | Wrong_bucket of { bucket : int; tag : int }
  | Node_count of { counted : int; recorded : int }
  | Limbo_live_tag
  | Limbo_live_overlap of { bucket : int }

type audit = {
  seen : (int, int) Hashtbl.t;
  mutable counted : int;
  mutable counted_bytes : int;
}

let audit () = { seen = Hashtbl.create 256; counted = 0; counted_bytes = 0 }

(* Bounded by visited sets on node identity ([addr] is unique per
   allocation), so a corrupted chain cannot trap the checker itself. *)
let check_bucket c a ~home ~report b node =
  let chain_seen = Hashtbl.create 8 in
  let rec walk n =
    if n == c.nil then ()
    else if Hashtbl.mem chain_seen n.addr then report (Cycle { bucket = b })
    else
      match Hashtbl.find_opt a.seen n.addr with
      | Some first_bucket ->
          (* shared tail: already verified from its first bucket *)
          report (Cross_link { bucket = b; first_bucket })
      | None ->
          Hashtbl.add chain_seen n.addr ();
          Hashtbl.add a.seen n.addr b;
          a.counted <- a.counted + 1;
          a.counted_bytes <- a.counted_bytes + payload_bytes c.payload n.w;
          if n.tag <> retired && home n.tag <> b then
            report (Wrong_bucket { bucket = b; tag = n.tag });
          node n;
          walk n.next
  in
  walk c.heads.(b)

let check_count c a ~report =
  let recorded = Atomic.get c.nodes in
  if a.counted <> recorded then
    report (Node_count { counted = a.counted; recorded })

(* a limbo node is exactly the state between unlink and recycling *)
let check_limbo c a ~report node =
  Mem.Limbo.iter c.limbo (fun n ->
      if n.tag <> retired then report Limbo_live_tag;
      (match Hashtbl.find_opt a.seen n.addr with
      | Some bucket -> report (Limbo_live_overlap { bucket })
      | None -> ());
      node n)

let find c ~bucket test =
  let visited = Hashtbl.create 8 in
  let rec go n =
    if n == c.nil || Hashtbl.mem visited n.addr then None
    else if test n then Some n
    else begin
      Hashtbl.add visited n.addr ();
      go n.next
    end
  in
  go c.heads.(bucket)

let check_replicas ~tag ~blocks ~agrees ~torn =
  if blocks > 1 then begin
    let first = tag land lnot (blocks - 1) in
    if tag = first then
      for i = 1 to blocks - 1 do
        if not (agrees (first + i)) then torn i
      done
    else if not (agrees first) then torn 0
  end

(* --- repair --- *)

type candidate =
  | Base of int64 * int64 * Pte.Attr.t
  | Sp of int64 * Addr.Page_size.t * int64 * Pte.Attr.t
  | Psb of int64 * int * int64 * Pte.Attr.t

type harvest = {
  mutable found : candidate list;  (* newest first *)
  mutable dropped : int;
  replicas : (int64, int64) Hashtbl.t;
      (* multi-block superpages: vpn base -> word, to fold replicas
         into one candidate (a diverged replica is a conflict, not a
         survivor) *)
  visited : (int, unit) Hashtbl.t;
}

let harvest () =
  {
    found = [];
    dropped = 0;
    replicas = Hashtbl.create 16;
    visited = Hashtbl.create 256;
  }

let keep h c = h.found <- c :: h.found

let drop h = h.dropped <- h.dropped + 1

let keep_replica h ~word ~block_vpn (sp : Pte.Superpage_pte.t) =
  let vpn = Addr.Bits.align_down block_vpn (Addr.Page_size.sz_code sp.size) in
  match Hashtbl.find_opt h.replicas vpn with
  | Some w when Int64.equal w word -> ()
  | Some _ -> drop h
  | None ->
      Hashtbl.add h.replicas vpn word;
      keep h (Sp (vpn, sp.size, sp.ppn, sp.attr))

let harvest_chains h c f =
  Array.iter
    (fun head ->
      let rec walk n =
        if n != c.nil && not (Hashtbl.mem h.visited n.addr) then begin
          Hashtbl.add h.visited n.addr ();
          f n;
          walk n.next
        end
      in
      walk head)
    c.heads

(* [f] on each base page a candidate maps *)
let iter_pages ~factor_bits c f =
  let page v0 i = f (Int64.add v0 (Int64.of_int i)) in
  match c with
  | Base (vpn, _, _) -> f vpn
  | Sp (vpn, size, _, _) ->
      for i = 0 to Addr.Page_size.base_pages size - 1 do
        page vpn i
      done
  | Psb (vpbn, vmask, _, _) ->
      for i = 0 to (1 lsl factor_bits) - 1 do
        if vmask land (1 lsl i) <> 0 then
          page (Int64.shift_left vpbn factor_bits) i
      done

let reinsert h ~factor_bits ~base ~superpage ~psb =
  let claimed : (int64, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* first wins: a candidate goes in only if none of its pages is taken *)
  let try_claim c =
    let free = ref true in
    iter_pages ~factor_bits c (fun v ->
        if Hashtbl.mem claimed v then free := false);
    if !free then
      iter_pages ~factor_bits c (fun v -> Hashtbl.replace claimed v ());
    !free
  in
  let kept = ref 0 in
  List.iter
    (fun c ->
      if not (try_claim c) then drop h
      else
        try
          (match c with
          | Base (vpn, ppn, attr) -> base ~vpn ~ppn ~attr
          | Sp (vpn, size, ppn, attr) -> superpage ~vpn ~size ~ppn ~attr
          | Psb (vpbn, vmask, ppn, attr) -> psb ~vpbn ~vmask ~ppn ~attr);
          incr kept
        with Invalid_argument _ -> drop h)
    (List.rev h.found);
  (!kept, h.dropped)

(* --- corruption injection --- *)

type 'c corruption =
  | Tie_cycle
  | Link_across
  | Misplace
  | Duplicate
  | Drift
  | Own of 'c

let corruptions own =
  ("cycle", Tie_cycle)
  :: ("cross_link", Link_across)
  :: ("misplace", Misplace)
  :: ("duplicate", Duplicate)
  :: own

let torn_word =
  Pte.Psb_pte.(encode (make ~vmask:1 ~ppn:0L ~attr:Pte.Attr.default))

let tail c n =
  let rec go n = if n.next == c.nil then n else go n.next in
  go n

let inject c own kind =
  match (kind, first_nonempty c) with
  | Own k, _ -> own k
  | Drift, _ ->
      Atomic.incr c.nodes;
      ignore (Atomic.fetch_and_add c.bytes 8);
      true
  | (Tie_cycle | Link_across | Misplace | Duplicate), None -> false
  | Tie_cycle, Some b ->
      (tail c c.heads.(b)).next <- c.heads.(b);
      true
  | Link_across, Some b -> (
      match nonempty_from c (b + 1) with
      | None -> false
      | Some b2 ->
          (tail c c.heads.(b)).next <- c.heads.(b2);
          true)
  | Misplace, Some b ->
      buckets c >= 2
      && begin
           let n = c.heads.(b) in
           set_head c b n.next;
           let b2 = (b + 1) mod buckets c in
           n.next <- c.heads.(b2);
           set_head c b2 n;
           true
         end
  | Duplicate, Some b ->
      let n = c.heads.(b) in
      let copy = of_image c.payload (image_words c.payload ~copy:true n.w) in
      link c b (c.alloc ~tag:n.tag copy);
      true

let corrupt c corruptions own name =
  match List.assoc_opt name corruptions with
  | Some kind -> inject c own kind
  | None -> false
