(* A crash-consistent shard: Service + WAL + checkpoints.

   Ordering discipline (the whole point): LOG, THEN MUTATE.  An op
   that crashes before or during its append was never acknowledged
   and left no complete record — recovery cannot resurrect any part
   of it.  An op whose append completed is durable: replay re-applies
   it even if the process died before the table mutation finished
   (replay is idempotent — insert overwrites, remove of absent is a
   no-op, protect skips unmapped pages).

   A checkpoint is the image of the table taken at a WAL offset: every
   non-empty bucket's chain, node by node (tag, word count, words —
   what [snapshot_bucket] copies for the undo journal), checksummed.
   A clustered block is one node, so a checkpoint costs about a word a
   page where a per-page list cost three.  Recovery relinks the nodes
   with [restore_bucket] rather than inserting page by page.
   Compaction drops records below the newest complete checkpoint only,
   so a torn checkpoint always leaves its fallback (an older complete
   one, or the empty table) reachable through a longer suffix. *)

module Service = Pt_service.Service

exception Down

type checkpoint = { c_offset : int; c_blob : Bytes.t }

type t = {
  org : Service.org;
  locking : Service.locking;
  buckets : int;
  subblock_factor : int option;
  ppn_of : int64 -> int64;
  attr : Pte.Attr.t;
  wal : Wal.t;
  mutable svc : Service.t;
  mutable is_up : bool;
  mutable checkpoints : checkpoint list;  (* newest first *)
  mutable crash_next_checkpoint : bool;
  mutable crash_in_recovery : int option;
  mutable n_checkpoints : int;
  mutable n_torn_checkpoints : int;
  mutable n_recovery_attempts : int;
  mutable n_recoveries : int;
  mutable n_recovery_crashes : int;
  mutable n_replayed : int;
  mutable n_restored : int;
  mutable n_discarded : int;
}

let bump name = Obs.Metrics.incr (Obs.Ambient.counter name)

let badd name n = if n > 0 then Obs.Metrics.add (Obs.Ambient.counter name) n

let create ?(buckets = 4096) ?subblock_factor ?(attr = Pte.Attr.default) ~org
    ~locking ~ppn_of () =
  {
    org;
    locking;
    buckets;
    subblock_factor;
    ppn_of;
    attr;
    wal = Wal.create ();
    svc = Service.create ~buckets ?subblock_factor ~org ~locking ();
    is_up = true;
    checkpoints = [];
    crash_next_checkpoint = false;
    crash_in_recovery = None;
    n_checkpoints = 0;
    n_torn_checkpoints = 0;
    n_recovery_attempts = 0;
    n_recoveries = 0;
    n_recovery_crashes = 0;
    n_replayed = 0;
    n_restored = 0;
    n_discarded = 0;
  }

let service t = t.svc

let wal t = t.wal

let up t = t.is_up

let checkpoints t = t.n_checkpoints

let torn_checkpoints t = t.n_torn_checkpoints

let recovery_attempts t = t.n_recovery_attempts

let recoveries t = t.n_recoveries

let recovery_crashes t = t.n_recovery_crashes

let replayed_records t = t.n_replayed

let restored_mappings t = t.n_restored

let checkpoints_discarded t = t.n_discarded

let region ~vpn ~pages = Addr.Region.make ~first_vpn:vpn ~pages

let apply t svc (op : Wal.op) =
  match op with
  | Wal.Map { vpn; pages; _ } ->
      Service.map_range svc (region ~vpn ~pages) ~ppn_of:t.ppn_of ~attr:t.attr
  | Wal.Unmap { vpn; pages; _ } -> Service.unmap_range svc (region ~vpn ~pages)
  | Wal.Protect { vpn; pages; writable; _ } ->
      Service.protect_range svc (region ~vpn ~pages) ~writable

(* --- the write path: log, then mutate --- *)

let submit t op =
  if not t.is_up then raise Down;
  (try
     Fault.fire Fault.Shard_crash;
     Wal.append t.wal op
   with Fault.Injected { site = Fault.Shard_crash; _ } as e ->
     t.is_up <- false;
     bump "wal.crashes";
     raise e);
  bump "wal.records";
  apply t t.svc op

let map t ~asid (r : Addr.Region.t) =
  submit t
    (Wal.Map { asid; vpn = r.Addr.Region.first_vpn; pages = r.Addr.Region.pages })

let unmap t ~asid (r : Addr.Region.t) =
  submit t
    (Wal.Unmap
       { asid; vpn = r.Addr.Region.first_vpn; pages = r.Addr.Region.pages })

let protect t ~asid (r : Addr.Region.t) ~writable =
  submit t
    (Wal.Protect
       {
         asid;
         vpn = r.Addr.Region.first_vpn;
         pages = r.Addr.Region.pages;
         writable;
       })

(* --- checkpoints --- *)

let live t = Fsck.live_mappings (Service.fsck_table t.svc)

(* The checkpoint image, little-endian:

     blob  = u32 images, image * images, i64 checksum
     image = u32 bucket, u32 nodes, node * nodes   (ascending buckets)
     node  = i64 tag, u16 words, i64 word * words

   one image per non-empty bucket, its chain head first.  The checksum
   is a mix64 chain over the bytes before it in 8-byte words (the last
   one zero-padded), seeded with their length. *)

let blob_header = 4

let image_header = 8

let node_header = 10

let checksum_bytes = 8

let checksum b ~len =
  let h = ref (Addr.Bits.mix64 (Int64.of_int len)) in
  let whole = len / 8 in
  for i = 0 to whole - 1 do
    h := Addr.Bits.mix64 (Int64.add !h (Bytes.get_int64_le b (8 * i)))
  done;
  if len > 8 * whole then begin
    let tail = ref 0L in
    for j = len - 1 downto 8 * whole do
      tail :=
        Int64.logor (Int64.shift_left !tail 8)
          (Int64.of_int (Bytes.get_uint8 b j))
    done;
    h := Addr.Bits.mix64 (Int64.add !h !tail)
  end;
  !h

let encode_image (Pt_common.Intf.Concurrent ((module T), tbl)) =
  (* size the blob first, so it is written in place with no regrowth *)
  let len = ref blob_header and images = ref 0 and last = ref (-1) in
  T.iter_images tbl (fun bucket _ words ->
      if bucket <> !last then begin
        last := bucket;
        incr images;
        len := !len + image_header
      end;
      len := !len + node_header + (8 * Array.length words));
  let b = Bytes.create (!len + checksum_bytes) in
  Bytes.set_int32_le b 0 (Int32.of_int !images);
  let pos = ref blob_header and image = ref 0 and nodes = ref 0 in
  last := -1;
  T.iter_images tbl (fun bucket tag words ->
      if bucket <> !last then begin
        last := bucket;
        image := !pos;
        nodes := 0;
        Bytes.set_int32_le b !pos (Int32.of_int bucket);
        pos := !pos + image_header
      end;
      incr nodes;
      Bytes.set_int32_le b (!image + 4) (Int32.of_int !nodes);
      Bytes.set_int64_le b !pos (Int64.of_int tag);
      Bytes.set_uint16_le b (!pos + 8) (Array.length words);
      pos := !pos + node_header;
      for i = 0 to Array.length words - 1 do
        Bytes.set_int64_le b (!pos + (8 * i)) (Array.unsafe_get words i)
      done;
      pos := !pos + (8 * Array.length words));
  Bytes.set_int64_le b !len (checksum b ~len:!len);
  b

exception Reject

let s_code w = Int64.to_int (Int64.shift_right_logical w Pte.Layout.s_lo) land 3

(* The images of [blob], for [T]'s table; [None] on a bad checksum, a
   bucket out of range or out of order, a node whose tag is not of its
   bucket or whose word count the table never builds, a base PTE word
   in a one-word node of a table with several pages per section (a
   clustered table keeps base words in block nodes only), a short read
   or trailing bytes.  Never raises. *)
let decode_image (Pt_common.Intf.Concurrent ((module T), tbl)) blob =
  let len = Bytes.length blob - checksum_bytes in
  if
    len < blob_header
    || not (Int64.equal (checksum blob ~len) (Bytes.get_int64_le blob len))
  then None
  else
    let buckets = T.buckets tbl and per = T.pages_per_section tbl in
    let pos = ref 0 in
    let take n =
      let at = !pos in
      if n > len - at then raise Reject;
      pos := at + n;
      at
    in
    let u32 () =
      Int32.to_int (Bytes.get_int32_le blob (take 4)) land 0xFFFF_FFFF
    in
    let node bucket =
      let tag = Int64.to_int (Bytes.get_int64_le blob (take 8)) in
      let width = Bytes.get_uint16_le blob (take 2) in
      if
        tag < 0
        || tag > max_int / per
        || T.bucket_of tbl ~vpn:(Int64.of_int (tag * per)) <> bucket
        || (width <> 1 && width <> per)
      then raise Reject;
      let at = take (8 * width) in
      let words =
        Array.init width (fun i -> Bytes.get_int64_le blob (at + (8 * i)))
      in
      (* the S field read with shifts: code 3 must not raise here *)
      if width = 1 && per > 1 && s_code words.(0) = 0 then raise Reject;
      (tag, words)
    in
    let rec chain bucket k acc =
      if k = 0 then List.rev acc else chain bucket (k - 1) (node bucket :: acc)
    in
    let rec images k prev acc =
      if k = 0 then List.rev acc
      else
        let bucket = u32 () in
        let nodes = u32 () in
        if bucket <= prev || bucket >= buckets || nodes = 0 then raise Reject;
        images (k - 1) bucket ((bucket, chain bucket nodes []) :: acc)
    in
    match images (u32 ()) (-1) [] with
    | images when !pos = len -> Some images
    | _ | (exception Reject) -> None

let plan_checkpoint_crash t = t.crash_next_checkpoint <- true

let checkpoint t =
  if not t.is_up then invalid_arg "Durable.Shard.checkpoint: shard is down";
  let off = Wal.length t.wal in
  let blob = encode_image (Service.fsck_table t.svc) in
  if t.crash_next_checkpoint then begin
    (* die halfway through flushing the snapshot: a torn blob whose
       checksum cannot verify, and — critically — no compaction, so
       the fallback (previous checkpoint + longer suffix) survives *)
    t.crash_next_checkpoint <- false;
    let torn = Bytes.sub blob 0 (Bytes.length blob / 2) in
    t.checkpoints <- { c_offset = off; c_blob = torn } :: t.checkpoints;
    t.n_torn_checkpoints <- t.n_torn_checkpoints + 1;
    t.is_up <- false;
    bump "wal.torn_checkpoints";
    raise (Fault.Injected { site = Fault.Shard_crash; key = off })
  end;
  t.n_checkpoints <- t.n_checkpoints + 1;
  bump "wal.checkpoints";
  Wal.compact t.wal ~upto:off;
  (* records below [off] are gone: older checkpoints can no longer be
     replayed forward from, so only the new one is worth keeping *)
  t.checkpoints <- [ { c_offset = off; c_blob = blob } ]

(* --- recovery --- *)

let plan_recovery_crash t ~after_records =
  t.crash_in_recovery <- Some after_records

let recover t =
  t.n_recovery_attempts <- t.n_recovery_attempts + 1;
  bump "recovery.attempts";
  (* recovery must not inject new faults into itself *)
  Fault.suspended (fun () ->
      let svc =
        Service.create ~buckets:t.buckets ?subblock_factor:t.subblock_factor
          ~org:t.org ~locking:t.locking ()
      in
      let table = Service.fsck_table svc in
      let rec pick discarded = function
        | [] -> (None, discarded)
        | c :: rest -> (
            match decode_image table c.c_blob with
            | Some images -> (Some (c, images), discarded)
            | None -> pick (discarded + 1) rest)
      in
      let picked, discarded = pick 0 t.checkpoints in
      t.n_discarded <- t.n_discarded + discarded;
      badd "recovery.checkpoints_discarded" discarded;
      let from =
        match picked with
        | Some (c, images) ->
            let (Pt_common.Intf.Concurrent ((module T), tbl)) = table in
            List.iter
              (fun (bucket, image) -> T.restore_bucket tbl ~bucket image)
              images;
            c.c_offset
        | None -> Wal.base t.wal
      in
      let ops, truncated = Wal.scan t.wal ~from in
      badd "recovery.truncated_bytes" truncated;
      let restored = Service.population svc in
      t.n_restored <- t.n_restored + restored;
      badd "recovery.restored_mappings" restored;
      let n = ref 0 in
      List.iter
        (fun op ->
          (match t.crash_in_recovery with
          | Some k when !n >= k ->
              (* crash mid-replay: the half-built table is discarded,
                 the WAL (tail already truncated — idempotent) stays
                 readable, and the shard stays down *)
              t.crash_in_recovery <- None;
              t.n_recovery_crashes <- t.n_recovery_crashes + 1;
              bump "recovery.crashes";
              raise (Fault.Injected { site = Fault.Shard_crash; key = !n })
          | _ -> ());
          ignore (apply t svc op);
          incr n;
          t.n_replayed <- t.n_replayed + 1;
          bump "recovery.replayed_records")
        ops;
      t.crash_in_recovery <- None;
      t.svc <- svc;
      t.is_up <- true;
      (* keep only the checkpoint recovery proved usable — torn ones
         above it are dead weight now *)
      (match picked with
      | Some (c, _) -> t.checkpoints <- [ c ]
      | None -> t.checkpoints <- []);
      t.n_recoveries <- t.n_recoveries + 1;
      bump "recovery.completed")
