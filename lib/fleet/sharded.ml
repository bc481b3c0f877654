(* A fleet of tenant address spaces over sharded page-table services.

   N tenants (address spaces) are dealt over M shards — independent
   {!Pt_service.Service} instances in any org × locking mode — by
   folding each tenant's ASID into the key's high bits: shard
   [asid mod shards] holds every mapping of that tenant, and the ASID
   prefix keeps tenants disjoint inside a shard (the invariant
   {!Fsck.check_shards} audits).  Range operations go down the
   service's batched path ({!Service.map_range} and friends: one
   write section per stripe group, one undo-journal unit per section)
   or, for comparison, the per-page path — the {!range_mode} axis the
   fleet experiment measures.

   The shard tables are the only record of what a tenant has mapped:
   residency and eviction read a tenant's pages back by walking its
   shard for the ASID prefix, as the paper's range operations go
   straight to the clustered nodes (Section 3.1).

   Concurrency contract: a tenant is driven from one domain at a time
   (the sim pins tenant -> stream -> domain).  Cross-tenant contention
   happens underneath, on the shared shard stripes.  Residency and
   eviction walk whole shards, so they run on the coordinating domain
   between phases (all streams parked at a barrier). *)

module Service = Pt_service.Service

type range_mode = Batched | Paged

let range_mode_name = function Batched -> "batched" | Paged -> "paged"

(* ASID in vpn bits 50..62: tenant-local keys (pid in bits 32..43 plus
   a sub-2^32 vpn, per Fleet_replay.local_key) stay far below 2^50 *)
let asid_shift = 50

let local_mask = Int64.sub (Int64.shift_left 1L asid_shift) 1L

type t = {
  shards : Service.t array;
  homes : Service.t array;  (* index i is ASID i + 1's shard *)
  evictions : int array;  (* index i counts ASID i + 1 *)
  mode : range_mode;
}

let max_asid = (1 lsl 12) - 1

let shard_of_asid ~shards asid = asid mod shards

let create ?(buckets = 4096) ?subblock_factor ~org ~locking ~shards ~tenants
    ~mode () =
  if shards < 1 then invalid_arg "Fleet.create: shards must be >= 1";
  if tenants < 1 || tenants >= max_asid then
    invalid_arg "Fleet.create: tenants must be in [1, 4094]";
  let mk () = Service.create ~buckets ?subblock_factor ~org ~locking () in
  let services = Array.init shards (fun _ -> mk ()) in
  {
    shards = services;
    homes =
      Array.init tenants (fun i -> services.(shard_of_asid ~shards (i + 1)));
    evictions = Array.make tenants 0;
    mode;
  }

let mode t = t.mode
let shard_count t = Array.length t.shards
let tenant_count t = Array.length t.homes
let shard t i = t.shards.(i)

let service_of t ~asid =
  if asid < 1 || asid > Array.length t.homes then invalid_arg "Fleet: bad asid";
  t.homes.(asid - 1)

let tag ~asid local =
  Int64.logor (Int64.shift_left (Int64.of_int asid) asid_shift) local

let untag k = Int64.logand k local_mask

let asid_of k = Int64.to_int (Int64.shift_right_logical k asid_shift)

let tagged_region ~asid (r : Addr.Region.t) =
  Addr.Region.make ~first_vpn:(tag ~asid r.Addr.Region.first_vpn)
    ~pages:r.Addr.Region.pages

(* identity placement folded into the PTE's PPN field, like the other
   drivers *)
let ppn_of vpn = Int64.logand vpn 0xFFF_FFFFL

let attr = Pte.Attr.default

(* --- per-tenant operations (returns: write sections taken) --- *)

let map t ~asid (region : Addr.Region.t) =
  let svc = service_of t ~asid in
  let tr = tagged_region ~asid region in
  match t.mode with
  | Batched -> Service.map_range svc tr ~ppn_of ~attr
  | Paged ->
      Addr.Region.fold_vpns tr ~init:0 ~f:(fun acc vpn ->
          Service.insert svc ~vpn ~ppn:(ppn_of vpn) ~attr;
          acc + 1)

let unmap t ~asid (region : Addr.Region.t) =
  let svc = service_of t ~asid in
  let tr = tagged_region ~asid region in
  match t.mode with
  | Batched -> Service.unmap_range svc tr
  | Paged ->
      Addr.Region.fold_vpns tr ~init:0 ~f:(fun acc vpn ->
          Service.remove svc ~vpn;
          acc + 1)

let protect t ~asid (region : Addr.Region.t) ~writable =
  let svc = service_of t ~asid in
  let tr = tagged_region ~asid region in
  match t.mode with
  | Batched -> Service.protect_range svc tr ~writable
  | Paged ->
      Addr.Region.fold_vpns tr ~init:0 ~f:(fun acc vpn ->
          ignore
            (Service.protect svc
               (Addr.Region.make ~first_vpn:vpn ~pages:1)
               ~writable);
          acc + 1)

let find t ~asid local =
  match Service.find (service_of t ~asid) ~vpn:(tag ~asid local) with
  | None -> None
  | Some tr ->
      Some
        {
          tr with
          Pt_common.Types.vpn = untag tr.Pt_common.Types.vpn;
          vpn_base = untag tr.Pt_common.Types.vpn_base;
        }

(* --- residency and eviction: read back from the shard table --- *)

(* [f] on every tagged key live in [svc]; a quiescent walk *)
let iter_keys svc f =
  let (Pt_common.Intf.Concurrent ((module T), tbl)) = Service.fsck_table svc in
  T.iter_mappings tbl (fun k _ -> f k)

let resident t ~asid =
  let n = ref 0 in
  iter_keys (service_of t ~asid) (fun k -> if asid_of k = asid then incr n);
  !n

(* Eviction unmaps in ascending key order through the batched path
   regardless of the fleet's configured mode (reclamation is
   inherently a bulk op). *)
let evict t ~asid =
  let svc = service_of t ~asid in
  let pages = ref [] in
  iter_keys svc (fun k -> if asid_of k = asid then pages := untag k :: !pages);
  List.iter
    (fun (first, count) ->
      let region = Addr.Region.make ~first_vpn:first ~pages:count in
      ignore (Service.unmap_range svc (tagged_region ~asid region)))
    (Dynamics.Fleet_replay.coalesce !pages);
  t.evictions.(asid - 1) <- t.evictions.(asid - 1) + 1;
  List.length !pages

let evictions t ~asid = t.evictions.(asid - 1)

(* Evict coldest-first until the fleet fits the frame budget.
   [activity asid] is the tenant's recent-use signal — the sim feeds
   the per-tenant touch counters mirrored into the Obs registry — and
   ties break on ASID, so victim order is deterministic.  One walk per
   shard counts every tenant's pages; evicted tenants' nodes drain
   through the service's epoch limbo path (under seqlock locking) and
   the tenant demand-faults back in on its next touch. *)
let enforce_budget t ~budget ~activity =
  if budget <= 0 then (0, 0)
  else begin
    let resident = Array.make (tenant_count t + 1) 0 in
    Array.iter
      (fun svc ->
        iter_keys svc (fun k ->
            let a = asid_of k in
            resident.(a) <- resident.(a) + 1))
      t.shards;
    let total = ref (Array.fold_left ( + ) 0 resident) in
    let evicted = ref 0 and pages = ref 0 in
    while !total > budget && Array.exists (fun n -> n > 0) resident do
      let victim = ref None in
      for asid = 1 to tenant_count t do
        if resident.(asid) > 0 then
          let a = activity asid in
          match !victim with
          | Some (best, _) when best <= a -> ()
          | _ -> victim := Some (a, asid)
      done;
      match !victim with
      | None -> ()
      | Some (_, asid) ->
          let freed = evict t ~asid in
          resident.(asid) <- 0;
          total := !total - freed;
          pages := !pages + freed;
          incr evicted
    done;
    (!evicted, !pages)
  end

(* --- fleet-wide accounting and integrity --- *)

let population t =
  Array.fold_left (fun acc s -> acc + Service.population s) 0 t.shards

let size_bytes t =
  Array.fold_left (fun acc s -> acc + Service.size_bytes s) 0 t.shards

let write_locks t =
  Array.fold_left
    (fun acc s -> acc + (Service.lock_stats s).Service.write_acquisitions)
    0 t.shards

let limbo_nodes t =
  Array.fold_left (fun acc s -> acc + Service.limbo_nodes s) 0 t.shards

let reader_epochs t =
  Array.to_list t.shards |> List.filter_map Service.reader_epoch

let quiesce t = Array.iter Service.quiesce t.shards

type fsck_result = { shard_reports : Fsck.report list; placement : Fsck.report }

let fsck t =
  let shards = Array.length t.shards in
  {
    shard_reports = Array.to_list (Array.map Service.fsck t.shards);
    placement =
      Fsck.check_shards ~asid_shift
        ~expected_shard:(shard_of_asid ~shards)
        (Array.map Service.fsck_table t.shards);
  }

let fsck_clean r =
  List.for_all Fsck.clean r.shard_reports && Fsck.clean r.placement
