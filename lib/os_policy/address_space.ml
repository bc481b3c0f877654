module Intf = Pt_common.Intf

type policy = Base_only | Partial_subblock | Superpage_promotion

type area = { region : Addr.Region.t; attr : Pte.Attr.t }

type fault_result =
  [ `Mapped of int64 | `Already_mapped of int64 | `Segfault | `Oom ]

type touch_result =
  [ fault_result | `Write | `Cow_copied of int64 | `Cow_adopted ]

(* A frame shared COW-style across a fork family.  [owner_key] is the
   allocator key the frame was originally handed out under; the final
   release must use it, whichever space does the releasing, because
   the allocator validates frees against the reservation it made for
   that key. *)
type share = { mutable refs : int; owner_key : int64 }

type t = {
  pt : Intf.instance;
  alloc : Mem.Phys_alloc.t;
  uid : int;
      (* distinguishes this address space's reservations from other
         spaces sharing the allocator: two processes faulting the same
         VPN must not collide on one page-block reservation *)
  pol : policy;
  factor : int;
  factor_bits : int;
  mutable areas : area list;
  mappings : (int64, int64) Hashtbl.t; (* vpn -> ppn *)
  family : (int64, share) Hashtbl.t;
      (* ppn -> share, one table per fork family (shared with children) *)
  cow : (int64, unit) Hashtbl.t;  (* this space's COW-shared vpns *)
  mutable promotions : int;
  mutable demotions : int;
}

let next_uid = ref 0

let fresh_uid = function
  | Some uid -> uid
  | None ->
      incr next_uid;
      !next_uid

let create ~pt ?allocator ~total_pages ?(policy = Base_only)
    ?(subblock_factor = 16) ?uid () =
  let alloc =
    match allocator with
    | Some a ->
        if Mem.Phys_alloc.subblock_factor a <> subblock_factor then
          invalid_arg "Address_space.create: allocator factor mismatch";
        a
    | None -> Mem.Phys_alloc.create ~total_pages ~subblock_factor
  in
  {
    pt;
    alloc;
    uid = fresh_uid uid;
    pol = policy;
    factor = subblock_factor;
    factor_bits = Addr.Bits.log2_exact subblock_factor;
    areas = [];
    mappings = Hashtbl.create 1024;
    family = Hashtbl.create 64;
    cow = Hashtbl.create 64;
    promotions = 0;
    demotions = 0;
  }

let policy t = t.pol

let page_table t = t.pt

let area_of t vpn = List.find_opt (fun a -> Addr.Region.mem a.region vpn) t.areas

let declare_region t region attr =
  if List.exists (fun a -> Addr.Region.overlap a.region region) t.areas then
    invalid_arg "Address_space.declare_region: overlapping area";
  t.areas <- { region; attr } :: t.areas

(* the allocator key: the VPN tagged with this space's identity in
   bits far above any real VPN (block offsets are unaffected) *)
let alloc_key t vpn =
  Int64.logor vpn (Int64.shift_left (Int64.of_int (t.uid land 0xFFF)) 52)

let vpbn t vpn = Int64.shift_right_logical vpn t.factor_bits

let block_base t vpn = Int64.shift_left (vpbn t vpn) t.factor_bits

(* Current population of [vpn]'s page block, from OS bookkeeping. *)
let block_state t vpn =
  let base = block_base t vpn in
  let vmask = ref 0 and placed = ref true and ppn0 = ref None in
  for i = 0 to t.factor - 1 do
    let page = Int64.add base (Int64.of_int i) in
    match Hashtbl.find_opt t.mappings page with
    | None -> ()
    | Some ppn ->
        vmask := !vmask lor (1 lsl i);
        if
          not
            (Addr.Paddr.properly_placed ~subblock_factor:t.factor ~vpn:page
               ~ppn)
        then placed := false
        else if !ppn0 = None then
          ppn0 := Some (Int64.sub ppn (Int64.of_int i))
        else if !ppn0 <> Some (Int64.sub ppn (Int64.of_int i)) then
          placed := false
  done;
  (!vmask, !placed, !ppn0)

let full_mask t = (1 lsl t.factor) - 1

let block_size t = Addr.Page_size.of_sz_code t.factor_bits

(* Update the page table after [vpn] got frame [ppn], per policy. *)
let update_page_table t ~vpn ~ppn ~attr =
  match t.pol with
  | Base_only -> Intf.insert_base t.pt ~vpn ~ppn ~attr
  | Partial_subblock ->
      let vmask, placed, ppn0 = block_state t vpn in
      let boff =
        Addr.Vaddr.boff_of_vpn ~subblock_factor:t.factor vpn
      in
      if
        placed
        && Addr.Paddr.properly_placed ~subblock_factor:t.factor ~vpn ~ppn
      then
        match ppn0 with
        | Some base ->
            (* the whole block's resident pages ride one psb PTE; drop
               any per-page PTEs first (a block can reach placed state
               after earlier stragglers were base-mapped and unmapped)
               so no page is ever represented twice *)
            let first = block_base t vpn in
            for i = 0 to t.factor - 1 do
              if vmask land (1 lsl i) <> 0 then
                Intf.remove t.pt ~vpn:(Int64.add first (Int64.of_int i))
            done;
            Intf.insert_psb t.pt ~vpbn:(vpbn t vpn) ~vmask ~ppn:base ~attr
        | None -> Intf.insert_base t.pt ~vpn ~ppn ~attr
      else begin
        ignore boff;
        Intf.insert_base t.pt ~vpn ~ppn ~attr
      end
  | Superpage_promotion ->
      Intf.insert_base t.pt ~vpn ~ppn ~attr;
      let vmask, placed, ppn0 = block_state t vpn in
      if vmask = full_mask t && placed then begin
        match ppn0 with
        | Some base ->
            (* fully populated and properly placed: promote *)
            let first = block_base t vpn in
            for i = 0 to t.factor - 1 do
              Intf.remove t.pt ~vpn:(Int64.add first (Int64.of_int i))
            done;
            Intf.insert_superpage t.pt ~vpn:first ~size:(block_size t)
              ~ppn:base ~attr;
            t.promotions <- t.promotions + 1
        | None -> ()
      end

let fault t ~vpn =
  match area_of t vpn with
  | None -> `Segfault
  | Some area -> (
      match Hashtbl.find_opt t.mappings vpn with
      | Some ppn -> `Already_mapped ppn
      | None -> (
          match Mem.Phys_alloc.alloc_page t.alloc ~vpn:(alloc_key t vpn) with
          | None -> `Oom
          | Some ppn ->
              Hashtbl.replace t.mappings vpn ppn;
              update_page_table t ~vpn ~ppn ~attr:area.attr;
              `Mapped ppn))

let map_region t region attr =
  declare_region t region attr;
  Addr.Region.iter_vpns region (fun vpn ->
      match fault t ~vpn with
      | `Mapped _ | `Already_mapped _ -> ()
      | `Segfault -> assert false
      | `Oom -> invalid_arg "Address_space.map_region: out of memory")

let attr_at t vpn =
  match area_of t vpn with Some a -> a.attr | None -> Pte.Attr.default

(* Remove [vpn]'s PTE.  Under a promotion policy the covering PTE may
   be a block superpage, and the organizations' contract is that
   removing any covered page drops the whole superpage — so the OS
   must reinsert the surviving pages of the block as base PTEs.  That
   is a demotion, and it is exactly the modify-cost the paper charges
   against superpages under churn. *)
let remove_page_pte t ~vpn =
  match t.pol with
  | Base_only | Partial_subblock -> Intf.remove t.pt ~vpn
  | Superpage_promotion -> (
      match Intf.lookup_into t.pt (Mem.Walk_acc.create ()) ~vpn with
      | Some { Pt_common.Types.kind = Pt_common.Types.Superpage size; _ } ->
          Intf.remove t.pt ~vpn;
          let sz = Addr.Page_size.sz_code size in
          let base = Addr.Bits.align_down vpn sz in
          for i = 0 to Addr.Page_size.base_pages size - 1 do
            let page = Int64.add base (Int64.of_int i) in
            if not (Int64.equal page vpn) then
              match Hashtbl.find_opt t.mappings page with
              | Some ppn ->
                  Intf.insert_base t.pt ~vpn:page ~ppn ~attr:(attr_at t page)
              | None -> ()
          done;
          t.demotions <- t.demotions + 1
      | Some _ | None -> Intf.remove t.pt ~vpn)

(* Give [ppn] back: COW-shared frames only really free on the last
   reference, and then under the key of whichever space first faulted
   them in. *)
let release_frame t ~vpn ~ppn =
  match Hashtbl.find_opt t.family ppn with
  | Some s ->
      s.refs <- s.refs - 1;
      if s.refs = 0 then begin
        Hashtbl.remove t.family ppn;
        Mem.Phys_alloc.free_page t.alloc ~vpn:s.owner_key ~ppn
      end
  | None -> Mem.Phys_alloc.free_page t.alloc ~vpn:(alloc_key t vpn) ~ppn

let remove_page t ~vpn =
  match Hashtbl.find_opt t.mappings vpn with
  | None -> ()
  | Some ppn ->
      remove_page_pte t ~vpn;
      release_frame t ~vpn ~ppn;
      Hashtbl.remove t.mappings vpn;
      Hashtbl.remove t.cow vpn

let unmap_region t region =
  Addr.Region.iter_vpns region (fun vpn -> remove_page t ~vpn)

let munmap_region t region =
  unmap_region t region;
  (* areas wholly inside the unmapped range are undeclared, so the
     range can be mapped again later; partial overlaps stay declared *)
  let covers (a : area) =
    Addr.Region.is_empty a.region
    || Addr.Region.mem region a.region.Addr.Region.first_vpn
       && Addr.Region.mem region (Addr.Region.last_vpn a.region)
  in
  t.areas <- List.filter (fun a -> not (covers a)) t.areas

let protect_region t region ~f =
  (* keep the declared areas' attributes in step for future faults *)
  t.areas <-
    List.map
      (fun a ->
        if Addr.Region.overlap a.region region then { a with attr = f a.attr }
        else a)
      t.areas;
  Intf.set_attr_range t.pt region ~f

let sorted_mappings t =
  let kvs = Hashtbl.fold (fun v p acc -> (v, p) :: acc) t.mappings [] in
  List.sort (fun (a, _) (b, _) -> Int64.compare a b) kvs

let write_protect = Pte.Attr.(fun a -> { a with writable = false })

let fork t ~pt ?uid () =
  let child =
    {
      pt;
      alloc = t.alloc;
      uid = fresh_uid uid;
      pol = t.pol;
      factor = t.factor;
      factor_bits = t.factor_bits;
      areas = t.areas;
      mappings = Hashtbl.create (max 16 (Hashtbl.length t.mappings));
      family = t.family;  (* one share table per fork family *)
      cow = Hashtbl.create 64;
      promotions = 0;
      demotions = 0;
    }
  in
  (* sorted so the child's page table build is independent of the
     parent's hash-table iteration order *)
  let kvs = sorted_mappings t in
  List.iter
    (fun (vpn, ppn) ->
      Hashtbl.replace child.mappings vpn ppn;
      (match Hashtbl.find_opt t.family ppn with
      | Some s -> s.refs <- s.refs + 1
      | None ->
          (* first share of this frame: remember the key it was
             allocated under — only that key can free it *)
          Hashtbl.add t.family ppn { refs = 2; owner_key = alloc_key t vpn });
      Hashtbl.replace t.cow vpn ();
      Hashtbl.replace child.cow vpn ();
      (* the child's table mirrors the parent's mappings, the page-size
         policy reapplied as the pages land *)
      update_page_table child ~vpn ~ppn ~attr:(attr_at child vpn))
    kvs;
  (* write-protect both copies so stores fault and break the share *)
  List.iter
    (fun a ->
      ignore (Intf.set_attr_range t.pt a.region ~f:write_protect);
      ignore (Intf.set_attr_range pt a.region ~f:write_protect))
    t.areas;
  child

let touch t ~vpn =
  match Hashtbl.find_opt t.mappings vpn with
  | None -> (fault t ~vpn :> touch_result)
  | Some ppn ->
      if not (Hashtbl.mem t.cow vpn) then `Write
      else begin
        let s =
          match Hashtbl.find_opt t.family ppn with
          | Some s -> s
          | None -> assert false (* cow flag implies a family share *)
        in
        if s.refs = 1 then begin
          (* last sharer: adopt the frame in place, write-enable *)
          Hashtbl.remove t.cow vpn;
          ignore
            (Intf.set_attr_range t.pt
               (Addr.Region.make ~first_vpn:vpn ~pages:1)
               ~f:(fun _ -> attr_at t vpn));
          `Cow_adopted
        end
        else
          match Mem.Phys_alloc.alloc_page t.alloc ~vpn:(alloc_key t vpn) with
          | None -> `Oom
          | Some new_ppn ->
              s.refs <- s.refs - 1;
              Hashtbl.remove t.cow vpn;
              Hashtbl.replace t.mappings vpn new_ppn;
              remove_page_pte t ~vpn;
              update_page_table t ~vpn ~ppn:new_ppn ~attr:(attr_at t vpn);
              `Cow_copied new_ppn
      end

let release_all t =
  List.iter
    (fun (vpn, ppn) -> release_frame t ~vpn ~ppn)
    (sorted_mappings t);
  Hashtbl.reset t.mappings;
  Hashtbl.reset t.cow;
  t.areas <- [];
  Intf.clear t.pt

let translate t ~vpn = Hashtbl.find_opt t.mappings vpn

let shared_frames t =
  Hashtbl.fold (fun _ s acc -> if s.refs > 1 then acc + 1 else acc) t.family 0

let cow_pages t = Hashtbl.length t.cow

let mapped_pages t = Hashtbl.length t.mappings

let properly_placed_pages t =
  Hashtbl.fold
    (fun vpn ppn acc ->
      if Addr.Paddr.properly_placed ~subblock_factor:t.factor ~vpn ~ppn then
        acc + 1
      else acc)
    t.mappings 0

let allocator_stats t = Mem.Phys_alloc.stats t.alloc

let promotions t = t.promotions

let demotions t = t.demotions
