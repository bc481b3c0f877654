type pte_policy = [ `Base | `Superpage | `Psb | `Mixed ]

type block_info = {
  vpbn : int64;
  vmask : int;
  placed : bool;
  ppn_base : int64;
  boffs_ppns : (int * int64) list;
}

type assignment = { blocks : block_info list; pages : int; factor : int }

let attr = Pte.Attr.default

let assign proc ?(subblock_factor = 16) ?(placement_p = 0.95) ~seed () =
  let rng = Workload.Prng.create ~seed in
  let vpns = Workload.Snapshot.proc_vpns proc in
  (* group pages into blocks *)
  let tbl = Hashtbl.create 512 in
  Array.iter
    (fun vpn ->
      let vpbn = Addr.Vaddr.vpbn_of_vpn ~subblock_factor vpn in
      let boff = Addr.Vaddr.boff_of_vpn ~subblock_factor vpn in
      let cur = try Hashtbl.find tbl vpbn with Not_found -> 0 in
      Hashtbl.replace tbl vpbn (cur lor (1 lsl boff)))
    vpns;
  let vpbns =
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
    |> List.sort Int64.unsigned_compare
  in
  (* frame assignment: a bump allocator of block-aligned frames for
     placed blocks, deliberately unaligned singles otherwise *)
  let next_block = ref 16L (* block index, keeps PPNs small *) in
  let next_single = ref 0x100000L in
  let factor_bits = Addr.Bits.log2_exact subblock_factor in
  let blocks =
    List.map
      (fun vpbn ->
        let vmask = Hashtbl.find tbl vpbn in
        let placed = Workload.Prng.bool rng ~p:placement_p in
        if placed then begin
          let ppn_base = Int64.shift_left !next_block factor_bits in
          next_block := Int64.succ !next_block;
          let boffs_ppns = ref [] in
          for i = subblock_factor - 1 downto 0 do
            if vmask land (1 lsl i) <> 0 then
              boffs_ppns :=
                (i, Int64.add ppn_base (Int64.of_int i)) :: !boffs_ppns
          done;
          { vpbn; vmask; placed; ppn_base; boffs_ppns = !boffs_ppns }
        end
        else begin
          let boffs_ppns = ref [] in
          for i = subblock_factor - 1 downto 0 do
            if vmask land (1 lsl i) <> 0 then begin
              (* skew the frame so the page is (almost surely) not
                 properly placed *)
              let ppn = !next_single in
              next_single := Int64.add !next_single 3L;
              boffs_ppns := (i, ppn) :: !boffs_ppns
            end
          done;
          { vpbn; vmask; placed; ppn_base = 0L; boffs_ppns = !boffs_ppns }
        end)
      vpbns
  in
  (* Shuffle so head-insertion yields uniform chain positions, the
     appendix's "random, uniform distribution" assumption — a real OS
     inserts in demand order, not VPBN order, so ascending order would
     push the dense (hot) blocks to every chain's tail. *)
  let arr = Array.of_list blocks in
  Workload.Prng.shuffle rng arr;
  { blocks = Array.to_list arr; pages = Array.length vpns; factor = subblock_factor }

let block_uses_compact ~factor (b : block_info) ~policy =
  let full_mask = (1 lsl factor) - 1 in
  match policy with
  | `Base -> false
  | `Superpage -> b.placed && b.vmask = full_mask
  | `Psb | `Mixed -> b.placed

let fss assignment ~policy =
  let n = List.length assignment.blocks in
  if n = 0 then 0.0
  else
    let compact =
      List.length
        (List.filter (block_uses_compact ~factor:assignment.factor ~policy) assignment.blocks)
    in
    float_of_int compact /. float_of_int n

let populate pt assignment ~policy =
  let module I = Pt_common.Intf in
  List.iter
    (fun (b : block_info) ->
      if block_uses_compact ~factor:assignment.factor b ~policy then begin
        let full = b.vmask = (1 lsl assignment.factor) - 1 in
        let as_superpage =
          match policy with
          | `Superpage -> true
          | `Mixed -> full
          | `Psb | `Base -> false
        in
        if as_superpage then begin
          let fbits = Addr.Bits.log2_exact assignment.factor in
          I.insert_superpage pt
            ~vpn:(Int64.shift_left b.vpbn fbits)
            ~size:(Addr.Page_size.of_sz_code fbits)
            ~ppn:b.ppn_base ~attr
        end
        else I.insert_psb pt ~vpbn:b.vpbn ~vmask:b.vmask ~ppn:b.ppn_base ~attr
      end
      else
        List.iter
          (fun (boff, ppn) ->
            let fbits = Addr.Bits.log2_exact assignment.factor in
            let vpn =
              Int64.add (Int64.shift_left b.vpbn fbits) (Int64.of_int boff)
            in
            I.insert_base pt ~vpn ~ppn ~attr)
          b.boffs_ppns)
    assignment.blocks

let iter_pages a f =
  List.iter
    (fun b ->
      List.iter
        (fun (boff, ppn) ->
          f (Addr.Vaddr.vpn_of_vpbn ~subblock_factor:a.factor b.vpbn ~boff) ppn)
        b.boffs_ppns)
    a.blocks

let assignments ?subblock_factor ?placement_p ~seed snap =
  List.mapi
    (fun i proc ->
      assign proc ?subblock_factor ?placement_p
        ~seed:(Int64.add seed (Int64.of_int (i + 1)))
        ())
    snap.Workload.Snapshot.procs
  |> Array.of_list

type fixture = {
  spec : Workload.Spec.t;
  snap : Workload.Snapshot.t;
  assignments : assignment array;
  trace : Workload.Trace.t Lazy.t;
}

let fixture ?placement_p ?(length = 80_000) ?quantum ~seed spec =
  let snap = Workload.Snapshot.generate spec ~seed in
  {
    spec;
    snap;
    assignments = assignments ?placement_p ~seed snap;
    trace =
      lazy
        (Workload.Trace.generate ?quantum spec snap
           ~seed:(Int64.add seed 0x77L) ~length);
  }

let tables kind ~policy assignments =
  Array.map
    (fun a ->
      let pt = Factory.make kind in
      populate pt a ~policy;
      pt)
    assignments
