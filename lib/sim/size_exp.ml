type cell = { label : string; bytes : int; ratio : float }

type row = {
  workload : string;
  pages : int;
  hashed_bytes : int;
  cells : cell list;
}

let default_seed = 0x5EED_1995L

let size_of kind ~policy ~assignments =
  Array.fold_left
    (fun acc pt -> acc + Pt_common.Intf.size_bytes pt)
    0
    (Builder.tables kind ~policy assignments)

let row_of spec ~seed ~placement_p ~columns =
  let assignments =
    (Builder.fixture spec ~seed ~placement_p).Builder.assignments
  in
  let hashed_bytes = size_of Factory.Hashed ~policy:`Base ~assignments in
  let cells =
    List.map
      (fun (label, kind, policy) ->
        let bytes = size_of kind ~policy ~assignments in
        {
          label;
          bytes;
          ratio = float_of_int bytes /. float_of_int hashed_bytes;
        })
      columns
  in
  {
    workload = spec.Workload.Spec.name;
    pages =
      Array.fold_left (fun acc a -> acc + a.Builder.pages) 0 assignments;
    hashed_bytes;
    cells;
  }

let figure9 ?(seed = default_seed) ?domains
    ?(specs = Workload.Table1.all_with_kernel) () =
  let columns =
    [
      ("linear-6L", Factory.Linear6, `Base);
      ("linear-1L", Factory.Linear1, `Base);
      ("fwd-mapped", Factory.Forward_mapped, `Base);
      ("hashed", Factory.Hashed, `Base);
      ("clustered", Factory.clustered16, `Base);
    ]
  in
  Exec.Soak.map ?domains
    (fun _ spec -> row_of spec ~seed ~placement_p:0.95 ~columns)
    (Array.of_list specs)
  |> Array.to_list

let figure10 ?(seed = default_seed) ?domains ?(placement_p = 0.95)
    ?(specs = Workload.Table1.all_with_kernel) () =
  let columns =
    [
      ( "hashed+sp",
        Factory.Hashed_two_tables { coarse_first = false },
        `Superpage );
      ("clustered", Factory.clustered16, `Base);
      ("clustered+sp", Factory.clustered16, `Superpage);
      ("clustered+psb", Factory.clustered16, `Psb);
      ("clustered+both", Factory.clustered16, `Mixed);
    ]
  in
  Exec.Soak.map ?domains
    (fun _ spec -> row_of spec ~seed ~placement_p ~columns)
    (Array.of_list specs)
  |> Array.to_list

let subblock_sweep ?(seed = default_seed) ~factors spec =
  let snap = Workload.Snapshot.generate spec ~seed in
  let size kind ~subblock_factor =
    size_of kind ~policy:`Base
      ~assignments:(Builder.assignments snap ~seed ~subblock_factor)
  in
  let hashed_bytes = size Factory.Hashed ~subblock_factor:16 in
  List.map
    (fun factor ->
      (* blocks must be re-formed at each factor *)
      let bytes =
        size (Factory.Clustered { subblock_factor = factor })
          ~subblock_factor:factor
      in
      (factor, float_of_int bytes /. float_of_int hashed_bytes))
    factors
