(* Jsonx: the printer and parser every JSON artifact goes through.
   Round trips over random trees in both layouts, the indented layout
   rule, number formats and their refusal of non-finite floats, string
   escapes, and a fuzz of the parser over mutated and truncated golden
   documents: it returns a value or raises Parse_error, nothing else. *)

(* --- random trees --- *)

(* bytes that stress the escaper: quotes, backslashes, control
   characters, DEL and non-ASCII *)
let byte_gen =
  QCheck.Gen.(
    frequency
      [
        (4, char_range 'a' 'z');
        (1, oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\000'; '\031' ]);
        (1, map Char.chr (int_range 0x7f 0xff));
        (1, map Char.chr (int_bound 0x1f));
      ])

let string_gen = QCheck.Gen.(string_size ~gen:byte_gen (int_bound 12))

let finite_gen =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        map float_of_int (int_range (-1000) 1000);
        map (fun f -> if Float.is_finite f then f else 0.0) float;
      ])

let scalar_gen =
  QCheck.Gen.(
    oneof
      [
        return Jsonx.null;
        map Jsonx.bool bool;
        map Jsonx.int int;
        map2 (fun dp f -> Jsonx.fixed ~dp f) (int_bound 6) finite_gen;
        map Jsonx.float finite_gen;
        map Jsonx.string string_gen;
      ])

let tree_gen =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           if depth = 0 then scalar_gen
           else
             frequency
               [
                 (2, scalar_gen);
                 ( 1,
                   map Jsonx.list (list_size (int_bound 5) (self (depth - 1)))
                 );
                 ( 1,
                   map Jsonx.obj
                     (list_size (int_bound 5)
                        (pair string_gen (self (depth - 1)))) );
               ]))

let tree_arb = QCheck.make tree_gen ~print:(fun v -> Jsonx.to_string v)

let prop_round_trip layout name =
  QCheck.Test.make ~count:500 ~name tree_arb (fun v ->
      Jsonx.parse (Jsonx.to_string ~layout v) = v)

(* --- unit cases --- *)

let contains hay sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1))
  in
  go 0

let parses_to s v =
  Alcotest.(check bool) (Printf.sprintf "%S parses" s) true (Jsonx.parse s = v)

let rejects s =
  match Jsonx.parse s with
  | _ -> Alcotest.failf "%S parsed" s
  | exception Jsonx.Parse_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S: %s names a byte offset" s msg)
        true
        (contains msg "at byte")

let test_layouts () =
  let v =
    Jsonx.obj
      [
        ("n", Jsonx.int 3);
        ( "row",
          Jsonx.obj [ ("a", Jsonx.string "x\"y"); ("b", Jsonx.bool true) ] );
        ( "rows",
          Jsonx.list
            [ Jsonx.list [ Jsonx.int 1; Jsonx.int 2 ]; Jsonx.list [] ] );
        ("none", Jsonx.obj []);
      ]
  in
  Alcotest.(check string)
    "compact"
    {|{"n":3,"row":{"a":"x\"y","b":true},"rows":[[1,2],[]],"none":{}}|}
    (Jsonx.to_string v);
  Alcotest.(check string)
    "indented: containers of containers break, scalars stay inline"
    "{\n\
    \  \"n\": 3,\n\
    \  \"row\": { \"a\": \"x\\\"y\", \"b\": true },\n\
    \  \"rows\": [\n\
    \    [ 1, 2 ],\n\
    \    []\n\
    \  ],\n\
    \  \"none\": {}\n\
     }"
    (Jsonx.to_string ~layout:Jsonx.Indented v)

let test_numbers () =
  let lit v = Jsonx.to_string v in
  Alcotest.(check string) "int" "-42" (lit (Jsonx.int (-42)));
  Alcotest.(check string) "fixed 4" "0.5000" (lit (Jsonx.fixed ~dp:4 0.5));
  Alcotest.(check string) "fixed 0" "3" (lit (Jsonx.fixed ~dp:0 2.6));
  Alcotest.(check string) "float integral" "900" (lit (Jsonx.float 900.0));
  Alcotest.(check string) "float fractional" "2.25" (lit (Jsonx.float 2.25));
  Alcotest.(check string) "float huge" "1e+20" (lit (Jsonx.float 1e20));
  List.iter
    (fun f ->
      Alcotest.check_raises "fixed refuses non-finite"
        (Invalid_argument
           (Printf.sprintf "Jsonx.fixed: %h is not a JSON number" f))
        (fun () -> ignore (Jsonx.fixed ~dp:1 f));
      Alcotest.check_raises "float refuses non-finite"
        (Invalid_argument
           (Printf.sprintf "Jsonx.float: %h is not a JSON number" f))
        (fun () -> ignore (Jsonx.float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check (option (float 0.0))) "to_float" (Some 0.5)
    (Jsonx.to_float (Jsonx.parse "5e-1"));
  Alcotest.(check bool) "parse keeps the literal" false
    (Jsonx.parse "1.5" = Jsonx.parse "1.50");
  rejects {|{"a":1e999}|};
  rejects "-1e400";
  List.iter rejects
    [ "01"; "1."; ".5"; "+1"; "-"; "1e"; "0x10"; "NaN"; "Infinity" ]

let test_strings () =
  parses_to {|"\u00e9"|} (Jsonx.string "\xc3\xa9");
  parses_to {|"\u20AC"|} (Jsonx.string "\xe2\x82\xac");
  parses_to {|"\ud83d\ude00"|} (Jsonx.string "\xf0\x9f\x98\x80");
  parses_to {|"A\/\b\f\r\t"|} (Jsonx.string "A/\b\012\r\t");
  Alcotest.(check string) "control bytes escape as \\u" {|"\u0001\n\u001f"|}
    (Jsonx.to_string (Jsonx.string "\001\n\031"));
  List.iter rejects
    [
      {|"\uZZZZ"|};
      {|"\u12"|};
      {|"\ud83d"|};
      {|"\ude00"|};
      {|"\ud83dA"|};
      {|"\q"|};
      "\"a\001\"";
      {|"abc|};
    ]

let test_structure () =
  parses_to " [ 1 , { \"k\" : null } ] "
    (Jsonx.list [ Jsonx.int 1; Jsonx.obj [ ("k", Jsonx.null) ] ]);
  List.iter rejects
    [ ""; "["; "[1,]"; "{\"a\"}"; "{\"a\":1,}"; "[1] 2"; "tru"; "{1:2}" ];
  (* deep nesting is an error, not a stack overflow *)
  rejects (String.make 100_000 '[');
  let nested = String.make 500 '[' ^ String.make 500 ']' in
  Alcotest.(check bool) "500 levels parse" true
    (match Jsonx.parse nested with Jsonx.List _ -> true | _ -> false)

let test_load_file () =
  (match Jsonx.load_file "no-such-file.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded");
  let path = Filename.temp_file "jsonx" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "{\"a\":1e999}");
  (match Jsonx.load_file path with
  | Error msg ->
      Alcotest.(check bool) "message names the file" true
        (contains msg path)
  | Ok _ -> Alcotest.fail "1e999 loaded");
  Sys.remove path

(* --- the golden documents --- *)

(* Every JSON document test/cli/golden.t pins (its one-line outputs
   and the indented churn/throughput files) plus the committed
   benchmark baseline. *)
let golden_documents () =
  let lines =
    In_channel.with_open_bin "cli/golden.t" In_channel.input_lines
  in
  (* cram output lines: indented, but neither a command nor its
     continuation *)
  let output l =
    String.starts_with ~prefix:"  " l
    && not
         (String.starts_with ~prefix:"  $ " l
         || String.starts_with ~prefix:"  > " l)
  in
  let blocks, last =
    List.fold_left
      (fun (blocks, cur) l ->
        if output l then (blocks, String.sub l 2 (String.length l - 2) :: cur)
        else if cur = [] then (blocks, [])
        else (List.rev cur :: blocks, []))
      ([], []) lines
  in
  let blocks =
    List.rev (if last = [] then blocks else List.rev last :: blocks)
  in
  let parses s =
    match Jsonx.parse s with
    | _ -> true
    | exception Jsonx.Parse_error _ -> false
  in
  let docs =
    List.concat_map
      (fun block ->
        let whole = String.concat "\n" block in
        if parses whole then [ whole ] else List.filter parses block)
      blocks
  in
  docs
  @ [
      In_channel.with_open_bin "../bench/baseline/bench.json"
        In_channel.input_all;
    ]

let test_golden_reprint () =
  let docs = golden_documents () in
  Alcotest.(check bool)
    (Printf.sprintf "found the golden documents (%d)" (List.length docs))
    true
    (List.length docs >= 30);
  List.iter
    (fun doc ->
      let doc = String.trim doc in
      let v = Jsonx.parse doc in
      let layout =
        if String.contains doc '\n' then Jsonx.Indented else Jsonx.Compact
      in
      Alcotest.(check string) "golden document reprints byte for byte" doc
        (Jsonx.to_string ~layout v))
    docs

(* One golden document, cut at a random byte, or with a byte replaced,
   inserted or deleted there, or with a bad escape or an out-of-range
   number spliced in.  The documents are read on first use. *)
let mutation_gen =
  let docs = lazy (Array.of_list (golden_documents ())) in
  let syntax =
    [ '"'; '\\'; 'u'; '{'; '}'; '['; ']'; ','; ':'; 'e'; '9'; '-'; '.'; '\000' ]
  in
  QCheck.Gen.(
    let* docs = map Lazy.force (return docs) in
    let* doc = oneofa docs in
    let len = String.length doc in
    let* pos = int_bound (len - 1) in
    let* c = oneof [ map Char.chr (int_bound 255); oneofl syntax ] in
    let head = String.sub doc 0 pos in
    let from i = String.sub doc i (len - i) in
    oneofl
      [
        head;
        head ^ String.make 1 c ^ from (pos + 1);
        head ^ String.make 1 c ^ from pos;
        head ^ from (pos + 1);
        head ^ {|\uZZZZ|} ^ from pos;
        head ^ "1e999" ^ from pos;
      ])

let prop_mutations_parse_or_fail =
  let print s =
    Printf.sprintf "%S" (String.sub s 0 (min 400 (String.length s)))
  in
  QCheck.Test.make ~count:3000
    ~name:"mutated golden documents: a value or Parse_error"
    (QCheck.make mutation_gen ~print)
    (fun s ->
      match Jsonx.parse s with
      | _ -> true
      | exception Jsonx.Parse_error _ -> true)

let suite =
  ( "jsonx",
    [
      QCheck_alcotest.to_alcotest
        (prop_round_trip Jsonx.Compact "parse (to_string v) = v, compact");
      QCheck_alcotest.to_alcotest
        (prop_round_trip Jsonx.Indented "parse (to_string v) = v, indented");
      Alcotest.test_case "layouts" `Quick test_layouts;
      Alcotest.test_case "numbers" `Quick test_numbers;
      Alcotest.test_case "strings and escapes" `Quick test_strings;
      Alcotest.test_case "structure and nesting" `Quick test_structure;
      Alcotest.test_case "load_file" `Quick test_load_file;
      Alcotest.test_case "golden documents reprint" `Quick test_golden_reprint;
      QCheck_alcotest.to_alcotest prop_mutations_parse_or_fail;
    ] )
