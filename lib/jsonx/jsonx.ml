type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- building --- *)

let null = Null
let bool b = Bool b
let int n = Num (string_of_int n)

let finite who f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Jsonx.%s: %h is not a JSON number" who f)

let fixed ~dp f =
  finite "fixed" f;
  Num (Printf.sprintf "%.*f" dp f)

let float f =
  finite "float" f;
  Num
    (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
     else Printf.sprintf "%g" f)

let string s = Str s
let list l = List l
let obj fields = Obj fields

(* --- printing --- *)

type layout = Compact | Indented

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_container = function List _ | Obj _ -> true | _ -> false

let rec add b ~layout ~indent = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num lit -> Buffer.add_string b lit
  | Str s -> add_string b s
  | List [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | List items ->
      add_members b ~layout ~indent '[' ']'
        (List.map (fun v -> (None, v)) items)
  | Obj fields ->
      add_members b ~layout ~indent '{' '}'
        (List.map (fun (k, v) -> (Some k, v)) fields)

(* Members of a list have no key.  Indented, a container holding a
   container puts each member on its own line, one level deeper; a
   container of scalars stays on one line. *)
and add_members b ~layout ~indent opening closing members =
  let nested =
    layout = Indented && List.exists (fun (_, v) -> is_container v) members
  in
  let inline = layout = Indented && not nested in
  let newline n =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make n ' ')
  in
  Buffer.add_char b opening;
  if inline then Buffer.add_char b ' ';
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_string b (if inline then ", " else ",");
      if nested then newline (indent + 2);
      Option.iter
        (fun k ->
          add_string b k;
          Buffer.add_string b (if layout = Compact then ":" else ": "))
        key;
      add b ~layout ~indent:(indent + 2) v)
    members;
  if nested then newline indent;
  if inline then Buffer.add_char b ' ';
  Buffer.add_char b closing

let to_string ?(layout = Compact) v =
  let b = Buffer.create 1024 in
  add b ~layout ~indent:0 v;
  Buffer.contents b

(* --- parsing --- *)

exception Parse_error of string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the four hex digits after "\u", with [pos] on the 'u' *)
  let hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let hex = String.sub s (!pos + 1) 4 in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all is_hex hex) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let add_utf8 b code = Buffer.add_utf_8_uchar b (Uchar.of_int code) in
  let unicode_escape b =
    let code = hex4 () in
    if code >= 0xDC00 && code <= 0xDFFF then fail "unpaired low surrogate"
    else if code >= 0xD800 && code <= 0xDBFF then begin
      if not (!pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u') then
        fail "unpaired high surrogate";
      pos := !pos + 2;
      let low = hex4 () in
      if low < 0xDC00 || low > 0xDFFF then fail "unpaired high surrogate";
      add_utf8 b (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
    end
    else add_utf8 b code
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some '/' -> Buffer.add_char b '/'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' -> unicode_escape b
          | Some c -> fail (Printf.sprintf "bad escape \\%C" c));
          advance ();
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = first then fail "expected a digit"
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if not (Float.is_finite (float_of_string lit)) then begin
      pos := start;
      fail "number out of range"
    end;
    Num lit
  in
  (* the members of an object or array, with [pos] on its opening
     bracket; [item] parses one member *)
  let container closing item =
    advance ();
    skip_ws ();
    let rec more acc =
      let v = item () in
      skip_ws ();
      match peek () with
      | Some ',' ->
          advance ();
          more (v :: acc)
      | Some c when c = closing ->
          advance ();
          List.rev (v :: acc)
      | _ -> fail (Printf.sprintf "expected ',' or %C" closing)
    in
    if peek () = Some closing then begin
      advance ();
      []
    end
    else more []
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
        Obj
          (container '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, parse_value (depth + 1))))
    | Some '[' -> List (container ']' (fun () -> parse_value (depth + 1)))
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match parse s with
      | v -> Ok v
      | exception Parse_error e -> Error (Printf.sprintf "%s: %s" path e))

(* --- reading --- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Num lit -> Some (float_of_string lit) | _ -> None
