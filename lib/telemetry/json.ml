type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialization *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else begin
    (* shortest representation that survives a round-trip *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* keep a decimal point so whole floats stay floats when reparsed *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"
  end

let rec write b ~pretty ~level t =
  let indent n = if pretty then Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char b '\n' in
  match t with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s ->
    Buffer.add_char b '"';
    escape_into b s;
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_char b '[';
    newline ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char b ',';
          newline ()
        end;
        indent (level + 1);
        write b ~pretty ~level:(level + 1) item)
      items;
    newline ();
    indent level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_char b '{';
    newline ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Buffer.add_char b ',';
          newline ()
        end;
        indent (level + 1);
        Buffer.add_char b '"';
        escape_into b k;
        Buffer.add_string b (if pretty then "\": " else "\":");
        write b ~pretty ~level:(level + 1) v)
      fields;
    newline ();
    indent level;
    Buffer.add_char b '}'

let to_string ?(pretty = false) t =
  let b = Buffer.create 1024 in
  write b ~pretty ~level:0 t;
  Buffer.contents b

let to_channel ?pretty oc t =
  output_string oc (to_string ?pretty t);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("invalid literal, expected " ^ word)
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digits = String.sub s !pos 4 in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all is_hex digits) then fail "invalid \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents b
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'u' ->
          advance ();
          let cp = hex4 () in
          let cp =
            (* combine a surrogate pair when one follows *)
            if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n && s.[!pos] = '\\'
               && s.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = hex4 () in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              else fail "invalid low surrogate"
            end
            else if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD
            else cp
          in
          add_utf8 b cp
        | Some c -> fail (Printf.sprintf "invalid escape \\%C" c)
        | None -> fail "unterminated escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let body = String.sub s start (!pos - start) in
    if body = "" then fail "expected a value";
    match int_of_string_opt body with
    | Some v -> Int v
    | None ->
      (match float_of_string_opt body with
      | Some f -> Float f
      | None -> fail ("malformed number " ^ body))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at byte %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
