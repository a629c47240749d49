module Json = Deflection_telemetry.Json
module Hex = Deflection_util.Hex
module Hmac = Deflection_crypto.Hmac

let mac_body tag fields =
  let b = Buffer.create 128 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    (tag :: fields);
  Buffer.contents b

type t = { schema : string; key : bytes }

let create ~schema ~key = { schema; key }

let segment_body t ~generation ~position canons =
  mac_body (t.schema ^ "/segment") (string_of_int generation :: string_of_int position :: canons)

let final_body t ~generation ~segments ~entries bound =
  mac_body (t.schema ^ "/final")
    (string_of_int generation :: string_of_int segments :: string_of_int entries
    :: List.concat_map (fun (name, v) -> [ name; Json.to_string v ]) bound)

let hmac t body = Hmac.sha256 ~key:t.key (Bytes.of_string body)

let segment_mac t ~generation ~position canons =
  hmac t (segment_body t ~generation ~position canons)

let segment ~position ~mac entries fields =
  Json.Obj
    ((("index", Json.Int position) :: ("entries", Json.List entries) :: fields)
    @ [ ("mac", Json.Str (Hex.encode mac)) ])

let document t ~generation ~entries ~bound ~extra segments =
  let final_mac =
    hmac t (final_body t ~generation ~segments:(List.length segments) ~entries bound)
  in
  Json.Obj
    ((("schema", Json.Str t.schema) :: ("generation", Json.Int generation) :: bound)
    @ [ ("segments", Json.List segments); ("final_mac", Json.Str (Hex.encode final_mac)) ]
    @ extra)

(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

module Field = struct
  let typed kind cast name j =
    match Option.bind (Json.member name j) cast with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing %sfield %S" kind name)

  let get = typed "" Option.some
  let int = typed "int " (function Json.Int i -> Some i | _ -> None)
  let str = typed "string " (function Json.Str s -> Some s | _ -> None)
  let list = typed "list " (function Json.List l -> Some l | _ -> None)

  let hex name j =
    let* s = str name j in
    match Hex.decode s with
    | b when String.equal (Hex.encode b) s -> Ok b
    | _ | (exception Invalid_argument _) ->
      Error (Printf.sprintf "field %S is not lowercase hex" name)
end

let all f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] l

type 'e outcome = Verified of 'e list | Bad_mac of 'e list | Malformed of string
type 'e segment = { outcome : 'e outcome; fields : Json.t }
type 'e parsed = { generation : int; segments : 'e segment list; closed : bool }

let parse_segment t ~decode ~canonical ~generation position fields =
  let outcome =
    let* index = Field.int "index" fields in
    let* entries = Result.bind (Field.list "entries" fields) (all decode) in
    let* tag = Field.hex "mac" fields in
    let body = segment_body t ~generation ~position (List.map canonical entries) in
    if index = position && Hmac.verify ~key:t.key (Bytes.of_string body) ~tag then
      Ok (Verified entries)
    else Ok (Bad_mac entries)
  in
  { outcome = (match outcome with Ok o -> o | Error m -> Malformed m); fields }

let parse t ~decode ~canonical ~bound doc =
  let* schema = Field.str "schema" doc in
  let* () =
    if String.equal schema t.schema then Ok ()
    else Error (Printf.sprintf "schema is %S, not %S" schema t.schema)
  in
  let* generation = Field.int "generation" doc in
  let* raw = Field.list "segments" doc in
  let segments = List.mapi (parse_segment t ~decode ~canonical ~generation) raw in
  let entries =
    List.fold_left
      (fun n s -> n + match Field.list "entries" s with Ok l -> List.length l | Error _ -> 0)
      0 raw
  in
  let bound_field name = (name, Option.value ~default:Json.Null (Json.member name doc)) in
  let bound = List.map bound_field bound in
  let closed =
    match Field.hex "final_mac" doc with
    | Error _ -> false
    | Ok tag ->
      Hmac.verify ~key:t.key
        (Bytes.of_string (final_body t ~generation ~segments:(List.length raw) ~entries bound))
        ~tag
  in
  Ok { generation; segments; closed }
