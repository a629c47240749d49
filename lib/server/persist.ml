module Json = Deflection_telemetry.Json
module Hex = Deflection_util.Hex
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Sealed_log = Deflection_audit.Sealed_log
module Verdict_codec = Deflection_audit.Verdict_codec
module Chaos = Deflection_chaos.Chaos
module Resilience = Deflection_chaos.Resilience

type entry = { tenant : string; key : string; mode : string; verdict : Verifier.verdict }
type segment_outcome = Seg_loaded of int | Seg_bad_mac | Seg_malformed

type load_report = {
  found : bool;
  malformed : bool;
  truncated : bool;
  generation : int;
  segments : segment_outcome list;
  entries_loaded : int;
  segments_discarded : int;
}

let segment_outcome_to_json = function
  | Seg_loaded n -> Json.Obj [ ("status", Json.Str "loaded"); ("entries", Json.Int n) ]
  | Seg_bad_mac -> Json.Obj [ ("status", Json.Str "bad-mac") ]
  | Seg_malformed -> Json.Obj [ ("status", Json.Str "malformed") ]

let load_report_to_json r =
  Json.Obj
    [
      ("found", Json.Bool r.found);
      ("malformed", Json.Bool r.malformed);
      ("truncated", Json.Bool r.truncated);
      ("generation", Json.Int r.generation);
      ("segments", Json.List (List.map segment_outcome_to_json r.segments));
      ("entries_loaded", Json.Int r.entries_loaded);
      ("segments_discarded", Json.Int r.segments_discarded);
    ]

let schema = "deflection-server-cache/3"

type t = {
  file : string;
  log : Sealed_log.t;  (* platform sealing key: wrong platform -> every MAC fails *)
  segment_entries : int;
  resilience : Resilience.t;
  mutable gen : int;
}

(* ------------------------------------------------------------------ *)
(* Entry (de)serialization: the shared verdict codec plus the block
   leaders an accepted verdict hands the trace tier. The JSON form is
   what goes on disk; the canonical form is what gets MAC'd. *)

let ( let* ) = Result.bind

let leaders = function
  | Ok (_, cls) -> Some (Verifier.classification_leaders cls)
  | Error _ -> None

(* The injective per-entry encoding the segment MAC covers: every field
   length-prefixed by Sealed_log.mac_body, the variable-length leader list
   preceded by its count. *)
let canonical_entry e =
  Sealed_log.mac_body "deflection-server-entry/2"
    (e.tenant :: Hex.encode_string e.key :: e.mode
     :: Verdict_codec.canonical (Result.map fst e.verdict)
    @
    match leaders e.verdict with
    | Some l -> "leaders" :: string_of_int (List.length l) :: List.map string_of_int l
    | None -> [])

let entry_to_json e =
  let leader_field =
    match leaders e.verdict with
    | Some l -> [ ("leaders", Json.List (List.map (fun o -> Json.Int o) l)) ]
    | None -> []
  in
  Json.Obj
    [
      ("tenant", Json.Str e.tenant);
      ("key", Json.Str (Hex.encode_string e.key));
      ("mode", Json.Str e.mode);
      ("verdict", Json.Obj (Verdict_codec.fields (Result.map fst e.verdict) @ leader_field));
    ]

let entry_of_json j =
  let* tenant = Sealed_log.Field.str "tenant" j in
  let* key = Sealed_log.Field.hex "key" j in
  let* mode = Sealed_log.Field.str "mode" j in
  let* _ = Option.to_result ~none:"unknown verification mode" (Verifier.mode_of_label mode) in
  let* vj = Sealed_log.Field.get "verdict" j in
  let* v = Verdict_codec.of_json vj in
  let* verdict =
    match v with
    | Error rej -> Ok (Error rej)
    | Ok rep ->
      let* l = Sealed_log.Field.list "leaders" vj in
      let* l =
        Sealed_log.all (function Json.Int i -> Ok i | _ -> Error "leaders holds a non-integer") l
      in
      Ok (Ok (rep, Verifier.classification_of_leaders l))
  in
  Ok { tenant; key = Bytes.to_string key; mode; verdict }

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let seg, rest = take n [] l in
    seg :: chunks n rest

let seal_doc t ~generation entries =
  Sealed_log.document t.log ~generation ~entries:(List.length entries) ~bound:[] ~extra:[]
    (List.mapi
       (fun position seg ->
         let mac =
           Sealed_log.segment_mac t.log ~generation ~position (List.map canonical_entry seg)
         in
         Sealed_log.segment ~position ~mac (List.map entry_to_json seg) [])
       (chunks t.segment_entries entries))

(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let path t = t.file
let generation t = t.gen

let save ?(chaos = Chaos.disabled) ~round t entries =
  let generation = t.gen + 1 in
  let doc = seal_doc t ~generation entries in
  let bytes = Json.to_string doc in
  let bytes =
    (* a torn write: only a prefix of the sealed bytes reaches the disk *)
    match Chaos.torn_write chaos ~round with
    | None -> bytes
    | Some frac16 -> String.sub bytes 0 (String.length bytes * frac16 / 16)
  in
  let attempt ~attempt:_ =
    match
      let tmp = t.file ^ ".tmp" in
      write_file tmp bytes;
      if Sys.file_exists t.file then Sys.rename t.file (t.file ^ ".1");
      Sys.rename tmp t.file
    with
    | () -> Resilience.Done ()
    | exception Sys_error m -> Resilience.Transient m
  in
  match Resilience.run t.resilience ~stage:"persist.seal" attempt with
  | Ok () ->
    t.gen <- generation;
    Ok ()
  | Error (Resilience.Timed_out { last; _ }) -> Error last
  | Error (Resilience.Gave_up e) -> Error e

(* ------------------------------------------------------------------ *)

let none_loaded ~found ~malformed ~generation =
  {
    found;
    malformed;
    truncated = false;
    generation;
    segments = [];
    entries_loaded = 0;
    segments_discarded = 0;
  }

(* Chaos doctoring of the bytes the host serves: replace one segment with
   its previous-generation counterpart (kept on disk as [.1] by [save] —
   exactly the material a real host still has), or corrupt one MAC. *)
let apply_host_tamper ~chaos t doc =
  let update name f = function
    | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) fields)
    | j -> j
  in
  let at s f =
    update "segments" (function
      | Json.List (_ :: _ as segs) ->
        let pos = s mod List.length segs in
        Json.List (List.mapi (fun i seg -> if i = pos then f pos seg else seg) segs)
      | j -> j)
  in
  let stale pos seg =
    let old_file = t.file ^ ".1" in
    match if Sys.file_exists old_file then Json.parse (read_file old_file) else Error "" with
    | Ok old_doc -> (
      match Json.member "segments" old_doc with
      | Some (Json.List (_ :: _ as old_segs)) -> List.nth old_segs (pos mod List.length old_segs)
      | _ -> seg)
    | Error _ -> seg
  in
  let flip_mac _ =
    update "mac" (function
      | Json.Str m when m <> "" ->
        Json.Str ((if m.[0] = '0' then "1" else "0") ^ String.sub m 1 (String.length m - 1))
      | j -> j)
  in
  let doc = match Chaos.stale_segment chaos with None -> doc | Some s -> at s stale doc in
  match Chaos.mac_corrupt chaos with None -> doc | Some s -> at s flip_mac doc

(* Read the state file once, through the resilience loop: its generation
   (as the host served it, before chaos doctoring) seeds the handle, its
   verified segments are the recovered entries. *)
let load ~chaos t =
  if not (Sys.file_exists t.file) then
    ([], none_loaded ~found:false ~malformed:false ~generation:0)
  else
    let doc =
      let attempt ~attempt:_ =
        match read_file t.file with
        | s -> Resilience.Done s
        | exception Sys_error m -> Resilience.Transient m
      in
      match Resilience.run t.resilience ~stage:"persist.load" attempt with
      | Ok raw -> Json.parse raw
      | Error _ -> Error "unreadable"
    in
    Result.iter
      (fun doc -> t.gen <- Result.value ~default:0 (Sealed_log.Field.int "generation" doc))
      doc;
    let parsed =
      let* doc = doc in
      Sealed_log.parse t.log ~decode:entry_of_json ~canonical:canonical_entry ~bound:[]
        (apply_host_tamper ~chaos t doc)
    in
    match parsed with
    | Error _ -> ([], none_loaded ~found:true ~malformed:true ~generation:0)
    | Ok p ->
      let segments, entries =
        List.split
          (List.map
             (fun (s : _ Sealed_log.segment) ->
               match s.outcome with
               | Sealed_log.Verified es ->
                 (Seg_loaded (List.length es), es)
               | Bad_mac _ -> (Seg_bad_mac, [])
               | Malformed _ -> (Seg_malformed, []))
             p.segments)
      in
      let entries = List.concat entries in
      ( entries,
        {
          found = true;
          malformed = false;
          truncated = not p.closed;
          generation = p.generation;
          segments;
          entries_loaded = List.length entries;
          segments_discarded =
            List.length (List.filter (function Seg_loaded _ -> false | _ -> true) segments);
        } )

let recover ?(chaos = Chaos.disabled) ?(segment_entries = 32) ~dir ~platform () =
  if segment_entries < 1 then invalid_arg "Persist.recover: segment_entries must be >= 1";
  mkdir_p dir;
  let t =
    {
      file = Filename.concat dir "verdict-cache.json";
      log = Sealed_log.create ~schema ~key:(Attestation.Platform.sealing_key platform);
      segment_entries;
      resilience = Resilience.create ~seed:1L ();
      gen = 0;
    }
  in
  let entries, report = load ~chaos t in
  (t, entries, report)
