module Verifier = Deflection_verifier.Verifier
module Json = Deflection_telemetry.Json
module Field = Sealed_log.Field

type t = (Verifier.report, Verifier.rejection) result

let counters (r : Verifier.report) =
  [
    ("instructions_checked", r.instructions_checked);
    ("store_annotations", r.store_annotations);
    ("rsp_annotations", r.rsp_annotations);
    ("cfi_annotations", r.cfi_annotations);
    ("prologues", r.prologues);
    ("epilogues", r.epilogues);
    ("ssa_checks", r.ssa_checks);
  ]

let fields = function
  | Ok r -> ("status", Json.Str "accepted") :: List.map (fun (k, v) -> (k, Json.Int v)) (counters r)
  | Error (j : Verifier.rejection) ->
    [
      ("status", Json.Str "rejected");
      ("pass", Json.Str (Verifier.pass_label j.pass));
      ("offset", Json.Int j.offset);
      ("reason", Json.Str j.reason);
    ]

let canonical = function
  | Ok r -> "accepted" :: List.map (fun (_, v) -> string_of_int v) (counters r)
  | Error (j : Verifier.rejection) ->
    [ "rejected"; Verifier.pass_label j.pass; string_of_int j.offset; j.reason ]

let ( let* ) = Result.bind

let of_json j =
  match Field.str "status" j with
  | Ok "accepted" ->
    let int k = Field.int k j in
    let* instructions_checked = int "instructions_checked" in
    let* store_annotations = int "store_annotations" in
    let* rsp_annotations = int "rsp_annotations" in
    let* cfi_annotations = int "cfi_annotations" in
    let* prologues = int "prologues" in
    let* epilogues = int "epilogues" in
    let* ssa_checks = int "ssa_checks" in
    Ok
      (Ok
         {
           Verifier.instructions_checked;
           store_annotations;
           rsp_annotations;
           cfi_annotations;
           prologues;
           epilogues;
           ssa_checks;
         })
  | Ok "rejected" ->
    let* label = Field.str "pass" j in
    let* pass =
      Option.to_result ~none:(Printf.sprintf "unknown verifier pass %S" label)
        (Verifier.pass_of_label label)
    in
    let* offset = Field.int "offset" j in
    let* reason = Field.str "reason" j in
    Ok (Error { Verifier.pass; offset; reason })
  | Ok other -> Error (Printf.sprintf "unknown verdict status %S" other)
  | Error _ as e -> e
