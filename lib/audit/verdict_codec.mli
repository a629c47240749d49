(** The one encoding of a verifier verdict that both sealed planes use:
    the audit log's records and the persisted verdict cache's entries.
    The JSON form is what the host stores; the canonical form is the
    field list the sealing MACs (and the audit hash chain) cover. *)

module Verifier = Deflection_verifier.Verifier
module Json = Deflection_telemetry.Json

type t = (Verifier.report, Verifier.rejection) result

val fields : t -> (string * Json.t) list
(** [status] ("accepted" | "rejected"), then every report counter under
    its {!Verifier.report} field name, or the rejection's pass label,
    offset and reason. *)

val canonical : t -> string list
(** The same content as {!fields}, in order, as strings for
    {!Sealed_log.mac_body}. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!fields}; ignores fields it does not know (a client's
    additions). Never raises. *)
