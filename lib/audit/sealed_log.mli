(** The sealed segment log: how a list of canonical entries is written to
    host-controlled storage and read back. It is the one format, and the
    one parser of those untrusted bytes, under both sealed planes: the
    admission audit log ({!Audit}) and the server's persisted verdict
    cache.

    {v { "schema": S, "generation": G, <bound fields>,
  "segments": [ { "index": i, "entries": [..], <segment fields>, "mac": hex }, .. ],
  "final_mac": hex, <other fields> } v}

    Segment [i]'s MAC is HMAC-SHA256 under the sealing key over the
    {!mac_body} of (S ^ "/segment", G, i, each entry's canonical bytes):
    editing an entry, moving the segment to another position, replaying
    it from another generation or sealing under another key fails that
    segment alone. The closing MAC covers (S ^ "/final", G, the segment
    count, the entry count, each bound field's name and JSON text):
    dropping segments, truncating at a segment boundary or editing a
    bound field fails it. Other client fields are not MAC-covered; a
    client that adds one must check it against something that is (the
    audit log re-walks its chain against each segment's head). *)

module Json = Deflection_telemetry.Json

val mac_body : string -> string list -> string
(** [mac_body tag fields] — the injective encoding every MAC and canonical
    entry form is computed over: the tag, then each field, each prefixed
    by its decimal length and [':'], so no field value can masquerade as
    a field boundary. *)

type t
(** A sealing context: the schema (also the MACs' domain tag) and the
    platform sealing key. *)

val create : schema:string -> key:bytes -> t

(** {2 Writing} *)

val segment_mac : t -> generation:int -> position:int -> string list -> bytes
(** The MAC of the segment at [position] whose entries have these
    canonical forms. *)

val segment : position:int -> mac:bytes -> Json.t list -> (string * Json.t) list -> Json.t
(** [segment ~position ~mac entries fields]: the segment object, with the
    client's [fields] between ["entries"] and ["mac"]. *)

val document :
  t ->
  generation:int ->
  entries:int ->
  bound:(string * Json.t) list ->
  extra:(string * Json.t) list ->
  Json.t list ->
  Json.t
(** The document over these segment objects, which hold [entries] entries
    in total; [bound] fields are covered by the closing MAC, [extra]
    fields are not. *)

(** {2 Reading} *)

(** Total accessors of untrusted JSON fields; [Error] names the missing
    or mistyped field. [hex] accepts only the lowercase encoding the
    writers emit, so an accepted value re-serializes to the same text. *)
module Field : sig
  val get : string -> Json.t -> (Json.t, string) result
  val int : string -> Json.t -> (int, string) result
  val str : string -> Json.t -> (string, string) result
  val list : string -> Json.t -> (Json.t list, string) result
  val hex : string -> Json.t -> (bytes, string) result
end

val all : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Map, stopping at the first [Error]. *)

type 'e outcome =
  | Verified of 'e list
  | Bad_mac of 'e list
      (** well-formed, but the MAC fails: an edited entry, a segment from
          another position or generation, or a foreign key *)
  | Malformed of string

type 'e segment = { outcome : 'e outcome; fields : Json.t  (** the segment object as read *) }
type 'e parsed = { generation : int; segments : 'e segment list; closed : bool  (** closing MAC *) }

val parse :
  t ->
  decode:(Json.t -> ('e, string) result) ->
  canonical:('e -> string) ->
  bound:string list ->
  Json.t ->
  ('e parsed, string) result
(** Read a sealed document back. [Error] only when the document itself is
    unreadable (another schema, no generation, no segment list); each
    segment gets its own outcome, so one damaged segment never hides the
    others. A segment whose declared index is not its position is
    [Bad_mac]. The closing MAC is checked against the entry count the
    segments declare. Never raises, provided [decode] and [canonical] do
    not. *)
