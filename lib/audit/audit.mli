(** Attested admission audit plane: tamper-evident evidence of every
    gateway/session admission decision.

    Each decision the in-enclave verifier renders — acceptance with its
    full report, or rejection with the pass/offset/reason triple — emits
    one canonical {!record} carrying the measurement of the delivered
    binary (SHA-256 of the serialized objfile), the enforced policy-set
    label, the SSA inspection period, the verdict-cache outcome and the
    worker lane that served the session. Records are bound into an
    append-only hash chain

    {v h_0 = SHA256("deflection-audit/2")
   h_i = SHA256(h_(i-1) || canonical(record_i)) v}

    and sealed as a {!Sealed_log} under the enclave sealing key: records
    live inside MAC'd segments, each segment also carries the chain head
    after its last record, and the closing MAC binds the record count,
    the segment size and the document head. So the log itself can live
    on the untrusted host: flipping, dropping, reordering, truncating or
    splicing records breaks the chain, a segment MAC or the closing MAC.
    The current chain head is folded into an attestation quote's report
    data at seal time, binding "this quote => this exact admission
    history" for a remote verifier holding only the attestation service's
    view of the platform.

    Schedule independence: a gateway batch appends from K domains, so the
    {e order} of records (and thus [seq], [lane] and the chain head) is
    timing-variant — but the {e multiset} of record contents is not. The
    verdict cache's single-flight discipline guarantees exactly one
    [Miss] per distinct (measurement, policies, ssa_q) key per batch and
    [Hit]s for the rest, so {!content_key} (which excludes [seq] and
    [lane]) yields a multiset that depends only on the job list.
    [suite_audit] pins this with a K=1 vs K=4 comparison. *)

module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Json = Deflection_telemetry.Json

(** How the verdict was obtained: from the shared verdict cache ([Hit]),
    by running the verifier under a cache claim ([Miss]), or by a
    cache-less direct verification ([Uncached]). *)
type cache_outcome = Hit | Miss | Uncached

val cache_outcome_label : cache_outcome -> string
(** ["hit"] | ["miss"] | ["uncached"]. *)

(** The full admission verdict, as the audit plane preserves it. *)
type verdict =
  | Accepted of Verifier.report
  | Rejected of Verifier.rejection

type record = {
  seq : int;  (** monotone position in the log, assigned at append *)
  measurement : string;
      (** lowercase-hex SHA-256 of the serialized objfile — the exact
          bytes the code provider sealed *)
  policies : string;  (** {!Policy.Set.label} of the enforced set *)
  mode : string;
      (** {!Verifier.mode_label} of the verification mode that rendered
          the verdict — an auditor can tell a descent admission from a
          witness-checked one *)
  ssa_q : int;
  verdict : verdict;
  cache : cache_outcome;
  lane : int;  (** gateway worker lane (0 for a standalone session) *)
}

val canonical : record -> string
(** The injective byte serialization ({!Sealed_log.mac_body}, verdict via
    {!Verdict_codec.canonical}) hashed into the chain and covered by the
    segment MAC: no crafted reason string or label can collide with
    another record's encoding. *)

val content_key : record -> string
(** {!canonical} with [seq] and [lane] zeroed — the schedule-independent
    projection used to compare audit record {e sets} across fan-outs. *)

val genesis : string
(** Lowercase-hex [h_0], the SHA-256 of the schema tag. *)

val plane_measurement : bytes
(** The synthetic enclave measurement the audit plane's quotes are issued
    under (the digest of a fixed plane tag: the sealing identity covers
    the audit machinery itself, not any one target binary). *)

(** The producer: an append-only, mutex-protected chained log. Safe to
    share across gateway worker domains. *)
module Log : sig
  type t

  val create : ?segment_records:int -> platform:Attestation.Platform.t -> unit -> t
  (** A fresh empty log sealed under [platform]'s sealing key
      ({!Attestation.Platform.sealing_key}). [segment_records] (default
      8, must be positive) is the MAC granularity: every completed run of
      that many records closes a segment, whose MAC over those records is
      computed when a seal first covers it. *)

  val append :
    t ->
    measurement:bytes ->
    policies:Policy.Set.t ->
    mode:Verifier.mode ->
    ssa_q:int ->
    verdict:verdict ->
    cache:cache_outcome ->
    lane:int ->
    record
  (** Assign the next sequence number, extend the chain and return the
      record as written. [measurement] is the raw 32-byte digest. *)

  val length : t -> int
  val head : t -> string  (** lowercase-hex current chain head *)

  val records : t -> record list
  (** In sequence order. *)

  val seal : t -> Json.t
  (** Freeze the current state into a [deflection-audit/2] document
      (generation 0: the log only ever grows): the closed segments plus
      a sealed trailing partial one, each holding its records and chain
      head; the document head; a closing MAC over (generation, segment
      count, record count, segment size, head) — so even a truncation at
      a segment boundary is evident — the genesis; and a platform quote
      whose report data {e is} the chain head. Non-destructive: the log
      keeps accepting appends, and sealing again covers the longer
      history. *)
end

(** A log endpoint annotated with the worker lane doing the appending —
    what a session's bootstrap enclave carries. *)
type sink = { log : Log.t; lane : int }

(** First tamper found when re-walking a sealed document. *)
type tamper =
  | Malformed of string  (** not a well-formed deflection-audit/2 doc *)
  | Sequence_broken of { index : int }
      (** record at position [index] does not carry seq = [index]:
          a drop, reorder or insertion that kept the original numbering *)
  | Chain_mismatch of { segment : int }
      (** re-walked chain diverges from the head recorded for this
          segment: a record inside it was altered (or renumbered) *)
  | Segment_mac_mismatch of { segment : int }
      (** the segment's MAC does not verify under the sealing key:
          spliced-in history, a moved segment or a foreign key *)
  | Head_mismatch  (** the document head is not the re-walked head *)
  | Final_mac_mismatch
      (** the closing MAC fails: truncation or extension of the sealed
          history *)
  | Quote_mismatch of string
      (** the embedded quote fails attestation-service verification or
          its report data is not the chain head *)

val tamper_to_string : tamper -> string
val pp_tamper : Format.formatter -> tamper -> unit

type summary = { n_records : int; n_segments : int }

val verify : platform:Attestation.Platform.t -> Json.t -> (summary, tamper) result
(** Re-walk a sealed document under [platform]'s keys and report the
    first tamper, checking in this order: the sequence numbers, the
    chain (recomputed from genesis) against each segment's head, every
    segment MAC, the document head, the closing MAC, the quote binding.
    Detects flips, drops, reorders, truncations and splices; [Ok] iff
    the document is the history the enclave sealed. Never raises. *)

val records_of_doc : Json.t -> (record list, string) result
(** Parse just the records (no integrity checks) — the [audit show]
    rendering path. Never raises. *)
