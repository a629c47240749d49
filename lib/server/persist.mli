(** Sealed on-disk persistence for the server's verdict caches.

    The host filesystem is the adversary (BesFS model): whatever bytes
    come back at load time are only trusted after in-enclave integrity
    checks, and every integrity failure degrades to {e cold
    re-verification} of the affected entries — never to admitting from a
    forged verdict, never to refusing to start.

    The on-disk document ([deflection-server-cache/3]) is a
    {!Deflection_audit.Sealed_log}, the audit plane's own format: entries
    are grouped into segments, each segment carries an HMAC-SHA256 under
    the platform sealing key
    ({!Deflection_attestation.Attestation.Platform.sealing_key}) over
    (generation, segment position, the entries' canonical bytes), and the
    closing MAC binds (generation, segment count, entry count) — the
    cache adds no bound fields of its own. Each entry's verdict uses
    {!Deflection_audit.Verdict_codec}, plus the block leaders of an
    acceptance, so a recovered verdict hands the trace tier the same
    leaders a fresh pass would. A file under an older schema loads
    nothing. Consequences, each pinned by the tamper table the
    [audit] and [server] suites share:

    - a bit flip inside a segment, a spliced/reordered segment, a segment
      replayed from an older generation, or a file sealed by a different
      platform fails {e that segment's} MAC — the segment is discarded,
      everything else loads;
    - a dropped segment or a truncated tail fails the closing MAC — the
      report says [truncated], surviving segments still load;
    - a torn write (unparseable file) loads nothing.

    Losing entries only costs warmness: verdicts are content-addressed
    (measurement-keyed) and deterministic, so a cold miss re-derives
    exactly what was lost. That is also why replaying an entire stale
    {e file} is harmless — its verdicts are the ones re-verification
    would produce. *)

module Json = Deflection_telemetry.Json
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Chaos = Deflection_chaos.Chaos

type entry = { tenant : string; key : string; mode : string; verdict : Verifier.verdict }
(** [key] is the raw 32-byte cache key the enclave derived
    ({!Deflection.Bootstrap.config}); [mode] is
    the {!Verifier.mode_label} of the verification mode the verdict was
    rendered under — redundant with the key binding (the key hashes the
    mode) but carried explicitly so recovery can refuse to warm a cache
    whose server now runs a different mode, and so an operator reading
    the sealed file can see which discipline admitted each entry. *)

(** What became of one on-disk segment at load. *)
type segment_outcome =
  | Seg_loaded of int  (** entries recovered *)
  | Seg_bad_mac  (** flip / splice / stale generation / wrong platform *)
  | Seg_malformed  (** structurally unreadable *)

type load_report = {
  found : bool;  (** a state file existed *)
  malformed : bool;  (** unparseable (torn write) — nothing loaded *)
  truncated : bool;  (** closing MAC failed (dropped/reordered/truncated tail) *)
  generation : int;  (** generation claimed by the file, 0 when none *)
  segments : segment_outcome list;
  entries_loaded : int;
  segments_discarded : int;
}

val load_report_to_json : load_report -> Json.t

type t

val recover :
  ?chaos:Chaos.t ->
  ?segment_entries:int ->
  dir:string ->
  platform:Attestation.Platform.t ->
  unit ->
  t * entry list * load_report
(** A handle on [dir]/verdict-cache.json, sealed under [platform]'s
    sealing key, with what it recovered. [segment_entries] (default 32)
    bounds entries per segment. Creates [dir] if missing.

    The state file is read once, through the hostile-host boundary, and
    verified as described above: only entries from segments whose MAC
    verifies are returned. A file that cannot be read (after retries
    under the resilience policy) or parsed is reported found and
    malformed and recovers nothing. Pending chaos [Stale_segment] /
    [Mac_corrupt] faults doctor the bytes the host serves before
    verification — the typed degradation they must produce is exactly
    what the report records.

    The handle starts at the generation the file claims (0 if there is
    none, or it cannot be read or parsed), so a restarted server's first
    save supersedes — and MAC-invalidates — every older segment. *)

val path : t -> string
val generation : t -> int

val save : ?chaos:Chaos.t -> round:int -> t -> entry list -> (unit, string) result
(** Seal [entries] as generation [generation t + 1] and atomically
    replace the state file (write-temp-then-rename), keeping the previous
    file as [path t ^ ".1"] — the stale material a hostile host can
    replay. Transient write failures are retried under the resilience
    policy; [Error] means the budget ran out (the server keeps serving,
    only warmness across a crash is lost). A pending chaos [Torn_write]
    for [round] truncates the bytes that reach the disk. *)
