(** The in-enclave proof verifier (paper Sections IV-D and V-B).

    A clipped recursive-descent disassembler walks the relocated target
    binary from its entry, following direct control flow and using the
    indirect-branch list to continue at indirect targets, and checks that:

    - every explicit memory store is immediately preceded by a correctly
      constructed Figure-5 bounds annotation (P1/P3/P4);
    - every instruction that writes RSP is immediately followed by the
      stack-range annotation (P2);
    - every indirect call/jump is reached only through the branch-table
      scan with the target in R10, every RET only through the verified
      shadow-stack epilogue, every function entry carries the shadow-stack
      prologue, and no branch target lands {e inside} an annotation or
      between instructions (P5);
    - every basic-block entry begins with an SSA-marker inspection and
      straight-line runs are inspected at least every [q] instructions
      (P6);
    - annotation immediates still hold the expected magic placeholders
      (the imm rewriter runs only after acceptance).

    Any failure rejects the binary. The verifier never modifies the code. *)

module Objfile = Deflection_isa.Objfile

(** Which verification pass rejected the binary (forensics uses this to
    explain verdicts). [Witness] rejections mean the {e witness} was bad —
    absent, stale, structurally invalid, or lying about the code — not
    that the binary itself was proven non-compliant. *)
type pass = Symbols | Scan | Cfg | Witness

val pass_label : pass -> string
(** ["symbols"] | ["scan"] | ["cfg"] | ["witness"]. *)

val pass_of_label : string -> pass option
(** Inverse of {!pass_label}; [None] for any other string. *)

(** How a binary is verified (threaded through
    [Bootstrap.config.verification]):

    - [Descent] — the classic recursive-descent discovery above.
    - [Witnessed] — {!verify_witnessed}: one linear witness-checked pass.
      Requires a witness; strictly sounder than descent (a witness-pass
      rejection may fire on dead code the descent never looks at, and
      the host can resubmit such a binary under [Descent]). *)
type mode = Descent | Witnessed

val mode_label : mode -> string
(** ["descent"] | ["witnessed"]. *)

val mode_of_label : string -> mode option

type rejection = { pass : pass; offset : int; reason : string }

val pp_rejection : Format.formatter -> rejection -> unit

type report = {
  instructions_checked : int;  (** decoded instructions, annotations included *)
  store_annotations : int;
  rsp_annotations : int;
  cfi_annotations : int;
  prologues : int;
  epilogues : int;
  ssa_checks : int;
}

val pp_report : Format.formatter -> report -> unit

(** Structural classification of the accepted binary's text offsets, for
    runtime policy monitors: which instruction starts belong to verified
    Figure-5 annotation machinery (and thus legitimately touch the shadow
    stack, counter cells and SSA marker), and which are the guarded target
    stores those groups protect (still subject to bounds monitoring). *)
type classification

val is_machinery : classification -> int -> bool
(** [is_machinery c off] — [off] is an instruction start inside a matched
    annotation group, {e excluding} the guarded store itself. *)

val is_guarded_store : classification -> int -> bool
(** [is_guarded_store c off] — [off] is the store instruction a Figure-5
    bounds template protects. *)

val empty_classification : unit -> classification
(** A classification with no machinery — every store is monitored. *)

val classification_offsets : classification -> int list * int list
(** [(machinery, guarded_stores)] as sorted offset lists — the flat view a
    persistence layer serializes. *)

val classification_of_offsets :
  machinery:int list -> guarded_stores:int list -> classification
(** Rebuild a classification from {!classification_offsets} output, sized
    by the largest offset given (a negative one raises [Invalid_argument]).
    The rebuilt value has no {!classification_leaders} — persisted verdicts
    drop the block-boundary hint, never soundness. *)

val classification_leaders : classification -> int list
(** Sorted text offsets of the verified basic-block leaders the scan
    discovered: direct jump and call targets, function entries, abort
    stubs, the AEX handler and [_start]. The trace tier uses them (via
    {!Deflection_runtime.Interp.set_block_leaders}) to end compiled
    blocks at control-flow join points instead of re-discovering them. *)

val verify_classified :
  ?tm:Deflection_telemetry.Telemetry.t ->
  policies:Deflection_policy.Policy.Set.t ->
  ssa_q:int ->
  Objfile.t ->
  (report * classification, rejection) result
(** Like {!verify}, but on acceptance also returns the offset
    classification a runtime policy monitor needs to distinguish verified
    machinery stores from target-code stores. *)

val verify :
  ?tm:Deflection_telemetry.Telemetry.t ->
  policies:Deflection_policy.Policy.Set.t ->
  ssa_q:int ->
  Objfile.t ->
  (report, rejection) result
(** Verify the (unrelocated or relocated — annotations are unaffected by
    relocation) target binary against the policy set.

    [tm] (default disabled) gets a ["verify"] span with
    ["verify.symbols"]/["verify.scan"]/["verify.cfg"] children; acceptance
    bumps the ["verifier.instructions"] and ["verifier.annot.*"] counters,
    rejection emits a ["verifier.reject"] event. *)

val verify_witnessed :
  ?tm:Deflection_telemetry.Telemetry.t ->
  policies:Deflection_policy.Policy.Set.t ->
  ssa_q:int ->
  Objfile.t ->
  (report * classification, rejection) result
(** Witness-checked verification: one linear scan instead of recursive
    re-discovery. The binary's witness section is validated structurally
    (every claimed boundary re-decoded; no gap may hide a decodable
    instruction; branch, leader and site claims anchored and cross-decoded;
    text digest checked against the delivered bytes), then the control-flow
    replay consults the claim table — running exactly the one claimed
    Figure-5 matcher at claimed sites and only the plain-instruction policy
    gates elsewhere — and finally a lying-by-omission sweep checks that no
    unreached claimed boundary holds a store, RSP write, indirect branch or
    shadow-stack write the witness failed to claim.

    For an honest witness every rejection in reachable code carries the
    exact (pass, offset, reason) triple {!verify_classified} produces, and
    acceptance yields an identical report and classification. Witness
    defects reject with [pass = Witness]. A binary without a witness is a
    [Witness]-pass rejection. Adds ["verify.witness"]/["verify.sweep"]
    spans around the shared ["verify.*"] tree. *)

val verify_mode :
  ?tm:Deflection_telemetry.Telemetry.t ->
  mode:mode ->
  policies:Deflection_policy.Policy.Set.t ->
  ssa_q:int ->
  Objfile.t ->
  (report * classification, rejection) result
(** Dispatch on {!mode}. *)

(** Witness construction — the untrusted generator's half of the
    proof-carrying admission protocol (ROADMAP item 3). *)
module Witness : sig
  val build : Objfile.t -> Objfile.witness
  (** Derive an honest witness from the bytes: greedy linear instruction
      boundaries (one-byte resync across undecodable input), annotation
      sites wherever a canonical Figure-5 template matches, direct-branch
      records outside claimed groups, block leaders, and the text digest.
      Total on arbitrary binaries — for a non-compliant binary the witness
      faithfully describes the violation and the checker rejects with the
      descent's triple. *)

  val attach : Objfile.t -> Objfile.t
  (** [attach obj] is [obj] with [witness = Some (build obj)]. *)
end

(** Measurement-keyed verdict cache: verify once, admit many.

    The key is the SHA-256 of the serialized objfile bytes (the exact
    record the code provider sealed — the measurement of the delivered
    code) bound to the enforced policy set and the SSA inspection period;
    the value is the full verdict, acceptance (report + classification)
    {e or} rejection. A gateway serving N sessions of the same binary
    under the same policy configuration pays the verifier pass once and
    admits (or refuses) the other N-1 from the cache.

    Thread-safe: lookups are single-flight — concurrent sessions racing
    on the same uncached key block on the one in-flight verification
    instead of duplicating it, so hit/miss totals depend only on the
    request multiset, never on the domain schedule. Bounded: settled
    entries are evicted least-recently-used once the table exceeds its
    capacity. *)
module Cache : sig
  type t

  type stats = {
    hits : int;  (** lookups answered from (or merged into) a cached verdict *)
    misses : int;  (** lookups that had to run the verifier *)
    evictions : int;
    entries : int;  (** current table size *)
    capacity : int;
  }

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 64, must be positive) bounds the settled-entry
      count; the least-recently-used verdict is evicted on overflow. *)

  val capacity : t -> int
  val stats : t -> stats

  val stats_to_list : stats -> (string * int) list
  (** [("hits", h); ("misses", m); ...] — for JSON/telemetry export. *)

  val key :
    mode:mode ->
    policies:Deflection_policy.Policy.Set.t ->
    ssa_q:int ->
    serialized:bytes ->
    string
  (** The 32-byte cache key (raw SHA-256 digest). Binds the verification
      mode alongside policies, period and the exact
      serialized objfile — which itself contains the witness section, so
      the witness digest is part of the measurement and distinct witnesses
      for the same text never share an entry. Verdicts can therefore never
      be served across modes. *)

  val lookup_or_verify :
    t ->
    ?tm:Deflection_telemetry.Telemetry.t ->
    key:string ->
    verify:(unit -> (report * classification, rejection) result) ->
    unit ->
    (report * classification, rejection) result * [ `Hit | `Miss ]
  (** Single-flight lookup under an arbitrary key with an injectable
      verify thunk (the cached entry points below are this applied to
      {!Verifier.verify_classified}). A raised [verify] drops the claim
      and wakes waiters, who convert to a fresh miss — a crashed
      verification never wedges its key. *)

  val set_epoch : t -> int -> unit
  (** Pin the LRU access stamp: until the next call, every lookup and
      preload records this value as its recency instead of the internal
      monotone tick. A server sets the epoch to its round number so that
      victim order under {!trim} depends only on {e which} rounds touched
      an entry, not on the domain schedule within a round; ties break on
      the key bytes. *)

  val trim : t -> capacity:int -> int
  (** Evict settled entries least-recently-used-first (ties on the access
      stamp break lexicographically on the key) until at most [capacity]
      remain; returns how many were evicted and counts them in
      {!stats}. In-flight claims are never evicted. *)

  val export : t -> (string * (report * classification, rejection) result) list
  (** All settled (key, verdict) pairs, sorted by key — the snapshot a
      persistence layer seals. In-flight claims are excluded. *)

  val preload : t -> key:string -> (report * classification, rejection) result -> unit
  (** Insert a verdict recovered from trusted storage. Never overwrites a
      live entry and does not touch hit/miss counters — a reloaded
      cache's stats measure only post-restart traffic. *)

  val verify_classified :
    t ->
    ?tm:Deflection_telemetry.Telemetry.t ->
    ?mode:mode ->
    policies:Deflection_policy.Policy.Set.t ->
    ssa_q:int ->
    serialized:bytes ->
    Objfile.t ->
    (report * classification, rejection) result
  (** Like {!Verifier.verify_mode} (default [mode] is [Descent]), but
      consult the cache first. [serialized] must be the exact bytes [obj]
      was deserialized from. [tm] (default disabled) counts
      ["verifier.cache.hit"] / ["verifier.cache.miss"]; a miss
      additionally records the usual ["verify"] span tree on [tm]. *)

  val verify_classified_outcome :
    t ->
    ?tm:Deflection_telemetry.Telemetry.t ->
    ?mode:mode ->
    policies:Deflection_policy.Policy.Set.t ->
    ssa_q:int ->
    serialized:bytes ->
    Objfile.t ->
    (report * classification, rejection) result * [ `Hit | `Miss ]
  (** {!verify_classified} plus how the verdict was obtained — [`Hit] for
      an answer from (or merged into) a cached/in-flight verdict, [`Miss]
      when this call ran the verifier under its own claim. The audit
      plane records this attribution per admission. *)
end
