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

val classification_leaders : classification -> int list
(** Sorted text offsets of the verified basic-block leaders the scan
    discovered: direct jump and call targets, function entries, abort
    stubs, the AEX handler and [_start]. The trace tier uses them (via
    {!Deflection_runtime.Interp.set_block_leaders}) to end compiled
    blocks at control-flow join points instead of re-discovering them. *)

val classification_of_leaders : int list -> classification
(** The classification a sealed verdict carries back across a restart:
    the leaders the trace tier needs, and no machinery, so every store is
    monitored. [classification_of_leaders []] classifies nothing. *)

type verdict = (report * classification, rejection) result
(** What one verification decides: acceptance with its classification, or
    the rejection. The unit a verdict cache stores and a sealed cache
    file persists. *)

val verify_classified :
  ?tm:Deflection_telemetry.Telemetry.t ->
  policies:Deflection_policy.Policy.Set.t ->
  ssa_q:int ->
  Objfile.t ->
  verdict
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
  verdict
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
  verdict
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
