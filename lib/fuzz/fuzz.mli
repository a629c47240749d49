(** Differential soundness fuzzing of the verifier pipeline: oracles,
    auto-shrinking, byte-for-byte replay and campaign driver.

    Three oracles (paper Sections IV-D, VI):

    - {b completeness}: every generated well-typed program must pass the
      verifier — a rejection is a false positive, contradicting the
      paper's zero-false-positive claim for code-generator output;
    - {b differential}: an accepted generated program must produce the
      same outputs and exit code under {!Deflection_compiler.Eval} and
      under the monitored enclave interpreter;
    - {b soundness}: every adversarial mutant must either be rejected
      (verifier or loader) or execute with {e zero} monitored P1–P5
      violations — abnormal exits (aborts, faults, denials) are
      fail-closed and count as clean.

    The witnessed verification tier adds two more, threaded through the
    same cases:

    - {b witness differential}: on every compiler output (which carries
      an honest witness) the pure witnessed tier must reproduce the
      descent verdict exactly — report, classification, and on rejection
      the (pass, offset, reason) triple; on every binary mutant, under
      an honest {e rebuilt} witness the witnessed tier must agree with
      the descent triple for triple unless it rejects in its own
      [Witness] pass, and a pure-witnessed acceptance must coincide with
      a descent acceptance (a witnessed rejection of a descent-accepted
      mutant is allowed: the unclaimed-offset sweep is strictly sounder
      on unreachable code);
    - {b witness soundness}: every {!case.Witness_mutant} — a doctored
      witness over a compliant base — must be rejected by the witnessed
      tier, or (when the mutation degenerated to a no-op) produce
      exactly the descent verdict.

    Every case is a pure function of its serialized form
    ([deflection-fuzz/1]): a [Program] case of the seed, a [Mutant] case
    of the base-program seed plus its mutation list, an explicit
    [Program_src] case of its source text and inputs. Failures are
    shrunk greedily (drop AST statements / globals / helpers; drop
    mutations) until no smaller case reproduces the same failure kind. *)

module Ast = Deflection_compiler.Ast
module Policy = Deflection_policy.Policy
module Json = Deflection_telemetry.Json

val schema : string
(** ["deflection-fuzz/1"] *)

type case =
  | Program of { seed : int64 }
      (** generated program: completeness + differential oracles *)
  | Program_src of { source : string; inputs : bytes list }
      (** explicit (typically shrunk) program case *)
  | Mutant of { prog_seed : int64; mutations : Mutate.kind list }
      (** mutated binary: soundness oracle *)
  | Witness_mutant of { prog_seed : int64; wmutations : Mutate.wkind list }
      (** doctored witness over a compliant base: witness-soundness
          oracle *)

type failure_kind = False_positive | Divergence | Soundness | Harness_error

val failure_kind_label : failure_kind -> string

type failure = { case : case; kind : failure_kind; detail : string }

(** How a clean case was dispatched (campaign accounting). *)
type clean = Accepted_ran | Rejected_static

type config = {
  policies : Policy.Set.t;  (** verified and monitored set *)
  ssa_q : int;
  instr_limit : int;
  eval_step_limit : int;
  mutations_per_case : int;  (** max mutations applied per mutant *)
  shrink_budget : int;  (** max oracle evaluations spent shrinking one case *)
}

val default_config : config

val run_case : ?config:config -> case -> (clean, failure) result
(** Run one case through its oracles. Never raises: harness exceptions
    become [Harness_error] failures. Deterministic in (config, case). *)

val shrink : ?config:config -> failure -> failure
(** Greedily minimize a failing case, preserving the failure kind. The
    result's case is [Program_src] for program cases (the shrunk source
    is no longer derivable from the seed) and [Mutant] with a mutation
    sublist for mutant cases. Idempotent once a fixpoint is reached. *)

type report = {
  base_seed : int64;
  programs : int;
  mutants : int;
  witness_mutants : int;
  programs_clean : int;
  mutants_rejected : int;  (** verifier or loader refused *)
  mutants_clean : int;  (** accepted, ran with zero violations *)
  wmutants_rejected : int;  (** witnessed tier refused the doctored witness *)
  wmutants_clean : int;
      (** mutation was a no-op; verdict matched the descent exactly *)
  verified_instructions : int;
      (** sum of verifier-report instruction counts over the campaign *)
  selftest_rejection_caught : bool;
      (** a known-bad mutant (corrupted annotation magic) was rejected *)
  selftest_monitor_caught : bool;
      (** a spliced raw store past an unsound (empty) verification policy
          was flagged by the runtime monitors *)
  selftest_witness_caught : bool;
      (** a known-lying witness (flipped text digest) was rejected by the
          [Witness] pass *)
  failures : (failure * failure) list;  (** (original, shrunk) pairs *)
}

val campaign :
  ?config:config ->
  ?on_case:(int -> unit) ->
  ?witness_mutants:int ->
  base_seed:int64 ->
  programs:int ->
  mutants:int ->
  unit ->
  report
(** Fixed-seed campaign: [programs] generated-program cases, [mutants]
    mutant cases and [witness_mutants] (default 0) doctored-witness
    cases, all derived from [base_seed], plus the three harness
    self-tests. Every failure is shrunk before reporting. [on_case] is
    called with a running case index (progress display). *)

val case_to_json : case -> Json.t
val case_of_json : Json.t -> (case, string) result
(** Round-trip: [case_of_json (case_to_json c) = Ok c]. *)

val failure_to_json : failure -> Json.t
val report_to_json : report -> Json.t
(** Top-level object carries ["schema"] = {!schema}; suitable for
    [json_check --fuzz]. *)
