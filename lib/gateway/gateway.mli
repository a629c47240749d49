(** Verify-once/admit-many serving gateway.

    A gateway drives a batch of independent CCaaS sessions — each its own
    bootstrap enclave, attestation handshakes, sealed delivery, execution
    and output decryption — through two shared fast paths:

    - a {!Verdict_cache} of verdicts under the key each enclave derives
      from the delivered binary (SHA-256 of the serialized objfile) bound
      to the verification mode, the enforced policy set and the SSA
      inspection period, so N sessions of the same binary pay the
      in-enclave verifier pass once; and
    - compile-once sharing: each distinct (source, policy set) pair is
      compiled a single time and the objfile handed to every session that
      delivers it.

    Batches fan out over 1..K OCaml domains. The dispatch is an atomic
    work-stealing index, results land in per-job slots, and telemetry
    counters are summed after the join, so a batch's results and merged
    counters are identical regardless of the worker count — the property
    [suite_gateway] pins with a K=1 vs K=4 diff. *)

module Session = Deflection.Session
module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Telemetry = Deflection_telemetry.Telemetry
module Hdr = Deflection_telemetry.Hdr
module Audit = Deflection_audit.Audit

type job = {
  label : string;  (** caller-chosen name, echoed in the result *)
  source : string;  (** MiniC source the code provider ships *)
  compile_policies : Policy.Set.t option;
      (** policy set the binary is {e annotated} for; [None] compiles for
          the batch's enforced set. A mismatching subset (e.g. compiling
          for P1-P4 under a P1-P6 gateway) is the canonical way to get a
          verifier rejection into a batch. *)
  inputs : bytes list;  (** the data owner's chunks *)
  seed : int64;
}

val job :
  ?compile_policies:Policy.Set.t ->
  ?inputs:bytes list ->
  ?seed:int64 ->
  label:string ->
  string ->
  job
(** [job ~label source] with defaults: compile for the batch policy set,
    no inputs, seed 1. *)

type session_result = {
  label : string;
  seed : int64;
  outcome : (Session.outcome, Session.error) result;
  exit_code : int;  (** {!Session.process_exit_code} of [outcome] *)
}

type batch = {
  results : session_result list;  (** in job order, independent of [workers] *)
  counters : (string * int) list;
      (** telemetry counters summed over every session, sorted by name —
          equal to the sequential totals for any worker count *)
  cache_stats : Verdict_cache.stats option;
      (** verdict-cache accounting, when a cache was supplied *)
  distinct_binaries : int;
      (** distinct (source, policy set) pairs compiled up front (0 on the
          cold path, which compiles per session) *)
  workers : int;  (** domains actually used: [min jobs (max n 1)] *)
  latencies : (string * Hdr.t) list;
      (** per-stage wall-clock latency histograms, sorted by name: one
          family per session span name ([session], [verify], [compile],
          [execute], [deliver], ...) plus [session.cache_hit] /
          [session.cache_miss] splitting whole-session latency by
          verdict-cache outcome, and one [verifier.pass.*] family per
          instrumented verifier pass ([decode], [p1_store], [p2_rsp],
          [p5_cfi], [p5_stack], [p6_ssa]) — each session that ran a
          fresh verifier pass contributes one per-pass nanosecond
          sample. Per-worker instances are merged exactly
          at join, so sample {e counts} are schedule-independent; the
          recorded durations are wall-clock and belong in the
          timing-variant part of any export. *)
  trace : Telemetry.snapshot option;
      (** the grafted batch trace — root [gateway.batch] span, one
          [worker.K] lane per domain, every session's span tree
          re-parented under its lane — when a tracing registry was
          passed; [None] otherwise *)
}

val run_batch :
  ?jobs:int ->
  ?policies:Policy.Set.t ->
  ?ssa_q:int ->
  ?layout:Deflection_enclave.Layout.config ->
  ?cache:Verdict_cache.t ->
  ?interp:Session.Interp.config ->
  ?resilience_config:Session.Resilience.config ->
  ?audit:Audit.Log.t ->
  ?verification:Verifier.mode ->
  ?tm:Telemetry.t ->
  job list ->
  batch
(** Run every job to completion and return the batch in job order.

    [jobs] (default 1) is the domain fan-out; [invalid_arg] when < 1.
    [policies] (default P1-P6) and [ssa_q] (default 20) are the gateway's
    enforced verification configuration, shared by every session.

    [interp] and [resilience_config] are handed to every session
    unchanged — a multi-tenant server uses them to impose a per-tenant
    fuel budget and per-stage retry/timeout bounds on a tenant's whole
    sub-batch.

    [cache] enables the warm path: the verdict cache is consulted by each
    enclave's binary-delivery ECall ({e both} acceptances and rejections
    are cached), and distinct sources are compiled once up front. Omit it
    for the cold baseline, where every session compiles and verifies its
    own delivery from scratch.

    [audit] (default none) attaches a shared admission audit log: every
    session's delivery verdict appends one hash-chained record,
    attributed to the worker lane that ran the session (lane 0 is the
    calling domain). Appends are serialised by the log itself; the
    record {e set} minus seq/lane is schedule-independent, matching the
    batch's determinism contract.

    [verification] (default [Verifier.Descent]) selects each session's
    verification mode (descent or witnessed) — part of every enclave's
    measured identity and of the verdict-cache key, so batches under
    different modes never share cache entries.

    [tm] (default {!Telemetry.disabled}) is the batch-level registry: the
    dispatch runs under a [gateway.batch] root span on it, and when it is
    {e tracing} (ring or custom sink) every session additionally records
    into its own ring sink and [batch.trace] carries the grafted
    one-tree snapshot. Stage latency histograms are collected whether or
    not [tm] traces. *)
