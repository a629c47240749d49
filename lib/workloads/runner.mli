(** Shared measurement harness for the evaluation workloads: runs a MiniC
    program through the full DEFLECTION session under a given policy set
    and reports deterministic virtual-cycle counts. *)

module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp

type measurement = {
  policies : Policy.Set.t;
  cycles : int;
  instructions : int;
  aexes : int;
  outputs : string list;  (** decrypted plaintext records *)
  exit : Interp.exit_reason;
  telemetry : Deflection_telemetry.Telemetry.snapshot;
      (** the session's telemetry (see {!Deflection.Session.outcome}) *)
}

val run :
  ?policies:Policy.Set.t ->
  ?inputs:bytes list ->
  ?aex_interval:int option ->
  ?tm:Deflection_telemetry.Telemetry.t ->
  ?recorder:Deflection_forensics.Flight_recorder.t ->
  ?profiler:Deflection_forensics.Profiler.t ->
  string ->
  (measurement, string) result
(** Defaults: P1-P6, no inputs, AEX injected every ~2M cycles (the benign
    platform's interrupt rate), co-location always true, AEX budget high
    enough for long benchmarks. [recorder]/[profiler] attach the
    forensics instruments to the interpreter (see
    {!Deflection.Session.run}). *)

val settings : (string * Policy.Set.t) list
(** The five evaluation settings: baseline (no instrumentation), P1,
    P1+P2, P1-P5, P1-P6 — the columns of Table II. *)

val overhead : baseline:measurement -> measurement -> float
(** Relative cycle overhead in percent. *)
