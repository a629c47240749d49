module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp
module Manifest = Deflection_policy.Manifest
module Telemetry = Deflection_telemetry.Telemetry

type measurement = {
  policies : Policy.Set.t;
  cycles : int;
  instructions : int;
  aexes : int;
  outputs : string list;
  exit : Interp.exit_reason;
  telemetry : Telemetry.snapshot;
}

let bench_manifest =
  {
    Manifest.default with
    Manifest.aex_threshold = 10_000_000;
    (* long benchmarks must not exhaust the AEX budget on a benign platform *)
  }

let run ?(policies = Policy.Set.p1_p6) ?(inputs = []) ?(aex_interval = Some 2_000_000)
    ?tm ?recorder ?profiler source =
  let interp =
    {
      Interp.default_config with
      Interp.aex_interval;
      colocated_prob = 1.0;
      (* benign scheduler: the co-location test always passes *)
    }
  in
  match
    Deflection.Session.run ~policies ~manifest:bench_manifest ~interp ?tm ?recorder ?profiler
      ~source ~inputs ()
  with
  | Error e -> Error (Deflection.Session.error_to_string e)
  | Ok o ->
    (match o.Deflection.Session.exit with
    | Interp.Exited 0L ->
      Ok
        {
          policies;
          cycles = o.Deflection.Session.cycles;
          instructions = o.Deflection.Session.instructions;
          aexes = o.Deflection.Session.aexes;
          outputs = List.map Bytes.to_string o.Deflection.Session.outputs;
          exit = o.Deflection.Session.exit;
          telemetry = o.Deflection.Session.telemetry;
        }
    | other -> Error ("workload did not exit cleanly: " ^ Interp.exit_reason_to_string other))

let settings =
  [
    ("baseline", Policy.Set.none);
    ("P1", Policy.Set.p1);
    ("P1+P2", Policy.Set.p1_p2);
    ("P1-P5", Policy.Set.p1_p5);
    ("P1-P6", Policy.Set.p1_p6);
  ]

let overhead ~baseline m =
  100.0 *. (float_of_int m.cycles -. float_of_int baseline.cycles) /. float_of_int baseline.cycles
