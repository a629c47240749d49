(* The execution-tier equivalence gate. The trace tier (compiled basic
   blocks, fused superinstructions) must be observationally identical to
   the single-stepper: same exit reason, same registers and flags, same
   fuel and cycle accounting, same SSA bytes after AEX storms, same leak
   log, same per-class histograms. This suite is the differential
   harness that enforces it:

   - a seeded fuzz sweep (default 200 programs, [DEFLECTION_TIER_SEEDS]
     overrides) runs every generated program under both tiers and
     compares the full observable state, shrinking the instruction limit
     to a minimal diverging repro before failing;
   - generation-bump tests pin that code writes invalidate compiled
     traces exactly like the decode cache, both between runs and mid-run
     (an OCall handler patching a live loop);
   - forced-fallback tests pin that chaos plans and the fuzz monitor
     (which need per-instruction observation) reach verdicts identical
     to an unmonitored trace-tier run, and that the run names why it
     left the trace tier;
   - the committed nBench golden digests are re-asserted under both
     tiers for a subset of workloads, and the trace run's counters are
     pinned exactly. *)

module Gen = Deflection_fuzz.Gen
module Monitor = Deflection_fuzz.Monitor
module Frontend = Deflection_compiler.Frontend
module Codegen = Deflection_compiler.Codegen
module Policy = Deflection_policy.Policy
module Annot = Deflection_annot.Annot
module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Loader = Deflection_loader.Loader
module Verifier = Deflection_verifier.Verifier
module Interp = Deflection_runtime.Interp
module Isa = Deflection_isa.Isa
module Asm = Deflection_isa.Asm
module Objfile = Deflection_isa.Objfile
module Session = Deflection.Session
module Chaos = Deflection_chaos.Chaos
module Sha256 = Deflection_crypto.Sha256
module W = Deflection_workloads

let policies = Policy.Set.p1_p6
let compile_exn src = Frontend.compile_exn ~policies ~ssa_q:20 src

(* ------------------------------------------------------------------ *)
(* The dual-tier executor: the full in-enclave admission pipeline
   (load, verify, immediate rewrite, leader export) followed by a bare
   interpreter run — no session machinery, so every observable below is
   produced by the tier under test and nothing else. OCall semantics
   mirror the fuzz monitor's wrappers exactly. *)

type obs = {
  o_exit : string;
  o_rip : int;
  o_flags : int64;
  o_regs : (string * int64) list;
  o_cycles : int;
  o_instrs : int;
  o_aexes : int;
  o_ocalls : int;
  o_classes : (string * int) list;
  o_ssa : string;  (* raw SSA region bytes *)
  o_leaks : (int * int) list;
  o_leaked : int;
  o_outputs : string list;
  o_generation : int;
}

let run_obj ~tier ~instr_limit ~aex_interval ~aex_seed ~inputs (obj : Objfile.t) =
  let layout = Layout.make Layout.default_config in
  let mem = Memory.create layout in
  let loaded =
    match Loader.load mem ~aex_threshold:1_000_000 obj with
    | Ok l -> l
    | Error e -> failwith ("tier harness: load refused: " ^ Loader.error_to_string e)
  in
  let cls =
    match Verifier.verify_classified ~policies ~ssa_q:obj.Objfile.ssa_q obj with
    | Ok (_report, cls) -> cls
    | Error r -> failwith (Format.asprintf "tier harness: rejected: %a" Verifier.pp_rejection r)
  in
  (match Loader.rewrite_imms mem loaded ~policies with
  | Ok _ -> ()
  | Error e -> failwith ("tier harness: rewrite failed: " ^ Loader.error_to_string e));
  let outputs = ref [] in
  let input_queue = ref inputs in
  let buffer_ok addr nelems =
    nelems >= 0
    && nelems <= 1 lsl 20
    && addr >= layout.Layout.data_lo
    && addr + (8 * nelems) <= layout.Layout.stack_hi
  in
  let ocall index itp =
    let rdi = Int64.to_int (Interp.read_reg itp Isa.RDI) in
    let rsi = Int64.to_int (Interp.read_reg itp Isa.RSI) in
    if index = Codegen.ocall_print then begin
      outputs := Int64.to_string (Interp.read_reg itp Isa.RDI) :: !outputs;
      Interp.write_reg itp Isa.RAX 0L;
      Interp.Continue
    end
    else if index = Codegen.ocall_send then
      if not (buffer_ok rdi rsi) then Interp.Halt (Interp.Ocall_denied index)
      else begin
        let b = Bytes.create rsi in
        for i = 0 to rsi - 1 do
          let v = Memory.priv_read_u64 mem (rdi + (8 * i)) in
          Bytes.set b i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
        done;
        outputs := Bytes.to_string b :: !outputs;
        Interp.write_reg itp Isa.RAX (Int64.of_int rsi);
        Interp.Continue
      end
    else if index = Codegen.ocall_recv then
      if not (buffer_ok rdi rsi) then Interp.Halt (Interp.Ocall_denied index)
      else begin
        (match !input_queue with
        | [] -> Interp.write_reg itp Isa.RAX 0L
        | chunk :: rest ->
          input_queue := rest;
          let k = min rsi (Bytes.length chunk) in
          for i = 0 to k - 1 do
            Memory.priv_write_u64 mem (rdi + (8 * i))
              (Int64.of_int (Char.code (Bytes.get chunk i)))
          done;
          Interp.write_reg itp Isa.RAX (Int64.of_int k));
        Interp.Continue
      end
    else Interp.Halt (Interp.Ocall_denied index)
  in
  let config =
    {
      Interp.default_config with
      Interp.instr_limit;
      aex_interval;
      aex_seed;
      colocated_prob = 0.5;
      tier;
    }
  in
  let itp = Interp.create ~config ~ocall mem in
  Interp.init_stack itp;
  Interp.write_reg itp Annot.shadow_stack_reg (Int64.of_int (Layout.ss_stack_base layout));
  Interp.set_block_leaders itp
    (List.map
       (fun off -> loaded.Loader.text_base + off)
       (Verifier.classification_leaders cls));
  let exit = Interp.run itp ~entry:loaded.Loader.entry_addr in
  {
    o_exit = Interp.exit_reason_to_string exit;
    o_rip = Interp.rip itp;
    o_flags = Interp.flags_word itp;
    o_regs = Interp.register_file itp;
    o_cycles = Interp.cycles itp;
    o_instrs = Interp.instructions itp;
    o_aexes = Interp.aex_count itp;
    o_ocalls = Interp.ocall_count itp;
    o_classes = Interp.class_counts itp;
    o_ssa =
      Bytes.to_string
        (Memory.priv_read_bytes mem layout.Layout.ssa_lo
           (layout.Layout.ssa_hi - layout.Layout.ssa_lo));
    o_leaks = Memory.leak_log mem;
    o_leaked = Memory.leaked_bytes mem;
    o_outputs = List.rev !outputs;
    o_generation = Memory.code_generation mem;
  }

(* Render each observable to a comparable string; the first differing
   field names the divergence in the failure report. *)
let obs_fields (o : obs) =
  [
    ("exit", o.o_exit);
    ("rip", string_of_int o.o_rip);
    ("flags", Int64.to_string o.o_flags);
    ( "registers",
      String.concat ";" (List.map (fun (n, v) -> n ^ "=" ^ Int64.to_string v) o.o_regs) );
    ("cycles", string_of_int o.o_cycles);
    ("instructions", string_of_int o.o_instrs);
    ("aexes", string_of_int o.o_aexes);
    ("ocalls", string_of_int o.o_ocalls);
    ( "class_counts",
      String.concat ";" (List.map (fun (n, c) -> n ^ "=" ^ string_of_int c) o.o_classes) );
    ("ssa_sha256", Sha256.hex_digest_string o.o_ssa);
    ( "leak_log",
      string_of_int o.o_leaked ^ ":"
      ^ String.concat ";"
          (List.map (fun (a, v) -> Printf.sprintf "%#x=%d" a v) o.o_leaks) );
    ("outputs", String.concat "|" o.o_outputs);
    ("code_generation", string_of_int o.o_generation);
  ]

let diff_obs a b =
  let rec go = function
    | [], [] -> None
    | (n, x) :: xs, (_, y) :: ys -> if String.equal x y then go (xs, ys) else Some (n, x, y)
    | _ -> Some ("field-count", "", "")
  in
  go (obs_fields a, obs_fields b)

(* ------------------------------------------------------------------ *)
(* The differential fuzz sweep *)

let seed_count () =
  match Sys.getenv_opt "DEFLECTION_TIER_SEEDS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 200)
  | None -> 200

(* Binary-search the instruction limit down to a minimal diverging
   repro: [diverges hi] holds on entry and on the returned limit. *)
let shrink_limit ~diverges hi =
  let rec go lo hi =
    if lo >= hi then hi
    else
      let mid = lo + ((hi - lo) / 2) in
      if diverges mid then go lo mid else go (mid + 1) hi
  in
  go 1 hi

let test_differential () =
  let n = seed_count () in
  for i = 1 to n do
    let seed = Int64.of_int (1000 + i) in
    let g = Gen.generate ~seed in
    let obj = compile_exn g.Gen.source in
    (* vary the schedule so truncation points and AEX storms land inside
       compiled blocks, not only at block boundaries *)
    let instr_limit = if i mod 10 = 0 then 777 else 400_000 in
    let aex_interval = if i mod 7 = 0 then Some 150 else Some 4_000 in
    let aex_seed = Int64.of_int ((31 * i) + 7) in
    let diff lim =
      let run tier =
        run_obj ~tier ~instr_limit:lim ~aex_interval ~aex_seed ~inputs:g.Gen.inputs obj
      in
      diff_obs (run Interp.Step) (run Interp.Trace)
    in
    match diff instr_limit with
    | None -> ()
    | Some _ ->
      let l = shrink_limit ~diverges:(fun lim -> diff lim <> None) instr_limit in
      let field, s, t =
        match diff l with Some d -> d | None -> ("unstable-divergence", "", "")
      in
      Alcotest.failf
        "tiers diverged at seed %Ld (shrunk repro: instr_limit=%d, aex_interval=%s, \
         aex_seed=%Ld): %s differs\n\
        \  step : %s\n\
        \  trace: %s\n\
         program:\n\
         %s"
        seed l
        (match aex_interval with Some v -> string_of_int v | None -> "none")
        aex_seed field s t g.Gen.source
  done

(* ------------------------------------------------------------------ *)
(* Generation bumps invalidate compiled traces like the decode cache *)

let write_program mem layout items =
  let a = Asm.assemble items in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  a

let bare_interp ?ocall ~tier mem =
  let ocall =
    match ocall with
    | Some f -> f
    | None -> fun index _ -> Interp.Halt (Interp.Ocall_denied index)
  in
  let config = { Interp.default_config with Interp.aex_interval = None; tier } in
  let itp = Interp.create ~config ~ocall mem in
  Interp.init_stack itp;
  itp

let test_patch_between_runs () =
  let layout = Layout.make Layout.default_config in
  let mem = Memory.create layout in
  let _ =
    write_program mem layout
      [ Asm.Ins (Isa.Mov (Isa.Reg Isa.RAX, Isa.Imm 1L)); Asm.Ins Isa.Hlt ]
  in
  let itp = bare_interp ~tier:Interp.Trace mem in
  let entry = layout.Layout.code_lo in
  Alcotest.(check string) "first run" "exited(1)"
    (Interp.exit_reason_to_string (Interp.run itp ~entry));
  Alcotest.(check bool) "trace cache populated" true (Interp.trace_cache_size itp > 0);
  Alcotest.(check bool) "decode cache populated" true (Interp.decode_cache_size itp > 0);
  let tcs = Interp.trace_cache_size itp in
  (* re-running without a code write reuses the compiled trace: the
     cache is keyed by generation, not by run boundaries *)
  Alcotest.(check string) "re-run, same code" "exited(1)"
    (Interp.exit_reason_to_string (Interp.run itp ~entry));
  Alcotest.(check int) "cache retained across runs" tcs (Interp.trace_cache_size itp);
  let gen0 = Memory.code_generation mem in
  let _ =
    write_program mem layout
      [ Asm.Ins (Isa.Mov (Isa.Reg Isa.RAX, Isa.Imm 5L)); Asm.Ins Isa.Hlt ]
  in
  Alcotest.(check bool) "generation bumped" true (Memory.code_generation mem > gen0);
  (* a stale compiled trace would still return 1 *)
  Alcotest.(check string) "patched code executes" "exited(5)"
    (Interp.exit_reason_to_string (Interp.run itp ~entry))

(* An OCall handler patches the loop body while the loop's compiled
   trace is hot: the generation bump must force recompilation before
   the next iteration, exactly as the decode cache would re-decode. *)
let patch_loop_exit tier =
  let layout = Layout.make Layout.default_config in
  let mem = Memory.create layout in
  let a =
    write_program mem layout
      [
        Asm.Ins (Isa.Mov (Isa.Reg Isa.RCX, Isa.Imm 0L));
        Asm.Label "loop";
        Asm.Ins (Isa.Mov (Isa.Reg Isa.RAX, Isa.Imm 1L));
        Asm.Ins (Isa.Ocall 5);
        Asm.Ins (Isa.Unop (Isa.Inc, Isa.Reg Isa.RCX));
        Asm.Ins (Isa.Cmp (Isa.Reg Isa.RCX, Isa.Imm 2L));
        Asm.Ins (Isa.Jcc (Isa.L, Isa.Lab "loop"));
        Asm.Ins Isa.Hlt;
      ]
  in
  let patch_off = List.assoc "loop" a.Asm.label_offsets in
  let patched = Asm.assemble [ Asm.Ins (Isa.Mov (Isa.Reg Isa.RAX, Isa.Imm 2L)) ] in
  let calls = ref 0 in
  let ocall index _ =
    if index = 5 then begin
      if !calls = 0 then
        Memory.priv_write_bytes mem (layout.Layout.code_lo + patch_off) patched.Asm.code;
      incr calls;
      Interp.Continue
    end
    else Interp.Halt (Interp.Ocall_denied index)
  in
  let itp = bare_interp ~ocall ~tier mem in
  let exit = Interp.run itp ~entry:layout.Layout.code_lo in
  (Interp.exit_reason_to_string exit, !calls)

let test_patch_mid_run () =
  (* the last loop iteration runs the patched mov: a stale trace would
     exit with 1; both tiers must see 2 *)
  let trace = patch_loop_exit Interp.Trace in
  let step = patch_loop_exit Interp.Step in
  Alcotest.(check (pair string int)) "trace tier sees the patch" ("exited(2)", 2) trace;
  Alcotest.(check (pair string int)) "tiers agree" step trace

(* ------------------------------------------------------------------ *)
(* Forced fallback: chaos plans and the fuzz monitor pin the
   single-step tier; their verdicts must match trace-tier runs. *)

let off_reason (o : Session.outcome) reason =
  List.assoc_opt ("interp.trace.off." ^ reason) o.Session.telemetry.counters

let chaos_outcomes_match ~fault src inputs =
  let plan = { Chaos.seed = 77L; faults = [ fault ] } in
  let run tier =
    let interp = { Interp.default_config with Interp.tier } in
    match
      Session.run ~interp ~seed:42L ~chaos:(Chaos.of_plan plan) ~source:src ~inputs ()
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "chaos session failed: %s" (Session.error_to_string e)
  in
  let a = run Interp.Step and b = run Interp.Trace in
  Alcotest.(check string) "exit"
    (Interp.exit_reason_to_string a.Session.exit)
    (Interp.exit_reason_to_string b.Session.exit);
  Alcotest.(check int) "cycles" a.Session.cycles b.Session.cycles;
  Alcotest.(check int) "instructions" a.Session.instructions b.Session.instructions;
  Alcotest.(check int) "aexes" a.Session.aexes b.Session.aexes;
  Alcotest.(check bool) "outputs" true (a.Session.outputs = b.Session.outputs);
  Alcotest.(check (option int)) "the step tier is named as the reason" (Some 1)
    (off_reason b "step_tier");
  a

let fallback_src = (Gen.generate ~seed:4242L).Gen.source
let fallback_inputs = (Gen.generate ~seed:4242L).Gen.inputs

let test_fallback_aex_storm () =
  let o =
    chaos_outcomes_match ~fault:(Chaos.Aex_storm { interval = 40 }) fallback_src
      fallback_inputs
  in
  Alcotest.(check bool) "storm actually fired" true (o.Session.aexes > 0)

let test_fallback_fuel_limit () =
  let o =
    chaos_outcomes_match ~fault:(Chaos.Fuel_limit { fuel = 50 }) fallback_src
      fallback_inputs
  in
  Alcotest.(check bool) "watchdog fired" true (o.Session.exit = Interp.Fuel_exhausted);
  Alcotest.(check (option int)) "the fuel budget is named as a reason" (Some 1)
    (off_reason o "fuel")

let test_monitor_matches_trace () =
  (* the P1-P5 monitor single-steps with its own pre/post hooks; a clean
     program's verdict must agree with an unmonitored trace-tier run *)
  List.iter
    (fun s ->
      let g = Gen.generate ~seed:(Int64.of_int s) in
      let obj = compile_exn g.Gen.source in
      match Monitor.run ~inputs:g.Gen.inputs ~policies ~ssa_q:20 obj with
      | Monitor.Executed e ->
        let o =
          run_obj ~tier:Interp.Trace ~instr_limit:2_000_000 ~aex_interval:None
            ~aex_seed:0L ~inputs:g.Gen.inputs obj
        in
        Alcotest.(check string)
          (Printf.sprintf "seed %d exit" s)
          (Interp.exit_reason_to_string e.Monitor.exit)
          o.o_exit;
        Alcotest.(check (list string)) (Printf.sprintf "seed %d outputs" s)
          e.Monitor.outputs o.o_outputs;
        Alcotest.(check int) (Printf.sprintf "seed %d instructions" s)
          e.Monitor.instructions o.o_instrs;
        Alcotest.(check int) (Printf.sprintf "seed %d leaked" s)
          e.Monitor.leaked_bytes o.o_leaked;
        Alcotest.(check int) (Printf.sprintf "seed %d violations" s) 0
          (List.length e.Monitor.violations)
      | Monitor.Rejected r ->
        Alcotest.failf "seed %d rejected: %s" s
          (Format.asprintf "%a" Verifier.pp_rejection r)
      | Monitor.Load_refused m -> Alcotest.failf "seed %d load refused: %s" s m)
    [ 11; 23; 57 ]

(* ------------------------------------------------------------------ *)
(* The committed golden nBench digests, re-asserted by both tiers *)

(* `dune runtest` runs from the sandboxed test directory, `dune exec
   test/main.exe` from the workspace root: accept either anchor *)
let golden_path =
  let rel = Filename.concat "bench" (Filename.concat "golden" "nbench.sha256") in
  if Sys.file_exists rel then rel else Filename.concat ".." rel

let read_golden () =
  try
    let ic = open_in golden_path in
    let rec go acc =
      match input_line ic with
      | line -> (
        let line = String.trim line in
        match String.rindex_opt line ' ' with
        | Some i ->
          let name = String.sub line 0 i
          and hex = String.sub line (i + 1) (String.length line - i - 1) in
          go ((name, hex) :: acc)
        | None -> go acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    Some (go [])
  with Sys_error _ -> None

(* The trace run's schedule-independent counters, pinned exactly: a run
   forced onto the step tier, chaining that stops using its successor
   slots, or blocks that stop at the wrong place each move them. Each
   injected AEX (one in NUMERIC SORT, two in IDEA) dumps the SSA through
   a privileged write, which moves the code generation: that is the
   invalidation count. *)
let trace_golden =
  [
    ( "NUMERIC SORT",
      [
        ("interp.instructions", 3_075_766);
        ("interp.cycles", 1_992_058);
        ("interp.trace.in_block", 3_075_758);
        ("interp.trace.steps.boundary", 6);
        ("interp.trace.steps.no_block", 2);
        ("interp.trace.blocks_compiled", 579);
        ("interp.trace.lookups", 616);
        ("interp.trace.invalidations", 1);
      ] );
    ( "IDEA",
      [
        ("interp.instructions", 2_794_220);
        ("interp.cycles", 2_807_164);
        ("interp.trace.in_block", 2_794_214);
        ("interp.trace.steps.boundary", 4);
        ("interp.trace.steps.no_block", 2);
        ("interp.trace.blocks_compiled", 1_177);
        ("interp.trace.lookups", 1_219);
        ("interp.trace.invalidations", 2);
      ] );
  ]

let test_golden_digests () =
  match read_golden () with
  | None -> Alcotest.failf "golden digest file missing: %s" golden_path
  | Some golden ->
    List.iter
      (fun (name, counters) ->
        let b =
          match W.Nbench.find name with
          | Some b -> b
          | None -> Alcotest.failf "unknown workload %s" name
        in
        let run tier =
          match W.Runner.run ~tier b.W.Nbench.source with
          | Ok m -> m
          | Error e -> Alcotest.failf "%s failed: %s" name e
        in
        let digest m = Sha256.hex_digest_string (String.concat "\n" m.W.Runner.outputs) in
        let ds = digest (run Interp.Step) in
        let mt = run Interp.Trace in
        let dt = digest mt in
        Alcotest.(check string) (name ^ ": tiers agree") ds dt;
        (match List.assoc_opt name golden with
        | Some hex -> Alcotest.(check string) (name ^ ": matches golden") hex dt
        | None -> Alcotest.failf "%s: no golden digest committed" name);
        let value k =
          Option.value ~default:(-1) (List.assoc_opt k mt.W.Runner.telemetry.counters)
        in
        Alcotest.(check (list (pair string int)))
          (name ^ ": trace counters") counters
          (List.map (fun (k, _) -> (k, value k)) counters))
      trace_golden

let suite =
  [
    Alcotest.test_case "differential: seeded sweep, both tiers byte-identical" `Slow
      test_differential;
    Alcotest.test_case "generation bump invalidates traces between runs" `Quick
      test_patch_between_runs;
    Alcotest.test_case "generation bump invalidates traces mid-run (ocall patch)" `Quick
      test_patch_mid_run;
    Alcotest.test_case "fallback: AEX storm verdict identical across tiers" `Quick
      test_fallback_aex_storm;
    Alcotest.test_case "fallback: fuel limit verdict identical across tiers" `Quick
      test_fallback_fuel_limit;
    Alcotest.test_case "fallback: monitor verdict matches unmonitored trace run" `Quick
      test_monitor_matches_trace;
    Alcotest.test_case "golden nBench digests hold under both tiers" `Slow
      test_golden_digests;
  ]
