(* The execution-tier equivalence gate. Running compiled basic blocks
   (fused superinstructions, chained, with bulk counter updates) must be
   observationally identical to retiring one instruction at a time with
   [Interp.step]: same exit reason, same registers and flags, same fuel
   and cycle accounting, same SSA bytes after AEX storms, same leak log,
   same per-class histograms, same flight-recorder and profiler streams.
   This suite is the differential harness that enforces it:

   - a seeded fuzz sweep (default 200 programs, [DEFLECTION_TIER_SEEDS]
     overrides) runs every generated program both ways with a flight
     recorder and a profiler attached and compares the full observable
     state, shrinking the instruction limit to a minimal diverging repro
     before failing; the MiniC reference evaluator, the semantics'
     independent reference, must match every normal exit, and a program
     it completes may end otherwise only where the platform cut it short;
   - generation-bump tests pin that code writes invalidate compiled code,
     both between runs and mid-run (an OCall handler patching a live
     loop);
   - chaos-plan tests pin that an AEX storm or a fuel limit injected by
     a plan runs exactly like the same schedule given as plain config,
     on compiled blocks, and that the fuzz monitor (which steps) reaches
     the verdicts of an unmonitored block run;
   - the committed nBench golden digests are re-asserted for every
     workload, and two workloads' trace counters are pinned exactly. *)

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
module Eval = Deflection_compiler.Eval
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module W = Deflection_workloads

let policies = Policy.Set.p1_p6
let compile_exn src = Frontend.compile_exn ~policies ~ssa_q:20 src

(* ------------------------------------------------------------------ *)
(* The two ways to drive the interpreter: one [Interp.step] per
   instruction, framed the way [Interp.run] frames a run (the ECall
   event first, the profiler's catch-up last), or [Interp.run]'s
   compiled blocks. *)

type drive = Stepped | Blocks

let execute drive itp ~entry =
  match drive with
  | Blocks -> Interp.run itp ~entry
  | Stepped ->
    Interp.set_rip itp entry;
    Flight_recorder.record (Interp.recorder itp) Flight_recorder.Ecall ~pc:entry ~arg:0;
    let rec go () = match Interp.step itp with None -> go () | Some r -> r in
    let r = go () in
    Profiler.catch_up (Interp.profiler itp) ~cycles:(Interp.cycles itp) ~pc:(Interp.rip itp);
    r

(* ------------------------------------------------------------------ *)
(* The executor: the full in-enclave admission pipeline (load, verify,
   immediate rewrite, leader export) followed by a bare interpreter run
   — no session machinery, so every observable below is produced by the
   drive under test and nothing else. OCall semantics mirror the fuzz
   monitor's wrappers exactly. *)

type obs = {
  o_exit : string;
  o_reason : Interp.exit_reason;
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
  o_recorded : string;  (* digest of the flight-recorder stream *)
  o_hotspots : string;  (* the profiler's sampled sites *)
}

let run_obj ~drive ~instr_limit ~aex_interval ~aex_seed ~colocated_prob ~inputs (obj : Objfile.t) =
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
      colocated_prob;
    }
  in
  let recorder = Flight_recorder.create ~capacity:(1 lsl 18) () in
  let profiler = Profiler.create ~interval:7 () in
  let itp = Interp.create ~config ~recorder ~profiler ~ocall mem in
  Interp.init_stack itp;
  Interp.write_reg itp Annot.shadow_stack_reg (Int64.of_int (Layout.ss_stack_base layout));
  Interp.set_block_leaders itp
    (List.map
       (fun off -> loaded.Loader.text_base + off)
       (Verifier.classification_leaders cls));
  let exit = execute drive itp ~entry:loaded.Loader.entry_addr in
  let stream = Buffer.create 4096 in
  List.iter
    (fun (e : Flight_recorder.entry) ->
      Buffer.add_string stream
        (Printf.sprintf "%d %s %x %d\n" e.Flight_recorder.seq
           (Flight_recorder.kind_label e.Flight_recorder.ekind)
           e.Flight_recorder.pc e.Flight_recorder.arg))
    (Flight_recorder.entries recorder);
  {
    o_exit = Interp.exit_reason_to_string exit;
    o_reason = exit;
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
    o_recorded =
      Printf.sprintf "%d/%d:%s" (Flight_recorder.recorded recorder)
        (Flight_recorder.dropped recorder)
        (Digest.to_hex (Digest.string (Buffer.contents stream)));
    o_hotspots =
      Printf.sprintf "%d/%d:%s" (Profiler.retired profiler) (Profiler.samples_total profiler)
        (String.concat ";"
           (List.map
              (fun (h : Profiler.hotspot) ->
                Printf.sprintf "%x=%d" h.Profiler.pc h.Profiler.count)
              (Profiler.hotspots profiler)));
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
    ("recorder_entries", o.o_recorded);
    ("profiler_hotspots", o.o_hotspots);
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

let default_seeds = 200

let seed_count () =
  match Sys.getenv_opt "DEFLECTION_TIER_SEEDS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> default_seeds)
  | None -> default_seeds

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
  let references = ref 0 and colocation_aborts = ref 0 in
  for i = 1 to n do
    let seed = Int64.of_int (1000 + i) in
    let g = Gen.generate ~seed in
    let obj = compile_exn g.Gen.source in
    (* vary the schedule so truncation points and AEX storms land inside
       compiled blocks, not only at block boundaries *)
    let instr_limit = if i mod 10 = 0 then 777 else 400_000 in
    let aex_interval = if i mod 7 = 0 then Some 150 else Some 4_000 in
    let aex_seed = Int64.of_int ((31 * i) + 7) in
    (* a hostile co-location reading on every fifth seed: most programs
       run to a normal exit and the reference check, the rest take the P6
       co-location abort at their first AEX *)
    let colocated_prob = if i mod 5 = 0 then 0.5 else 1.0 in
    let run drive lim =
      run_obj ~drive ~instr_limit:lim ~aex_interval ~aex_seed ~colocated_prob
        ~inputs:g.Gen.inputs obj
    in
    let diff lim = diff_obs (run Stepped lim) (run Blocks lim) in
    let blocks = run Blocks instr_limit in
    match diff_obs (run Stepped instr_limit) blocks with
    | None -> (
      (* the MiniC reference evaluator: a normal exit must match it, and a
         program it completes may otherwise only be cut short by the
         platform — the instruction limit or a P6 abort after an AEX *)
      match (Eval.run ~inputs:g.Gen.inputs g.Gen.prog, blocks.o_reason) with
      | Ok e, Interp.Exited code ->
        incr references;
        Alcotest.(check int64)
          (Printf.sprintf "seed %Ld: exit code vs reference" seed)
          e.Eval.exit_code code;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %Ld: outputs vs reference" seed)
          e.Eval.outputs blocks.o_outputs
      | _, Interp.Policy_abort Annot.Colocation -> incr colocation_aborts
      | Ok _, (Interp.Limit_exceeded | Interp.Policy_abort Annot.Aex_budget) | Error _, _ -> ()
      | Ok _, _ ->
        Alcotest.failf "seed %Ld: the reference evaluator completes, the run ended with %s"
          seed blocks.o_exit)
    | Some _ ->
      let l = shrink_limit ~diverges:(fun lim -> diff lim <> None) instr_limit in
      let field, s, t =
        match diff l with Some d -> d | None -> ("unstable-divergence", "", "")
      in
      Alcotest.failf
        "stepped and block runs diverged at seed %Ld (shrunk repro: instr_limit=%d, \
         aex_interval=%s, aex_seed=%Ld): %s differs\n\
        \  stepped: %s\n\
        \  blocks : %s\n\
         program:\n\
         %s"
        seed l
        (match aex_interval with Some v -> string_of_int v | None -> "none")
        aex_seed field s t g.Gen.source
  done;
  (* both endings stay covered: the reference check and the P6 abort *)
  if n = default_seeds then begin
    Alcotest.(check bool)
      (Printf.sprintf "%d of %d programs checked against the reference" !references n)
      true (!references >= 150);
    Alcotest.(check bool)
      (Printf.sprintf "%d co-location aborts" !colocation_aborts)
      true (!colocation_aborts >= 10)
  end

(* ------------------------------------------------------------------ *)
(* Generation bumps invalidate compiled code *)

let write_program mem layout items =
  let a = Asm.assemble items in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  a

let bare_interp ?ocall mem =
  let ocall =
    match ocall with
    | Some f -> f
    | None -> fun index _ -> Interp.Halt (Interp.Ocall_denied index)
  in
  let config = { Interp.default_config with Interp.aex_interval = None } in
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
  let itp = bare_interp mem in
  let entry = layout.Layout.code_lo in
  Alcotest.(check string) "first run" "exited(1)"
    (Interp.exit_reason_to_string (Interp.run itp ~entry));
  Alcotest.(check bool) "trace cache populated" true (Interp.trace_cache_size itp > 0);
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
   the next iteration, stepped or in blocks. *)
let patch_loop_exit drive =
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
  let itp = bare_interp ~ocall mem in
  let exit = execute drive itp ~entry:layout.Layout.code_lo in
  (Interp.exit_reason_to_string exit, !calls)

let test_patch_mid_run () =
  (* the last loop iteration runs the patched mov: stale compiled code
     would exit with 1; both drives must see 2 *)
  let blocks = patch_loop_exit Blocks in
  let stepped = patch_loop_exit Stepped in
  Alcotest.(check (pair string int)) "blocks see the patch" ("exited(2)", 2) blocks;
  Alcotest.(check (pair string int)) "stepping sees the patch" ("exited(2)", 2) stepped

(* ------------------------------------------------------------------ *)
(* Chaos plans run on compiled blocks: a plan's AEX storm or fuel limit
   must run exactly like the same schedule given as plain config. The
   fuzz monitor steps; its verdicts must match unmonitored block runs. *)

let plan_src = (Gen.generate ~seed:4242L).Gen.source
let plan_inputs = (Gen.generate ~seed:4242L).Gen.inputs

let plan_matches_config ~fault ~interp =
  let run ?chaos interp =
    match Session.run ~interp ~seed:42L ?chaos ~source:plan_src ~inputs:plan_inputs () with
    | Ok o -> o
    | Error e -> Alcotest.failf "session failed: %s" (Session.error_to_string e)
  in
  let plan = { Chaos.seed = 77L; faults = [ fault ] } in
  let planned = run ~chaos:(Chaos.of_plan plan) Interp.default_config and plain = run interp in
  Alcotest.(check string) "exit"
    (Interp.exit_reason_to_string plain.Session.exit)
    (Interp.exit_reason_to_string planned.Session.exit);
  Alcotest.(check int) "cycles" plain.Session.cycles planned.Session.cycles;
  Alcotest.(check int) "instructions" plain.Session.instructions planned.Session.instructions;
  Alcotest.(check int) "aexes" plain.Session.aexes planned.Session.aexes;
  Alcotest.(check bool) "outputs" true (planned.Session.outputs = plain.Session.outputs);
  let trace (o : Session.outcome) =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"interp.trace." k)
      o.Session.telemetry.counters
  in
  Alcotest.(check (list (pair string int))) "trace counters" (trace plain) (trace planned);
  Alcotest.(check bool) "the plan's run retired instructions in blocks" true
    (Option.value ~default:0 (List.assoc_opt "interp.trace.in_block" (trace planned)) > 0);
  planned

let test_plan_aex_storm () =
  let o =
    plan_matches_config ~fault:(Chaos.Aex_storm { interval = 40 })
      ~interp:{ Interp.default_config with Interp.aex_interval = Some 40 }
  in
  Alcotest.(check bool) "storm actually fired" true (o.Session.aexes > 0)

let test_plan_fuel_limit () =
  let o =
    plan_matches_config ~fault:(Chaos.Fuel_limit { fuel = 50 })
      ~interp:{ Interp.default_config with Interp.fuel = Some 50 }
  in
  Alcotest.(check bool) "watchdog fired" true (o.Session.exit = Interp.Fuel_exhausted)

let test_monitor_matches_trace () =
  (* the P1-P5 monitor single-steps with its own pre/post hooks; a clean
     program's verdict must agree with an unmonitored block run *)
  List.iter
    (fun s ->
      let g = Gen.generate ~seed:(Int64.of_int s) in
      let obj = compile_exn g.Gen.source in
      match Monitor.run ~inputs:g.Gen.inputs ~policies ~ssa_q:20 obj with
      | Monitor.Executed e ->
        let o =
          run_obj ~drive:Blocks ~instr_limit:2_000_000 ~aex_interval:None
            ~aex_seed:0L ~colocated_prob:1.0 ~inputs:g.Gen.inputs obj
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
(* The committed golden nBench digests and the trace counters *)

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

(* The schedule-independent counters of two workloads, pinned exactly:
   a run that stops entering blocks, chaining that stops using its
   successor slots, or blocks that stop at the wrong place each move
   them. The leaders are the verifier's branch targets and entries;
   handing over every instruction start instead cuts blocks to ~1.5
   instructions. The injected AEXes (one in NUMERIC SORT, two in IDEA)
   dump the SSA through privileged writes to non-executable pages, which
   leave the code generation — and so every compiled block — alone. *)
let trace_golden =
  [
    ( "NUMERIC SORT",
      [
        ("interp.instructions", 3_075_766);
        ("interp.cycles", 1_992_058);
        ("interp.trace.leaders", 42);
        ("interp.trace.in_block", 3_075_754);
        ("interp.trace.steps.boundary", 10);
        ("interp.trace.steps.no_block", 2);
        ("interp.trace.blocks_compiled", 124);
        ("interp.trace.lookups", 150);
        ("interp.trace.invalidations", 0);
      ] );
    ( "IDEA",
      [
        ("interp.instructions", 2_794_220);
        ("interp.cycles", 2_807_164);
        ("interp.trace.leaders", 61);
        ("interp.trace.in_block", 2_794_201);
        ("interp.trace.steps.boundary", 17);
        ("interp.trace.steps.no_block", 2);
        ("interp.trace.blocks_compiled", 235);
        ("interp.trace.lookups", 260);
        ("interp.trace.invalidations", 0);
      ] );
  ]

let test_golden_digests () =
  match read_golden () with
  | None -> Alcotest.failf "golden digest file missing: %s" golden_path
  | Some golden ->
    Alcotest.(check (list string)) "one golden digest per workload"
      (List.map (fun (b : W.Nbench.benchmark) -> b.W.Nbench.name) W.Nbench.all)
      (List.map fst golden);
    List.iter
      (fun (b : W.Nbench.benchmark) ->
        let name = b.W.Nbench.name in
        let m =
          match W.Runner.run b.W.Nbench.source with
          | Ok m -> m
          | Error e -> Alcotest.failf "%s failed: %s" name e
        in
        Alcotest.(check string) (name ^ ": matches golden") (List.assoc name golden)
          (Sha256.hex_digest_string (String.concat "\n" m.W.Runner.outputs));
        match List.assoc_opt name trace_golden with
        | None -> ()
        | Some counters ->
          let pinned (m : W.Runner.measurement) =
            List.map
              (fun (k, _) ->
                (k, Option.value ~default:(-1) (List.assoc_opt k m.W.Runner.telemetry.counters)))
              counters
          in
          Alcotest.(check (list (pair string int))) (name ^ ": trace counters") counters (pinned m);
          (* observing does not change what runs *)
          let observed =
            match
              W.Runner.run ~recorder:(Flight_recorder.create ()) ~profiler:(Profiler.create ())
                b.W.Nbench.source
            with
            | Ok m -> m
            | Error e -> Alcotest.failf "%s (observed) failed: %s" name e
          in
          Alcotest.(check (list (pair string int)))
            (name ^ ": trace counters with a recorder and a profiler attached") counters
            (pinned observed))
      W.Nbench.all

let suite =
  [
    Alcotest.test_case "differential: seeded sweep, both tiers byte-identical" `Slow
      test_differential;
    Alcotest.test_case "generation bump invalidates traces between runs" `Quick
      test_patch_between_runs;
    Alcotest.test_case "generation bump invalidates traces mid-run (ocall patch)" `Quick
      test_patch_mid_run;
    Alcotest.test_case "chaos plan: AEX storm equals config" `Quick test_plan_aex_storm;
    Alcotest.test_case "chaos plan: fuel limit equals config" `Quick test_plan_fuel_limit;
    Alcotest.test_case "fallback: monitor verdict matches unmonitored trace run" `Quick
      test_monitor_matches_trace;
    Alcotest.test_case "golden nBench digests and counters" `Slow test_golden_digests;
  ]
