module Ast = Deflection_compiler.Ast
module Ast_printer = Deflection_compiler.Ast_printer
module Parser = Deflection_compiler.Parser
module Frontend = Deflection_compiler.Frontend
module Eval = Deflection_compiler.Eval
module Objfile = Deflection_isa.Objfile
module Policy = Deflection_policy.Policy
module Prng = Deflection_util.Prng
module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Json = Deflection_telemetry.Json

let schema = "deflection-fuzz/1"

type case =
  | Program of { seed : int64 }
  | Program_src of { source : string; inputs : bytes list }
  | Mutant of { prog_seed : int64; mutations : Mutate.kind list }
  | Witness_mutant of { prog_seed : int64; wmutations : Mutate.wkind list }

type failure_kind = False_positive | Divergence | Soundness | Harness_error

let failure_kind_label = function
  | False_positive -> "false_positive"
  | Divergence -> "divergence"
  | Soundness -> "soundness"
  | Harness_error -> "harness_error"

type failure = { case : case; kind : failure_kind; detail : string }
type clean = Accepted_ran | Rejected_static

type config = {
  policies : Policy.Set.t;
  ssa_q : int;
  instr_limit : int;
  eval_step_limit : int;
  mutations_per_case : int;
  shrink_budget : int;
}

let default_config =
  {
    policies = Policy.Set.p1_p6;
    ssa_q = 20;
    instr_limit = 500_000;
    eval_step_limit = 2_000_000;
    mutations_per_case = 4;
    shrink_budget = 300;
  }

(* ------------------------------------------------------------------ *)
(* Oracles *)

let describe_outputs outs =
  String.concat ", " (List.map (fun o -> "\"" ^ String.escaped o ^ "\"") outs)

let rejection_str r = Format.asprintf "%a" Verifier.pp_rejection r

(* Witness differential on {e compiler output} (honest witness): the
   pure witnessed tier must reproduce the descent verdict exactly —
   same report and classification on acceptance, same (pass, offset,
   reason) triple on rejection. *)
(* Machinery and guarded stores agree at every text offset. *)
let same_offsets (obj : Objfile.t) a b =
  let agree o =
    Verifier.is_machinery a o = Verifier.is_machinery b o
    && Verifier.is_guarded_store a o = Verifier.is_guarded_store b o
  in
  Seq.for_all agree (Seq.init (Bytes.length obj.Objfile.text) Fun.id)

let witness_differential cfg ~case obj : (unit, failure) result =
  let fail kind detail = Error { case; kind; detail } in
  let d =
    Verifier.verify_classified ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
  in
  let w =
    Verifier.verify_witnessed ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
  in
  match (d, w) with
  | Ok (rd, cd), Ok (rw, cw) ->
    if rd <> rw then
      fail Divergence "witnessed tier report differs from descent report"
    else if
      (not (same_offsets obj cd cw))
      || Verifier.classification_leaders cd <> Verifier.classification_leaders cw
    then fail Divergence "witnessed tier classification differs from descent"
    else Ok ()
  | Error a, Error b ->
    if a = b then Ok ()
    else
      fail Divergence
        (Printf.sprintf "witnessed rejection [%s] vs descent rejection [%s]"
           (rejection_str b) (rejection_str a))
  | Ok _, Error r ->
    fail Divergence ("witnessed tier rejected what the descent accepts: " ^ rejection_str r)
  | Error r, Ok _ ->
    fail Soundness ("witnessed tier accepted what the descent rejects: " ^ rejection_str r)

(* Pure-witnessed soundness on an {e arbitrary} binary: a witnessed
   rejection is always allowed (the unclaimed-offset sweep is strictly
   sounder than the descent on unreachable code), but an acceptance must
   coincide with a descent acceptance of the same report. *)
let witness_soundness cfg ~case obj : (unit, failure) result =
  let fail kind detail = Error { case; kind; detail } in
  match
    Verifier.verify_witnessed ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
  with
  | Error _ -> Ok ()
  | Ok (rw, _) -> (
    match
      Verifier.verify_classified ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
    with
    | Ok (rd, _) when rd = rw -> Ok ()
    | Ok _ ->
      fail Divergence "witnessed tier accepted with a report differing from the descent"
    | Error r ->
      fail Soundness
        ("witnessed tier accepted what the descent rejects: " ^ rejection_str r))

(* Honest-rebuild invariant: rebuilding the witness from the (possibly
   mutated) bytes and verifying under [Witnessed] must give the descent
   verdict, triple for triple — except that the witnessed tier may reject
   in its own [Witness] pass (its omission sweep is stricter than the
   descent on unreachable code). *)
let rebuild_differential cfg ~case obj : (unit, failure) result =
  let fail kind detail = Error { case; kind; detail } in
  let objw = Verifier.Witness.attach obj in
  let d =
    Verifier.verify_classified ~policies:cfg.policies ~ssa_q:objw.Objfile.ssa_q objw
  in
  let w = Verifier.verify_witnessed ~policies:cfg.policies ~ssa_q:objw.Objfile.ssa_q objw in
  match (d, w) with
  | _, Error { Verifier.pass = Verifier.Witness; _ } -> Ok ()
  | Ok (rd, _), Ok (rw, _) when rd = rw -> Ok ()
  | Error a, Error b when a = b -> Ok ()
  | Error _, Ok _ ->
    fail Soundness "witnessed tier accepted a mutant the descent rejects (honest rebuild)"
  | _ ->
    fail Divergence "witnessed verdict differs from descent on an honest-witness rebuild"

(* completeness + differential oracle over an explicit program *)
let oracle_program cfg ~case ~prog ~source ~inputs : (clean, failure) result =
  let fail kind detail = Error { case; kind; detail } in
  match Frontend.compile ~policies:cfg.policies ~ssa_q:cfg.ssa_q source with
  | Error e ->
    fail Harness_error
      (Format.asprintf "generated program does not compile: %a" Frontend.pp_error e)
  | Ok obj -> (
    match witness_differential cfg ~case obj with
    | Error f -> Error f
    | Ok () -> (
    match Eval.run ~inputs ~step_limit:cfg.eval_step_limit prog with
    | Error e ->
      fail Harness_error
        (Format.asprintf "reference evaluator failed: %a" Eval.pp_error e)
    | Ok expected -> (
      match
        Monitor.run ~inputs ~instr_limit:cfg.instr_limit ~policies:cfg.policies
          ~ssa_q:obj.Objfile.ssa_q obj
      with
      | Monitor.Rejected r ->
        fail False_positive
          (Format.asprintf "compliant program rejected: %a" Verifier.pp_rejection r)
      | Monitor.Load_refused d -> fail Harness_error ("loader refused: " ^ d)
      | Monitor.Executed exec -> (
        match exec.Monitor.violations with
        | v :: _ ->
          fail Soundness
            (Format.asprintf "monitor violation on compliant program: %a"
               Monitor.pp_violation v)
        | [] -> (
          match exec.Monitor.exit_code with
          | None ->
            fail Divergence
              ("abnormal exit on compliant program: "
              ^ Interp.exit_reason_to_string exec.Monitor.exit)
          | Some c when not (Int64.equal c expected.Eval.exit_code) ->
            fail Divergence
              (Printf.sprintf "exit code %Ld (enclave) vs %Ld (reference)" c
                 expected.Eval.exit_code)
          | Some _ when exec.Monitor.outputs <> expected.Eval.outputs ->
            fail Divergence
              (Printf.sprintf "outputs [%s] (enclave) vs [%s] (reference)"
                 (describe_outputs exec.Monitor.outputs)
                 (describe_outputs expected.Eval.outputs))
          | Some _ -> Ok Accepted_ran)))))

(* soundness oracle over a mutant of a compiled base program *)
let oracle_mutant cfg ~case ~prog_seed ~mutations : (clean, failure) result =
  let fail kind detail = Error { case; kind; detail } in
  let g = Gen.generate ~seed:prog_seed in
  match Frontend.compile ~policies:cfg.policies ~ssa_q:cfg.ssa_q g.Gen.source with
  | Error e ->
    fail Harness_error
      (Format.asprintf "mutant base program does not compile: %a" Frontend.pp_error e)
  | Ok base -> (
    let obj = Mutate.apply base mutations in
    (* witness-tier invariants on the mutant: under an honest rebuilt
       witness the witnessed tier agrees with the descent triple for
       triple unless it rejects in its own pass, and it never out-accepts
       the descent *)
    let objw = Verifier.Witness.attach obj in
    match rebuild_differential cfg ~case objw with
    | Error f -> Error f
    | Ok () -> (
    match witness_soundness cfg ~case objw with
    | Error f -> Error f
    | Ok () -> (
    match
      Monitor.run ~inputs:g.Gen.inputs ~instr_limit:cfg.instr_limit
        ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
    with
    | Monitor.Rejected _ | Monitor.Load_refused _ -> Ok Rejected_static
    | Monitor.Executed exec -> (
      match exec.Monitor.violations with
      | v :: _ ->
        fail Soundness
          (Format.asprintf "accepted mutant violated policy at runtime: %a"
             Monitor.pp_violation v)
      | [] -> Ok Accepted_ran))))

(* soundness oracle over a doctored witness attached to a compliant base
   program: the witnessed tier must reject the lie, or — when the
   mutation degenerated to a no-op — agree with the descent exactly *)
let oracle_witness_mutant cfg ~case ~prog_seed ~wmutations : (clean, failure) result =
  let fail kind detail = Error { case; kind; detail } in
  let g = Gen.generate ~seed:prog_seed in
  match Frontend.compile ~policies:cfg.policies ~ssa_q:cfg.ssa_q g.Gen.source with
  | Error e ->
    fail Harness_error
      (Format.asprintf "witness-mutant base program does not compile: %a"
         Frontend.pp_error e)
  | Ok base -> (
    let obj = Mutate.apply_witness base wmutations in
    match
      Verifier.verify_witnessed ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
    with
    | Error _ -> Ok Rejected_static
    | Ok (rw, _) -> (
      match
        Verifier.verify_classified ~policies:cfg.policies ~ssa_q:obj.Objfile.ssa_q obj
      with
      | Ok (rd, _) when rd = rw -> Ok Accepted_ran
      | Ok _ ->
        fail Divergence
          "witnessed tier accepted a doctored witness with a report differing from the descent"
      | Error r ->
        fail Soundness
          ("witnessed tier accepted a doctored witness on a binary the descent rejects: "
          ^ rejection_str r)))

let run_case ?(config = default_config) case : (clean, failure) result =
  try
    match case with
    | Program { seed } ->
      let g = Gen.generate ~seed in
      oracle_program config ~case ~prog:g.Gen.prog ~source:g.Gen.source
        ~inputs:g.Gen.inputs
    | Program_src { source; inputs } ->
      let prog = Parser.parse source in
      oracle_program config ~case ~prog ~source ~inputs
    | Mutant { prog_seed; mutations } -> oracle_mutant config ~case ~prog_seed ~mutations
    | Witness_mutant { prog_seed; wmutations } ->
      oracle_witness_mutant config ~case ~prog_seed ~wmutations
  with exn ->
    Error
      {
        case;
        kind = Harness_error;
        detail = "harness exception: " ^ Printexc.to_string exn;
      }

(* ------------------------------------------------------------------ *)
(* Shrinking *)

(* Depth-first statement dropping: position [k] counts every statement,
   outer before inner; dropping a compound statement drops its subtree. *)
let rec count_stmts stmts =
  List.fold_left
    (fun acc st ->
      acc + 1
      +
      match st.Ast.s with
      | Ast.If (_, a, b) -> count_stmts a + count_stmts b
      | Ast.While (_, b) | Ast.For (_, _, _, b) -> count_stmts b
      | _ -> 0)
    0 stmts

let rec drop_stmt_list k stmts : int * Ast.stmt list * bool =
  match stmts with
  | [] -> (k, [], false)
  | st :: rest ->
    if k = 0 then (-1, rest, true)
    else
      let k, st', changed = drop_in_stmt (k - 1) st in
      if changed then (k, st' @ rest, true)
      else
        let k, rest', changed = drop_stmt_list k rest in
        (k, st :: rest', changed)

and drop_in_stmt k st : int * Ast.stmt list * bool =
  match st.Ast.s with
  | Ast.If (c, a, b) ->
    let k, a', ch = drop_stmt_list k a in
    if ch then (k, [ { st with Ast.s = Ast.If (c, a', b) } ], true)
    else
      let k, b', ch = drop_stmt_list k b in
      if ch then (k, [ { st with Ast.s = Ast.If (c, a, b') } ], true)
      else (k, [ st ], false)
  | Ast.While (c, b) ->
    let k, b', ch = drop_stmt_list k b in
    if ch then (k, [ { st with Ast.s = Ast.While (c, b') } ], true) else (k, [ st ], false)
  | Ast.For (i, c, s2, b) ->
    let k, b', ch = drop_stmt_list k b in
    if ch then (k, [ { st with Ast.s = Ast.For (i, c, s2, b') } ], true)
    else (k, [ st ], false)
  | _ -> (k, [ st ], false)

let drop_stmt_in_func (f : Ast.func) k =
  let _, body', changed = drop_stmt_list k f.Ast.body in
  if changed then Some { f with Ast.body = body' } else None

(* All one-step-smaller programs, in preference order: drop a statement,
   drop a helper function, drop a global. Candidates that no longer
   compile simply fail the shrink predicate. *)
let program_candidates (p : Ast.program) : Ast.program list =
  let stmt_drops =
    List.concat
      (List.mapi
         (fun fi f ->
           List.filter_map
             (fun k ->
               Option.map
                 (fun f' ->
                   { p with Ast.funcs = List.mapi (fun i g -> if i = fi then f' else g) p.Ast.funcs })
                 (drop_stmt_in_func f k))
             (List.init (count_stmts f.Ast.body) Fun.id))
         p.Ast.funcs)
  in
  let func_drops =
    List.filter_map
      (fun fi ->
        let f = List.nth p.Ast.funcs fi in
        if f.Ast.fname = "main" then None
        else Some { p with Ast.funcs = List.filteri (fun i _ -> i <> fi) p.Ast.funcs })
      (List.init (List.length p.Ast.funcs) Fun.id)
  in
  let global_drops =
    List.map
      (fun gi -> { p with Ast.globals = List.filteri (fun i _ -> i <> gi) p.Ast.globals })
      (List.init (List.length p.Ast.globals) Fun.id)
  in
  stmt_drops @ func_drops @ global_drops

let shrink_program cfg ~kind ~inputs prog detail0 =
  let budget = ref cfg.shrink_budget in
  let fails p =
    if !budget <= 0 then None
    else begin
      decr budget;
      let source = Ast_printer.program_to_string p in
      match run_case ~config:cfg (Program_src { source; inputs }) with
      | Error f when f.kind = kind -> Some f.detail
      | Ok _ | Error _ -> None
    end
  in
  let rec go p detail =
    let rec first = function
      | [] -> (p, detail)
      | cand :: rest -> (
        match fails cand with
        | Some d when !budget >= 0 -> go cand d
        | _ -> first rest)
    in
    if !budget <= 0 then (p, detail) else first (program_candidates p)
  in
  let p', detail' = go prog detail0 in
  {
    case = Program_src { source = Ast_printer.program_to_string p'; inputs };
    kind;
    detail = detail';
  }

let shrink_mutant cfg ~kind ~prog_seed mutations detail0 =
  let budget = ref cfg.shrink_budget in
  let fails ms =
    if !budget <= 0 then None
    else begin
      decr budget;
      match run_case ~config:cfg (Mutant { prog_seed; mutations = ms }) with
      | Error f when f.kind = kind -> Some f.detail
      | Ok _ | Error _ -> None
    end
  in
  let rec go ms detail =
    let n = List.length ms in
    let rec first i =
      if i >= n then (ms, detail)
      else
        let cand = List.filteri (fun j _ -> j <> i) ms in
        match fails cand with Some d -> go cand d | None -> first (i + 1)
    in
    if n = 0 || !budget <= 0 then (ms, detail) else first 0
  in
  let ms', detail' = go mutations detail0 in
  { case = Mutant { prog_seed; mutations = ms' }; kind; detail = detail' }

let shrink_witness_mutant cfg ~kind ~prog_seed wmutations detail0 =
  let budget = ref cfg.shrink_budget in
  let fails ms =
    if !budget <= 0 then None
    else begin
      decr budget;
      match run_case ~config:cfg (Witness_mutant { prog_seed; wmutations = ms }) with
      | Error f when f.kind = kind -> Some f.detail
      | Ok _ | Error _ -> None
    end
  in
  let rec go ms detail =
    let n = List.length ms in
    let rec first i =
      if i >= n then (ms, detail)
      else
        let cand = List.filteri (fun j _ -> j <> i) ms in
        match fails cand with Some d -> go cand d | None -> first (i + 1)
    in
    if n = 0 || !budget <= 0 then (ms, detail) else first 0
  in
  let ms', detail' = go wmutations detail0 in
  { case = Witness_mutant { prog_seed; wmutations = ms' }; kind; detail = detail' }

let shrink ?(config = default_config) (f : failure) : failure =
  try
    match f.case with
    | Program { seed } ->
      let g = Gen.generate ~seed in
      shrink_program config ~kind:f.kind ~inputs:g.Gen.inputs g.Gen.prog f.detail
    | Program_src { source; inputs } ->
      let prog = Parser.parse source in
      shrink_program config ~kind:f.kind ~inputs prog f.detail
    | Mutant { prog_seed; mutations } ->
      shrink_mutant config ~kind:f.kind ~prog_seed mutations f.detail
    | Witness_mutant { prog_seed; wmutations } ->
      shrink_witness_mutant config ~kind:f.kind ~prog_seed wmutations f.detail
  with _ -> f

(* ------------------------------------------------------------------ *)
(* Harness self-tests *)

(* A known-bad mutant must be rejected: corrupting the lower-bound magic
   of a store-guard template un-matches the Figure-5 group, leaving the
   guarded store bare — a P1 static rejection. *)
let selftest_rejection cfg ~base_seed =
  ignore base_seed;
  let source = "int g[2]; int main() { g[0] = 7; return 0; }" in
  match Frontend.compile ~policies:Policy.Set.p1_p6 ~ssa_q:cfg.ssa_q source with
  | Error _ -> false
  | Ok base -> (
    match Mutate.find_magic base Deflection_annot.Annot.store_lower_magic with
    | None -> false
    | Some idx -> (
      let obj = Mutate.apply base [ Mutate.Corrupt_magic { idx; delta = 8L } ] in
      match
        Monitor.run ~instr_limit:cfg.instr_limit ~policies:Policy.Set.p1_p6
          ~ssa_q:obj.Objfile.ssa_q obj
      with
      | Monitor.Rejected _ -> true
      | Monitor.Load_refused _ | Monitor.Executed _ -> false))

(* A raw store spliced past an (unsound, empty) verification policy must
   be flagged by the runtime monitors — proves the oracle is not vacuous. *)
let selftest_monitor cfg =
  let source = "int main() { print_int(1); return 0; }" in
  match Frontend.compile ~policies:Policy.Set.none ~ssa_q:cfg.ssa_q source with
  | Error _ -> false
  | Ok obj -> (
    match Objfile.find_symbol obj "main" with
    | None -> false
    | Some sym -> (
      (* index of main's first instruction in the linear decode *)
      let rec index_of off idx =
        if off = sym.Objfile.offset then Some idx
        else if off > sym.Objfile.offset then None
        else
          match Deflection_isa.Codec.decode obj.Objfile.text off with
          | exception _ -> None
          | _, len -> index_of (off + len) (idx + 1)
      in
      match index_of 0 0 with
      | None -> false
      | Some idx -> (
        (* default layout: base 0x100000, SSA at the bottom *)
        let mutant =
          Mutate.apply obj
            [ Mutate.Splice_store { idx; addr = Int64.of_int 0x100040 } ]
        in
        match
          Monitor.run ~instr_limit:cfg.instr_limit ~policies:Policy.Set.none
            ~monitor_policies:Policy.Set.p1_p6 ~ssa_q:mutant.Objfile.ssa_q mutant
        with
        | Monitor.Executed exec ->
          List.exists (fun v -> v.Monitor.policy = "P3") exec.Monitor.violations
        | Monitor.Rejected _ | Monitor.Load_refused _ -> false)))

(* A known-lying witness must be rejected by the Witness pass: flipping
   one digest bit stales the proof without touching the code. *)
let selftest_witness cfg =
  let source = "int g[2]; int main() { g[0] = 7; return 0; }" in
  match Frontend.compile ~policies:Policy.Set.p1_p6 ~ssa_q:cfg.ssa_q source with
  | Error _ -> false
  | Ok base -> (
    let obj = Mutate.apply_witness base [ Mutate.Wflip_digest ] in
    match
      Verifier.verify_witnessed ~policies:Policy.Set.p1_p6 ~ssa_q:obj.Objfile.ssa_q obj
    with
    | Error { Verifier.pass = Verifier.Witness; _ } -> true
    | Error _ | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Campaign *)

type report = {
  base_seed : int64;
  programs : int;
  mutants : int;
  witness_mutants : int;
  programs_clean : int;
  mutants_rejected : int;
  mutants_clean : int;
  wmutants_rejected : int;
  wmutants_clean : int;
  verified_instructions : int;
  selftest_rejection_caught : bool;
  selftest_monitor_caught : bool;
  selftest_witness_caught : bool;
  failures : (failure * failure) list;
}

let mutant_case cfg ~base_seed ~programs i =
  let rng = Prng.create (Prng.derive base_seed ~label:(Printf.sprintf "fuzz.mut.%d" i)) in
  let prog_seed =
    Prng.derive base_seed
      ~label:(Printf.sprintf "fuzz.prog.%d" (if programs > 0 then i mod programs else i))
  in
  let n = 1 + Prng.int rng cfg.mutations_per_case in
  Mutant { prog_seed; mutations = List.init n (fun _ -> Mutate.gen rng) }

let witness_mutant_case ~base_seed ~programs i =
  let rng = Prng.create (Prng.derive base_seed ~label:(Printf.sprintf "fuzz.wmut.%d" i)) in
  let prog_seed =
    Prng.derive base_seed
      ~label:(Printf.sprintf "fuzz.prog.%d" (if programs > 0 then i mod programs else i))
  in
  let n = 1 + Prng.int rng 2 in
  Witness_mutant { prog_seed; wmutations = List.init n (fun _ -> Mutate.gen_witness rng) }

let campaign ?(config = default_config) ?(on_case = fun _ -> ()) ?(witness_mutants = 0)
    ~base_seed ~programs ~mutants () =
  let failures = ref [] in
  let programs_clean = ref 0 in
  let mutants_rejected = ref 0 in
  let mutants_clean = ref 0 in
  let wmutants_rejected = ref 0 in
  let wmutants_clean = ref 0 in
  let verified_instructions = ref 0 in
  let run i case =
    on_case i;
    match run_case ~config case with
    | Ok Accepted_ran -> (
      match case with
      | Program _ | Program_src _ -> incr programs_clean
      | Mutant _ -> incr mutants_clean
      | Witness_mutant _ -> incr wmutants_clean)
    | Ok Rejected_static -> (
      match case with
      | Witness_mutant _ -> incr wmutants_rejected
      | Program _ | Program_src _ | Mutant _ -> incr mutants_rejected)
    | Error f -> failures := f :: !failures
  in
  for i = 0 to programs - 1 do
    let seed = Prng.derive base_seed ~label:(Printf.sprintf "fuzz.prog.%d" i) in
    run i (Program { seed })
  done;
  for i = 0 to mutants - 1 do
    run (programs + i) (mutant_case config ~base_seed ~programs i)
  done;
  for i = 0 to witness_mutants - 1 do
    run (programs + mutants + i) (witness_mutant_case ~base_seed ~programs i)
  done;
  (* verifier throughput input: count instructions over the program corpus *)
  for i = 0 to min (programs - 1) 31 do
    let seed = Prng.derive base_seed ~label:(Printf.sprintf "fuzz.prog.%d" i) in
    let g = Gen.generate ~seed in
    match Frontend.compile ~policies:config.policies ~ssa_q:config.ssa_q g.Gen.source with
    | Error _ -> ()
    | Ok obj -> (
      match
        Verifier.verify ~policies:config.policies ~ssa_q:obj.Objfile.ssa_q obj
      with
      | Ok r -> verified_instructions := !verified_instructions + r.Verifier.instructions_checked
      | Error _ -> ())
  done;
  let shrunk = List.rev_map (fun f -> (f, shrink ~config f)) !failures in
  {
    base_seed;
    programs;
    mutants;
    witness_mutants;
    programs_clean = !programs_clean;
    mutants_rejected = !mutants_rejected;
    mutants_clean = !mutants_clean;
    wmutants_rejected = !wmutants_rejected;
    wmutants_clean = !wmutants_clean;
    verified_instructions = !verified_instructions;
    selftest_rejection_caught = selftest_rejection config ~base_seed;
    selftest_monitor_caught = selftest_monitor config;
    selftest_witness_caught = selftest_witness config;
    failures = shrunk;
  }

(* ------------------------------------------------------------------ *)
(* Serialization: deflection-fuzz/1 *)

let hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd hex length"
  else
    try
      Ok
        (Bytes.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "invalid hex"

let case_to_json = function
  | Program { seed } ->
    Json.Obj [ ("type", Json.Str "program"); ("seed", Json.Str (Int64.to_string seed)) ]
  | Program_src { source; inputs } ->
    Json.Obj
      [
        ("type", Json.Str "program_src");
        ("source", Json.Str source);
        ("inputs", Json.List (List.map (fun b -> Json.Str (hex_of_bytes b)) inputs));
      ]
  | Mutant { prog_seed; mutations } ->
    Json.Obj
      [
        ("type", Json.Str "mutant");
        ("prog_seed", Json.Str (Int64.to_string prog_seed));
        ("mutations", Json.List (List.map Mutate.kind_to_json mutations));
      ]
  | Witness_mutant { prog_seed; wmutations } ->
    Json.Obj
      [
        ("type", Json.Str "witness_mutant");
        ("prog_seed", Json.Str (Int64.to_string prog_seed));
        ("mutations", Json.List (List.map Mutate.wkind_to_json wmutations));
      ]

let case_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  match str "type" with
  | Some "program" -> (
    match Option.bind (str "seed") Int64.of_string_opt with
    | Some seed -> Ok (Program { seed })
    | None -> Error "program case without seed")
  | Some "program_src" -> (
    match (str "source", Json.member "inputs" j) with
    | Some source, Some (Json.List l) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | Json.Str h :: rest -> Result.bind (bytes_of_hex h) (fun b -> conv (b :: acc) rest)
        | _ -> Error "non-string input chunk"
      in
      Result.bind (conv [] l) (fun inputs -> Ok (Program_src { source; inputs }))
    | Some source, None -> Ok (Program_src { source; inputs = [] })
    | Some _, Some _ -> Error "program_src inputs must be a list"
    | None, _ -> Error "program_src case without source")
  | Some "mutant" -> (
    match (Option.bind (str "prog_seed") Int64.of_string_opt, Json.member "mutations" j) with
    | Some prog_seed, Some (Json.List l) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | m :: rest -> Result.bind (Mutate.kind_of_json m) (fun k -> conv (k :: acc) rest)
      in
      Result.bind (conv [] l) (fun mutations -> Ok (Mutant { prog_seed; mutations }))
    | None, _ -> Error "mutant case without prog_seed"
    | _, _ -> Error "mutant case without mutations")
  | Some "witness_mutant" -> (
    match (Option.bind (str "prog_seed") Int64.of_string_opt, Json.member "mutations" j) with
    | Some prog_seed, Some (Json.List l) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | m :: rest -> Result.bind (Mutate.wkind_of_json m) (fun k -> conv (k :: acc) rest)
      in
      Result.bind (conv [] l) (fun wmutations ->
          Ok (Witness_mutant { prog_seed; wmutations }))
    | None, _ -> Error "witness_mutant case without prog_seed"
    | _, _ -> Error "witness_mutant case without mutations")
  | Some other -> Error ("unknown case type " ^ other)
  | None -> Error "case without type"

let failure_to_json f =
  Json.Obj
    [
      ("kind", Json.Str (failure_kind_label f.kind));
      ("detail", Json.Str f.detail);
      ("case", case_to_json f.case);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("base_seed", Json.Str (Int64.to_string r.base_seed));
      ("programs", Json.Int r.programs);
      ("mutants", Json.Int r.mutants);
      ("witness_mutants", Json.Int r.witness_mutants);
      ("programs_clean", Json.Int r.programs_clean);
      ("mutants_rejected", Json.Int r.mutants_rejected);
      ("mutants_clean", Json.Int r.mutants_clean);
      ("wmutants_rejected", Json.Int r.wmutants_rejected);
      ("wmutants_clean", Json.Int r.wmutants_clean);
      ("verified_instructions", Json.Int r.verified_instructions);
      ("selftest_rejection_caught", Json.Bool r.selftest_rejection_caught);
      ("selftest_monitor_caught", Json.Bool r.selftest_monitor_caught);
      ("selftest_witness_caught", Json.Bool r.selftest_witness_caught);
      ("failure_count", Json.Int (List.length r.failures));
      ( "failures",
        Json.List
          (List.map
             (fun (orig, shrunk) ->
               Json.Obj
                 [ ("original", failure_to_json orig); ("shrunk", failure_to_json shrunk) ])
             r.failures) );
    ]
