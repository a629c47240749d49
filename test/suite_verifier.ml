module Verifier = Deflection_verifier.Verifier
module Frontend = Deflection_compiler.Frontend
module Codegen = Deflection_compiler.Codegen
module Instrument = Deflection_compiler.Instrument
module Objfile = Deflection_isa.Objfile
module Asm = Deflection_isa.Asm
module Isa = Deflection_isa.Isa
module Codec = Deflection_isa.Codec
module Annot = Deflection_annot.Annot
module Policy = Deflection_policy.Policy
module B = Deflection_util.Bytebuf
open Isa

let sample = {|
int g[8];
fnptr t[2];
int helper(int x) { g[x & 7] = x; return x + 1; }
int main() {
  t[0] = &helper;
  fnptr h = t[0];
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) { acc = h(acc); }
  return acc;
}
|}

let verify_obj ?(policies = Policy.Set.p1_p6) obj =
  Verifier.verify ~policies ~ssa_q:obj.Objfile.ssa_q obj

let compile ?(policies = Policy.Set.p1_p6) src = Frontend.compile_exn ~policies src

let expect_accept ?policies obj =
  match verify_obj ?policies obj with
  | Ok r -> r
  | Error rej -> Alcotest.failf "unexpected rejection: %a" Verifier.pp_rejection rej

let expect_reject ?policies obj fragment =
  match verify_obj ?policies obj with
  | Ok _ -> Alcotest.failf "expected rejection (%s)" fragment
  | Error rej ->
    let msg = Format.asprintf "%a" Verifier.pp_rejection rej in
    let contains h n =
      let nh = String.length h and nn = String.length n in
      let rec go i = i + nn <= nh && (String.sub h i nn = n || go (i + 1)) in
      nn = 0 || go 0
    in
    if not (contains msg fragment) then
      Alcotest.failf "rejection %S does not mention %S" msg fragment

(* Build an object from hand-written items through the real instrumentation
   pipeline (for attack construction). *)
let handmade ?(policies = Policy.Set.p1_p6) ?(instrument = true) ?(branch_targets = [])
    ~funs items =
  let items' =
    if instrument then
      Instrument.run { Instrument.policies; ssa_q = 20 } ~fun_symbols:funs ~entry:"main" items
    else
      Annot.start_items ~entry:"main" @ items
      @ List.concat_map Annot.abort_stub_items Annot.all_abort_reasons
      @ [] @ Annot.aex_handler_items
  in
  let assembled = Asm.assemble items' in
  let public = funs @ Instrument.stub_symbols in
  let symbols =
    List.filter_map
      (fun (name, off) ->
        if List.mem name public then
          Some { Objfile.name; section = Objfile.Text; offset = off; is_function = true }
        else None)
      assembled.Asm.label_offsets
  in
  {
    Objfile.text = assembled.Asm.code;
    data = Bytes.create 64;
    bss_size = 0;
    symbols;
    relocs = assembled.Asm.relocs;
    branch_targets;
    entry = Annot.start_symbol;
    claimed_policies = [];
    ssa_q = 20;
    witness = None;
  }

(* ------------------------------------------------------------------ *)
(* Acceptance *)

let test_accepts_compiler_output_all_policies () =
  List.iter
    (fun (label, policies) ->
      let obj = compile ~policies sample in
      let r = expect_accept ~policies obj in
      ignore r;
      Alcotest.(check pass) ("accepted under " ^ label) () ())
    [
      ("none", Policy.Set.none);
      ("P1", Policy.Set.p1);
      ("P1+P2", Policy.Set.p1_p2);
      ("P1-P5", Policy.Set.p1_p5);
      ("P1-P6", Policy.Set.p1_p6);
    ]

(* Regression (worklist dedup): a diamond CFG — two branch arms joining
   at a shared continuation — enqueues the join block from both arms. The
   enqueue-time visited/enqueued check must scan it exactly once, so the
   report counts are exact, not inflated by re-scans. The numbers are
   pinned against the current code generator; a legitimate codegen change
   may move them, but a dedup regression doubles the join-suffix counts. *)
let diamond_src = {|
int g[4];
int main() {
  int x = 0;
  if (g[0] > 0) { x = 1; } else { x = 2; }
  g[1] = x;
  return x;
}
|}

let test_diamond_cfg_exact_counts () =
  let obj = compile diamond_src in
  let r = expect_accept obj in
  Alcotest.(check int) "instructions checked exactly once" 101 r.Verifier.instructions_checked;
  Alcotest.(check int) "store annotations" 1 r.Verifier.store_annotations;
  Alcotest.(check int) "rsp annotations" 1 r.Verifier.rsp_annotations;
  Alcotest.(check int) "cfi annotations" 0 r.Verifier.cfi_annotations;
  Alcotest.(check int) "prologues" 1 r.Verifier.prologues;
  Alcotest.(check int) "epilogues" 1 r.Verifier.epilogues;
  Alcotest.(check int) "ssa checks" 2 r.Verifier.ssa_checks;
  (* scanning the join twice would also duplicate discovered leaders *)
  match Verifier.verify_classified ~policies:Policy.Set.p1_p6 ~ssa_q:20 obj with
  | Error _ -> Alcotest.fail "diamond rejected"
  | Ok (_, c) ->
    let leaders = Verifier.classification_leaders c in
    Alcotest.(check (list int)) "leaders sorted and duplicate-free"
      (List.sort_uniq compare leaders) leaders

let test_report_counts () =
  let obj = compile sample in
  let r = expect_accept obj in
  Alcotest.(check bool) "stores found" true (r.Verifier.store_annotations > 0);
  Alcotest.(check bool) "cfi found" true (r.Verifier.cfi_annotations >= 1);
  Alcotest.(check bool) "prologue per function" true (r.Verifier.prologues >= 2);
  Alcotest.(check bool) "epilogue per function" true (r.Verifier.epilogues >= 2);
  Alcotest.(check bool) "ssa checks found" true (r.Verifier.ssa_checks > 0)

(* ------------------------------------------------------------------ *)
(* Rejection: policy-weaker binaries against stronger verification *)

let test_rejects_unannotated_store () =
  let obj = compile ~policies:Policy.Set.none sample in
  expect_reject ~policies:Policy.Set.p1 obj "store without annotation"

let test_rejects_bare_ret () =
  let obj = compile ~policies:Policy.Set.p1 sample in
  (* P1 binary has bare rets; P5 demands epilogues somewhere before them.
     Function entry check fires first. *)
  expect_reject ~policies:Policy.Set.p1_p5 obj ""

let test_rejects_missing_ssa () =
  let obj = compile ~policies:Policy.Set.p1_p5 sample in
  expect_reject ~policies:Policy.Set.p1_p6 obj ""

(* ------------------------------------------------------------------ *)
(* Rejection: hand-crafted malicious binaries *)

let fresh_gen prefix =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf ".L%s%d" prefix !c

let prologue_items () = Annot.emit ~fresh_label:(fresh_gen "pro") Annot.prologue_template

let test_rejects_unchecked_indirect () =
  (* correct prologue, but a raw indirect jump with no CFI group *)
  let obj =
    handmade ~instrument:false ~funs:[ "main" ]
      ((Asm.Label "main" :: prologue_items ())
      @ [ Asm.Ins (Mov (Reg R10, Imm 0x12345L)); Asm.Ins (JmpInd (Reg R10)) ])
  in
  expect_reject ~policies:(Policy.Set.of_list [ Policy.P5 ]) obj "indirect branch"

let test_rejects_r15_write () =
  let obj =
    handmade ~instrument:false ~funs:[ "main" ]
      ((Asm.Label "main" :: prologue_items ())
      @ [ Asm.Ins (Mov (Reg R15, Imm 0L)); Asm.Ins (Mov (Reg RAX, Imm 0L)); Asm.Ins Hlt ])
  in
  expect_reject ~policies:(Policy.Set.of_list [ Policy.P5 ]) obj "shadow-stack register"

let test_rejects_branch_into_annotation () =
  (* A fully instrumented store, but an extra direct jump targets the
     guarded MOV inside the group, skipping the bounds check. *)
  let m = mem_of_reg RBX in
  let annotated_store =
    Annot.emit
      ~fresh_label:(let c = ref 0 in fun () -> incr c; Printf.sprintf ".LL%d" !c)
      (Annot.store_template (Annot.adjust_mem_for_pushes m 2))
    @ [ Asm.Label "inside"; Asm.Ins (Mov (Mem m, Reg RCX)) ]
  in
  let obj =
    handmade ~instrument:false ~funs:[ "main" ]
      ([
         Asm.Label "main";
         Asm.Ins (Mov (Reg RBX, Sym "main"));
         Asm.Ins (Jmp (Lab "inside")) (* bypass! *);
       ]
      @ annotated_store
      @ [ Asm.Ins (Mov (Reg RAX, Imm 0L)); Asm.Ins Hlt ])
  in
  expect_reject ~policies:Policy.Set.p1 obj ""

let test_rejects_truncated_text () =
  let obj = compile sample in
  let cut = { obj with Objfile.text = Bytes.sub obj.Objfile.text 0 40 } in
  (match verify_obj cut with
  | Ok _ -> Alcotest.fail "truncated text accepted"
  | Error _ -> ())

let test_rejects_missing_stub () =
  let obj = compile sample in
  let no_stub =
    {
      obj with
      Objfile.symbols =
        List.filter (fun s -> s.Objfile.name <> "__abort_store") obj.Objfile.symbols;
    }
  in
  expect_reject no_stub "missing required symbol"

let test_rejects_tampered_magic () =
  (* flip one annotation bound so it whitelists the whole address space *)
  let obj = compile ~policies:Policy.Set.p1 sample in
  let text = Bytes.copy obj.Objfile.text in
  (* find a Mov rbx, STORE_LOWER and overwrite its immediate *)
  let rec find off =
    if off >= Bytes.length text then None
    else begin
      let i, len = Codec.decode text off in
      match i with
      | Mov (Reg RBX, Imm v) when Int64.equal v Annot.store_lower_magic ->
        Some (off + Option.get (Codec.imm64_field_offset i))
      | _ -> find (off + len)
    end
  in
  match find 0 with
  | None -> Alcotest.fail "no annotation found to tamper with"
  | Some field ->
    let b = B.create () in
    B.u64 b 0L;
    Bytes.blit (B.contents b) 0 text field 8;
    let bad = { obj with Objfile.text = text } in
    expect_reject ~policies:Policy.Set.p1 bad ""

let test_rejects_branch_list_nonfunction () =
  let obj = compile sample in
  let bad = { obj with Objfile.branch_targets = [ "no_such_symbol" ] } in
  expect_reject bad "branch-list entry"

let test_rejects_flow_off_end () =
  let obj =
    handmade ~instrument:false ~funs:[ "main" ]
      [ Asm.Label "main"; Asm.Ins (Mov (Reg RAX, Imm 1L)) ]
  in
  (* main falls through into the stubs, which is fine; but jumping past
     the end is caught *)
  let obj2 =
    handmade ~instrument:false ~funs:[ "main" ]
      [ Asm.Label "main"; Asm.Ins (Jmp (Rel 100000)) ]
  in
  ignore obj;
  expect_reject ~policies:Policy.Set.none obj2 "leaves the text"

let test_rejects_undecodable_reachable_bytes () =
  let obj =
    handmade ~instrument:false ~funs:[ "main" ] [ Asm.Label "main"; Asm.Ins Nop ]
  in
  (* overwrite the Nop with an invalid opcode *)
  let text = Bytes.copy obj.Objfile.text in
  let main_off =
    (List.find (fun s -> s.Objfile.name = "main") obj.Objfile.symbols).Objfile.offset
  in
  Bytes.set text main_off '\xEE';
  let bad = { obj with Objfile.text = text } in
  expect_reject ~policies:Policy.Set.none bad "undecodable"

let test_p6_straight_line_budget () =
  (* a long uninspected straight-line run violates the q-budget *)
  let nops = List.init 60 (fun _ -> Asm.Ins Nop) in
  let items =
    (Asm.Label "main" :: nops) @ [ Asm.Ins (Mov (Reg RAX, Imm 0L)); Asm.Ins Hlt ]
  in
  let p6_only = Policy.Set.of_list [ Policy.P6 ] in
  let obj = handmade ~instrument:false ~funs:[ "main" ] items in
  expect_reject ~policies:p6_only { obj with Objfile.ssa_q = 20 } "SSA inspection period";
  (* same code under a generous budget is fine *)
  ignore (expect_accept ~policies:p6_only { obj with Objfile.ssa_q = 100 })

let test_p6_loop_head_must_be_inspected () =
  (* a backward branch to a target without an SSA check is rejected: the
     loop could spin forever without the marker being inspected *)
  let items =
    [
      Asm.Label "main";
      Asm.Ins (Mov (Reg RCX, Imm 5L));
      Asm.Label "loop";
      Asm.Ins (Binop (Sub, Reg RCX, Imm 1L));
      Asm.Ins (Cmp (Reg RCX, Imm 0L));
      Asm.Ins (Jcc (NE, Lab "loop"));
      Asm.Ins Hlt;
    ]
  in
  let p6_only = Policy.Set.of_list [ Policy.P6 ] in
  let obj = handmade ~instrument:false ~funs:[ "main" ] items in
  expect_reject ~policies:p6_only obj "backward branch target";
  (* the instrumentation pass fixes exactly this *)
  let fixed = handmade ~instrument:true ~policies:p6_only ~funs:[ "main" ] items in
  ignore (expect_accept ~policies:p6_only fixed)

(* ------------------------------------------------------------------ *)
(* Golden rejection triples: the exact (pass, offset, reason) for a set
   of known-bad binaries is part of the verifier's contract — forensics
   and replay tooling key off these values, so a drift is a regression,
   not a cosmetic change. *)

let expect_triple name policies obj (pass, offset, reason) =
  match verify_obj ~policies obj with
  | Ok _ -> Alcotest.failf "%s: expected rejection" name
  | Error r ->
    Alcotest.(check string) (name ^ ": pass") pass (Verifier.pass_label r.Verifier.pass);
    Alcotest.(check int) (name ^ ": offset") offset r.Verifier.offset;
    Alcotest.(check string) (name ^ ": reason") reason r.Verifier.reason

let test_golden_unannotated_store () =
  let obj = compile ~policies:Policy.Set.none sample in
  expect_triple "bare store vs P1" Policy.Set.p1 obj
    ("scan", 333, "memory store without annotation: mov [rsi+rdx*8], rax")

let test_golden_missing_stub () =
  let obj = compile sample in
  let bad =
    {
      obj with
      Objfile.symbols =
        List.filter (fun s -> s.Objfile.name <> "__abort_store") obj.Objfile.symbols;
    }
  in
  expect_triple "dropped abort stub" Policy.Set.p1_p6 bad
    ("symbols", 0, "missing required symbol __abort_store")

let test_golden_bad_branch_list () =
  let obj = compile sample in
  let bad = { obj with Objfile.branch_targets = [ "no_such_symbol" ] } in
  expect_triple "non-function branch-list entry" Policy.Set.p1_p6 bad
    ("symbols", 0, "branch-list entry is not a function: no_such_symbol")

let test_golden_missing_prologue () =
  let obj = compile ~policies:Policy.Set.p1 sample in
  expect_triple "P1 binary vs P1-P5" Policy.Set.p1_p5 obj
    ("scan", 349, "function entry without shadow-stack prologue")

let test_golden_missing_ssa_checks () =
  let obj = compile ~policies:Policy.Set.p1_p5 sample in
  expect_triple "P1-P5 binary vs P1-P6" Policy.Set.p1_p6 obj
    ("scan", 294, "straight-line run exceeds the SSA inspection period")

let test_golden_lying_ssa_q () =
  (* binary instrumented for q=20 but delivered claiming q=5: the declared
     (stricter) period is what the verifier holds it to *)
  let obj = compile sample in
  expect_triple "understated ssa_q" Policy.Set.p1_p6 { obj with Objfile.ssa_q = 5 }
    ("scan", 254, "straight-line run exceeds the SSA inspection period")

let test_golden_bare_rsp_write () =
  let obj = compile ~policies:Policy.Set.none sample in
  expect_triple "bare RSP write vs P2" (Policy.Set.of_list [ Policy.P2 ]) obj
    ("scan", 378, "RSP write without P2 annotation: mov rsp, rbp")

(* ------------------------------------------------------------------ *)
(* Classification: the machinery/guarded-store split exposed to runtime
   monitors must cover matched annotation groups and nothing else *)

let test_classification_partitions_text () =
  let obj = compile sample in
  match Verifier.verify_classified ~policies:Policy.Set.p1_p6 ~ssa_q:obj.Objfile.ssa_q obj with
  | Error r -> Alcotest.failf "unexpected rejection: %a" Verifier.pp_rejection r
  | Ok (report, cls) ->
    (* every guarded store is NOT machinery (it stays runtime-monitored) *)
    let text = obj.Objfile.text in
    let rec walk off machinery guarded =
      if off >= Bytes.length text then (machinery, guarded)
      else
        match Codec.decode text off with
        | exception Codec.Decode_error _ -> (machinery, guarded)
        | _, len ->
          walk (off + len)
            (machinery + if Verifier.is_machinery cls off then 1 else 0)
            (guarded + if Verifier.is_guarded_store cls off then 1 else 0)
    in
    let machinery, guarded = walk 0 0 0 in
    Alcotest.(check int) "one guarded store per annotation" report.Verifier.store_annotations
      guarded;
    Alcotest.(check bool) "machinery present" true (machinery > 0);
    Alcotest.(check bool) "machinery excludes guarded stores" true
      (let rec check off =
         off >= Bytes.length text
         ||
         match Codec.decode text off with
         | exception Codec.Decode_error _ -> true
         | _, len ->
           (not (Verifier.is_guarded_store cls off && Verifier.is_machinery cls off))
           && check (off + len)
       in
       check 0)

let test_empty_classification () =
  let cls = Verifier.empty_classification () in
  Alcotest.(check bool) "nothing is machinery" false (Verifier.is_machinery cls 0);
  Alcotest.(check bool) "nothing is guarded" false (Verifier.is_guarded_store cls 0)

(* ------------------------------------------------------------------ *)
(* Robustness: the verifier must never crash, whatever the input *)

let qcheck_verifier_total =
  QCheck.Test.make ~name:"verifier total on corrupted binaries" ~count:150
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, byte) ->
      let obj = compile sample in
      let text = Bytes.copy obj.Objfile.text in
      let pos = pos_seed * 7919 mod Bytes.length text in
      Bytes.set text pos (Char.chr (byte land 0xff));
      let mutated = { obj with Objfile.text = text } in
      match verify_obj mutated with Ok _ -> true | Error _ -> true)

let qcheck_verifier_random_sources_accepted =
  (* any well-typed source the compiler accepts must verify *)
  let gen_src =
    QCheck.Gen.(
      map2
        (fun n ops ->
          let body =
            List.mapi
              (fun i op ->
                Printf.sprintf "  acc = acc %s %d;"
                  (match op mod 3 with 0 -> "+" | 1 -> "-" | _ -> "*")
                  (i + 1))
              ops
            |> String.concat "\n"
          in
          Printf.sprintf
            {|int g[4];
int main() {
  int acc = %d;
%s
  for (int i = 0; i < 3; i = i + 1) { g[i] = acc + i; }
  return acc & 255;
}|}
            n body)
        (int_bound 100)
        (list_size (int_range 1 10) (int_bound 2)))
  in
  QCheck.Test.make ~name:"compiler output always verifies" ~count:50 (QCheck.make gen_src)
    (fun src ->
      let obj = compile src in
      match verify_obj obj with Ok _ -> true | Error _ -> false)

let qcheck_random_bytes_never_crash =
  QCheck.Test.make ~name:"verifier total on random bytes" ~count:100
    QCheck.(pair small_nat (list_of_size (QCheck.Gen.int_range 1 200) (int_bound 255)))
    (fun (_, byte_list) ->
      let text = Bytes.of_string (String.init (List.length byte_list) (fun i -> Char.chr (List.nth byte_list i))) in
      let base = compile ~policies:Policy.Set.p1 sample in
      let obj = { base with Objfile.text } in
      match verify_obj ~policies:Policy.Set.p1 obj with Ok _ -> true | Error _ -> true)

(* The soundness property behind the whole design: whatever single-bit
   corruption the provider ships, IF the verifier accepts it, running it
   must not leak a byte out of the enclave. *)
let qcheck_accepted_mutants_do_not_leak =
  QCheck.Test.make ~name:"accepted mutants never leak" ~count:40
    QCheck.(pair small_nat (int_bound 7))
    (fun (pos_seed, bit) ->
      let obj = compile ~policies:Policy.Set.p1_p5 sample in
      let text = Bytes.copy obj.Objfile.text in
      let pos = pos_seed * 6151 mod Bytes.length text in
      Bytes.set text pos (Char.chr (Char.code (Bytes.get text pos) lxor (1 lsl bit)));
      let mutated = { obj with Objfile.text } in
      match verify_obj ~policies:Policy.Set.p1_p5 mutated with
      | Error _ -> true (* rejected: fine *)
      | Ok _ -> (
        (* accepted: it must run without leaking (aborts/faults are fine) *)
        let config =
          {
            Helpers.Bootstrap.default_config with
            Helpers.Bootstrap.policies = Policy.Set.p1_p5;
            interp =
              { Helpers.Interp.default_config with Helpers.Interp.instr_limit = 2_000_000 };
          }
        in
        let d = Helpers.deliver_obj ~config mutated in
        match Helpers.run_delivered d with
        | Error _ -> true
        | Ok stats -> stats.Helpers.Bootstrap.leaked_bytes = 0))

let test_pass_labels_round_trip () =
  (* the sealed planes store the rejecting pass by label and parse it
     back: every pass survives, nothing else parses *)
  List.iter
    (fun p ->
      let label = Verifier.pass_label p in
      Alcotest.(check bool) label true (Verifier.pass_of_label label = Some p))
    [ Verifier.Symbols; Scan; Cfg; Witness ];
  List.iter
    (fun label -> Alcotest.(check bool) label true (Verifier.pass_of_label label = None))
    [ ""; "Scan"; "descent"; "witness " ]

(* Decodes per verification, pinned exactly in both modes. The descent
   finds each template by trial decoding; the witnessed replay reads the
   validation pass's decode table, so a replay that re-decodes claimed
   boundaries moves its count. Each row: (program, descent, witnessed);
   the services are code-heavy, run-light binaries of 20 and 160 small
   annotated functions. *)
let service_source funcs =
  let fn i =
    Printf.sprintf
      "int f%d(int x) { int a[8]; a[x %% 8] = x + %d; a[(x + 1) %% 8] = a[x %% 8] * 3; \
       return a[x %% 8] + a[(x + 1) %% 8]; }\n"
      i i
  in
  String.concat "" (List.init funcs fn)
  ^ "int main() {\n  int s = 0;\n"
  ^ String.concat "" (List.init funcs (fun i -> Printf.sprintf "  s = s + f%d(%d);\n" i i))
  ^ "  print_int(s);\n  return 0;\n}\n"

let decode_golden =
  let nbench name = (Option.get (Deflection_workloads.Nbench.find name)).source in
  let gen seed = (Deflection_fuzz.Gen.generate ~seed).Deflection_fuzz.Gen.source in
  [
    ("NUMERIC SORT", nbench "NUMERIC SORT", 10_052, 721);
    ("gen 1", gen 1L, 9_075, 533);
    ("gen 2", gen 2L, 4_473, 307);
    ("gen 3", gen 3L, 11_570, 698);
    ("service 20", service_source 20, 58_789, 3_697);
    ("service 160", service_source 160, 466_959, 29_107);
  ]

let test_decode_golden () =
  let decodes name mode obj =
    let tm = Deflection_telemetry.Telemetry.create () in
    (match Verifier.verify_mode ~tm ~mode ~policies:Policy.Set.p1_p6 ~ssa_q:20 obj with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "%s rejected: %a" name Verifier.pp_rejection r);
    Deflection_telemetry.Telemetry.counter_total tm "verifier.decodes"
  in
  List.iter
    (fun (name, src, descent, witnessed) ->
      let obj = Frontend.compile_exn ~policies:Policy.Set.p1_p6 ~ssa_q:20 src in
      Alcotest.(check (pair int int))
        (name ^ ": decodes (descent, witnessed)")
        (descent, witnessed)
        (decodes name Verifier.Descent obj, decodes name Verifier.Witnessed obj))
    decode_golden

let suite =
  [
    Alcotest.test_case "pass labels round-trip" `Quick test_pass_labels_round_trip;
    Alcotest.test_case "accepts compiler output (all policies)" `Quick
      test_accepts_compiler_output_all_policies;
    Alcotest.test_case "report counts" `Quick test_report_counts;
    Alcotest.test_case "diamond CFG exact counts" `Quick test_diamond_cfg_exact_counts;
    Alcotest.test_case "rejects unannotated store" `Quick test_rejects_unannotated_store;
    Alcotest.test_case "rejects bare ret" `Quick test_rejects_bare_ret;
    Alcotest.test_case "rejects missing ssa" `Quick test_rejects_missing_ssa;
    Alcotest.test_case "rejects unchecked indirect" `Quick test_rejects_unchecked_indirect;
    Alcotest.test_case "rejects R15 write" `Quick test_rejects_r15_write;
    Alcotest.test_case "rejects branch into annotation" `Quick
      test_rejects_branch_into_annotation;
    Alcotest.test_case "rejects truncated text" `Quick test_rejects_truncated_text;
    Alcotest.test_case "rejects missing stub" `Quick test_rejects_missing_stub;
    Alcotest.test_case "rejects tampered magic" `Quick test_rejects_tampered_magic;
    Alcotest.test_case "rejects bad branch list" `Quick test_rejects_branch_list_nonfunction;
    Alcotest.test_case "rejects flow off end" `Quick test_rejects_flow_off_end;
    Alcotest.test_case "rejects undecodable bytes" `Quick test_rejects_undecodable_reachable_bytes;
    Alcotest.test_case "P6 straight-line budget" `Quick test_p6_straight_line_budget;
    Alcotest.test_case "P6 loop head must be inspected" `Quick test_p6_loop_head_must_be_inspected;
    Alcotest.test_case "golden: unannotated store" `Quick test_golden_unannotated_store;
    Alcotest.test_case "golden: missing stub" `Quick test_golden_missing_stub;
    Alcotest.test_case "golden: bad branch list" `Quick test_golden_bad_branch_list;
    Alcotest.test_case "golden: missing prologue" `Quick test_golden_missing_prologue;
    Alcotest.test_case "golden: missing ssa checks" `Quick test_golden_missing_ssa_checks;
    Alcotest.test_case "golden: lying ssa_q" `Quick test_golden_lying_ssa_q;
    Alcotest.test_case "golden: bare RSP write" `Quick test_golden_bare_rsp_write;
    Alcotest.test_case "classification partitions text" `Quick test_classification_partitions_text;
    Alcotest.test_case "golden: decodes per program, both modes" `Quick test_decode_golden;
    Alcotest.test_case "empty classification" `Quick test_empty_classification;
    QCheck_alcotest.to_alcotest qcheck_verifier_total;
    QCheck_alcotest.to_alcotest qcheck_verifier_random_sources_accepted;
    QCheck_alcotest.to_alcotest qcheck_random_bytes_never_crash;
    QCheck_alcotest.to_alcotest qcheck_accepted_mutants_do_not_leak;
  ]
