module Isa = Deflection_isa.Isa
module Asm = Deflection_isa.Asm
module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Interp = Deflection_runtime.Interp
module Annot = Deflection_annot.Annot
open Isa

let deny_all _ _ = Interp.Halt (Interp.Ocall_denied 99)

let setup ?(config = Interp.default_config) ?(ocall = deny_all) items =
  let layout = Layout.make Layout.small_config in
  let mem = Memory.create layout in
  let a = Asm.assemble items in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  let itp = Interp.create ~config ~ocall mem in
  Interp.init_stack itp;
  (itp, mem, layout, a)

let run_items ?config ?ocall items =
  let itp, mem, layout, _ = setup ?config ?ocall items in
  let exit = Interp.run itp ~entry:layout.Layout.code_lo in
  (exit, itp, mem, layout)

let exited = function Interp.Exited v -> v | r -> Alcotest.failf "unexpected exit: %s" (Interp.exit_reason_to_string r)

let test_mov_arith () =
  let exit, _, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm 10L));
        Asm.Ins (Mov (Reg RBX, Imm 4L));
        Asm.Ins (Binop (Imul, Reg RAX, Reg RBX)); (* 40 *)
        Asm.Ins (Binop (Add, Reg RAX, Imm 2L)); (* 42 *)
        Asm.Ins (Binop (Sub, Reg RAX, Imm 10L)); (* 32 *)
        Asm.Ins (Binop (Xor, Reg RAX, Imm 1L)); (* 33 *)
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "result" 33L (exited exit)

let test_memory_operands () =
  let exit, _, _, _ =
    run_items
      [
        (* use the stack as scratch: [rsp-16] is inside the stack region *)
        Asm.Ins (Mov (Reg RBX, Reg RSP));
        Asm.Ins (Mov (Mem { base = Some RBX; index = None; scale = 1; disp = -16L }, Imm 7L));
        Asm.Ins (Mov (Reg RCX, Imm 2L));
        (* rax = [rbx + rcx*8 - 32] with rcx=2 -> [rbx-16] *)
        Asm.Ins (Mov (Reg RAX, Mem { base = Some RBX; index = Some RCX; scale = 8; disp = -32L }));
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "sib addressing" 7L (exited exit)

let test_lea () =
  let exit, _, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RBX, Imm 100L));
        Asm.Ins (Mov (Reg RCX, Imm 3L));
        Asm.Ins (Lea (RAX, { base = Some RBX; index = Some RCX; scale = 4; disp = 5L }));
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "lea computes" 117L (exited exit)

(* Every condition code against a signed/unsigned-discriminating pair. *)
let cond_expectations =
  (* cmp (-1) 1 : signed -1 < 1, unsigned max > 1 *)
  [
    (E, false); (NE, true); (L, true); (LE, true); (G, false); (GE, false);
    (B, false); (BE, false); (A, true); (AE, true); (S, true); (NS, false);
  ]

let test_conditions () =
  List.iter
    (fun (cond, expect) ->
      let exit, _, _, _ =
        run_items
          [
            Asm.Ins (Mov (Reg RBX, Imm (-1L)));
            Asm.Ins (Cmp (Reg RBX, Imm 1L));
            Asm.Ins (Jcc (cond, Lab "yes"));
            Asm.Ins (Mov (Reg RAX, Imm 0L));
            Asm.Ins Hlt;
            Asm.Label "yes";
            Asm.Ins (Mov (Reg RAX, Imm 1L));
            Asm.Ins Hlt;
          ]
      in
      Alcotest.(check int64)
        (Format.asprintf "cond %a on cmp -1,1" Isa.pp_cond cond)
        (if expect then 1L else 0L)
        (exited exit))
    cond_expectations

let test_flag_overflow_edges () =
  (* signed-overflow corner: min_int - 1 wraps; L must reflect the signed
     comparison, B the unsigned one *)
  let check ~a ~b ~cond ~expect =
    let exit, _, _, _ =
      run_items
        [
          Asm.Ins (Mov (Reg RBX, Imm a));
          Asm.Ins (Cmp (Reg RBX, Imm b));
          Asm.Ins (Jcc (cond, Lab "yes"));
          Asm.Ins (Mov (Reg RAX, Imm 0L));
          Asm.Ins Hlt;
          Asm.Label "yes";
          Asm.Ins (Mov (Reg RAX, Imm 1L));
          Asm.Ins Hlt;
        ]
    in
    Alcotest.(check int64)
      (Printf.sprintf "cmp %Ld,%Ld j%s" a b (Format.asprintf "%a" Isa.pp_cond cond))
      (if expect then 1L else 0L)
      (exited exit)
  in
  check ~a:Int64.min_int ~b:1L ~cond:L ~expect:true;
  check ~a:Int64.min_int ~b:1L ~cond:B ~expect:false;
  check ~a:Int64.max_int ~b:Int64.min_int ~cond:L ~expect:false;
  check ~a:Int64.max_int ~b:Int64.min_int ~cond:B ~expect:true;
  check ~a:(-1L) ~b:(-1L) ~cond:E ~expect:true;
  check ~a:(-2L) ~b:(-1L) ~cond:L ~expect:true;
  check ~a:(-2L) ~b:(-1L) ~cond:B ~expect:true

let test_wraparound_arith () =
  let exit, itp, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm Int64.max_int));
        Asm.Ins (Binop (Add, Reg RAX, Imm 1L)); (* wraps to min_int *)
        Asm.Ins (Mov (Reg RBX, Imm Int64.min_int));
        Asm.Ins (Binop (Sub, Reg RBX, Imm 1L)); (* wraps to max_int *)
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "add wraps" Int64.min_int (exited exit);
  Alcotest.(check int64) "sub wraps" Int64.max_int (Interp.read_reg itp RBX)

let test_call_ret_stack () =
  let exit, _, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm 1L));
        Asm.Ins (Call (Lab "f"));
        Asm.Ins (Binop (Add, Reg RAX, Imm 100L));
        Asm.Ins Hlt;
        Asm.Label "f";
        Asm.Ins (Binop (Add, Reg RAX, Imm 10L));
        Asm.Ins Ret;
      ]
  in
  Alcotest.(check int64) "call/ret" 111L (exited exit)

let test_push_pop () =
  let exit, _, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RBX, Imm 5L));
        Asm.Ins (Push (Reg RBX));
        Asm.Ins (Push (Imm 6L));
        Asm.Ins (Pop RAX); (* 6 *)
        Asm.Ins (Pop RCX); (* 5 *)
        Asm.Ins (Binop (Imul, Reg RAX, Reg RCX));
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "push/pop order" 30L (exited exit)

let test_idiv_signed () =
  let cases = [ ((-7L), 2L, -3L, -1L); (7L, 2L, 3L, 1L); ((-7L), (-2L), 3L, -1L) ] in
  List.iter
    (fun (a, b, q, r) ->
      let exit, itp, _, _ =
        run_items
          [
            Asm.Ins (Mov (Reg RAX, Imm a));
            Asm.Ins (Mov (Reg RBX, Imm b));
            Asm.Ins (Idiv (Reg RBX));
            Asm.Ins Hlt;
          ]
      in
      Alcotest.(check int64) "quotient" q (exited exit);
      Alcotest.(check int64) "remainder" r (Interp.read_reg itp RDX))
    cases

let test_div_by_zero () =
  let exit, _, _, _ =
    run_items
      [ Asm.Ins (Mov (Reg RAX, Imm 1L)); Asm.Ins (Mov (Reg RBX, Imm 0L)); Asm.Ins (Idiv (Reg RBX)); Asm.Ins Hlt ]
  in
  match exit with
  | Interp.Div_by_zero _ -> ()
  | r -> Alcotest.failf "expected div-by-zero, got %s" (Interp.exit_reason_to_string r)

let test_div_overflow () =
  (* INT64_MIN / -1 overflows the quotient: real idiv raises #DE, so the
     interpreter must fault distinctly from div-by-zero, not wrap *)
  let exit, _, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm Int64.min_int));
        Asm.Ins (Mov (Reg RBX, Imm (-1L)));
        Asm.Ins (Idiv (Reg RBX));
        Asm.Ins Hlt;
      ]
  in
  match exit with
  | Interp.Div_overflow _ -> ()
  | r -> Alcotest.failf "expected div-overflow, got %s" (Interp.exit_reason_to_string r)

let test_shifts () =
  let exit, itp, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm (-16L)));
        Asm.Ins (Shift (Sar, Reg RAX, Imm 2L)); (* -4 *)
        Asm.Ins (Mov (Reg RBX, Imm (-16L)));
        Asm.Ins (Shift (Shr, Reg RBX, Imm 60L)); (* 15 *)
        Asm.Ins (Mov (Reg RCX, Imm 3L));
        Asm.Ins (Shift (Shl, Reg RCX, Imm 4L)); (* 48 *)
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "sar" (-4L) (exited exit);
  Alcotest.(check int64) "shr" 15L (Interp.read_reg itp RBX);
  Alcotest.(check int64) "shl" 48L (Interp.read_reg itp RCX)

let test_float_ops () =
  let exit, itp, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm 9L));
        Asm.Ins (Cvtsi2sd (RAX, Reg RAX));
        Asm.Ins (Fsqrt (RAX, Reg RAX)); (* 3.0 *)
        Asm.Ins (Mov (Reg RBX, Imm (Int64.bits_of_float 0.5)));
        Asm.Ins (Fbin (FMul, RAX, Reg RBX)); (* 1.5 *)
        Asm.Ins (Fbin (FAdd, RAX, Reg RBX)); (* 2.0 *)
        Asm.Ins (Fbin (FDiv, RAX, Reg RBX)); (* 4.0 *)
        Asm.Ins (Mov (Reg RCX, Reg RAX))  (* keep the float bits *) ;
        Asm.Ins (Cvttsd2si (RAX, Reg RAX));
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "float pipeline" 4L (exited exit);
  Alcotest.(check (float 1e-9)) "bits are 4.0" 4.0 (Int64.float_of_bits (Interp.read_reg itp RCX))

let test_fcmp () =
  let exit, _, _, _ =
    run_items
      [
        Asm.Ins (Mov (Reg RAX, Imm (Int64.bits_of_float 1.5)));
        Asm.Ins (Mov (Reg RBX, Imm (Int64.bits_of_float 2.5)));
        Asm.Ins (Fcmp (RAX, Reg RBX));
        Asm.Ins (Jcc (B, Lab "less"));
        Asm.Ins (Mov (Reg RAX, Imm 0L));
        Asm.Ins Hlt;
        Asm.Label "less";
        Asm.Ins (Mov (Reg RAX, Imm 1L));
        Asm.Ins Hlt;
      ]
  in
  Alcotest.(check int64) "1.5 < 2.5" 1L (exited exit)

let test_fcmp_nan () =
  (* ucomisd semantics: an unordered compare sets ZF and CF together
     (flags_word bits 0 and 2 -> 5); ordered less-than sets CF alone *)
  let nan_bits = Int64.bits_of_float Float.nan in
  let flags_after a b =
    let itp, _, layout, _ =
      setup [ Asm.Ins (Mov (Reg RAX, Imm a)); Asm.Ins (Mov (Reg RBX, Imm b));
              Asm.Ins (Fcmp (RAX, Reg RBX)); Asm.Ins Hlt ]
    in
    ignore (exited (Interp.run itp ~entry:layout.Layout.code_lo));
    Interp.flags_word itp
  in
  Alcotest.(check int64) "nan vs 1.0 unordered" 5L
    (flags_after nan_bits (Int64.bits_of_float 1.0));
  Alcotest.(check int64) "1.0 vs nan unordered" 5L
    (flags_after (Int64.bits_of_float 1.0) nan_bits);
  Alcotest.(check int64) "nan vs nan unordered" 5L (flags_after nan_bits nan_bits);
  Alcotest.(check int64) "1.5 < 2.5 sets CF only" 4L
    (flags_after (Int64.bits_of_float 1.5) (Int64.bits_of_float 2.5));
  Alcotest.(check int64) "2.5 = 2.5 sets ZF only" 1L
    (flags_after (Int64.bits_of_float 2.5) (Int64.bits_of_float 2.5));
  (* every condition code against the unordered result: ZF=CF=1 means the
     below/equal family is taken and the above/not-equal family is not *)
  List.iter
    (fun (cond, expect) ->
      let exit, _, _, _ =
        run_items
          [
            Asm.Ins (Mov (Reg RCX, Imm nan_bits));
            Asm.Ins (Fcmp (RCX, Reg RCX));
            Asm.Ins (Jcc (cond, Lab "yes"));
            Asm.Ins (Mov (Reg RAX, Imm 0L));
            Asm.Ins Hlt;
            Asm.Label "yes";
            Asm.Ins (Mov (Reg RAX, Imm 1L));
            Asm.Ins Hlt;
          ]
      in
      Alcotest.(check int64)
        (Format.asprintf "j%a after nan fcmp" Isa.pp_cond cond)
        (if expect then 1L else 0L)
        (exited exit))
    [ (E, true); (B, true); (BE, true); (NE, false); (A, false); (AE, false) ]

let test_indirect_branches () =
  (* build once to learn label offsets, then embed the absolute address *)
  let items target_imm =
    [
      Asm.Ins (Mov (Reg R10, Imm target_imm));
      Asm.Ins (CallInd (Reg R10));
      Asm.Ins (Binop (Add, Reg RAX, Imm 1L));
      Asm.Ins Hlt;
      Asm.Label "callee";
      Asm.Ins (Mov (Reg RAX, Imm 41L));
      Asm.Ins Ret;
    ]
  in
  let probe = Asm.assemble (items 0L) in
  let layout = Layout.make Layout.small_config in
  let callee = layout.Layout.code_lo + List.assoc "callee" probe.Asm.label_offsets in
  let exit, _, _, _ = run_items (items (Int64.of_int callee)) in
  Alcotest.(check int64) "indirect call" 42L (exited exit)

let test_instr_limit () =
  let config = { Interp.default_config with Interp.instr_limit = 1000 } in
  let exit, _, _, _ =
    run_items ~config [ Asm.Label "loop"; Asm.Ins Nop; Asm.Ins (Jmp (Lab "loop")) ]
  in
  (match exit with
  | Interp.Limit_exceeded -> ()
  | r -> Alcotest.failf "expected limit, got %s" (Interp.exit_reason_to_string r))

let test_self_modifying_code_and_cache () =
  (* The program overwrites the first byte of the instruction at "patch"
     with the HLT opcode, then jumps to it. The compiled-code caches must
     observe the write (generation bump), or they would run the stale MOV. *)
  let items addr =
    [
      Asm.Ins (Mov (Reg RBX, Imm addr));
      Asm.Ins (Mov (Reg RCX, Imm 0x01L)); (* HLT opcode *)
      Asm.Ins (Mov (Reg RAX, Imm 5L));
      (* a call/ret detour through compiled code before the patch *)
      Asm.Ins (Call (Lab "warm"));
      (* patch: write one byte over the code *)
      Asm.Ins (Mov (Reg RDX, Mem (mem_of_reg RBX)));
      Asm.Ins (Binop (And, Reg RDX, Imm (-256L)));
      Asm.Ins (Binop (Or, Reg RDX, Reg RCX));
      Asm.Ins (Mov (Mem (mem_of_reg RBX), Reg RDX));
      Asm.Ins (Jmp (Lab "patch"));
      Asm.Label "warm";
      Asm.Ins Ret;
      Asm.Label "patch";
      Asm.Ins (Mov (Reg RAX, Imm 99L)); (* becomes HLT after the patch *)
      Asm.Ins Hlt;
    ]
  in
  let probe = Asm.assemble (items 0L) in
  let layout = Layout.make Layout.small_config in
  let patch = layout.Layout.code_lo + List.assoc "patch" probe.Asm.label_offsets in
  let exit, _, _, _ = run_items (items (Int64.of_int patch)) in
  (* HLT with RAX=5: the patched instruction executed, not the stale MOV *)
  Alcotest.(check int64) "self-modification took effect" 5L (exited exit)

let test_op_cache_generation_reset () =
  (* Re-delivering code bumps the memory generation; the compiled-code
     caches must drop their stale entries rather than keep both
     generations' worth *)
  let items = [ Asm.Ins (Mov (Reg RAX, Imm 7L)); Asm.Ins Hlt ] in
  let itp, mem, layout, a = setup items in
  ignore (exited (Interp.run itp ~entry:layout.Layout.code_lo));
  let s1 = Interp.trace_cache_size itp in
  Alcotest.(check bool) "cache populated" true (s1 > 0);
  let gen = Memory.code_generation mem in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  Alcotest.(check bool) "generation bumped" true (Memory.code_generation mem > gen);
  ignore (exited (Interp.run itp ~entry:layout.Layout.code_lo));
  Alcotest.(check int) "cache reset, no growth across generations" s1
    (Interp.trace_cache_size itp)

let test_aex_injection_clobbers_marker () =
  let config = { Interp.default_config with Interp.aex_interval = Some 200 } in
  let marker = 0x5A5AC3C3DEADBEEFL in
  let layout = Layout.make Layout.small_config in
  let mem = Memory.create layout in
  let items =
    [ Asm.Ins (Mov (Reg RCX, Imm 3000L)); Asm.Label "loop"; Asm.Ins (Binop (Sub, Reg RCX, Imm 1L));
      Asm.Ins (Cmp (Reg RCX, Imm 0L)); Asm.Ins (Jcc (NE, Lab "loop")); Asm.Ins Hlt ]
  in
  let a = Asm.assemble items in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  Memory.priv_write_u64 mem (Layout.ssa_marker_addr layout) marker;
  let itp = Interp.create ~config ~ocall:deny_all mem in
  Interp.init_stack itp;
  let _ = Interp.run itp ~entry:layout.Layout.code_lo in
  Alcotest.(check bool) "AEXes happened" true (Interp.aex_count itp > 0);
  Alcotest.(check bool) "marker clobbered" true
    (not (Int64.equal (Memory.priv_read_u64 mem (Layout.ssa_marker_addr layout)) marker))

let test_aex_determinism () =
  let config = { Interp.default_config with Interp.aex_interval = Some 500; aex_seed = 33L } in
  let run () =
    let exit, itp, _, _ =
      run_items ~config
        [ Asm.Ins (Mov (Reg RCX, Imm 5000L)); Asm.Label "l"; Asm.Ins (Binop (Sub, Reg RCX, Imm 1L));
          Asm.Ins (Cmp (Reg RCX, Imm 0L)); Asm.Ins (Jcc (NE, Lab "l")); Asm.Ins Hlt ]
    in
    ignore (exited exit);
    (Interp.cycles itp, Interp.aex_count itp)
  in
  Alcotest.(check (pair int int)) "same seed, same schedule" (run ()) (run ())

let test_ocall_dispatch () =
  let ocall n itp =
    if n = 3 then begin
      let v = Interp.read_reg itp RDI in
      Interp.write_reg itp RAX (Int64.mul v 2L);
      Interp.Continue
    end
    else Interp.Halt (Interp.Ocall_denied n)
  in
  let exit, itp, _, _ =
    run_items ~ocall
      [ Asm.Ins (Mov (Reg RDI, Imm 21L)); Asm.Ins (Ocall 3); Asm.Ins Hlt ]
  in
  Alcotest.(check int64) "handler result" 42L (exited exit);
  Alcotest.(check int) "ocall counted" 1 (Interp.ocall_count itp);
  Alcotest.(check bool) "transition charged" true (Interp.cycles itp >= 8000)

let test_ocall_denied () =
  let exit, _, _, _ = run_items [ Asm.Ins (Ocall 7); Asm.Ins Hlt ] in
  match exit with
  | Interp.Ocall_denied 99 -> ()
  | r -> Alcotest.failf "expected denial, got %s" (Interp.exit_reason_to_string r)

let test_rsp_pivot_leaks_to_host () =
  (* push through an out-of-enclave RSP: the write lands in host memory
     and is recorded as a leak - the ground truth P2 protects against *)
  let exit, _, mem, layout =
    run_items
      [
        Asm.Ins (Mov (Reg RSP, Imm 0x10L)); (* far below ELRANGE *)
        Asm.Ins (Push (Imm 0x41L));
        Asm.Ins (Mov (Reg RAX, Imm 0L));
        Asm.Ins Hlt;
      ]
  in
  ignore (exited exit);
  ignore layout;
  Alcotest.(check int) "secret escaped the enclave" 8 (Memory.leaked_bytes mem)

let test_policy_abort_exit_codes () =
  let code = Deflection_annot.Annot.abort_exit_code Deflection_annot.Annot.Store in
  let exit, _, _, _ =
    run_items [ Asm.Ins (Mov (Reg RAX, Imm code)); Asm.Ins Hlt ]
  in
  match exit with
  | Interp.Policy_abort Deflection_annot.Annot.Store -> ()
  | r -> Alcotest.failf "expected store abort, got %s" (Interp.exit_reason_to_string r)

let test_single_step () =
  let itp, _, layout, _ =
    setup [ Asm.Ins (Mov (Reg RAX, Imm 3L)); Asm.Ins Hlt ]
  in
  Interp.write_reg itp RAX 0L;
  (* manual stepping *)
  let entry = layout.Layout.code_lo in
  Interp.write_reg itp RSP (Int64.of_int (layout.Layout.stack_hi - 64));
  let r = Interp.run itp ~entry in
  Alcotest.(check int64) "ran" 3L (exited r);
  Alcotest.(check int) "two instructions" 2 (Interp.instructions itp)

(* ------------------------------------------------------------------ *)
(* The instruction table: the independent reference for the compiled
   instruction semantics. One hand-computed row per operand shape that
   the instruction compiler specializes and per generic arm behind it,
   one per fused compare-and-branch (cmp/test, register/immediate, each
   of the 12 conditions), and HLT/OCALL. Each row assembles its
   instruction before a hlt, runs it both stepped and as compiled
   blocks, and compares the whole register file, the flags word (bit 0
   ZF, 1 SF, 2 CF, 3 OF; it starts at 0) and every memory word the row
   names.

   Shapes the cases above already covered (mov/arith, memory operands,
   lea, all conditions, call/ret, push/pop, idiv, shifts, float ops,
   fcmp) are re-stated here for completeness; the table adds the
   absolute and index-only address shapes, memory destinations for the
   ALU, unary and shift ops, memory and immediate divisors, memory and
   immediate float operands, the conversions, the fused
   test-and-branch pairs and the OCALL arm. *)

type row = {
  name : string;
  pre : (reg * int64) list;  (* registers before (RSP starts at the stack top) *)
  mem : (int * int64) list;  (* words before, by absolute address *)
  prog : Asm.item list;
  post : (reg * int64) list;  (* registers the row changes *)
  flags : int64;  (* flags word after *)
  mem' : (int * int64) list;  (* words after *)
  exit : string option;  (* exit reason, when not exited(RAX) *)
}

let row ?(pre = []) ?(mem = []) ?(post = []) ?(flags = 0L) ?(mem' = []) ?exit name instr =
  { name; pre; mem; prog = [ Asm.Ins instr; Asm.Ins Hlt ]; post; flags; mem'; exit }

let bits = Int64.bits_of_float
let at ?base ?index ?(scale = 1) disp = { base; index; scale; disp }

let table_layout = Layout.make Layout.small_config

let instruction_rows =
  let d = table_layout.Layout.data_lo in
  let sp = table_layout.Layout.stack_hi - 64 in
  let dl = Int64.of_int d in
  let spl = Int64.of_int sp in
  let rsi k = Mem (at ~base:RSI (Int64.of_int k)) in
  let on_d = [ (RSI, dl) ] in
  [
    (* mov: every specialized shape (the generic arm is unreachable from
       decoded code: the decoder rejects mem-to-mem moves) *)
    row "mov r,r" ~pre:[ (RBX, 7L) ] ~post:[ (RAX, 7L) ] (Mov (Reg RAX, Reg RBX));
    row "mov r,imm" ~post:[ (RAX, 0x123456789ABCL) ] (Mov (Reg RAX, Imm 0x123456789ABCL));
    row "mov r,[b+d]" ~pre:on_d ~mem:[ (d + 16, 42L) ] ~post:[ (RAX, 42L) ]
      (Mov (Reg RAX, rsi 16));
    row "mov r,[b+i*s+d]" ~pre:[ (RSI, dl); (RCX, 2L) ] ~mem:[ (d + 24, 43L) ]
      ~post:[ (RAX, 43L) ]
      (Mov (Reg RAX, Mem (at ~base:RSI ~index:RCX ~scale:8 8L)));
    row "mov r,[i*s+d]" ~pre:[ (RCX, Int64.of_int (d / 8)) ] ~mem:[ (d + 8, 44L) ]
      ~post:[ (RAX, 44L) ]
      (Mov (Reg RAX, Mem (at ~index:RCX ~scale:8 8L)));
    row "mov r,[abs]" ~mem:[ (d + 8, 45L) ] ~post:[ (RAX, 45L) ]
      (Mov (Reg RAX, Mem (at (Int64.add dl 8L))));
    row "mov [b+d],r" ~pre:[ (RSI, dl); (RBX, 46L) ] ~mem':[ (d + 16, 46L) ]
      (Mov (rsi 16, Reg RBX));
    row "mov [b+i*s+d],r" ~pre:[ (RSI, dl); (RCX, 1L); (RBX, 47L) ] ~mem':[ (d + 16, 47L) ]
      (Mov (Mem (at ~base:RSI ~index:RCX ~scale:8 8L), Reg RBX));
    row "mov [abs],r" ~pre:[ (RBX, 48L) ] ~mem':[ (d + 32, 48L) ]
      (Mov (Mem (at (Int64.add dl 32L)), Reg RBX));
    row "mov [m],imm" ~pre:on_d ~mem':[ (d + 40, -1L) ] (Mov (rsi 40, Imm (-1L)));
    (* lea: the four effective-address shapes *)
    row "lea [b+i*s+d]" ~pre:[ (RBX, 100L); (RCX, 3L) ] ~post:[ (RAX, 110L) ]
      (Lea (RAX, at ~base:RBX ~index:RCX ~scale:4 (-2L)));
    row "lea [b+d]" ~pre:[ (RBX, 100L) ] ~post:[ (RAX, 99L) ] (Lea (RAX, at ~base:RBX (-1L)));
    row "lea [i*s+d]" ~pre:[ (RCX, 5L) ] ~post:[ (RAX, 11L) ]
      (Lea (RAX, at ~index:RCX ~scale:2 1L));
    row "lea [d]" ~post:[ (RAX, 77L) ] (Lea (RAX, at 77L));
    (* push/pop *)
    row "push r" ~pre:[ (RBX, 9L) ] ~post:[ (RSP, Int64.sub spl 8L) ] ~mem':[ (sp - 8, 9L) ]
      (Push (Reg RBX));
    row "push imm" ~post:[ (RSP, Int64.sub spl 8L) ] ~mem':[ (sp - 8, -5L) ] (Push (Imm (-5L)));
    row "push [m]" ~pre:on_d ~mem:[ (d, 10L) ] ~post:[ (RSP, Int64.sub spl 8L) ]
      ~mem':[ (sp - 8, 10L) ] (Push (rsi 0));
    row "pop r" ~mem:[ (sp, 11L) ] ~post:[ (RBX, 11L); (RSP, Int64.add spl 8L) ] (Pop RBX);
    (* binop: add/sub register shapes, the other ops through the
       register/immediate arms, and the generic arm with memory *)
    row "add r,r" ~pre:[ (RAX, -1L); (RBX, 1L) ] ~post:[ (RAX, 0L) ] ~flags:5L
      (Binop (Add, Reg RAX, Reg RBX));
    row "add r,imm" ~pre:[ (RAX, Int64.max_int) ] ~post:[ (RAX, Int64.min_int) ] ~flags:10L
      (Binop (Add, Reg RAX, Imm 1L));
    row "sub r,r" ~pre:[ (RAX, 3L); (RBX, 5L) ] ~post:[ (RAX, -2L) ] ~flags:6L
      (Binop (Sub, Reg RAX, Reg RBX));
    row "sub r,imm" ~pre:[ (RAX, Int64.min_int) ] ~post:[ (RAX, Int64.max_int) ] ~flags:8L
      (Binop (Sub, Reg RAX, Imm 1L));
    row "and r,r" ~pre:[ (RAX, -1L); (RBX, Int64.min_int) ] ~post:[ (RAX, Int64.min_int) ]
      ~flags:2L (Binop (And, Reg RAX, Reg RBX));
    row "and r,imm" ~pre:[ (RAX, 0xFFL) ] ~post:[ (RAX, 0x0FL) ] (Binop (And, Reg RAX, Imm 0x0FL));
    row "or r,r" ~pre:[ (RAX, 0x10L); (RBX, 0x01L) ] ~post:[ (RAX, 0x11L) ]
      (Binop (Or, Reg RAX, Reg RBX));
    row "or r,imm" ~flags:1L (Binop (Or, Reg RAX, Imm 0L));
    row "xor r,r" ~pre:[ (RAX, 5L); (RBX, 5L) ] ~post:[ (RAX, 0L) ] ~flags:1L
      (Binop (Xor, Reg RAX, Reg RBX));
    row "xor r,imm" ~post:[ (RAX, -1L) ] ~flags:2L (Binop (Xor, Reg RAX, Imm (-1L)));
    row "imul r,r" ~pre:[ (RAX, Int64.shift_left 1L 62); (RBX, 4L) ] ~post:[ (RAX, 0L) ]
      ~flags:1L (Binop (Imul, Reg RAX, Reg RBX));
    row "imul r,imm" ~pre:[ (RAX, -3L) ] ~post:[ (RAX, -21L) ] ~flags:2L
      (Binop (Imul, Reg RAX, Imm 7L));
    row "add [m],r" ~pre:[ (RSI, dl); (RBX, 2L) ] ~mem:[ (d, 40L) ] ~mem':[ (d, 42L) ]
      (Binop (Add, rsi 0, Reg RBX));
    row "sub r,[m]" ~pre:[ (RSI, dl); (RAX, 3L) ] ~mem:[ (d, 10L) ] ~post:[ (RAX, -7L) ]
      ~flags:6L (Binop (Sub, Reg RAX, rsi 0));
    row "imul r,[m]" ~pre:[ (RSI, dl); (RAX, 7L) ] ~mem:[ (d, 6L) ] ~post:[ (RAX, 42L) ]
      (Binop (Imul, Reg RAX, rsi 0));
    row "and [m],imm" ~pre:on_d ~mem:[ (d, 0xF0L) ] ~mem':[ (d, 0x30L) ]
      (Binop (And, rsi 0, Imm 0x3CL));
    (* unop *)
    row "inc r" ~pre:[ (RAX, Int64.max_int) ] ~post:[ (RAX, Int64.min_int) ] ~flags:10L
      (Unop (Inc, Reg RAX));
    row "dec r" ~post:[ (RAX, -1L) ] ~flags:6L (Unop (Dec, Reg RAX));
    row "neg r" ~pre:[ (RAX, 5L) ] ~post:[ (RAX, -5L) ] ~flags:6L (Unop (Neg, Reg RAX));
    row "not r" ~post:[ (RAX, -1L) ] (Unop (Not, Reg RAX));
    row "neg [m]" ~pre:on_d ~mem:[ (d, Int64.min_int) ] ~mem':[ (d, Int64.min_int) ] ~flags:14L
      (Unop (Neg, rsi 0));
    row "inc [m]" ~pre:on_d ~mem:[ (d, -1L) ] ~mem':[ (d, 0L) ] ~flags:5L (Unop (Inc, rsi 0));
    row "dec [m]" ~pre:on_d ~mem:[ (d, 1L) ] ~mem':[ (d, 0L) ] ~flags:1L (Unop (Dec, rsi 0));
    row "not [m]" ~pre:on_d ~mem:[ (d, 0x0FL) ] ~mem':[ (d, -16L) ] (Unop (Not, rsi 0));
    (* shift: ZF/SF only; counts masked to 6 bits *)
    row "shl r,imm" ~pre:[ (RAX, 3L) ] ~post:[ (RAX, -4611686018427387904L) ] ~flags:2L
      (Shift (Shl, Reg RAX, Imm 62L));
    row "shr r,imm" ~pre:[ (RAX, -16L) ] ~post:[ (RAX, 4611686018427387900L) ]
      (Shift (Shr, Reg RAX, Imm 2L));
    row "sar r,imm" ~pre:[ (RAX, -16L) ] ~post:[ (RAX, -4L) ] ~flags:2L
      (Shift (Sar, Reg RAX, Imm 2L));
    row "shl r,imm masked" ~pre:[ (RAX, 1L) ] ~post:[ (RAX, 2L) ] (Shift (Shl, Reg RAX, Imm 65L));
    row "shl r,r" ~pre:[ (RAX, 1L); (RCX, 68L) ] ~post:[ (RAX, 16L) ]
      (Shift (Shl, Reg RAX, Reg RCX));
    row "sar [m],imm" ~pre:on_d ~mem:[ (d, -256L) ] ~mem':[ (d, -16L) ] ~flags:2L
      (Shift (Sar, rsi 0, Imm 4L));
    row "shr [m],r" ~pre:[ (RSI, dl); (RCX, 8L) ] ~mem:[ (d, 256L) ] ~mem':[ (d, 1L) ]
      (Shift (Shr, rsi 0, Reg RCX));
    (* idiv: truncating quotient in RAX, remainder in RDX *)
    row "idiv r" ~pre:[ (RAX, -7L); (RBX, 2L) ] ~post:[ (RAX, -3L); (RDX, -1L) ] (Idiv (Reg RBX));
    row "idiv [m]" ~pre:[ (RSI, dl); (RAX, 20L) ] ~mem:[ (d, 3L) ] ~post:[ (RAX, 6L); (RDX, 2L) ]
      (Idiv (rsi 0));
    row "idiv imm" ~pre:[ (RAX, 9L) ] ~post:[ (RAX, 2L); (RDX, 1L) ] (Idiv (Imm 4L));
    (* cmp/test: flags only *)
    row "cmp r,r" ~pre:[ (RAX, 3L); (RBX, 5L) ] ~flags:6L (Cmp (Reg RAX, Reg RBX));
    row "cmp r,imm" ~pre:[ (RAX, 5L) ] ~flags:1L (Cmp (Reg RAX, Imm 5L));
    row "cmp [m],imm" ~pre:on_d ~mem:[ (d, Int64.min_int) ] ~flags:8L (Cmp (rsi 0, Imm 1L));
    row "cmp r,[m]" ~pre:on_d ~mem:[ (d, 1L) ] ~flags:6L (Cmp (Reg RAX, rsi 0));
    row "test r,r" ~pre:[ (RAX, 12L); (RBX, 10L) ] (Test (Reg RAX, Reg RBX));
    row "test r,imm" ~pre:[ (RAX, 12L) ] ~flags:1L (Test (Reg RAX, Imm 3L));
    row "test [m],r" ~pre:[ (RSI, dl); (RBX, Int64.min_int) ] ~mem:[ (d, -1L) ] ~flags:2L
      (Test (rsi 0, Reg RBX));
    (* fbin: register shapes per op, then memory and immediate operands *)
    row "fadd r,r" ~pre:[ (RAX, bits 1.5); (RBX, bits 2.25) ] ~post:[ (RAX, bits 3.75) ]
      (Fbin (FAdd, RAX, Reg RBX));
    row "fsub r,r" ~pre:[ (RAX, bits 1.5); (RBX, bits 2.25) ] ~post:[ (RAX, bits (-0.75)) ]
      (Fbin (FSub, RAX, Reg RBX));
    row "fmul r,r" ~pre:[ (RAX, bits 1.5); (RBX, bits 2.25) ] ~post:[ (RAX, bits 3.375) ]
      (Fbin (FMul, RAX, Reg RBX));
    row "fdiv r,r" ~pre:[ (RAX, bits 7.5); (RBX, bits 2.5) ] ~post:[ (RAX, bits 3.0) ]
      (Fbin (FDiv, RAX, Reg RBX));
    row "fadd r,[m]" ~pre:[ (RSI, dl); (RAX, bits 1.0) ] ~mem:[ (d, bits 0.25) ]
      ~post:[ (RAX, bits 1.25) ] (Fbin (FAdd, RAX, rsi 0));
    row "fsub r,[m]" ~pre:[ (RSI, dl); (RAX, bits 1.0) ] ~mem:[ (d, bits 0.25) ]
      ~post:[ (RAX, bits 0.75) ] (Fbin (FSub, RAX, rsi 0));
    row "fmul r,imm" ~pre:[ (RAX, bits 3.0) ] ~post:[ (RAX, bits 1.5) ]
      (Fbin (FMul, RAX, Imm (bits 0.5)));
    row "fdiv r,imm" ~pre:[ (RAX, bits 1.0) ] ~post:[ (RAX, bits 0.25) ]
      (Fbin (FDiv, RAX, Imm (bits 4.0)));
    (* fcmp: ucomisd image, SF = OF = 0 *)
    row "fcmp r,r less" ~pre:[ (RAX, bits 1.0); (RBX, bits 2.0) ] ~flags:4L (Fcmp (RAX, Reg RBX));
    row "fcmp r,r equal" ~pre:[ (RAX, bits 2.0); (RBX, bits 2.0) ] ~flags:1L (Fcmp (RAX, Reg RBX));
    row "fcmp r,[m] unordered" ~pre:[ (RSI, dl); (RAX, bits Float.nan) ] ~mem:[ (d, bits 1.0) ]
      ~flags:5L (Fcmp (RAX, rsi 0));
    row "fcmp r,imm greater" ~pre:[ (RAX, bits 3.0) ] (Fcmp (RAX, Imm (bits 1.0)));
    (* conversions and fsqrt *)
    row "cvtsi2sd r,r" ~pre:[ (RBX, -3L) ] ~post:[ (RAX, bits (-3.0)) ] (Cvtsi2sd (RAX, Reg RBX));
    row "cvtsi2sd r,[m]" ~pre:on_d ~mem:[ (d, 7L) ] ~post:[ (RAX, bits 7.0) ]
      (Cvtsi2sd (RAX, rsi 0));
    row "cvttsd2si r,r" ~pre:[ (RBX, bits (-2.75)) ] ~post:[ (RAX, -2L) ]
      (Cvttsd2si (RAX, Reg RBX));
    row "cvttsd2si r,imm" ~post:[ (RAX, 9L) ] (Cvttsd2si (RAX, Imm (bits 9.99)));
    row "fsqrt r,r" ~pre:[ (RBX, bits 2.25) ] ~post:[ (RAX, bits 1.5) ] (Fsqrt (RAX, Reg RBX));
    row "fsqrt r,[m]" ~pre:on_d ~mem:[ (d, bits 16.0) ] ~post:[ (RAX, bits 4.0) ]
      (Fsqrt (RAX, rsi 0));
    (* hlt and ocall (the handler below answers index 3 with RAX = 77) *)
    row "hlt" ~pre:[ (RAX, 5L) ] ~exit:"exited(5)" Hlt;
    row "hlt abort code" ~pre:[ (RAX, Annot.abort_exit_code Annot.Cfi) ]
      ~exit:(Interp.exit_reason_to_string (Interp.Policy_abort Annot.Cfi)) Hlt;
    row "ocall" ~post:[ (RAX, 77L) ] (Ocall 3);
    row "ocall denied" ~exit:"ocall-denied(4)" (Ocall 4);
  ]

(* Compare-and-branch pairs, fused into one closure in compiled blocks:
   (name, compare, registers before, flags word after, taken per
   condition in E NE L LE G GE B BE A AE S NS order). *)
let branch_rows =
  let conds = [ E; NE; L; LE; G; GE; B; BE; A; AE; S; NS ] in
  let t = true and f = false in
  List.concat_map
    (fun (name, cmp, pre, flags, taken) ->
      List.map2
        (fun c tk ->
          {
            name = Format.asprintf "%s; j%a" name Isa.pp_cond c;
            pre;
            mem = [];
            prog =
              [
                Asm.Ins cmp;
                Asm.Ins (Jcc (c, Lab "taken"));
                Asm.Ins (Mov (Reg RAX, Imm 0L));
                Asm.Ins Hlt;
                Asm.Label "taken";
                Asm.Ins (Mov (Reg RAX, Imm 1L));
                Asm.Ins Hlt;
              ];
            post = [ (RAX, if tk then 1L else 0L) ];
            flags;
            mem' = [];
            exit = None;
          })
        conds taken)
    [
      (* 3 - 5: SF CF *)
      ( "cmp r,r", Cmp (Reg RBX, Reg RCX), [ (RBX, 3L); (RCX, 5L) ], 6L,
        [ f; t; t; t; f; f; t; t; f; f; t; f ] );
      (* min_int - 1: OF *)
      ( "cmp r,imm", Cmp (Reg RBX, Imm 1L), [ (RBX, Int64.min_int) ], 8L,
        [ f; t; t; t; f; f; f; f; t; t; f; t ] );
      (* -1 & min_int: SF *)
      ( "test r,r", Test (Reg RBX, Reg RCX), [ (RBX, -1L); (RCX, Int64.min_int) ], 2L,
        [ f; t; t; t; f; f; f; f; t; t; t; f ] );
      (* 12 & 3 = 0: ZF *)
      ( "test r,imm", Test (Reg RBX, Imm 3L), [ (RBX, 12L) ], 1L,
        [ t; f; f; t; f; t; f; t; f; t; f; t ] );
    ]

let table_ocall index itp =
  if index = 3 then begin
    Interp.write_reg itp RAX 77L;
    Interp.Continue
  end
  else Interp.Halt (Interp.Ocall_denied index)

let run_row ~stepped r =
  let layout = table_layout in
  let mem = Memory.create layout in
  let a = Asm.assemble r.prog in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  let itp = Interp.create ~ocall:table_ocall mem in
  Interp.init_stack itp;
  List.iter (fun (reg, v) -> Interp.write_reg itp reg v) r.pre;
  List.iter (fun (addr, v) -> Memory.priv_write_u64 mem addr v) r.mem;
  let entry = layout.Layout.code_lo in
  let exit =
    if stepped then begin
      Interp.set_rip itp entry;
      let rec go () = match Interp.step itp with None -> go () | Some e -> e in
      go ()
    end
    else Interp.run itp ~entry
  in
  (exit, itp, mem)

let test_instruction_table () =
  List.iter
    (fun r ->
      let regs = Array.make 16 0L in
      regs.(reg_index RSP) <- Int64.of_int (table_layout.Layout.stack_hi - 64);
      List.iter (fun (reg, v) -> regs.(reg_index reg) <- v) (r.pre @ r.post);
      let want_exit =
        match r.exit with
        | Some e -> e
        | None -> Interp.exit_reason_to_string (Interp.Exited regs.(reg_index RAX))
      in
      List.iter
        (fun stepped ->
          let exit, itp, mem = run_row ~stepped r in
          let label what = Printf.sprintf "%s (%s): %s" r.name
              (if stepped then "stepped" else "blocks") what in
          Alcotest.(check string) (label "exit") want_exit (Interp.exit_reason_to_string exit);
          Alcotest.(check (list int64)) (label "registers") (Array.to_list regs)
            (List.map snd (Interp.register_file itp));
          Alcotest.(check int64) (label "flags") r.flags (Interp.flags_word itp);
          List.iter
            (fun (addr, v) ->
              Alcotest.(check int64) (label (Printf.sprintf "word at %#x" addr)) v
                (Memory.priv_read_u64 mem addr))
            (r.mem' @ List.filter (fun (addr, _) -> not (List.mem_assoc addr r.mem')) r.mem))
        [ true; false ])
    (instruction_rows @ branch_rows)

let suite =
  [
    Alcotest.test_case "mov/arith" `Quick test_mov_arith;
    Alcotest.test_case "memory operands" `Quick test_memory_operands;
    Alcotest.test_case "lea" `Quick test_lea;
    Alcotest.test_case "all conditions" `Quick test_conditions;
    Alcotest.test_case "flag overflow edges" `Quick test_flag_overflow_edges;
    Alcotest.test_case "wraparound arithmetic" `Quick test_wraparound_arith;
    Alcotest.test_case "call/ret" `Quick test_call_ret_stack;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "idiv signed" `Quick test_idiv_signed;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "div overflow" `Quick test_div_overflow;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "float ops" `Quick test_float_ops;
    Alcotest.test_case "fcmp" `Quick test_fcmp;
    Alcotest.test_case "fcmp nan unordered" `Quick test_fcmp_nan;
    Alcotest.test_case "indirect branches" `Quick test_indirect_branches;
    Alcotest.test_case "instr limit" `Quick test_instr_limit;
    Alcotest.test_case "self-modifying code + decode cache" `Quick
      test_self_modifying_code_and_cache;
    Alcotest.test_case "op cache resets on code generation" `Quick
      test_op_cache_generation_reset;
    Alcotest.test_case "aex clobbers marker" `Quick test_aex_injection_clobbers_marker;
    Alcotest.test_case "aex deterministic" `Quick test_aex_determinism;
    Alcotest.test_case "ocall dispatch" `Quick test_ocall_dispatch;
    Alcotest.test_case "ocall denied" `Quick test_ocall_denied;
    Alcotest.test_case "rsp pivot leaks" `Quick test_rsp_pivot_leaks_to_host;
    Alcotest.test_case "policy abort codes" `Quick test_policy_abort_exit_codes;
    Alcotest.test_case "single program stats" `Quick test_single_step;
    Alcotest.test_case "instruction table" `Quick test_instruction_table;
  ]
