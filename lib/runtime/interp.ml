module Isa = Deflection_isa.Isa
module Codec = Deflection_isa.Codec
module Cost = Deflection_isa.Cost
module Memory = Deflection_enclave.Memory
module Layout = Deflection_enclave.Layout
module Annot = Deflection_annot.Annot
module Telemetry = Deflection_telemetry.Telemetry
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
open Isa

type exit_reason =
  | Exited of int64
  | Policy_abort of Annot.abort_reason
  | Mem_fault of Memory.fault
  | Invalid_instruction of int
  | Div_by_zero of int
  | Div_overflow of int
  | Ocall_denied of int
  | Ocall_failed of int
  | Limit_exceeded
  | Fuel_exhausted

let pp_exit_reason fmt = function
  | Exited v -> Format.fprintf fmt "exited(%Ld)" v
  | Policy_abort r -> Format.fprintf fmt "policy-abort(%a)" Annot.pp_abort_reason r
  | Mem_fault f -> Format.fprintf fmt "fault(%a)" Memory.pp_fault f
  | Invalid_instruction a -> Format.fprintf fmt "invalid-instruction(%#x)" a
  | Div_by_zero a -> Format.fprintf fmt "div-by-zero(%#x)" a
  | Div_overflow a -> Format.fprintf fmt "div-overflow(%#x)" a
  | Ocall_denied n -> Format.fprintf fmt "ocall-denied(%d)" n
  | Ocall_failed n -> Format.fprintf fmt "ocall-failed(%d)" n
  | Limit_exceeded -> Format.fprintf fmt "instruction-limit-exceeded"
  | Fuel_exhausted -> Format.fprintf fmt "watchdog-fuel-exhausted"

let exit_reason_to_string r = Format.asprintf "%a" pp_exit_reason r

(* Instruction classes: the decode-side histogram of the paper's
   per-instruction instrumentation cost model. The counters are a plain
   array bump per step, cheap enough to stay on unconditionally. *)

let n_classes = 10

let class_names =
  [| "mov"; "stack"; "alu"; "div"; "branch"; "callret"; "indirect"; "float"; "ocall"; "misc" |]

let class_index = function
  | Mov _ | Lea _ -> 0
  | Push _ | Pop _ -> 1
  | Binop _ | Unop _ | Shift _ | Cmp _ | Test _ -> 2
  | Idiv _ -> 3
  | Jmp _ | Jcc _ -> 4
  | Call _ | Ret -> 5
  | JmpInd _ | CallInd _ -> 6
  | Fbin _ | Fcmp _ | Cvtsi2sd _ | Cvttsd2si _ | Fsqrt _ -> 7
  | Ocall _ -> 8
  | Nop | Hlt -> 9

type flags = { mutable zf : bool; mutable sf : bool; mutable cf : bool; mutable ovf : bool }

type t = {
  mem : Memory.t;
  regs : int64 array;
  flags : flags;
  mutable rip : int;
  mutable cycles : int;
  mutable instrs : int;
  mutable aexes : int;
  mutable ocalls : int;
  mutable next_aex : int;
  mutable issue_residue : int;  (* simple ops awaiting a shared issue cycle *)
  config : config;
  jitter_prng : Deflection_util.Prng.t;  (* AEX schedule jitter *)
  coloc_prng : Deflection_util.Prng.t;  (* co-location observations *)
  ocall : int -> t -> ocall_outcome;
  (* decode cache: address -> (instr, length), valid for [cache_gen] only —
     the whole table is dropped when the code generation moves, so stale
     decodes can neither be served nor accumulate *)
  cache : (int, Isa.instr * int) Hashtbl.t;
  mutable cache_gen : int;
  (* trace tier: entry pc -> compiled straight-line block ([None] negative-
     caches entries that must single-step, e.g. OCALL/HLT sites). Valid
     for [block_gen] only — invalidated exactly like the decode cache. *)
  blocks : (int, block option) Hashtbl.t;
  mutable block_gen : int;
  (* verified basic-block leaders (absolute pcs) exported by the verifier:
     compiled blocks never run across one, so join points are not
     re-discovered by duplicated suffix compilation *)
  leaders : (int, unit) Hashtbl.t;
  mutable trace_pc : int;  (* pc of the in-flight block op, for fault repair *)
  klass : int array;  (* per-class instruction counts, indexed by class_index *)
  (* trace-tier counters, each bumped on a slow edge only (see
     [trace_counters]): blocks compiled, block-table lookups, single steps
     at an AEX/instruction-limit boundary and where no block compiles,
     and block-table drops after a code patch *)
  mutable tc_compiled : int;
  mutable tc_lookups : int;
  mutable tc_boundary : int;
  mutable tc_no_block : int;
  mutable tc_invalidations : int;
  mutable trace_off : string list;  (* why the last [run] did not take the trace tier *)
  tm : Telemetry.t;
  recorder : Flight_recorder.t;
  profiler : Profiler.t;
}

and ocall_outcome = Continue | Halt of exit_reason

and config = {
  instr_limit : int;
  aex_interval : int option;
  aex_seed : int64;
  colocated_prob : float;
  fuel : int option;
  tier : tier;
}

and tier = Step | Trace

(* A compiled block: fused closures plus the per-instruction metadata the
   dispatcher needs to repair counters when an op faults mid-block. The
   closure array can be shorter than [b_n] (superinstruction fusion), so
   repair is keyed on pc, never on closure index. *)
and block = {
  b_ops : (t -> unit) array;
  b_op_pcs : int array;  (* per closure: pc pinned into [trace_pc] before running it *)
  b_fall : int;  (* fall-through rip after the block, or -1 if the last op sets rip *)
  b_n : int;  (* instruction count *)
  b_pcs : int array;
  b_lens : int array;
  b_costs : int array;
  b_simple : bool array;
  b_klass : int array;
  b_sets_rip : bool array;  (* branch-type: the closure assigns the successor rip *)
  b_kidx : int array;  (* sparse class histogram: indices ... *)
  b_kcnt : int array;  (* ... and per-class counts, parallel arrays *)
  b_cycle_tot : int array;  (* whole-block cycle charge, by entry issue_residue *)
  b_exit_res : int array;  (* issue_residue after the block, by entry residue *)
  (* inline successor cache: block chaining skips the block-table lookup
     on hot edges. Chained pointers never outlive their generation — a
     code patch drops the whole table, and dispatch re-enters it through
     [lookup_block] (which revalidates) after any patch or single step. *)
  mutable b_s1_pc : int;
  mutable b_s1 : block option;
  mutable b_s2_pc : int;
  mutable b_s2 : block option;
}

let default_config =
  {
    instr_limit = 2_000_000_000;
    aex_interval = None;
    aex_seed = 7L;
    colocated_prob = 0.9999;
    fuel = None;
    tier = Trace;
  }

let schedule_next_aex t =
  match t.config.aex_interval with
  | None -> t.next_aex <- max_int
  | Some mean ->
    (* uniform jitter in [mean/2, 3*mean/2) keeps the schedule aperiodic *)
    let jitter = Deflection_util.Prng.int t.jitter_prng (max 1 mean) in
    t.next_aex <- t.cycles + (mean / 2) + jitter

let create ?(config = default_config) ?(tm = Telemetry.disabled)
    ?(recorder = Flight_recorder.disabled) ?(profiler = Profiler.disabled) ~ocall mem =
  let t =
    {
      mem;
      regs = Array.make 16 0L;
      flags = { zf = false; sf = false; cf = false; ovf = false };
      rip = 0;
      cycles = 0;
      instrs = 0;
      aexes = 0;
      ocalls = 0;
      next_aex = max_int;
      issue_residue = 0;
      config;
      (* labeled sub-streams of the one aex_seed: the AEX schedule and the
         co-location observations never perturb each other (Prng.derive) *)
      jitter_prng =
        Deflection_util.Prng.create
          (Deflection_util.Prng.derive config.aex_seed ~label:"aex-jitter");
      coloc_prng =
        Deflection_util.Prng.create
          (Deflection_util.Prng.derive config.aex_seed ~label:"colocation");
      ocall;
      cache = Hashtbl.create 4096;
      cache_gen = Memory.code_generation mem;
      blocks = Hashtbl.create 1024;
      block_gen = Memory.code_generation mem;
      leaders = Hashtbl.create 256;
      trace_pc = 0;
      klass = Array.make n_classes 0;
      tc_compiled = 0;
      tc_lookups = 0;
      tc_boundary = 0;
      tc_no_block = 0;
      tc_invalidations = 0;
      trace_off = [];
      tm;
      recorder;
      profiler;
    }
  in
  schedule_next_aex t;
  t

let class_counts t =
  Array.to_list (Array.mapi (fun i n -> (class_names.(i), n)) t.klass)

let read_reg t r = t.regs.(reg_index r)
let write_reg t r v = t.regs.(reg_index r) <- v
let memory t = t.mem
let rip t = t.rip
let set_rip t pc = t.rip <- pc
let recorder t = t.recorder
let profiler t = t.profiler
let register_file t =
  Array.to_list
    (Array.mapi
       (fun i v ->
         let name =
           match reg_of_index i with
           | Some r -> Format.asprintf "%a" pp_reg r
           | None -> Printf.sprintf "r%d" i
         in
         (name, v))
       t.regs)

let init_stack t =
  let l = Memory.layout t.mem in
  write_reg t RSP (Int64.of_int (l.Layout.stack_hi - 64))

(* ------------------------------------------------------------------ *)
(* Operand evaluation *)

let effective_address t (m : mem) =
  let base = match m.base with Some r -> t.regs.(reg_index r) | None -> 0L in
  let index =
    match m.index with
    | Some r -> Int64.mul t.regs.(reg_index r) (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.to_int (Int64.add (Int64.add base index) m.disp)

let read_operand t = function
  | Reg r -> t.regs.(reg_index r)
  | Imm v -> v
  | Mem m -> Memory.read_u64 t.mem (effective_address t m)
  | Sym s -> invalid_arg ("Interp: unresolved symbol operand " ^ s)

let write_operand t op v =
  match op with
  | Reg r -> t.regs.(reg_index r) <- v
  | Mem m -> Memory.write_u64 t.mem (effective_address t m) v
  | Imm _ | Sym _ -> invalid_arg "Interp: write to immediate operand"

(* ------------------------------------------------------------------ *)
(* Flags *)

let[@inline always] set_zs t r =
  t.flags.zf <- Int64.equal r 0L;
  t.flags.sf <- Int64.compare r 0L < 0

let[@inline always] set_flags_sub t a b =
  let r = Int64.sub a b in
  set_zs t r;
  t.flags.cf <- Int64.unsigned_compare a b < 0;
  t.flags.ovf <- Int64.compare (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) 0L < 0;
  r

let[@inline always] set_flags_add t a b =
  let r = Int64.add a b in
  set_zs t r;
  t.flags.cf <- Int64.unsigned_compare r a < 0;
  t.flags.ovf <-
    Int64.compare (Int64.logand (Int64.logxor a r) (Int64.logxor b r)) 0L < 0;
  r

let[@inline always] set_flags_logic t r =
  set_zs t r;
  t.flags.cf <- false;
  t.flags.ovf <- false;
  r

let cond_holds t = function
  | E -> t.flags.zf
  | NE -> not t.flags.zf
  | L -> t.flags.sf <> t.flags.ovf
  | LE -> t.flags.zf || t.flags.sf <> t.flags.ovf
  | G -> (not t.flags.zf) && t.flags.sf = t.flags.ovf
  | GE -> t.flags.sf = t.flags.ovf
  | B -> t.flags.cf
  | BE -> t.flags.cf || t.flags.zf
  | A -> (not t.flags.cf) && not t.flags.zf
  | AE -> not t.flags.cf
  | S -> t.flags.sf
  | NS -> not t.flags.sf

(* ------------------------------------------------------------------ *)
(* Stack and AEX *)

let push t v =
  let rsp = Int64.sub t.regs.(reg_index RSP) 8L in
  t.regs.(reg_index RSP) <- rsp;
  Memory.write_u64 t.mem (Int64.to_int rsp) v

let pop t =
  let rsp = t.regs.(reg_index RSP) in
  let v = Memory.read_u64 t.mem (Int64.to_int rsp) in
  t.regs.(reg_index RSP) <- Int64.add rsp 8L;
  v

(* RFLAGS image dumped to (and restored from) the SSA: one bit per
   simulated flag. *)
let flags_word t =
  let bit b i = if b then Int64.shift_left 1L i else 0L in
  Int64.logor (bit t.flags.zf 0)
    (Int64.logor (bit t.flags.sf 1) (Int64.logor (bit t.flags.cf 2) (bit t.flags.ovf 3)))

(* An AEX dumps the register context into the SSA, clobbering the P6
   marker word (which shares the SSA's first slot), and deposits the
   co-location observation the HyperRace-style probe would make. *)
let inject_aex t =
  t.aexes <- t.aexes + 1;
  t.cycles <- t.cycles + Cost.aex_cost;
  if Flight_recorder.enabled t.recorder then
    Flight_recorder.record t.recorder Flight_recorder.Aex ~pc:t.rip ~arg:t.aexes;
  if Telemetry.tracing t.tm then
    Telemetry.event t.tm "interp.aex"
      ~args:[ ("rip", Printf.sprintf "%#x" t.rip); ("n", string_of_int t.aexes) ];
  let l = Memory.layout t.mem in
  let ssa = l.Layout.ssa_lo in
  for i = 0 to 15 do
    Memory.priv_write_u64 t.mem (ssa + (8 * i)) t.regs.(i)
  done;
  Memory.priv_write_u64 t.mem (ssa + 128) (Int64.of_int t.rip);
  Memory.priv_write_u64 t.mem (ssa + 136) (flags_word t);
  let colocated =
    if Deflection_util.Prng.float t.coloc_prng 1.0 < t.config.colocated_prob then 1L else 0L
  in
  Memory.priv_write_u64 t.mem (Layout.colocation_cell l) colocated;
  schedule_next_aex t

let force_aex t = inject_aex t

(* ------------------------------------------------------------------ *)
(* Fetch/decode with a generation-stamped cache *)

let fetch t =
  Memory.check_exec t.mem t.rip;
  let gen = Memory.code_generation t.mem in
  if gen <> t.cache_gen then begin
    (* an imm-rewrite or code patch invalidated every cached decode:
       reset instead of letting dead generations accumulate *)
    Hashtbl.reset t.cache;
    t.cache_gen <- gen
  end;
  match Hashtbl.find_opt t.cache t.rip with
  | Some (i, len) -> (i, len)
  | None ->
    let off = Memory.to_offset t.mem t.rip in
    let i, len = Codec.decode (Memory.code_bytes t.mem) off in
    (* ensure the whole instruction lies in executable memory *)
    Memory.check_exec t.mem (t.rip + len - 1);
    Hashtbl.replace t.cache t.rip (i, len);
    (i, len)

let decode_cache_size t = Hashtbl.length t.cache

(* ------------------------------------------------------------------ *)
(* Execution *)

exception Halted of exit_reason

let f64 v = Int64.float_of_bits v
let b64 v = Int64.bits_of_float v

let exec t instr len =
  let next = t.rip + len in
  let goto a = t.rip <- a in
  let fall () = goto next in
  match instr with
  | Nop -> fall ()
  | Hlt ->
    let code = t.regs.(reg_index RAX) in
    (match Annot.abort_reason_of_exit_code code with
    | Some r ->
      if Telemetry.tracing t.tm then
        Telemetry.event t.tm "interp.policy-abort"
          ~args:[ ("reason", Format.asprintf "%a" Annot.pp_abort_reason r) ];
      raise (Halted (Policy_abort r))
    | None -> raise (Halted (Exited code)))
  | Mov (d, s) ->
    write_operand t d (read_operand t s);
    fall ()
  | Lea (r, m) ->
    t.regs.(reg_index r) <- Int64.of_int (effective_address t m);
    fall ()
  | Push o ->
    push t (read_operand t o);
    fall ()
  | Pop r ->
    t.regs.(reg_index r) <- pop t;
    fall ()
  | Binop (op, d, s) ->
    let a = read_operand t d and b = read_operand t s in
    let r =
      match op with
      | Add -> set_flags_add t a b
      | Sub -> set_flags_sub t a b
      | And -> set_flags_logic t (Int64.logand a b)
      | Or -> set_flags_logic t (Int64.logor a b)
      | Xor -> set_flags_logic t (Int64.logxor a b)
      | Imul ->
        let r = Int64.mul a b in
        set_zs t r;
        t.flags.cf <- false;
        t.flags.ovf <- false;
        r
    in
    write_operand t d r;
    fall ()
  | Unop (op, o) ->
    let a = read_operand t o in
    let r =
      match op with
      | Neg -> set_flags_sub t 0L a
      | Not -> Int64.lognot a
      | Inc -> set_flags_add t a 1L
      | Dec -> set_flags_sub t a 1L
    in
    write_operand t o r;
    fall ()
  | Shift (op, d, c) ->
    let a = read_operand t d in
    let count = Int64.to_int (Int64.logand (read_operand t c) 63L) in
    let r =
      match op with
      | Shl -> Int64.shift_left a count
      | Shr -> Int64.shift_right_logical a count
      | Sar -> Int64.shift_right a count
    in
    set_zs t r;
    write_operand t d r;
    fall ()
  | Idiv o ->
    let b = read_operand t o in
    if Int64.equal b 0L then raise (Halted (Div_by_zero t.rip));
    let a = t.regs.(reg_index RAX) in
    (* x86 idiv raises #DE when the quotient is unrepresentable:
       INT64_MIN / -1 faults on hardware, it does not wrap *)
    if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
      raise (Halted (Div_overflow t.rip));
    t.regs.(reg_index RAX) <- Int64.div a b;
    t.regs.(reg_index RDX) <- Int64.rem a b;
    fall ()
  | Cmp (a, b) ->
    ignore (set_flags_sub t (read_operand t a) (read_operand t b));
    fall ()
  | Test (a, b) ->
    ignore (set_flags_logic t (Int64.logand (read_operand t a) (read_operand t b)));
    fall ()
  | Jmp (Rel d) -> goto (next + d)
  | Jmp (Lab l) -> invalid_arg ("Interp: unresolved label " ^ l)
  | Jcc (c, Rel d) -> if cond_holds t c then goto (next + d) else fall ()
  | Jcc (_, Lab l) -> invalid_arg ("Interp: unresolved label " ^ l)
  | Call (Rel d) ->
    push t (Int64.of_int next);
    goto (next + d)
  | Call (Lab l) -> invalid_arg ("Interp: unresolved label " ^ l)
  | JmpInd o -> goto (Int64.to_int (read_operand t o))
  | CallInd o ->
    let target = Int64.to_int (read_operand t o) in
    push t (Int64.of_int next);
    goto target
  | Ret -> goto (Int64.to_int (pop t))
  | Ocall n ->
    t.ocalls <- t.ocalls + 1;
    t.cycles <- t.cycles + Cost.ocall_transition;
    if Flight_recorder.enabled t.recorder then
      Flight_recorder.record t.recorder Flight_recorder.Ocall ~pc:t.rip ~arg:n;
    if Telemetry.tracing t.tm then
      Telemetry.event t.tm "interp.ocall" ~args:[ ("index", string_of_int n) ];
    (match t.ocall n t with Continue -> fall () | Halt r -> raise (Halted r))
  | Fbin (op, r, o) ->
    let a = f64 t.regs.(reg_index r) and b = f64 (read_operand t o) in
    let v = match op with FAdd -> a +. b | FSub -> a -. b | FMul -> a *. b | FDiv -> a /. b in
    t.regs.(reg_index r) <- b64 v;
    fall ()
  | Fcmp (r, o) ->
    let a = f64 t.regs.(reg_index r) and b = f64 (read_operand t o) in
    (* ucomisd flag image: unordered (either operand NaN) sets ZF=CF=1,
       so A/AE ("strictly ordered-greater" / "not below") stay false on
       NaN while B/BE read true — never "greater" *)
    if Float.is_nan a || Float.is_nan b then begin
      t.flags.zf <- true;
      t.flags.cf <- true
    end
    else begin
      t.flags.zf <- a = b;
      t.flags.cf <- a < b
    end;
    t.flags.sf <- false;
    t.flags.ovf <- false;
    fall ()
  | Cvtsi2sd (r, o) ->
    t.regs.(reg_index r) <- b64 (Int64.to_float (read_operand t o));
    fall ()
  | Cvttsd2si (r, o) ->
    t.regs.(reg_index r) <- Int64.of_float (f64 (read_operand t o));
    fall ()
  | Fsqrt (r, o) ->
    t.regs.(reg_index r) <- b64 (sqrt (f64 (read_operand t o)));
    fall ()

(* Record an abnormal-exit event at the current rip (the pc of the
   instruction that raised — [exec] updates rip only on success). *)
let record_exit t r =
  if Flight_recorder.enabled t.recorder then begin
    match r with
    | Exited _ | Limit_exceeded | Fuel_exhausted -> ()
    | Policy_abort reason ->
      Flight_recorder.record t.recorder Flight_recorder.Abort ~pc:t.rip
        ~arg:(Int64.to_int (Annot.abort_exit_code reason))
    | Mem_fault _ | Invalid_instruction _ | Div_by_zero _ | Div_overflow _ | Ocall_denied _
    | Ocall_failed _ ->
      Flight_recorder.record t.recorder Flight_recorder.Fault ~pc:t.rip ~arg:0
  end

let fuel_spent t =
  match t.config.fuel with Some fuel -> t.cycles >= fuel | None -> false

let step t =
  try
    if t.instrs >= t.config.instr_limit then Some Limit_exceeded
    else if fuel_spent t then Some Fuel_exhausted
    else begin
      if t.cycles >= t.next_aex then inject_aex t;
      let i, len = fetch t in
      let pc = t.rip in
      t.instrs <- t.instrs + 1;
      let k = class_index i in
      t.klass.(k) <- t.klass.(k) + 1;
      (* 3-wide issue for simple register ops; full latency otherwise *)
      if Cost.is_simple i then begin
        t.issue_residue <- t.issue_residue + 1;
        if t.issue_residue >= 3 then begin
          t.issue_residue <- 0;
          t.cycles <- t.cycles + 1
        end
      end
      else t.cycles <- t.cycles + Cost.of_instr i;
      (* retired count bumps before exec so it matches [instrs] (and the
         class counters) even when the instruction faults mid-execution *)
      Profiler.on_step t.profiler ~cycles:t.cycles ~pc;
      if Flight_recorder.enabled t.recorder then
        Flight_recorder.record t.recorder Flight_recorder.Retired ~pc ~arg:0;
      exec t i len;
      if Flight_recorder.enabled t.recorder then begin
        match i with
        | Jcc _ ->
          let taken = t.rip <> pc + len in
          Flight_recorder.record t.recorder
            (if taken then Flight_recorder.Branch_taken else Flight_recorder.Branch_not_taken)
            ~pc ~arg:t.rip
        | JmpInd _ | CallInd _ | Ret ->
          Flight_recorder.record t.recorder Flight_recorder.Branch_taken ~pc ~arg:t.rip
        | _ -> ()
      end;
      None
    end
  with
  | Halted r ->
    record_exit t r;
    Some r
  | Memory.Fault f ->
    record_exit t (Mem_fault f);
    Some (Mem_fault f)
  | Codec.Decode_error _ ->
    record_exit t (Invalid_instruction t.rip);
    Some (Invalid_instruction t.rip)

(* ------------------------------------------------------------------ *)
(* Trace tier: straight-line blocks compiled to fused closures.

   After verification the hot path is decode-free: each basic block —
   ending at any branch/call/ret, before any OCALL/HLT, and at every
   verifier-exported leader — becomes an array of specialized closures
   executed back to back, with the per-instruction counter updates
   (instrs, cycles, issue residue, class histogram) folded into one
   precomputed bulk update per block.

   The tier is only entered when nothing needs per-instruction
   observation (no fuel watchdog, no flight recorder, no profiler; chaos
   plans and the fuzz monitor pin [Step] upstream), and a block is only
   entered when neither the instruction limit nor the AEX schedule can
   fire inside it — the counters are monotone, so "no boundary of the
   whole block trips the check" implies no interior boundary does. Every
   other observable is maintained exactly: closures mirror [exec]'s
   evaluation order, fault payloads carry the faulting instruction's pc,
   and a mid-block fault repairs the counter prefix before rethrowing so
   the exit state is bit-identical to the single-stepper's. *)

exception Trace_invalidated
exception Unsupported_op

let rsp_i = reg_index RSP
let rax_i = reg_index RAX
let rdx_i = reg_index RDX

(* Stores inside compiled code use the no-side-effect fast path when
   possible; the slow path can patch executable pages (self-modifying
   code), after which every compiled block is stale and dispatch must
   recompile — exactly the decode cache's generation discipline. *)
let trace_store_u64 t addr v =
  if not (Memory.write_u64_fast t.mem addr v) then begin
    Memory.write_u64 t.mem addr v;
    if Memory.code_generation t.mem <> t.block_gen then raise Trace_invalidated
  end

let trace_push t v =
  let rsp = Int64.sub (Array.unsafe_get t.regs rsp_i) 8L in
  Array.unsafe_set t.regs rsp_i rsp;
  trace_store_u64 t (Int64.to_int rsp) v

let trace_pop t =
  let rsp = Array.unsafe_get t.regs rsp_i in
  let v = Memory.read_u64_fast t.mem (Int64.to_int rsp) in
  Array.unsafe_set t.regs rsp_i (Int64.add rsp 8L);
  v

let mem_operand = function Mem _ -> true | _ -> false

(* Specialized per address-mode shape. Native-int arithmetic agrees with
   [effective_address]'s Int64 route: both reduce the same sum mod 2^63. *)
let ea_closure (m : Isa.mem) =
  let disp = Int64.to_int m.disp in
  match (m.base, m.index) with
  | None, None -> fun _ -> disp
  | Some b, None ->
    let bi = reg_index b in
    fun t -> Int64.to_int (Array.unsafe_get t.regs bi) + disp
  | None, Some x ->
    let xi = reg_index x and s = m.scale in
    fun t -> (Int64.to_int (Array.unsafe_get t.regs xi) * s) + disp
  | Some b, Some x ->
    let bi = reg_index b and xi = reg_index x and s = m.scale in
    fun t ->
      Int64.to_int (Array.unsafe_get t.regs bi)
      + (Int64.to_int (Array.unsafe_get t.regs xi) * s)
      + disp

let read_closure = function
  | Reg r ->
    let i = reg_index r in
    fun t -> Array.unsafe_get t.regs i
  | Imm v -> fun _ -> v
  | Mem m ->
    let ea = ea_closure m in
    fun t -> Memory.read_u64_fast t.mem (ea t)
  | Sym _ -> raise Unsupported_op

let write_closure = function
  | Reg r ->
    let i = reg_index r in
    fun t v -> Array.unsafe_set t.regs i v
  | Mem m ->
    let ea = ea_closure m in
    fun t v -> trace_store_u64 t (ea t) v
  | Imm _ | Sym _ -> raise Unsupported_op

(* One compiled op. [c_faults] records whether the body can raise (fault
   attribution relies on the dispatcher's trace_pc pin); [c_sets_rip]
   marks bodies that assign the successor rip themselves (branches). *)
type cop = { c_pc : int; c_exec : t -> unit; c_faults : bool; c_sets_rip : bool }

(* Uniform [t -> a -> b -> result] views of the ALU ops, so the
   register/immediate specializations below compile each hot instruction
   to a single closure instead of nested operand-closure calls. *)
let bop_fn = function
  | Add -> set_flags_add
  | Sub -> set_flags_sub
  | And -> fun t a b -> set_flags_logic t (Int64.logand a b)
  | Or -> fun t a b -> set_flags_logic t (Int64.logor a b)
  | Xor -> fun t a b -> set_flags_logic t (Int64.logxor a b)
  | Imul ->
    fun t a b ->
      let r = Int64.mul a b in
      set_zs t r;
      t.flags.cf <- false;
      t.flags.ovf <- false;
      r

let uop_fn = function
  | Neg -> fun t v -> set_flags_sub t 0L v
  | Not -> fun _ v -> Int64.lognot v
  | Inc -> fun t v -> set_flags_add t v 1L
  | Dec -> fun t v -> set_flags_sub t v 1L

(* Conditional-branch body with the condition inlined: one closure, no
   cond_closure hop. Shared by the Jcc arm and the compare-and-branch
   superinstructions. *)
let jcc_body c ~tg ~next =
  match c with
  | E -> fun t -> t.rip <- (if t.flags.zf then tg else next)
  | NE -> fun t -> t.rip <- (if t.flags.zf then next else tg)
  | L -> fun t -> t.rip <- (if t.flags.sf <> t.flags.ovf then tg else next)
  | LE -> fun t -> t.rip <- (if t.flags.zf || t.flags.sf <> t.flags.ovf then tg else next)
  | G -> fun t -> t.rip <- (if (not t.flags.zf) && t.flags.sf = t.flags.ovf then tg else next)
  | GE -> fun t -> t.rip <- (if t.flags.sf = t.flags.ovf then tg else next)
  | B -> fun t -> t.rip <- (if t.flags.cf then tg else next)
  | BE -> fun t -> t.rip <- (if t.flags.cf || t.flags.zf then tg else next)
  | A -> fun t -> t.rip <- (if (not t.flags.cf) && not t.flags.zf then tg else next)
  | AE -> fun t -> t.rip <- (if t.flags.cf then next else tg)
  | S -> fun t -> t.rip <- (if t.flags.sf then tg else next)
  | NS -> fun t -> t.rip <- (if t.flags.sf then next else tg)

let compile_instr ~pc ~len instr =
  let next = pc + len in
  let cop ?(faults = false) ?(sets_rip = false) exec =
    { c_pc = pc; c_exec = exec; c_faults = faults; c_sets_rip = sets_rip }
  in
  match instr with
  | Nop -> cop (fun _ -> ())
  (* register/immediate shapes compile to single closures; the generic
     arms below (operand closures, [exec]'s evaluation order) remain the
     reference semantics for everything else *)
  | Mov (Reg d, Reg s) ->
    let di = reg_index d and si = reg_index s in
    cop (fun t -> Array.unsafe_set t.regs di (Array.unsafe_get t.regs si))
  | Mov (Reg d, Imm v) ->
    let di = reg_index d in
    cop (fun t -> Array.unsafe_set t.regs di v)
  | Mov (Reg d, Mem { base = Some b; index = None; disp; _ }) ->
    (* the two dominant address shapes get the ea computation inlined *)
    let di = reg_index d and bi = reg_index b and disp = Int64.to_int disp in
    cop ~faults:true (fun t ->
        Array.unsafe_set t.regs di
          (Memory.read_u64_fast t.mem (Int64.to_int (Array.unsafe_get t.regs bi) + disp)))
  | Mov (Reg d, Mem { base = Some b; index = Some x; scale; disp }) ->
    let di = reg_index d and bi = reg_index b and xi = reg_index x in
    let disp = Int64.to_int disp in
    cop ~faults:true (fun t ->
        let a =
          Int64.to_int (Array.unsafe_get t.regs bi)
          + (Int64.to_int (Array.unsafe_get t.regs xi) * scale)
          + disp
        in
        Array.unsafe_set t.regs di (Memory.read_u64_fast t.mem a))
  | Mov (Reg d, Mem m) ->
    let di = reg_index d and ea = ea_closure m in
    cop ~faults:true (fun t ->
        Array.unsafe_set t.regs di (Memory.read_u64_fast t.mem (ea t)))
  | Mov (Mem { base = Some b; index = None; disp; _ }, Reg s) ->
    let bi = reg_index b and disp = Int64.to_int disp and si = reg_index s in
    cop ~faults:true (fun t ->
        trace_store_u64 t
          (Int64.to_int (Array.unsafe_get t.regs bi) + disp)
          (Array.unsafe_get t.regs si))
  | Mov (Mem { base = Some b; index = Some x; scale; disp }, Reg s) ->
    let bi = reg_index b and xi = reg_index x and si = reg_index s in
    let disp = Int64.to_int disp in
    cop ~faults:true (fun t ->
        let a =
          Int64.to_int (Array.unsafe_get t.regs bi)
          + (Int64.to_int (Array.unsafe_get t.regs xi) * scale)
          + disp
        in
        trace_store_u64 t a (Array.unsafe_get t.regs si))
  | Mov (Mem m, Reg s) ->
    let ea = ea_closure m and si = reg_index s in
    cop ~faults:true (fun t -> trace_store_u64 t (ea t) (Array.unsafe_get t.regs si))
  | Mov (Mem m, Imm v) ->
    let ea = ea_closure m in
    cop ~faults:true (fun t -> trace_store_u64 t (ea t) v)
  | Mov (d, s) ->
    let rs = read_closure s and wr = write_closure d in
    cop ~faults:(mem_operand d || mem_operand s) (fun t -> wr t (rs t))
  | Lea (r, m) ->
    let i = reg_index r and ea = ea_closure m in
    cop (fun t -> Array.unsafe_set t.regs i (Int64.of_int (ea t)))
  | Push (Reg r) ->
    let i = reg_index r in
    cop ~faults:true (fun t -> trace_push t (Array.unsafe_get t.regs i))
  | Push (Imm v) -> cop ~faults:true (fun t -> trace_push t v)
  | Push o ->
    let ro = read_closure o in
    cop ~faults:true (fun t -> trace_push t (ro t))
  | Pop r ->
    let i = reg_index r in
    cop ~faults:true (fun t -> Array.unsafe_set t.regs i (trace_pop t))
  | Binop (Add, Reg d, Reg s) ->
    (* Add/Sub get their own arms so the flag helper is a direct
       (inlinable) call, not a hop through [bop_fn]'s closure *)
    let di = reg_index d and si = reg_index s in
    cop (fun t ->
        Array.unsafe_set t.regs di
          (set_flags_add t (Array.unsafe_get t.regs di) (Array.unsafe_get t.regs si)))
  | Binop (Add, Reg d, Imm v) ->
    let di = reg_index d in
    cop (fun t -> Array.unsafe_set t.regs di (set_flags_add t (Array.unsafe_get t.regs di) v))
  | Binop (Sub, Reg d, Reg s) ->
    let di = reg_index d and si = reg_index s in
    cop (fun t ->
        Array.unsafe_set t.regs di
          (set_flags_sub t (Array.unsafe_get t.regs di) (Array.unsafe_get t.regs si)))
  | Binop (Sub, Reg d, Imm v) ->
    let di = reg_index d in
    cop (fun t -> Array.unsafe_set t.regs di (set_flags_sub t (Array.unsafe_get t.regs di) v))
  | Binop (op, Reg d, Reg s) ->
    let f = bop_fn op and di = reg_index d and si = reg_index s in
    cop (fun t ->
        Array.unsafe_set t.regs di
          (f t (Array.unsafe_get t.regs di) (Array.unsafe_get t.regs si)))
  | Binop (op, Reg d, Imm v) ->
    let f = bop_fn op and di = reg_index d in
    cop (fun t -> Array.unsafe_set t.regs di (f t (Array.unsafe_get t.regs di) v))
  | Binop (op, d, s) ->
    let f = bop_fn op in
    let rd = read_closure d and rs = read_closure s and wr = write_closure d in
    cop ~faults:(mem_operand d || mem_operand s) (fun t ->
        let a = rd t and b = rs t in
        wr t (f t a b))
  | Unop (Inc, Reg r) ->
    let i = reg_index r in
    cop (fun t -> Array.unsafe_set t.regs i (set_flags_add t (Array.unsafe_get t.regs i) 1L))
  | Unop (Dec, Reg r) ->
    let i = reg_index r in
    cop (fun t -> Array.unsafe_set t.regs i (set_flags_sub t (Array.unsafe_get t.regs i) 1L))
  | Unop (op, Reg r) ->
    let f = uop_fn op and i = reg_index r in
    cop (fun t -> Array.unsafe_set t.regs i (f t (Array.unsafe_get t.regs i)))
  | Unop (op, o) ->
    let f = uop_fn op in
    let ro = read_closure o and wr = write_closure o in
    cop ~faults:(mem_operand o) (fun t -> wr t (f t (ro t)))
  | Shift (op, Reg d, Imm c) ->
    let di = reg_index d and count = Int64.to_int (Int64.logand c 63L) in
    let body shift t =
      let r = shift (Array.unsafe_get t.regs di) count in
      set_zs t r;
      Array.unsafe_set t.regs di r
    in
    cop
      (match op with
      | Shl -> body Int64.shift_left
      | Shr -> body Int64.shift_right_logical
      | Sar -> body Int64.shift_right)
  | Shift (op, d, c) ->
    let rd = read_closure d and rc = read_closure c and wr = write_closure d in
    let faults = mem_operand d || mem_operand c in
    let body shift =
      cop ~faults (fun t ->
          let a = rd t in
          let count = Int64.to_int (Int64.logand (rc t) 63L) in
          let r = shift a count in
          set_zs t r;
          wr t r)
    in
    (match op with
    | Shl -> body Int64.shift_left
    | Shr -> body Int64.shift_right_logical
    | Sar -> body Int64.shift_right)
  | Idiv o ->
    let ro = read_closure o in
    cop ~faults:true (fun t ->
        let b = ro t in
        if Int64.equal b 0L then raise (Halted (Div_by_zero pc));
        let a = Array.unsafe_get t.regs rax_i in
        if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
          raise (Halted (Div_overflow pc));
        Array.unsafe_set t.regs rax_i (Int64.div a b);
        Array.unsafe_set t.regs rdx_i (Int64.rem a b))
  | Cmp (Reg a, Reg b) ->
    let ai = reg_index a and bi = reg_index b in
    cop (fun t ->
        ignore (set_flags_sub t (Array.unsafe_get t.regs ai) (Array.unsafe_get t.regs bi)))
  | Cmp (Reg a, Imm v) ->
    let ai = reg_index a in
    cop (fun t -> ignore (set_flags_sub t (Array.unsafe_get t.regs ai) v))
  | Cmp (a, b) ->
    let ra = read_closure a and rb = read_closure b in
    cop ~faults:(mem_operand a || mem_operand b)
      (fun t -> ignore (set_flags_sub t (ra t) (rb t)))
  | Test (Reg a, Reg b) ->
    let ai = reg_index a and bi = reg_index b in
    cop (fun t ->
        ignore
          (set_flags_logic t
             (Int64.logand (Array.unsafe_get t.regs ai) (Array.unsafe_get t.regs bi))))
  | Test (Reg a, Imm v) ->
    let ai = reg_index a in
    cop (fun t -> ignore (set_flags_logic t (Int64.logand (Array.unsafe_get t.regs ai) v)))
  | Test (a, b) ->
    let ra = read_closure a and rb = read_closure b in
    cop ~faults:(mem_operand a || mem_operand b)
      (fun t -> ignore (set_flags_logic t (Int64.logand (ra t) (rb t))))
  | Jmp (Rel d) ->
    let target = next + d in
    cop ~sets_rip:true (fun t -> t.rip <- target)
  | Jcc (c, Rel d) -> cop ~sets_rip:true (jcc_body c ~tg:(next + d) ~next)
  | Call (Rel d) ->
    let target = next + d and ret = Int64.of_int next in
    cop ~faults:true ~sets_rip:true (fun t ->
        (try trace_push t ret
         with Trace_invalidated ->
           (* the return-address store itself patched code: the push is
              complete, so control still transfers before recompilation *)
           t.rip <- target;
           raise Trace_invalidated);
        t.rip <- target)
  | Ret -> cop ~faults:true ~sets_rip:true (fun t -> t.rip <- Int64.to_int (trace_pop t))
  | JmpInd o ->
    let ro = read_closure o in
    cop ~faults:(mem_operand o) ~sets_rip:true (fun t -> t.rip <- Int64.to_int (ro t))
  | CallInd o ->
    let ro = read_closure o in
    cop ~faults:true ~sets_rip:true (fun t ->
        let target = Int64.to_int (ro t) in
        let ret = Int64.of_int next in
        (try trace_push t ret
         with Trace_invalidated ->
           t.rip <- target;
           raise Trace_invalidated);
        t.rip <- target)
  | Fbin (op, r, Reg s) ->
    let i = reg_index r and si = reg_index s in
    let body f t =
      let a = f64 (Array.unsafe_get t.regs i) and b = f64 (Array.unsafe_get t.regs si) in
      Array.unsafe_set t.regs i (b64 (f a b))
    in
    cop
      (match op with
      | FAdd -> body ( +. )
      | FSub -> body ( -. )
      | FMul -> body ( *. )
      | FDiv -> body ( /. ))
  | Fbin (op, r, o) ->
    let i = reg_index r and ro = read_closure o in
    let body f =
      cop ~faults:(mem_operand o) (fun t ->
          let a = f64 (Array.unsafe_get t.regs i) and b = f64 (ro t) in
          Array.unsafe_set t.regs i (b64 (f a b)))
    in
    (match op with
    | FAdd -> body ( +. )
    | FSub -> body ( -. )
    | FMul -> body ( *. )
    | FDiv -> body ( /. ))
  | Fcmp (r, o) ->
    let i = reg_index r in
    let fcmp t a b =
      if Float.is_nan a || Float.is_nan b then begin
        t.flags.zf <- true;
        t.flags.cf <- true
      end
      else begin
        t.flags.zf <- a = b;
        t.flags.cf <- a < b
      end;
      t.flags.sf <- false;
      t.flags.ovf <- false
    in
    (match o with
    | Reg s ->
      let si = reg_index s in
      cop (fun t ->
          fcmp t (f64 (Array.unsafe_get t.regs i)) (f64 (Array.unsafe_get t.regs si)))
    | _ ->
      let ro = read_closure o in
      cop ~faults:(mem_operand o)
        (fun t -> fcmp t (f64 (Array.unsafe_get t.regs i)) (f64 (ro t))))
  | Cvtsi2sd (r, o) ->
    let i = reg_index r and ro = read_closure o in
    cop ~faults:(mem_operand o)
      (fun t -> Array.unsafe_set t.regs i (b64 (Int64.to_float (ro t))))
  | Cvttsd2si (r, o) ->
    let i = reg_index r and ro = read_closure o in
    cop ~faults:(mem_operand o)
      (fun t -> Array.unsafe_set t.regs i (Int64.of_float (f64 (ro t))))
  | Fsqrt (r, o) ->
    let i = reg_index r and ro = read_closure o in
    cop ~faults:(mem_operand o)
      (fun t -> Array.unsafe_set t.regs i (b64 (sqrt (f64 (ro t)))))
  | Jmp (Lab _) | Jcc (_, Lab _) | Call (Lab _) | Hlt | Ocall _ -> raise Unsupported_op

(* Superinstruction fusion: adjacent cops become one closure. The pc pin
   between members keeps mid-group fault attribution exact; pinning
   before a non-faulting member is harmless (it cannot raise, and the
   next pin overwrites), so the pins are unconditional plain stores. *)
let fuse c1 c2 =
  let b1 = c1.c_exec and b2 = c2.c_exec in
  let p2 = c2.c_pc in
  let body t =
    b1 t;
    t.trace_pc <- p2;
    b2 t
  in
  { c_pc = c1.c_pc; c_exec = body; c_faults = c1.c_faults || c2.c_faults;
    c_sets_rip = c2.c_sets_rip }

let fuse3 c1 c2 c3 =
  let b1 = c1.c_exec and b2 = c2.c_exec and b3 = c3.c_exec in
  let p2 = c2.c_pc and p3 = c3.c_pc in
  let body t =
    b1 t;
    t.trace_pc <- p2;
    b2 t;
    t.trace_pc <- p3;
    b3 t
  in
  { c_pc = c1.c_pc; c_exec = body;
    c_faults = c1.c_faults || c2.c_faults || c3.c_faults; c_sets_rip = c3.c_sets_rip }

let fuse4 c1 c2 c3 c4 =
  let b1 = c1.c_exec and b2 = c2.c_exec and b3 = c3.c_exec and b4 = c4.c_exec in
  let p2 = c2.c_pc and p3 = c3.c_pc and p4 = c4.c_pc in
  let body t =
    b1 t;
    t.trace_pc <- p2;
    b2 t;
    t.trace_pc <- p3;
    b3 t;
    t.trace_pc <- p4;
    b4 t
  in
  { c_pc = c1.c_pc; c_exec = body;
    c_faults = c1.c_faults || c2.c_faults || c3.c_faults || c4.c_faults;
    c_sets_rip = c4.c_sets_rip }

(* The hot pairs from the instrumented programs: the tail of an
   annotation check feeding its guarded store, compare-and-branch, and
   the call prologue's pushes. *)
let fusable i1 i2 =
  match (i1, i2) with
  | (Cmp _ | Test _), Jcc _ -> true
  | Push _, (Push _ | Call _) -> true
  | (Mov _ | Lea _ | Binop _ | Unop _), Mov (Mem _, _) -> true
  | _ -> false

(* Register-only compare-and-branch collapses into a SINGLE closure (the
   flag helper is a direct inlinable call feeding the branch) — the loop
   back-edge pair, so it dominates dynamic execution. Faultless by
   construction: no memory operand on either side. *)
let fuse_cmp_jcc i1 c1 i2 ~p2 ~l2 =
  match (i1, i2) with
  | (Cmp (Reg _, (Reg _ | Imm _)) | Test (Reg _, (Reg _ | Imm _))), Jcc (cc, Rel d) ->
    let next = p2 + l2 in
    let jb = jcc_body cc ~tg:(next + d) ~next in
    let body =
      match i1 with
      | Cmp (Reg a, Reg b) ->
        let ai = reg_index a and bi = reg_index b in
        fun t ->
          ignore (set_flags_sub t (Array.unsafe_get t.regs ai) (Array.unsafe_get t.regs bi));
          jb t
      | Cmp (Reg a, Imm v) ->
        let ai = reg_index a in
        fun t ->
          ignore (set_flags_sub t (Array.unsafe_get t.regs ai) v);
          jb t
      | Test (Reg a, Reg b) ->
        let ai = reg_index a and bi = reg_index b in
        fun t ->
          ignore
            (set_flags_logic t
               (Int64.logand (Array.unsafe_get t.regs ai) (Array.unsafe_get t.regs bi)));
          jb t
      | Test (Reg a, Imm v) ->
        let ai = reg_index a in
        fun t ->
          ignore (set_flags_logic t (Int64.logand (Array.unsafe_get t.regs ai) v));
          jb t
      | _ -> assert false
    in
    Some { c_pc = c1.c_pc; c_exec = body; c_faults = false; c_sets_rip = true }
  | _ -> None

let max_block = 64

(* Mirror of [fetch] that bypasses the decode cache. *)
let decode_for_block t pc =
  Memory.check_exec t.mem pc;
  let i, len = Codec.decode (Memory.code_bytes t.mem) (Memory.to_offset t.mem pc) in
  Memory.check_exec t.mem (pc + len - 1);
  (i, len)

let is_block_terminator = function
  | Jmp _ | Jcc _ | Call _ | Ret | JmpInd _ | CallInd _ -> true
  | _ -> false

let compile_block t entry =
  let cops = ref [] and metas = ref [] in
  let n = ref 0 and pc = ref entry and stop = ref false in
  (try
     while (not !stop) && !n < max_block do
       if !n > 0 && Hashtbl.mem t.leaders !pc then stop := true
       else begin
         let i, len = decode_for_block t !pc in
         match i with
         | Hlt | Ocall _ -> stop := true
         | _ ->
           let c = compile_instr ~pc:!pc ~len i in
           cops := c :: !cops;
           metas := (!pc, len, i) :: !metas;
           incr n;
           pc := !pc + len;
           if is_block_terminator i then stop := true
       end
     done
   with Memory.Fault _ | Codec.Decode_error _ | Unsupported_op ->
     (* truncate: the uncompilable suffix single-steps, reproducing the
        real fault (or decode error) with exact step-tier semantics *)
     ());
  if !n = 0 then None
  else begin
    t.tc_compiled <- t.tc_compiled + 1;
    let cops = Array.of_list (List.rev !cops) in
    let metas = Array.of_list (List.rev !metas) in
    let n = !n in
    (* pass 1: the hot pairs fuse into single superinstruction units *)
    let paired = ref [] and i = ref 0 in
    while !i < n do
      let (_, _, i1) = metas.(!i) in
      if !i + 1 < n then begin
        let p2, l2, i2 = metas.(!i + 1) in
        match fuse_cmp_jcc i1 cops.(!i) i2 ~p2 ~l2 with
        | Some c ->
          paired := c :: !paired;
          i := !i + 2
        | None ->
          if fusable i1 i2 then begin
            paired := fuse cops.(!i) cops.(!i + 1) :: !paired;
            i := !i + 2
          end
          else begin
            paired := cops.(!i) :: !paired;
            incr i
          end
      end
      else begin
        paired := cops.(!i) :: !paired;
        incr i
      end
    done;
    let paired = Array.of_list (List.rev !paired) in
    (* pass 2: group the units four at a time, so the dispatch loop (pin,
       bounds, indirect call) runs once per group instead of once per op *)
    let grouped = ref [] and j = ref 0 in
    let m = Array.length paired in
    while !j < m do
      (match m - !j with
      | 1 -> grouped := paired.(!j) :: !grouped
      | 2 -> grouped := fuse paired.(!j) paired.(!j + 1) :: !grouped
      | 3 -> grouped := fuse3 paired.(!j) paired.(!j + 1) paired.(!j + 2) :: !grouped
      | _ ->
        grouped := fuse4 paired.(!j) paired.(!j + 1) paired.(!j + 2) paired.(!j + 3) :: !grouped);
      j := !j + 4
    done;
    let fused = Array.of_list (List.rev !grouped) in
    let nf = Array.length fused in
    let last_pc, last_len, _ = metas.(n - 1) in
    (* the dispatcher pins trace_pc from [b_op_pcs] before each closure
       and assigns the fall-through rip itself — no wrapper closures *)
    let fall = if fused.(nf - 1).c_sets_rip then -1 else last_pc + last_len in
    let ops = Array.map (fun c -> c.c_exec) fused in
    let op_pcs = Array.map (fun c -> c.c_pc) fused in
    let pcs = Array.map (fun (p, _, _) -> p) metas in
    let lens = Array.map (fun (_, l, _) -> l) metas in
    let body = Array.map (fun (_, _, i) -> i) metas in
    let costs = Array.map Cost.of_instr body in
    let simple = Array.map Cost.is_simple body in
    let kls = Array.map class_index body in
    let sets_rip = Array.map is_block_terminator body in
    (* the 3-wide-issue model makes the block's cycle charge (and exit
       residue) a function of the entry residue alone: precompute all 3 *)
    let cyc = Array.make 3 0 and exitr = Array.make 3 0 in
    for r0 = 0 to 2 do
      let res = ref r0 and c = ref 0 in
      for j = 0 to n - 1 do
        if simple.(j) then begin
          incr res;
          if !res >= 3 then begin
            res := 0;
            incr c
          end
        end
        else c := !c + costs.(j)
      done;
      cyc.(r0) <- !c;
      exitr.(r0) <- !res
    done;
    let ktot = Array.make n_classes 0 in
    Array.iter (fun k -> ktot.(k) <- ktot.(k) + 1) kls;
    let kidx = ref [] and kcnt = ref [] in
    for k = n_classes - 1 downto 0 do
      if ktot.(k) > 0 then begin
        kidx := k :: !kidx;
        kcnt := ktot.(k) :: !kcnt
      end
    done;
    Some
      {
        b_ops = ops;
        b_op_pcs = op_pcs;
        b_fall = fall;
        b_n = n;
        b_pcs = pcs;
        b_lens = lens;
        b_costs = costs;
        b_simple = simple;
        b_klass = kls;
        b_sets_rip = sets_rip;
        b_kidx = Array.of_list !kidx;
        b_kcnt = Array.of_list !kcnt;
        b_cycle_tot = cyc;
        b_exit_res = exitr;
        b_s1_pc = -1;
        b_s1 = None;
        b_s2_pc = -1;
        b_s2 = None;
      }
  end

let lookup_block t pc =
  let gen = Memory.code_generation t.mem in
  if gen <> t.block_gen then begin
    (* same discipline as the decode cache: a code patch drops every
       compiled trace, so stale blocks can neither run nor accumulate *)
    Hashtbl.reset t.blocks;
    t.block_gen <- gen;
    t.tc_invalidations <- t.tc_invalidations + 1
  end;
  t.tc_lookups <- t.tc_lookups + 1;
  match Hashtbl.find_opt t.blocks pc with
  | Some b -> b
  | None ->
    let b = compile_block t pc in
    Hashtbl.replace t.blocks pc b;
    b

let index_of_pc b pc =
  let rec go j =
    if j >= b.b_n then invalid_arg "Interp: trace fault pc outside block"
    else if b.b_pcs.(j) = pc then j
    else go (j + 1)
  in
  go 0

(* Replay the per-instruction counter charges of ops 0..upto, exactly as
   [step] would have accumulated them. *)
let apply_prefix t b r0 upto =
  let res = ref r0 in
  for j = 0 to upto do
    t.instrs <- t.instrs + 1;
    let k = Array.unsafe_get b.b_klass j in
    t.klass.(k) <- t.klass.(k) + 1;
    if Array.unsafe_get b.b_simple j then begin
      incr res;
      if !res >= 3 then begin
        res := 0;
        t.cycles <- t.cycles + 1
      end
    end
    else t.cycles <- t.cycles + Array.unsafe_get b.b_costs j
  done;
  t.issue_residue <- !res

(* Returns [true] when the block ran to completion, [false] when a store
   inside it patched executable code (counters repaired, rip correct,
   every compiled block stale): the caller must revalidate through
   [lookup_block]. Real faults rethrow after the counter repair, with rip
   at the faulting instruction — exactly what [step]'s handler reports. *)
let exec_block t b =
  let r0 = t.issue_residue in
  match
    let ops = b.b_ops and op_pcs = b.b_op_pcs in
    for i = 0 to Array.length ops - 1 do
      t.trace_pc <- Array.unsafe_get op_pcs i;
      (Array.unsafe_get ops i) t
    done
  with
  | () ->
    if b.b_fall >= 0 then t.rip <- b.b_fall;
    t.instrs <- t.instrs + b.b_n;
    t.cycles <- t.cycles + Array.unsafe_get b.b_cycle_tot r0;
    t.issue_residue <- Array.unsafe_get b.b_exit_res r0;
    let ki = b.b_kidx and kc = b.b_kcnt and kl = t.klass in
    for p = 0 to Array.length ki - 1 do
      let k = Array.unsafe_get ki p in
      Array.unsafe_set kl k (Array.unsafe_get kl k + Array.unsafe_get kc p)
    done;
    true
  | exception e ->
    (* the faulting op pinned its pc: charge the inclusive prefix *)
    let i = index_of_pc b t.trace_pc in
    apply_prefix t b r0 i;
    (match e with
    | Trace_invalidated ->
      if not b.b_sets_rip.(i) then t.rip <- b.b_pcs.(i) + b.b_lens.(i);
      false
    | _ ->
      t.rip <- t.trace_pc;
      raise e)

let run_trace t =
  let limit = t.config.instr_limit in
  let memoize b pc s =
    if b.b_s1_pc < 0 then begin
      b.b_s1_pc <- pc;
      b.b_s1 <- s
    end
    else begin
      b.b_s2_pc <- pc;
      b.b_s2 <- s
    end
  in
  (* [dispatch] is the validating edge (generation check + block-table
     lookup); [enter]/[chain] are the hot path — block to block through
     the inline successor cache, no hashing, no generation check (the
     generation can only move inside a block, which reports it, or inside
     a single step, after which control returns to [dispatch]). *)
  let rec dispatch () =
    match lookup_block t t.rip with Some b -> enter b | None -> no_block ()
  and enter b =
    if
      t.instrs + b.b_n <= limit
      && t.cycles + Array.unsafe_get b.b_cycle_tot t.issue_residue < t.next_aex
    then if exec_block t b then chain b else dispatch ()
    else
      (* the instruction limit or the AEX schedule could fire inside the
         block: single-step across the boundary for exact semantics *)
      boundary ()
  and chain b =
    let pc = t.rip in
    if b.b_s1_pc = pc then (match b.b_s1 with Some nb -> enter nb | None -> no_block ())
    else if b.b_s2_pc = pc then (match b.b_s2 with Some nb -> enter nb | None -> no_block ())
    else begin
      t.tc_lookups <- t.tc_lookups + 1;
      match Hashtbl.find_opt t.blocks pc with
      | Some s ->
        memoize b pc s;
        (match s with Some nb -> enter nb | None -> no_block ())
      | None ->
        let s = compile_block t pc in
        Hashtbl.replace t.blocks pc s;
        memoize b pc s;
        (match s with Some nb -> enter nb | None -> no_block ())
    end
  and boundary () =
    t.tc_boundary <- t.tc_boundary + 1;
    step_once ()
  and no_block () =
    (* OCALL/HLT site, or the first instruction does not compile *)
    t.tc_no_block <- t.tc_no_block + 1;
    step_once ()
  and step_once () =
    (* one exact single step, then revalidate *)
    match step t with None -> dispatch () | Some r -> r
  in
  (* faults escaping a compiled block (counters already repaired, rip at
     the faulting instruction) land here, once, outside the hot path *)
  match dispatch () with
  | r -> r
  | exception Halted r ->
    record_exit t r;
    r
  | exception Memory.Fault f ->
    record_exit t (Mem_fault f);
    Mem_fault f

let set_block_leaders t addrs =
  Hashtbl.reset t.leaders;
  List.iter (fun a -> Hashtbl.replace t.leaders a ()) addrs;
  (* leader boundaries shape compiled blocks *)
  Hashtbl.reset t.blocks

let trace_cache_size t = Hashtbl.length t.blocks

let trace_counters t =
  match t.trace_off with
  | [] ->
    let steps = t.tc_boundary + t.tc_no_block in
    [
      ("blocks_compiled", t.tc_compiled);
      ("lookups", t.tc_lookups);
      ("steps.boundary", t.tc_boundary);
      ("steps.no_block", t.tc_no_block);
      ("invalidations", t.tc_invalidations);
      ("in_block", t.instrs - steps);
    ]
  | reasons -> List.map (fun r -> ("off." ^ r, 1)) reasons

let run t ~entry =
  t.rip <- entry;
  if Flight_recorder.enabled t.recorder then
    Flight_recorder.record t.recorder Flight_recorder.Ecall ~pc:entry ~arg:0;
  t.trace_off <-
    List.filter_map
      (fun (off, reason) -> if off then Some reason else None)
      [
        (t.config.tier = Step, "step_tier");
        (t.config.fuel <> None, "fuel");
        (Flight_recorder.enabled t.recorder, "recorder");
        (Profiler.enabled t.profiler, "profiler");
      ];
  let rec loop () = match step t with None -> loop () | Some r -> r in
  let r = if t.trace_off = [] then run_trace t else loop () in
  Profiler.catch_up t.profiler ~cycles:t.cycles ~pc:t.rip;
  r

let add_cycles t n = t.cycles <- t.cycles + n
let cycles t = t.cycles
let instructions t = t.instrs
let aex_count t = t.aexes
let ocall_count t = t.ocalls
