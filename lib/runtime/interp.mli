(** The enclave execution engine.

    Interprets target code placed in enclave memory, charging each
    instruction its virtual-cycle cost ({!Deflection_isa.Cost}), enforcing
    page permissions, and injecting asynchronous enclave exits (AEXes) on a
    deterministic pseudo-random schedule — the simulated equivalent of the
    interrupts/page faults an adversarial OS can trigger (paper Section
    IV-B, P6).

    The interpreter is the {e hardware} of the simulation: it does not know
    about policies. Policy enforcement is done by the verified annotation
    code it executes and by the OCall wrappers the bootstrap registers.

    Every decoded instruction compiles to one OCaml closure, cached per
    code generation; those closures are the only definition of the
    instruction semantics. {!step} runs one of them. {!run} runs the
    trace tier: verified straight-line basic blocks execute as fused
    closure arrays (superinstructions for the hot pairs) with one bulk
    counter update per block, and {!step} crosses the boundaries where
    the instruction limit, the AEX schedule or the fuel watchdog could
    fire inside a block, and the OCALL/HLT sites. Both preserve every
    observable of per-instruction execution: exit reasons and their
    reported offsets, virtual-cycle and instruction counts (including the
    3-wide-issue residue), per-class histograms, AEX injection points,
    SSA contents, leak logs, and the flight-recorder and profiler streams
    (compiled blocks replay their retired pcs to attached observers). *)

module Isa = Deflection_isa.Isa
module Memory = Deflection_enclave.Memory
module Telemetry = Deflection_telemetry.Telemetry
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler

type t

type exit_reason =
  | Exited of int64  (** [Hlt] with RAX >= 0: normal termination *)
  | Policy_abort of Deflection_annot.Annot.abort_reason
      (** [Hlt] with one of the annotation abort codes *)
  | Mem_fault of Memory.fault
  | Invalid_instruction of int  (** undecodable bytes at address *)
  | Div_by_zero of int
  | Div_overflow of int
      (** [idiv] with an unrepresentable quotient (INT64_MIN / -1): x86
          raises #DE exactly as for a zero divisor — the model faults
          instead of silently wrapping *)
  | Ocall_denied of int  (** OCall index not allowed by the manifest *)
  | Ocall_failed of int
      (** OCall handler reported an unrecoverable host-side failure *)
  | Limit_exceeded  (** safety instruction budget exhausted *)
  | Fuel_exhausted
      (** watchdog fuel limit ({!config}[.fuel]) spent — the structured
          "stage ran too long" signal the session maps to its own exit
          code, distinct from the hard safety budget *)

val pp_exit_reason : Format.formatter -> exit_reason -> unit
val exit_reason_to_string : exit_reason -> string

(** What an OCall handler tells the engine to do next. *)
type ocall_outcome = Continue | Halt of exit_reason

type config = {
  instr_limit : int;  (** hard safety budget (default 2_000_000_000) *)
  aex_interval : int option;
      (** mean cycles between injected AEXes; [None] = calm platform *)
  aex_seed : int64;
  colocated_prob : float;
      (** probability that an injected AEX's co-location observation reads
          "same physical core" (benign scheduler ≈ 1 - alpha) *)
  fuel : int option;
      (** watchdog budget in virtual cycles; [None] (default) disables it.
          Exceeding it ends the run with {!Fuel_exhausted}. Unlike
          [instr_limit] this is a per-stage resilience knob, not a safety
          backstop. *)
}

val default_config : config

val create :
  ?config:config ->
  ?tm:Telemetry.t ->
  ?recorder:Flight_recorder.t ->
  ?profiler:Profiler.t ->
  ocall:(int -> t -> ocall_outcome) ->
  Memory.t ->
  t
(** [tm] (default {!Telemetry.disabled}) receives instant events for
    injected AEXes, OCall transitions and policy aborts when a tracing
    sink is attached; per-class instruction counts are kept regardless
    (see {!class_counts}).

    [recorder] (default {!Flight_recorder.disabled}) receives the
    fine-grained event stream — retired pcs, conditional/indirect branch
    outcomes, ECall/OCall transitions, AEX injections and abnormal exits.

    [profiler] (default {!Profiler.disabled}) samples the pc every
    [interval] virtual cycles; its retired-instruction count tracks
    {!instructions} exactly.

    Attaching either observer does not change what runs. *)

(** {2 Register and memory access (for OCall handlers and tests)} *)

val read_reg : t -> Isa.reg -> int64
val write_reg : t -> Isa.reg -> int64 -> unit
val memory : t -> Memory.t
val rip : t -> int

(** [set_rip] points the program counter at an entry before driving the
    interpreter with {!step} (which, unlike {!run}, takes no [entry]). *)
val set_rip : t -> int -> unit
val recorder : t -> Flight_recorder.t
val profiler : t -> Profiler.t

val register_file : t -> (string * int64) list
(** The full register file as [(name, value)], in index order — the
    snapshot crash reports embed. *)

(** {2 Execution} *)

val run : t -> entry:int -> exit_reason
(** Set RIP to [entry] and run compiled blocks until halt/fault/limit.
    RSP must have been initialized via {!write_reg} or {!init_stack}. *)

val init_stack : t -> unit
(** Point RSP at the top of the stack region (16-byte aligned, one slack
    slot). *)

val step : t -> exit_reason option
(** Retire exactly one instruction — inject a due AEX, charge its cost,
    show it to the observers, run its compiled closure — or report why
    none can run. [None] while running. *)

val force_aex : t -> unit
(** Inject an AEX right now, regardless of the schedule: dump the register
    context (including the flags word) into the SSA and deposit a
    co-location observation. Used by chaos plans (AEX storms) and by the
    SSA round-trip property tests. *)

val flags_word : t -> int64
(** The RFLAGS image as saved to the SSA on an AEX (bit 0 ZF, bit 1 SF,
    bit 2 CF, bit 3 OF). *)

val add_cycles : t -> int -> unit
(** Charge extra virtual cycles (used by OCall wrappers to account for
    work — e.g. record encryption — done on the enclave's behalf). *)

(** {2 Statistics} *)

val cycles : t -> int
val instructions : t -> int
val aex_count : t -> int
val ocall_count : t -> int

val set_block_leaders : t -> int list -> unit
(** Absolute pcs of verified basic-block leaders (branch targets,
    function entries, stubs — what the verifier discovered during its
    recursive descent). The trace tier stops compiling a block at any
    leader, so control-flow join points are shared between blocks instead
    of being re-discovered as duplicated suffixes. Purely a compilation
    hint: correctness never depends on it (an unknown join merely
    compiles an overlapping block). Resets the block cache. *)

val trace_counters : t -> (string * int) list
(** How the last {!run} used the trace tier, as schedule-independent
    counts: the [leaders]
    {!set_block_leaders} installed (0 when none were, as for a verdict
    recovered from a persisted cache), [blocks_compiled], block-table
    [lookups] (the validating dispatch, and chaining when neither
    successor slot matches), single steps at an AEX, fuel or
    instruction-limit boundary ([steps.boundary]) and where no block
    compiles — OCALL/HLT or an uncompilable first instruction
    ([steps.no_block]), compiled-code [invalidations] after a code
    patch, and [in_block] = {!instructions} minus the single steps, the
    instructions retired inside compiled blocks (exact unless a step
    ended the run without retiring, at the instruction limit, the fuel
    watchdog or on a non-executable pc). Observers attached or not, the
    counts are the same. *)

val trace_cache_size : t -> int
(** Number of live entries in the trace tier's compiled-block cache
    (including negative entries for pcs that must single-step). Reset,
    together with the per-instruction cache {!step} runs from, whenever
    {!Memory.code_generation} moves. *)

val class_names : string array
(** The instruction-class partition used by {!class_counts}, in index
    order: mov, stack, alu, div, branch, callret, indirect, float, ocall,
    misc. *)

val class_counts : t -> (string * int) list
(** Executed-instruction counts per class, in {!class_names} order; the
    values sum to {!instructions}. *)
