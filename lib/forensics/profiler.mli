(** Cycle-driven sampling profiler for the interpreter.

    Every [interval] virtual cycles the profiler captures the program
    counter of the instruction that crossed the threshold, building
    per-function / per-site hot-spot histograms without per-instruction
    bookkeeping: the common-case cost of {!on_step} is one integer
    compare and one bump.

    The sample population is exact by construction: one sample per
    multiple of [interval] crossed, so after {!catch_up} at the end of a
    run the total sample count equals [cycles / interval] (the invariant
    [suite_forensics] asserts). Alongside the samples the profiler counts
    retired instructions, which must agree with the interpreter's own
    per-class counters ([Interp.class_counts]).

    Addresses resolve to [function + offset] through the symbol map the
    loader produces ({!set_symbols}); unmapped samples (consumer code,
    nothing loaded) fall into ["<unmapped>"]. *)

type t

val create : ?interval:int -> unit -> t
(** A fresh profiler sampling every [interval] (default 64, must be
    positive) virtual cycles. *)

val disabled : t
(** Shared inert instance; {!on_step} short-circuits on one boolean. *)

val enabled : t -> bool
val interval : t -> int

val set_symbols : t -> (string * int) list -> unit
(** Function symbols as [(name, entry address)]; a sampled pc is
    attributed to the nearest function entry at or below it. *)

val on_step : t -> cycles:int -> pc:int -> unit
(** Per-retired-instruction hook: bumps the retired count and records one
    sample at [pc] for every multiple of [interval] the cycle counter
    crossed since the last call. *)

val due : t -> cycles:int -> bool
(** Whether a sample falls due at or before cycle count [cycles]; always
    false on {!disabled}. *)

val retire : t -> int -> unit
(** [retire t n] counts [n] retired instructions that cross no sample
    threshold — the same as [n] {!on_step} calls for which {!due} stays
    false. The interpreter's compiled blocks report their instructions
    this way, and walk themselves through {!on_step} only when a sample
    falls due inside them. *)

val catch_up : t -> cycles:int -> pc:int -> unit
(** Account for cycles charged outside the interpreter loop (OCall wrapper
    work, final time-blurring padding) by attributing any remaining
    threshold crossings to [pc]. Does not bump the retired count. *)

val retired : t -> int
(** Retired instructions observed — must equal the interpreter's
    instruction count and the sum of its class counters. *)

val samples_total : t -> int

(** {2 Aggregation and export} *)

type hotspot = {
  func : string;
  offset : int;  (** [pc - function entry] *)
  pc : int;
  count : int;
}

val hotspots : t -> hotspot list
(** Distinct sampled sites, hottest first (ties by address). *)

val by_function : t -> (string * int) list
(** Sample counts aggregated per function, hottest first. *)

val collapsed : t -> string
(** Flamegraph-compatible collapsed-stack text: one
    ["function;+0xOFFSET count"] line per sampled site (two frames:
    function, then site within it). Feed to [flamegraph.pl] or speedscope
    directly. *)

val to_json : ?cycles:int -> t -> Deflection_telemetry.Json.t
(** The [deflection-profile/1] document: interval, totals, per-function
    counts, hot spots and the collapsed text. [cycles] records the run's
    final cycle count when known. *)

val pp : Format.formatter -> t -> unit
(** Human-readable hot-spot table. *)
