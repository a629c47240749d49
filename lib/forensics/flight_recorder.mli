(** The interpreter's flight recorder (black box).

    A bounded ring of fine-grained execution events — retired program
    counters, branch outcomes, ECall/OCall transitions, AEX context dumps
    and abnormal exits — recorded by the interpreter so that, on a policy
    abort or runtime fault, the last moments of the program can be frozen
    into a crash report ({!Report.crash}). A single step records as it
    goes; a compiled block replays the same events from its own tables,
    so the stream does not depend on how the instructions ran.

    Design constraints (see DESIGN.md, "Flight recorder"):

    - {e zero allocation when off}: {!disabled} short-circuits every
      {!record} on a single boolean field test, and the interpreter guards
      its call sites with {!enabled};
    - {e zero allocation when on}: the ring is three pre-sized [int]
      arrays (kind / pc / argument), so steady-state recording is three
      array stores and two integer bumps — no boxing, no lists;
    - {e bounded}: once full, new events overwrite the oldest, which are
      counted as dropped. Entries materialize into records only when the
      ring is frozen by {!entries}. *)

type kind =
  | Retired  (** an instruction retired at [pc] *)
  | Branch_taken  (** conditional/indirect transfer at [pc]; [arg] = target *)
  | Branch_not_taken  (** conditional fall-through at [pc]; [arg] = next pc *)
  | Ocall  (** enclave exit at [pc]; [arg] = host function index *)
  | Ecall  (** host entered the enclave; [arg] = ECall ordinal *)
  | Aex  (** asynchronous exit injected at [pc]; [arg] = running AEX count *)
  | Abort  (** policy abort raised at [pc]; [arg] = abort exit code (low bits) *)
  | Fault  (** runtime fault at [pc] (memory fault, bad decode, div#0...) *)

val kind_label : kind -> string
val pp_kind : Format.formatter -> kind -> unit

type entry = {
  seq : int;  (** strictly increasing per recorder *)
  ekind : kind;
  pc : int;
  arg : int;  (** kind-specific payload; 0 when unused *)
}

val pp_entry : Format.formatter -> entry -> unit

type t

val create : ?capacity:int -> unit -> t
(** A fresh recorder retaining the last [capacity] (default 512, must be
    positive) events. *)

val disabled : t
(** The shared inert instance: {!record} returns immediately, {!entries}
    is empty. Default argument of the interpreter hook. *)

val enabled : t -> bool
(** One boolean field read — the hot-path guard. *)

val record : t -> kind -> pc:int -> arg:int -> unit
(** Append one event (overwriting the oldest when full). No-op on
    {!disabled}. *)

val entries : t -> entry list
(** Freeze: the retained events, oldest first. Allocation happens here,
    not on the recording path. *)

val recorded : t -> int
(** Total events ever recorded (retained + dropped). *)

val dropped : t -> int
val capacity : t -> int
