(** Enclave memory with page-granular permissions, plus the untrusted host
    memory outside ELRANGE.

    Faithful to the SGX threat model: a store whose destination lies
    outside ELRANGE {e succeeds} — it lands in attacker-visible host
    memory. We record every such byte in the leak log; that log is the
    ground truth the security tests use ("did this program actually leak?").
    Inside ELRANGE, page permissions are enforced (guard pages fault). *)

type perm = { r : bool; w : bool; x : bool }

val perm_none : perm
val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val pp_perm : Format.formatter -> perm -> unit

type access = Read | Write | Exec

type fault =
  | Perm_violation of { addr : int; access : access }
  | Out_of_enclave_exec of int
  | Unaligned of int

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string

type t

val create : Layout.t -> t
(** Fresh enclave memory with the default page permissions of the layout
    (code RWX, data/stack/SSA/TCS/shadow-stack RW, branch table R,
    consumer RX, guards no-access). *)

val layout : t -> Layout.t
val in_elrange : t -> int -> bool
val page_perm : t -> int -> perm
val set_region_perm : t -> lo:int -> hi:int -> perm -> unit
(** Page-aligned region permission change (the loader's privilege). *)

(** {2 Unprivileged accesses (what target-code execution uses)} *)

val read_u8 : t -> int -> int
val read_u64 : t -> int -> int64
val write_u8 : t -> int -> int -> unit
val write_u64 : t -> int -> int64 -> unit

val read_u64_fast : t -> int -> int64
(** Observably identical to {!read_u64}; takes a word-at-a-time fast path
    when every byte of the span is readable enclave memory, and falls back
    to the byte loop (same faults, same host reads) otherwise. *)

val write_u64_fast : t -> int -> int64 -> bool
(** Attempt the word store on a fast path that is only taken when the
    byte loop of {!write_u64} would succeed without side effects beyond
    the store itself — in particular never on executable pages, so the
    code generation cannot move. Returns [false] (and writes nothing)
    when the caller must use {!write_u64} instead. *)

val check_exec : t -> int -> unit
(** Fault unless [addr] is executable enclave memory. *)

(** {2 Privileged accesses (the trusted loader / simulated hardware)} *)

val priv_write_bytes : t -> int -> bytes -> unit
(** Write regardless of page permissions. Moves {!code_generation} only
    when the span touches an executable page. *)

val priv_read_bytes : t -> int -> int -> bytes
val priv_write_u64 : t -> int -> int64 -> unit
val priv_read_u64 : t -> int -> int64

(** {2 Host memory and the leak log} *)

val host_read_u8 : t -> int -> int
val leaked_bytes : t -> int
(** Number of bytes the enclave has written outside ELRANGE so far. *)

val leak_log : t -> (int * int) list
(** [(addr, byte)] writes outside ELRANGE, oldest first. *)

(** {2 Code cache support} *)

val code_generation : t -> int
(** Bumped whenever a byte in an executable page changes; decoded-
    instruction caches key on it. *)

val code_bytes : t -> bytes
(** The raw backing store for ELRANGE; index = addr - base. For use by the
    decoder only (never mutate). *)

val to_offset : t -> int -> int
