(** Table I: TCB comparison with other shielding runtimes.

    The competitor rows are the paper's reported inventories (we obviously
    do not reimplement Graphene or SCONE; their sizes are cited data). The
    DEFLECTION row carries both the paper's numbers and this
    reproduction's own measured component sizes, so the bench harness can
    print paper-vs-ours side by side. *)

type component = { cname : string; kloc : float }

type runtime = {
  rname : string;
  components : component list;
  binary_mb : float option;  (** reported shielded-binary size, MB *)
}

val paper_table : runtime list
(** Ryoan, SCONE, Graphene-SGX, Occlum, DEFLECTION — the paper's Table I. *)

val total_kloc : runtime -> float

(** {2 The trust boundary as a check} *)

type row = {
  id : string;  (** ["loader"], ["verifier"], ["bootstrap"] or ["attestation"] *)
  label : string;  (** the component name Table I prints *)
  lines : int;  (** the row's source lines, counted at build time *)
  budget : int;  (** the most lines the row may have *)
  imports : string list;
      (** the modules the row's sources import ([ocamldep -modules]),
          sorted, taken at build time *)
  siblings : string list;
      (** modules of the row's own library its sources name unqualified *)
}

val rows : row list
(** This repository's trusted consumer, one row per component: the loader
    and imm rewriter ([lib/loader/loader.ml]); the verifier and its
    decoder ([lib/verifier/verifier.ml], [lib/isa/codec.ml]); the OCall
    wrappers ([lib/core/bootstrap.ml]); remote attestation and the channel
    ([lib/attestation/attestation.ml], [lib/crypto/*.ml]). *)

val disallowed_imports : row -> string list
(** The row's imports that the allowlist does not admit. The allowlist
    (one place, in [tcb.ml]) admits three kinds: pure stdlib modules (not
    [Mutex], [Condition], [Domain], [Atomic], [Unix], [Sys] or the
    channel modules); the consumer and simulated-platform libraries
    (annot, attestation, crypto, enclave, isa, loader, policy, runtime,
    util, verifier) and the row's [siblings]; and named exceptions, each
    with its reason — telemetry in every row, and audit, chaos, forensics
    and ORAM in the bootstrap row only. *)

val reproduction_components : unit -> component list
(** {!rows} as Table I components, in kLoC. *)
