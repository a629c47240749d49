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

val reproduction_components : unit -> component list
(** This repository's trusted-consumer inventory (loader, verifier, imm
    rewriter, OCall wrappers, attestation), in kLoC: the line counts of
    [lib/loader/loader.ml]; [lib/verifier/verifier.ml] +
    [lib/isa/codec.ml]; [lib/core/bootstrap.ml]; and
    [lib/attestation/attestation.ml] + [lib/crypto/*.ml], taken at build
    time. *)
