type component = { cname : string; kloc : float }
type runtime = { rname : string; components : component list; binary_mb : float option }

(* The paper's Table I, verbatim. *)
let paper_table =
  [
    {
      rname = "Ryoan";
      components =
        [
          { cname = "Eglibc"; kloc = 892.0 };
          { cname = "NaCl sandbox"; kloc = 216.0 };
          { cname = "Naclports"; kloc = 460.0 };
        ];
      binary_mb = Some 19.0;
    };
    {
      rname = "SCONE";
      components = [ { cname = "OS Shield and shim libc"; kloc = 187.0 } ];
      binary_mb = Some 16.0;
    };
    {
      rname = "Graphene-SGX";
      components =
        [
          { cname = "Glibc"; kloc = 1200.0 };
          { cname = "LibPAL"; kloc = 22.0 };
          { cname = "Graphene LibOS"; kloc = 34.0 };
        ];
      binary_mb = Some 58.5;
    };
    {
      rname = "Occlum";
      components =
        [
          { cname = "Occlum shim libc"; kloc = 93.0 };
          { cname = "Occlum Verifier"; kloc = Float.nan (* N/A in the paper *) };
          { cname = "Occlum LibOS and PAL"; kloc = 24.5 };
        ];
      binary_mb = Some 8.6;
    };
    {
      rname = "DEFLECTION";
      components =
        [
          { cname = "Loader/Verifier"; kloc = 1.3 };
          { cname = "RA/Encryption"; kloc = 0.2 };
          { cname = "Shim libc"; kloc = 33.0 };
          { cname = "Capstone base"; kloc = 9.1 };
          { cname = "Other dependencies"; kloc = 23.0 };
        ];
      binary_mb = Some 3.5;
    };
  ]

let total_kloc r =
  List.fold_left
    (fun acc c -> if Float.is_nan c.kloc then acc else acc +. c.kloc)
    0.0 r.components

(* Our own trusted consumer: line counts of the OCaml sources of the
   in-enclave components, taken by a dune rule at build time (see this
   directory's dune file). Only the code inside the trust boundary
   counts: the compiler (code generator) is untrusted by design, exactly
   as in the paper. *)
let reproduction_components () =
  let row cname lines = { cname; kloc = float_of_int lines /. 1000.0 } in
  [
    row "Dynamic loader + imm rewriter (lib/loader)" Tcb_lines.loader;
    row "Policy verifier + disassembler (lib/verifier + isa decoder)" Tcb_lines.verifier;
    row "OCall wrappers / P0 (lib/core bootstrap)" Tcb_lines.bootstrap;
    row "RA / channel crypto (lib/attestation + lib/crypto)" Tcb_lines.attestation;
  ]
