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

(* Our own trusted consumer, one row per Table I component: the line
   count and the imports ([ocamldep -modules]) of the OCaml sources inside
   the trust boundary, taken by a dune rule at build time (see this
   directory's dune file). Only the code inside the trust boundary
   counts: the compiler (code generator) is untrusted by design, exactly
   as in the paper. *)
type row = {
  id : string;
  label : string;
  lines : int;
  budget : int;
  imports : string list;
  siblings : string list;
}

(* Line budgets: each row's count when the verdict cache moved out of the
   verifier, and the attestation row's when a fixed-width Mersenne field
   replaced the general bignum. A row that grows past its budget fails the
   build's tests until the budget is raised here, on purpose. *)
let rows =
  let imports s = String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.sort_uniq compare in
  let row id label lines budget imports_text siblings =
    { id; label; lines; budget; imports = imports imports_text; siblings }
  in
  [
    row "loader" "Dynamic loader + imm rewriter (lib/loader)" Tcb_lines.loader 190
      Tcb_lines.loader_imports [];
    row "verifier" "Policy verifier + disassembler (lib/verifier + isa decoder)"
      Tcb_lines.verifier 1530 Tcb_lines.verifier_imports [ "Isa" ];
    row "bootstrap" "OCall wrappers / P0 (lib/core bootstrap)" Tcb_lines.bootstrap 541
      Tcb_lines.bootstrap_imports [];
    row "attestation" "RA / channel crypto (lib/attestation + lib/crypto)"
      Tcb_lines.attestation 678 Tcb_lines.attestation_imports
      [ "Chacha20"; "Channel"; "Dh"; "Hmac"; "Mersenne"; "Sha256" ];
  ]

(* The import allowlist, kind 1: pure stdlib modules. Not Mutex,
   Condition, Domain, Atomic, Unix, Sys or the channel modules: trusted
   code neither waits on host threads nor reads the host's clock, files
   or environment. *)
let stdlib =
  [ "Array"; "Buffer"; "Bytes"; "Char"; "Format"; "Fun"; "Hashtbl"; "Int"; "Int64"; "List";
    "Option"; "Printf"; "Result"; "Seq"; "String" ]

(* Kind 2: the consumer and the simulated platform it runs on (runtime is
   the CPU model). A row may also name the modules of its own library
   unqualified (its [siblings]). *)
let consumer =
  List.map (( ^ ) "Deflection_")
    [ "annot"; "attestation"; "crypto"; "enclave"; "isa"; "loader"; "policy"; "runtime"; "util";
      "verifier" ]

(* Kind 3: named exceptions, each with the row it is admitted in ([None]:
   every row). Moving the four bootstrap-only ones behind function
   parameters would take them off this list. *)
let exceptions =
  [
    (* instrumentation: spans and counters never decide a verdict *)
    ("Deflection_telemetry", None);
    (* the evidence log each admission decision is appended to *)
    ("Deflection_audit", Some "bootstrap");
    (* fault injection for the fail-closed chaos campaigns *)
    ("Deflection_chaos", Some "bootstrap");
    (* crash report, flight recorder and profiler *)
    ("Deflection_forensics", Some "bootstrap");
    (* the Path ORAM behind the oram_* OCalls (paper Section VII) *)
    ("Deflection_oram", Some "bootstrap");
  ]

let disallowed_imports r =
  let excepted m =
    List.exists (fun (e, only) -> e = m && (only = None || only = Some r.id)) exceptions
  in
  List.filter
    (fun m -> not (List.mem m stdlib || List.mem m consumer || List.mem m r.siblings || excepted m))
    r.imports

let reproduction_components () =
  List.map (fun r -> { cname = r.label; kloc = float_of_int r.lines /. 1000.0 }) rows
