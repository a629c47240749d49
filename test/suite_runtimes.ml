module Tcb = Deflection_runtimes.Tcb
module Shield = Deflection_runtimes.Shield

let test_tcb_table_shape () =
  Alcotest.(check int) "five runtimes" 5 (List.length Tcb.paper_table);
  let deflection = List.find (fun r -> r.Tcb.rname = "DEFLECTION") Tcb.paper_table in
  let others = List.filter (fun r -> r.Tcb.rname <> "DEFLECTION") Tcb.paper_table in
  (* the paper's claim: every other solution is at least an order of
     magnitude larger in TCB LoC *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Tcb.rname ^ " TCB larger than DEFLECTION")
        true
        (Tcb.total_kloc r > Tcb.total_kloc deflection))
    others;
  Alcotest.(check bool) "loader/verifier ~1.3 kLoC" true
    (List.exists
       (fun c -> c.Tcb.cname = "Loader/Verifier" && c.Tcb.kloc < 2.0)
       deflection.Tcb.components)

let test_reproduction_tcb_small () =
  let total =
    List.fold_left (fun acc c -> acc +. c.Tcb.kloc) 0.0 (Tcb.reproduction_components ())
  in
  Alcotest.(check bool) "our consumer is a few kLoC" true (total < 5.0)

(* The trust boundary: every Table I row imports only what the allowlist
   admits and stays within its line budget. *)
let test_trusted_imports () =
  List.iter
    (fun (r : Tcb.row) ->
      Alcotest.(check bool) (r.Tcb.label ^ ": imports were taken") true (r.Tcb.imports <> []);
      Alcotest.(check (list string))
        (Printf.sprintf "%s: imports outside the allowlist" r.Tcb.label)
        [] (Tcb.disallowed_imports r))
    Tcb.rows

let test_trusted_budgets () =
  List.iter
    (fun (r : Tcb.row) ->
      if r.Tcb.lines > r.Tcb.budget then
        Alcotest.failf "%s: %d lines, over its budget of %d" r.Tcb.label r.Tcb.lines r.Tcb.budget)
    Tcb.rows

let test_fig11_crossover () =
  let rate m size = Shield.transfer_rate_mbps m ~file_bytes:size in
  (* small files: Graphene leads DEFLECTION *)
  Alcotest.(check bool) "Graphene wins at 1 KiB" true
    (rate Shield.graphene 1024 > rate Shield.deflection 1024);
  (* large files: DEFLECTION overtakes both shielded runtimes *)
  Alcotest.(check bool) "DEFLECTION beats Graphene at 1 MiB" true
    (rate Shield.deflection (1 lsl 20) > rate Shield.graphene (1 lsl 20));
  Alcotest.(check bool) "DEFLECTION beats Occlum at 1 MiB" true
    (rate Shield.deflection (1 lsl 20) > rate Shield.occlum (1 lsl 20));
  (* the paper's "77% of native" at large sizes, within tolerance *)
  let ratio = rate Shield.deflection (1 lsl 20) /. rate Shield.native (1 lsl 20) in
  Alcotest.(check bool) "~77% of native at 1 MiB" true (ratio > 0.70 && ratio < 0.85);
  (* native always wins *)
  List.iter
    (fun size ->
      List.iter
        (fun m ->
          if m.Shield.sname <> "native" then
            Alcotest.(check bool) "native fastest" true (rate Shield.native size >= rate m size))
        Shield.all)
    [ 1024; 65536; 1 lsl 20 ]

let test_rate_monotone_in_size () =
  (* larger files amortize the fixed cost: rates rise with size *)
  List.iter
    (fun m ->
      let r1 = Shield.transfer_rate_mbps m ~file_bytes:4096 in
      let r2 = Shield.transfer_rate_mbps m ~file_bytes:(1 lsl 20) in
      Alcotest.(check bool) (m.Shield.sname ^ " monotone") true (r2 > r1))
    Shield.all

let test_with_measured () =
  let m = Shield.with_measured Shield.deflection ~fixed_cycles:1.0e5 ~cycles_per_byte:4.2 in
  Alcotest.(check string) "name preserved" "DEFLECTION" m.Shield.sname;
  Alcotest.(check (float 1e-9)) "fixed updated" 1.0e5 m.Shield.fixed_cycles

let suite =
  [
    Alcotest.test_case "tcb table shape" `Quick test_tcb_table_shape;
    Alcotest.test_case "reproduction tcb small" `Quick test_reproduction_tcb_small;
    Alcotest.test_case "trusted rows import only the allowlist" `Quick test_trusted_imports;
    Alcotest.test_case "trusted rows within line budget" `Quick test_trusted_budgets;
    Alcotest.test_case "fig11 crossover" `Quick test_fig11_crossover;
    Alcotest.test_case "rate monotone in size" `Quick test_rate_monotone_in_size;
    Alcotest.test_case "with_measured" `Quick test_with_measured;
  ]
