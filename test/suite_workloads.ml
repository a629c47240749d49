module W = Deflection_workloads
module Policy = Deflection_policy.Policy

let run ?policies ?inputs src =
  match W.Runner.run ?policies ?inputs ~aex_interval:None src with
  | Ok m -> m
  | Error e -> Alcotest.failf "workload failed: %s" e

(* Representative nBench kernels under the five Table II settings, run
   exactly as the bench's table2 section runs them: identical outputs, and
   the virtual cycles Table II's overheads are ratios of, pinned exactly
   (each setting costs more than the one before it). The full matrix runs
   in the bench harness; here we keep the three that exercise distinct
   instruction mixes (stores / fnptrs / floats). *)
let nbench_consistent name cycles =
  let b = Option.get (W.Nbench.find name) in
  let ms =
    List.map
      (fun (label, policies) ->
        match W.Runner.run ~policies b.W.Nbench.source with
        | Ok m -> (label, m)
        | Error e -> Alcotest.failf "%s under %s: %s" name label e)
      W.Runner.settings
  in
  let base = snd (List.hd ms) in
  List.iter
    (fun (label, m) ->
      Alcotest.(check (list string)) (label ^ " output") base.W.Runner.outputs m.W.Runner.outputs)
    ms;
  Alcotest.(check (list (pair string int))) "Table II cycles" cycles
    (List.map (fun (label, m) -> (label, m.W.Runner.cycles)) ms)

let test_numeric_sort () =
  nbench_consistent "NUMERIC SORT"
    [
      ("baseline", 1_487_032);
      ("P1", 1_720_672);
      ("P1+P2", 1_727_872);
      ("P1-P5", 1_777_372);
      ("P1-P6", 1_992_058);
    ]

let test_assignment () =
  nbench_consistent "ASSIGNMENT"
    [
      ("baseline", 1_462_664);
      ("P1", 1_656_550);
      ("P1+P2", 1_666_553);
      ("P1-P5", 1_899_771);
      ("P1-P6", 2_051_258);
    ]

let test_fourier () =
  nbench_consistent "FOURIER"
    [
      ("baseline", 2_009_025);
      ("P1", 2_043_873);
      ("P1+P2", 2_055_970);
      ("P1-P5", 2_219_668);
      ("P1-P6", 2_408_584);
    ]

let test_all_nbench_have_sources () =
  Alcotest.(check int) "ten workloads" 10 (List.length W.Nbench.all);
  List.iter
    (fun (b : W.Nbench.benchmark) ->
      match Deflection_compiler.Frontend.compile b.W.Nbench.source with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "%s does not compile: %a" b.W.Nbench.name
          Deflection_compiler.Frontend.pp_error e)
    W.Nbench.all

let test_genome_alignment_matches_reference () =
  let n = 48 in
  let payload = W.Genome.fasta_input ~seed:7L ~n in
  let s1 = Bytes.sub payload 0 n and s2 = Bytes.sub payload n n in
  let m = run ~inputs:[ s1; s2 ] (W.Genome.alignment_source ~n) in
  let expected = W.Genome.expected_alignment_score payload ~n in
  Alcotest.(check (list string)) "in-enclave NW score matches OCaml reference"
    [ string_of_int expected ]
    m.W.Runner.outputs

let test_genome_alignment_identical_sequences () =
  let n = 30 in
  let s = Bytes.make n 'A' in
  let m = run ~inputs:[ s; s ] (W.Genome.alignment_source ~n) in
  Alcotest.(check (list string)) "perfect alignment scores n" [ string_of_int n ]
    m.W.Runner.outputs

let test_genome_generation_counts () =
  let n = 1000 in
  let m = run (W.Genome.generation_source ~n) in
  (* last record is the printed count; the earlier ones are sequence data *)
  let rec split_last acc = function
    | [] -> Alcotest.fail "no output"
    | [ last ] -> (List.rev acc, last)
    | x :: rest -> split_last (x :: acc) rest
  in
  let chunks, count = split_last [] m.W.Runner.outputs in
  Alcotest.(check string) "count" (string_of_int n) count;
  let total = List.fold_left (fun acc c -> acc + String.length c) 0 chunks in
  Alcotest.(check int) "nucleotides emitted" n total;
  List.iter
    (fun chunk ->
      String.iter
        (fun c -> if not (String.contains "ACGT" c) then Alcotest.failf "bad nucleotide %c" c)
        chunk)
    chunks

let test_credit_deterministic () =
  let a = run (W.Credit.source ~n:200) in
  let b = run (W.Credit.source ~n:200) in
  Alcotest.(check (list string)) "deterministic scoring" a.W.Runner.outputs b.W.Runner.outputs;
  Alcotest.(check int) "one record" 1 (List.length a.W.Runner.outputs)

let test_credit_scales () =
  let small = run (W.Credit.source ~n:50) in
  let large = run (W.Credit.source ~n:500) in
  Alcotest.(check bool) "cycles grow with records" true
    (large.W.Runner.cycles > small.W.Runner.cycles)

let test_https_handler_serves () =
  let m =
    run
      ~inputs:[ W.Https.request_payload ~size:700; W.Https.request_payload ~size:100 ]
      (W.Https.handler_source ~requests:2)
  in
  (* 2 requests: each emits a 32-byte header + body chunks, then the count *)
  let last = List.nth m.W.Runner.outputs (List.length m.W.Runner.outputs - 1) in
  Alcotest.(check string) "served both" "2" last;
  let body_bytes =
    List.fold_left (fun acc c -> acc + String.length c) 0 m.W.Runner.outputs
  in
  (* 32 + 700 + 32 + 100 + len "2" *)
  Alcotest.(check int) "response volume" (32 + 700 + 32 + 100 + 1) body_bytes

let test_https_closed_loop_knee () =
  let pt c = W.Https.closed_loop ~service_cycles:2.0e6 ~concurrency:c () in
  let r50 = pt 50 and r100 = pt 100 and r200 = pt 200 in
  (* response time flat-ish before the worker limit, rising after *)
  Alcotest.(check bool) "flat before knee" true
    (r100.W.Https.response_ms /. r50.W.Https.response_ms < 1.3);
  Alcotest.(check bool) "rising after knee" true
    (r200.W.Https.response_ms > 1.5 *. r100.W.Https.response_ms);
  (* throughput saturates *)
  Alcotest.(check bool) "throughput plateau" true
    (r200.W.Https.throughput_rps <= r100.W.Https.throughput_rps *. 1.05)

let suite =
  [
    Alcotest.test_case "all nbench sources compile" `Quick test_all_nbench_have_sources;
    Alcotest.test_case "numeric sort consistent" `Slow test_numeric_sort;
    Alcotest.test_case "assignment consistent" `Slow test_assignment;
    Alcotest.test_case "fourier consistent" `Slow test_fourier;
    Alcotest.test_case "genome alignment matches reference" `Quick
      test_genome_alignment_matches_reference;
    Alcotest.test_case "genome alignment identical" `Quick test_genome_alignment_identical_sequences;
    Alcotest.test_case "genome generation counts" `Quick test_genome_generation_counts;
    Alcotest.test_case "credit deterministic" `Quick test_credit_deterministic;
    Alcotest.test_case "credit scales" `Quick test_credit_scales;
    Alcotest.test_case "https handler serves" `Quick test_https_handler_serves;
    Alcotest.test_case "https closed-loop knee" `Quick test_https_closed_loop_knee;
  ]
