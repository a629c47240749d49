(* Telemetry substrate tests: span bookkeeping on a virtual clock,
   counter/histogram math, ring-buffer wraparound, JSON round-trips, and
   an end-to-end session whose snapshot must cover every protocol phase
   and agree with the outcome's own counters. *)

module T = Deflection_telemetry.Telemetry
module Hdr = Deflection_telemetry.Hdr
module Benchdiff = Deflection_telemetry.Benchdiff
module Json = Deflection_telemetry.Json
module Policy = Deflection_policy.Policy
module Session = Deflection.Session

(* a deterministic clock advancing [step] ns per reading *)
let fake_clock ?(step = 10) () =
  let now = ref 0 in
  fun () ->
    now := !now + step;
    !now

let find_span_exn snap name =
  match T.find_span snap name with
  | Some s -> s
  | None -> Alcotest.failf "span %S missing (have: %s)" name (String.concat ", " (T.span_names snap))

(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tm = T.create ~clock:(fake_clock ()) () in
  let r =
    T.span tm "outer" (fun () ->
        T.span tm "inner.a" (fun () -> ());
        T.span tm "inner.b" (fun () -> 17))
  in
  Alcotest.(check int) "body result" 17 r;
  let snap = T.snapshot tm in
  Alcotest.(check (list string)) "start order" [ "outer"; "inner.a"; "inner.b" ]
    (T.span_names snap);
  let outer = find_span_exn snap "outer" in
  let a = find_span_exn snap "inner.a" in
  let b = find_span_exn snap "inner.b" in
  Alcotest.(check int) "outer depth" 0 outer.T.depth;
  Alcotest.(check int) "inner depth" 1 a.T.depth;
  Alcotest.(check int) "inner depth b" 1 b.T.depth;
  (* children fall inside the parent on the virtual clock *)
  Alcotest.(check bool) "a within outer" true
    (a.T.start_ns >= outer.T.start_ns && a.T.stop_ns <= outer.T.stop_ns);
  Alcotest.(check bool) "b after a" true (b.T.start_ns >= a.T.stop_ns);
  List.iter
    (fun (s : T.span_info) ->
      Alcotest.(check bool) (s.T.sname ^ " monotone") true (s.T.stop_ns >= s.T.start_ns))
    snap.T.spans

let test_span_exception () =
  let tm = T.create ~clock:(fake_clock ()) () in
  (try T.span tm "boom" (fun () -> failwith "x") with Failure _ -> ());
  (* the span must have been closed despite the exception: a sibling
     opened afterwards sits at depth 0, not nested under "boom" *)
  T.span tm "after" (fun () -> ());
  let snap = T.snapshot tm in
  Alcotest.(check int) "boom recorded" 0 (find_span_exn snap "boom").T.depth;
  Alcotest.(check int) "after at root" 0 (find_span_exn snap "after").T.depth

let test_open_spans_omitted () =
  let tm = T.create ~clock:(fake_clock ()) () in
  T.span tm "root" (fun () ->
      T.span tm "closed" (fun () -> ());
      let snap = T.snapshot tm in
      Alcotest.(check (list string)) "only completed spans" [ "closed" ] (T.span_names snap))

let test_disabled () =
  Alcotest.(check bool) "disabled" false (T.enabled T.disabled);
  Alcotest.(check bool) "not tracing" false (T.tracing T.disabled);
  Alcotest.(check int) "span is just f ()" 3 (T.span T.disabled "x" (fun () -> 3));
  T.event T.disabled "e";
  T.count T.disabled "c" 5;
  let snap = T.snapshot T.disabled in
  Alcotest.(check int) "no spans" 0 (List.length snap.T.spans);
  Alcotest.(check int) "no counters" 0 (List.length snap.T.counters)

let test_counters () =
  let tm = T.create () in
  let c = T.counter tm "a" in
  T.add c 5;
  T.incr c;
  Alcotest.(check int) "resolved value" 6 (T.counter_value c);
  (* the same name resolves to the same counter *)
  T.add (T.counter tm "a") 4;
  Alcotest.(check int) "shared" 10 (T.counter_value c);
  T.count tm "b" 2;
  T.count tm "b" 3;
  Alcotest.(check int) "one-shot total" 5 (T.counter_total tm "b");
  Alcotest.(check int) "unregistered" 0 (T.counter_total tm "nope");
  let snap = T.snapshot tm in
  Alcotest.(check (list (pair string int))) "sorted by name" [ ("a", 10); ("b", 5) ]
    snap.T.counters

let test_histogram () =
  let tm = T.create () in
  let h = T.histogram tm "bytes" in
  List.iter (T.observe h) [ 1; 2; 3; 4; 100 ];
  let s = T.hist_snapshot h in
  Alcotest.(check int) "count" 5 s.T.h_count;
  Alcotest.(check int) "sum" 110 s.T.h_sum;
  Alcotest.(check int) "min" 1 s.T.h_min;
  Alcotest.(check int) "max" 100 s.T.h_max;
  Alcotest.(check (float 0.001)) "mean" 22.0 s.T.h_mean;
  (* power-of-two buckets: 1 -> <=1; 2 -> <=2; 3,4 -> <=4; 100 -> <=128 *)
  Alcotest.(check (list (pair int int))) "buckets" [ (1, 1); (2, 1); (4, 2); (128, 1) ]
    s.T.h_buckets;
  let empty = T.hist_snapshot (T.histogram tm "empty") in
  Alcotest.(check int) "empty count" 0 empty.T.h_count;
  Alcotest.(check (float 0.0)) "empty mean" 0.0 empty.T.h_mean

let test_ring_wraparound () =
  let tm = T.create ~clock:(fake_clock ()) ~sink:(T.Sink.ring ~capacity:4) () in
  Alcotest.(check bool) "tracing with ring" true (T.tracing tm);
  for i = 0 to 9 do
    T.event tm ~args:[ ("i", string_of_int i) ] "tick"
  done;
  let snap = T.snapshot tm in
  Alcotest.(check int) "retained" 4 (List.length snap.T.events);
  Alcotest.(check int) "dropped" 6 snap.T.dropped_events;
  (* the newest four survive, oldest first *)
  Alcotest.(check (list string)) "newest retained" [ "6"; "7"; "8"; "9" ]
    (List.map (fun (e : T.event) -> List.assoc "i" e.T.args) snap.T.events);
  let seqs = List.map (fun (e : T.event) -> e.T.seq) snap.T.events in
  Alcotest.(check bool) "seq increasing" true (List.sort compare seqs = seqs)

let test_noop_sink_drops () =
  let tm = T.create () in
  Alcotest.(check bool) "enabled" true (T.enabled tm);
  Alcotest.(check bool) "noop sink: not tracing" false (T.tracing tm);
  T.event tm "lost";
  Alcotest.(check int) "no events kept" 0 (List.length (T.snapshot tm).T.events);
  T.set_sink tm (T.Sink.ring ~capacity:8);
  Alcotest.(check bool) "now tracing" true (T.tracing tm);
  T.event tm "kept";
  Alcotest.(check int) "event kept" 1 (List.length (T.snapshot tm).T.events)

(* ------------------------------------------------------------------ *)

let test_json_parse () =
  let roundtrip ?pretty s =
    match Json.parse s with
    | Error e -> Alcotest.failf "parse %S: %s" s e
    | Ok j -> (
      let s' = Json.to_string ?pretty j in
      match Json.parse s' with
      | Error e -> Alcotest.failf "reparse %S: %s" s' e
      | Ok j' -> Alcotest.(check bool) ("round-trip " ^ s) true (j = j'))
  in
  roundtrip {|{"a": [1, -2, 3.5], "b": "x\n\"y\"", "c": null, "d": [true, false], "e": {}}|};
  roundtrip ~pretty:true {|{"nested": {"deep": [[1], [2, {"k": "v"}]]}}|};
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}"; "[1] trailing" ]

let test_json_string_escapes () =
  (* every escape JSON defines, incl. \uXXXX and astral surrogate pairs *)
  (match Json.parse {|"\" \\ \/ \b \f \n \r \t A é € 😀"|} with
  | Error e -> Alcotest.failf "escape parse: %s" e
  | Ok (Json.Str s) ->
    Alcotest.(check string) "decoded escapes"
      "\" \\ / \b \012 \n \r \t A \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80" s;
    (* control characters re-escape on output and survive a round-trip *)
    let again =
      match Json.parse (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> s'
      | Ok _ | Error _ -> Alcotest.fail "re-parse failed"
    in
    Alcotest.(check string) "escape round-trip" s again
  | Ok _ -> Alcotest.fail "not a string");
  (* a lone high surrogate degrades to U+FFFD rather than corrupting *)
  (match Json.parse {|"\ud83d oops"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "lone surrogate" "\xef\xbf\xbd oops" s
  | Ok _ | Error _ -> Alcotest.fail "lone surrogate not handled");
  (* a \u escape with non-hex digits is an error, never an exception *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "bad escape %s accepted" bad
      | Error _ -> ())
    [ {|"\uzz12"|}; {|"\u_123"|}; {|"\u+123"|} ];
  (* raw control characters inside strings are invalid JSON *)
  match Json.parse "\"a\nb\"" with
  | Ok _ -> Alcotest.fail "raw newline accepted in string"
  | Error _ -> ()

let test_json_nonfinite_floats () =
  (* JSON has no nan/inf: the writer must emit null, and the result must
     still parse *)
  List.iter
    (fun f ->
      let s = Json.to_string (Json.List [ Json.Float f; Json.Float 1.5 ]) in
      match Json.parse s with
      | Ok (Json.List [ Json.Null; Json.Float 1.5 ]) -> ()
      | Ok j -> Alcotest.failf "unexpected reparse %s of %s" (Json.to_string j) s
      | Error e -> Alcotest.failf "non-finite output unparseable (%s): %s" s e)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* finite floats survive exactly, including ugly ones *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> Alcotest.(check (float 0.0)) "exact round-trip" f f'
      | Ok _ -> Alcotest.fail "float reparsed as non-float"
      | Error e -> Alcotest.failf "float %h: %s" f e)
    [ 0.1; -1e-300; 1.7976931348623157e308; 4503599627370497.0; -0.5 ]

let test_json_trailing_garbage () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok j -> Alcotest.failf "accepted %S as %s" bad (Json.to_string j)
      | Error _ -> ())
    [
      "{} {}"; "[1] [2]"; "null x"; "42abc"; "{\"a\":1}]"; "  true false"; "\"s\"\"t\"";
    ];
  (* leading and trailing whitespace alone is fine *)
  match Json.parse "  {\"a\": [1, 2]}  \n" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]) -> ()
  | Ok _ | Error _ -> Alcotest.fail "whitespace-padded document rejected"

let test_json_deep_nesting () =
  (* a ~1000-deep document must parse and round-trip without blowing the
     stack (the parser recurses, so this bounds its depth headroom) *)
  let depth = 1000 in
  let doc =
    let rec build n acc = if n = 0 then acc else build (n - 1) (Json.List [ acc ]) in
    build depth (Json.Int 7)
  in
  let s = Json.to_string doc in
  Alcotest.(check int) "serialized size" ((2 * depth) + 1) (String.length s);
  (match Json.parse s with
  | Ok j -> Alcotest.(check bool) "deep round-trip" true (j = doc)
  | Error e -> Alcotest.failf "deep parse failed: %s" e);
  (* deep objects too *)
  let rec build_obj n acc = if n = 0 then acc else build_obj (n - 1) (Json.Obj [ ("k", acc) ]) in
  let odoc = build_obj 500 Json.Null in
  match Json.parse (Json.to_string odoc) with
  | Ok j -> Alcotest.(check bool) "deep object round-trip" true (j = odoc)
  | Error e -> Alcotest.failf "deep object parse failed: %s" e

let test_snapshot_json_roundtrip () =
  let tm = T.create ~clock:(fake_clock ()) ~sink:(T.Sink.ring ~capacity:16) () in
  T.span tm "root" (fun () ->
      T.span tm "child" (fun () -> T.event tm ~args:[ ("k", "v") ] "hello");
      T.count tm "ctr" 7;
      T.observe (T.histogram tm "h") 42);
  let snap = T.snapshot tm in
  let doc = T.snapshot_to_json snap in
  (* the exporter's output must survive our own parser *)
  let reparsed =
    match Json.parse (Json.to_string ~pretty:true doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot JSON invalid: %s" e
  in
  Alcotest.(check bool) "round-trip equal" true (doc = reparsed);
  (match Json.member "counters" reparsed with
  | Some (Json.Obj [ ("ctr", Json.Int 7) ]) -> ()
  | _ -> Alcotest.fail "counters not exported");
  (match Json.member "spans" reparsed with
  | Some (Json.List spans) -> Alcotest.(check int) "two spans" 2 (List.length spans)
  | _ -> Alcotest.fail "spans not exported");
  (* Chrome trace: one X event per span, one i event per instant *)
  match T.chrome_trace snap with
  | Json.List evs ->
    let phase e = match Json.member "ph" e with Some (Json.Str p) -> p | _ -> "?" in
    Alcotest.(check int) "complete events" 2
      (List.length (List.filter (fun e -> phase e = "X") evs));
    Alcotest.(check int) "instant events" 1
      (List.length (List.filter (fun e -> phase e = "i") evs))
  | _ -> Alcotest.fail "chrome_trace is not an array"

(* ------------------------------------------------------------------ *)

let trivial_src = "int buf[4]; int main() { buf[0] = 41; buf[0] = buf[0] + 1; send(buf, 4); return 0; }"

let test_session_end_to_end () =
  let tm = T.create ~sink:(T.Sink.ring ~capacity:4096) () in
  match Session.run ~policies:Policy.Set.p1_p6 ~tm ~source:trivial_src ~inputs:[] () with
  | Error e -> Alcotest.failf "session failed: %s" (Session.error_to_string e)
  | Ok o ->
    let snap = o.Session.telemetry in
    (* every protocol phase shows up in the span tree *)
    List.iter
      (fun name -> ignore (find_span_exn snap name))
      [
        "session"; "compile"; "instrument"; "attest.provider"; "attest.accept";
        "attest.complete"; "deliver"; "load"; "verify"; "verify.scan"; "rewrite";
        "attest.owner"; "upload"; "execute"; "decrypt";
      ];
    (* the root span encloses everything *)
    let root = find_span_exn snap "session" in
    Alcotest.(check int) "root depth" 0 root.T.depth;
    List.iter
      (fun (s : T.span_info) ->
        if s.T.sname <> "session" then
          Alcotest.(check bool) (s.T.sname ^ " within session") true (s.T.depth > 0))
      snap.T.spans;
    (* counters agree with the outcome *)
    let c = T.counter_total in
    Alcotest.(check int) "interp.instructions" o.Session.instructions
      (c tm "interp.instructions");
    Alcotest.(check int) "interp.aexes" o.Session.aexes (c tm "interp.aexes");
    Alcotest.(check int) "interp.ocalls" o.Session.ocalls (c tm "interp.ocalls");
    Alcotest.(check int) "verifier.annot.store"
      o.Session.verifier_report.Deflection_verifier.Verifier.store_annotations
      (c tm "verifier.annot.store");
    Alcotest.(check bool) "instructions nonzero" true (o.Session.instructions > 0);
    Alcotest.(check bool) "annotations counted" true (c tm "verifier.annot.store" > 0);
    (* per-class instruction counters partition the total *)
    let class_sum =
      List.fold_left
        (fun acc name -> acc + c tm ("interp.class." ^ name))
        0
        (Array.to_list Deflection_runtime.Interp.class_names)
    in
    Alcotest.(check int) "class counters partition instructions" o.Session.instructions
      class_sum;
    Alcotest.(check bool) "bytes sealed" true (c tm "channel.bytes_sealed" > 0);
    Alcotest.(check bool) "imms rewritten" true (c tm "loader.imms_rewritten" > 0)

let test_session_private_registry () =
  (* without ~tm the outcome still carries a populated snapshot *)
  match Session.run ~policies:Policy.Set.p1 ~source:trivial_src ~inputs:[] () with
  | Error e -> Alcotest.failf "session failed: %s" (Session.error_to_string e)
  | Ok o ->
    ignore (find_span_exn o.Session.telemetry "session");
    ignore (find_span_exn o.Session.telemetry "execute");
    Alcotest.(check bool) "counters populated" true
      (List.mem_assoc "interp.instructions" o.Session.telemetry.T.counters)

let test_structured_errors () =
  (match Session.run ~source:"int main( {" ~inputs:[] () with
  | Ok _ -> Alcotest.fail "bad source accepted"
  | Error (Session.Compile_error _ as e) ->
    let s = Session.error_to_string e in
    Alcotest.(check bool) "compile error message" true
      (String.length s >= 13 && String.sub s 0 13 = "compile error")
  | Error e -> Alcotest.failf "wrong error: %s" (Session.error_to_string e));
  let b = Deflection.Bootstrap.ecall_error_to_string Deflection.Bootstrap.No_provider_session in
  Alcotest.(check string) "ecall error text" "no code-provider session established" b

(* ------------------------------------------------------------------ *)
(* Log-bucketed percentile histograms (Hdr) *)

let hdr_of samples =
  let h = Hdr.create () in
  List.iter (Hdr.observe h) samples;
  h

(* the exact quantile under Hdr's rank rule: 1-indexed
   ceil(p * n)-th smallest sample, clamped to [1, n] *)
let exact_quantile samples p =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  if n = 0 then 0
  else if p <= 0.0 then List.hd sorted
  else if p >= 1.0 then List.nth sorted (n - 1)
  else
    let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
    List.nth sorted (rank - 1)

let test_hdr_empty_and_singleton () =
  let h = Hdr.create () in
  Alcotest.(check int) "empty count" 0 (Hdr.count h);
  Alcotest.(check int) "empty p99" 0 (Hdr.quantile h 0.99);
  Alcotest.(check int) "empty min" 0 (Hdr.min_value h);
  Alcotest.(check int) "empty max" 0 (Hdr.max_value h);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Hdr.mean h);
  let one = hdr_of [ 12345 ] in
  List.iter
    (fun (name, p) ->
      Alcotest.(check int) ("singleton " ^ name) 12345 (Hdr.quantile one p))
    Hdr.percentiles;
  Alcotest.(check int) "singleton min" 12345 (Hdr.min_value one);
  Alcotest.(check int) "singleton max" 12345 (Hdr.max_value one);
  (* negative observations clamp to zero rather than crashing *)
  let neg = hdr_of [ -5 ] in
  Alcotest.(check int) "negative clamps" 0 (Hdr.quantile neg 0.5)

(* arbitrary sample lists spanning six orders of magnitude, the shape of
   nanosecond latencies *)
let gen_samples =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (oneof [ int_range 0 100; int_range 100 100_000; int_range 100_000 1_000_000_000 ]))

let qcheck_hdr_quantile_accuracy =
  QCheck.Test.make ~name:"hdr quantile within 1/32 of exact" ~count:200
    (QCheck.make ~print:QCheck.Print.(list int) gen_samples)
    (fun samples ->
      let h = hdr_of samples in
      List.for_all
        (fun (_, p) ->
          let exact = exact_quantile samples p in
          let est = Hdr.quantile h p in
          (* the log-bucket bound never undershoots the exact sample and
             overshoots by at most one sub-bucket width: 1/2^sub_bits *)
          est >= exact && float_of_int est <= float_of_int exact *. (1.0 +. (1.0 /. 32.0)))
        Hdr.percentiles)

let qcheck_hdr_merge_associative =
  QCheck.Test.make ~name:"hdr merge associative and count-preserving" ~count:100
    QCheck.(triple (make gen_samples) (make gen_samples) (make gen_samples))
    (fun (a, b, c) ->
      let ha = hdr_of a and hb = hdr_of b and hc = hdr_of c in
      let left = Hdr.merge (Hdr.merge ha hb) hc in
      let right = Hdr.merge ha (Hdr.merge hb hc) in
      let whole = hdr_of (a @ b @ c) in
      Hdr.equal left right && Hdr.equal left whole
      && Hdr.count left = List.length a + List.length b + List.length c)

let test_hdr_merge_mismatch () =
  let a = Hdr.create ~sub_bits:5 () and b = Hdr.create ~sub_bits:6 () in
  Alcotest.check_raises "sub_bits mismatch rejected"
    (Invalid_argument "Hdr.merge: sub_bits mismatch (5 vs 6)") (fun () ->
      ignore (Hdr.merge a b))

let test_hdr_json () =
  let h = hdr_of [ 10; 20; 30; 1000 ] in
  let json = Hdr.to_json h in
  (match Json.member "count" json with
  | Some (Json.Int 4) -> ()
  | _ -> Alcotest.fail "count missing");
  List.iter
    (fun (name, _) ->
      match Json.member name json with
      | Some (Json.Int _) -> ()
      | _ -> Alcotest.failf "percentile %s missing from json" name)
    Hdr.percentiles;
  match Json.member "buckets" json with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "buckets missing"

(* ------------------------------------------------------------------ *)
(* Benchdiff comparator *)

let bench_doc ?(warm_over_cold = 1.8) ?(instr_per_sec = 500_000.0) () =
  Json.Obj
    [
      ( "sections",
        Json.Obj
          [
            ( "gateway",
              Json.Obj
                [
                  ("warm_over_cold_x", Json.Float warm_over_cold);
                  ("cold_sessions_per_s", Json.Float 12.0);
                ] );
            ("fuzz", Json.Obj [ ("verify_instr_per_sec", Json.Float instr_per_sec) ]);
            ("table2", Json.Obj [ ("instr_per_sec", Json.Float 8_000_000.0) ]);
          ] );
    ]

let verdict_of report name =
  match
    List.find_opt
      (fun (c : Benchdiff.comparison) -> c.Benchdiff.c_metric.Benchdiff.m_name = name)
      report.Benchdiff.comparisons
  with
  | Some c -> c.Benchdiff.c_verdict
  | None -> Alcotest.failf "metric %s not compared" name

let test_benchdiff_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Benchdiff.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Benchdiff.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Benchdiff.median [])

let test_benchdiff_verdicts () =
  let baseline = [ bench_doc () ] in
  (* unchanged: everything neutral, gate ok *)
  let same = Benchdiff.compare_docs ~baseline ~current:(bench_doc ()) in
  Alcotest.(check int) "no regressions" 0 same.Benchdiff.regressions;
  Alcotest.(check bool) "ok" true same.Benchdiff.ok;
  (* a 2x slowdown on a higher-is-better metric is a regression *)
  let slow =
    Benchdiff.compare_docs ~baseline ~current:(bench_doc ~instr_per_sec:250_000.0 ())
  in
  Alcotest.(check bool) "slowdown flagged" true
    (verdict_of slow "fuzz.verify_instr_per_sec" = Benchdiff.Worse);
  Alcotest.(check bool) "gate fails" false slow.Benchdiff.ok;
  (* a 2x speedup is an improvement, not a regression *)
  let fast =
    Benchdiff.compare_docs ~baseline ~current:(bench_doc ~instr_per_sec:1_000_000.0 ())
  in
  Alcotest.(check bool) "speedup flagged" true
    (verdict_of fast "fuzz.verify_instr_per_sec" = Benchdiff.Better);
  Alcotest.(check bool) "speedup passes gate" true fast.Benchdiff.ok;
  (* a wobble inside the tolerance band stays neutral *)
  let wobble =
    Benchdiff.compare_docs ~baseline ~current:(bench_doc ~instr_per_sec:450_000.0 ())
  in
  Alcotest.(check bool) "noise is neutral" true
    (verdict_of wobble "fuzz.verify_instr_per_sec" = Benchdiff.Neutral)

let test_benchdiff_median_baseline () =
  (* median-of-3 absorbs one outlier baseline run: the slow outlier must
     not drag the baseline down and mask a real regression *)
  let baseline =
    [
      bench_doc ~instr_per_sec:500_000.0 ();
      bench_doc ~instr_per_sec:510_000.0 ();
      bench_doc ~instr_per_sec:50_000.0 ();
    ]
  in
  let r = Benchdiff.compare_docs ~baseline ~current:(bench_doc ~instr_per_sec:250_000.0 ()) in
  Alcotest.(check bool) "regression vs median baseline" true
    (verdict_of r "fuzz.verify_instr_per_sec" = Benchdiff.Worse)

let test_benchdiff_missing () =
  (* a section absent on either side is Missing and never fails the gate *)
  let quick = Json.Obj [ ("sections", Json.Obj [ ("table1", Json.Obj [] ) ]) ] in
  let r = Benchdiff.compare_docs ~baseline:[ bench_doc () ] ~current:quick in
  List.iter
    (fun (c : Benchdiff.comparison) ->
      Alcotest.(check bool)
        (c.Benchdiff.c_metric.Benchdiff.m_name ^ " missing")
        true
        (c.Benchdiff.c_verdict = Benchdiff.Missing))
    r.Benchdiff.comparisons;
  Alcotest.(check bool) "missing passes gate" true r.Benchdiff.ok

let test_benchdiff_report_json () =
  let report =
    Benchdiff.compare_docs ~baseline:[ bench_doc () ]
      ~current:(bench_doc ~instr_per_sec:250_000.0 ())
  in
  let json =
    Benchdiff.report_to_json ~baseline_files:[ "a.json" ] ~current_file:"b.json" report
  in
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-benchdiff/1") -> ()
  | _ -> Alcotest.fail "schema field wrong");
  (match Json.member "ok" json with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "ok flag wrong");
  match Json.member "metrics" json with
  | Some (Json.List ms) ->
    Alcotest.(check int) "all tracked metrics reported" (List.length Benchdiff.tracked)
      (List.length ms)
  | _ -> Alcotest.fail "metrics array missing"

let suite =
  [
    Alcotest.test_case "span nesting and monotonicity" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick test_span_exception;
    Alcotest.test_case "open spans omitted from snapshots" `Quick test_open_spans_omitted;
    Alcotest.test_case "disabled instance is inert" `Quick test_disabled;
    Alcotest.test_case "counter arithmetic" `Quick test_counters;
    Alcotest.test_case "histogram buckets and summary" `Quick test_histogram;
    Alcotest.test_case "ring buffer wraps and counts drops" `Quick test_ring_wraparound;
    Alcotest.test_case "noop sink drops events" `Quick test_noop_sink_drops;
    Alcotest.test_case "json parser accepts/rejects" `Quick test_json_parse;
    Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
    Alcotest.test_case "json non-finite floats become null" `Quick test_json_nonfinite_floats;
    Alcotest.test_case "json trailing garbage rejected" `Quick test_json_trailing_garbage;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "snapshot json round-trip" `Quick test_snapshot_json_roundtrip;
    Alcotest.test_case "session end-to-end telemetry" `Quick test_session_end_to_end;
    Alcotest.test_case "session private registry" `Quick test_session_private_registry;
    Alcotest.test_case "structured errors" `Quick test_structured_errors;
    Alcotest.test_case "hdr empty and singleton" `Quick test_hdr_empty_and_singleton;
    QCheck_alcotest.to_alcotest qcheck_hdr_quantile_accuracy;
    QCheck_alcotest.to_alcotest qcheck_hdr_merge_associative;
    Alcotest.test_case "hdr merge rejects sub_bits mismatch" `Quick test_hdr_merge_mismatch;
    Alcotest.test_case "hdr json export" `Quick test_hdr_json;
    Alcotest.test_case "benchdiff median" `Quick test_benchdiff_median;
    Alcotest.test_case "benchdiff verdicts" `Quick test_benchdiff_verdicts;
    Alcotest.test_case "benchdiff median-of-N baseline" `Quick test_benchdiff_median_baseline;
    Alcotest.test_case "benchdiff missing metrics" `Quick test_benchdiff_missing;
    Alcotest.test_case "benchdiff verdict document" `Quick test_benchdiff_report_json;
  ]
