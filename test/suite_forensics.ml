(* Forensics tests: the flight recorder ring (inert when off, bounded when
   on), crash reports frozen from real policy-violating sessions, verifier
   rejection verdicts with decode evidence, sampling-profiler invariants
   against the interpreter's own counters, Prometheus exposition, the
   [deflectionc report] renderer, and the documented exit-code mapping. *)

module FR = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module Report = Deflection_forensics.Report
module Prometheus = Deflection_forensics.Prometheus
module Json = Deflection_telemetry.Json
module T = Deflection_telemetry.Telemetry
module Policy = Deflection_policy.Policy
module Session = Deflection.Session
module Verifier = Deflection_verifier.Verifier
module Frontend = Deflection_compiler.Frontend
module Objfile = Deflection_isa.Objfile
module Interp = Deflection_runtime.Interp
module W = Deflection_workloads

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* the deliberately non-compliant program: a store far outside the enclave *)
let violate_src = "int buf[4]; int main() { buf[2000000] = 7; return 0; }"

let looping_src =
  "int acc[1]; int main() { for (int i = 0; i < 500; i = i + 1) { acc[0] = acc[0] + i; } \
   send(acc, 4); return 0; }"

let run_session ?(policies = Policy.Set.p1_p6) ?recorder ?profiler src =
  match Session.run ~policies ?recorder ?profiler ~source:src ~inputs:[] () with
  | Ok o -> o
  | Error e -> Alcotest.failf "session failed: %s" (Session.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_recorder_disabled () =
  Alcotest.(check bool) "off" false (FR.enabled FR.disabled);
  FR.record FR.disabled FR.Retired ~pc:1 ~arg:0;
  FR.record FR.disabled FR.Abort ~pc:2 ~arg:3;
  Alcotest.(check int) "nothing recorded" 0 (FR.recorded FR.disabled);
  Alcotest.(check int) "nothing dropped" 0 (FR.dropped FR.disabled);
  Alcotest.(check (list int)) "no entries" []
    (List.map (fun (e : FR.entry) -> e.FR.pc) (FR.entries FR.disabled))

let test_recorder_wraparound () =
  let r = FR.create ~capacity:4 () in
  Alcotest.(check bool) "on" true (FR.enabled r);
  for i = 0 to 9 do
    FR.record r FR.Retired ~pc:(100 + i) ~arg:i
  done;
  Alcotest.(check int) "capacity" 4 (FR.capacity r);
  Alcotest.(check int) "recorded counts all" 10 (FR.recorded r);
  Alcotest.(check int) "dropped the overflow" 6 (FR.dropped r);
  let es = FR.entries r in
  Alcotest.(check int) "retained = capacity" 4 (List.length es);
  (* the newest four survive, oldest first, with increasing seq *)
  Alcotest.(check (list int)) "newest pcs retained" [ 106; 107; 108; 109 ]
    (List.map (fun (e : FR.entry) -> e.FR.pc) es);
  Alcotest.(check (list int)) "seq oldest-first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : FR.entry) -> e.FR.seq) es)

let test_recorder_wrap_boundary () =
  (* the exact boundary: filling the ring to capacity drops nothing, and
     whole extra turns retain precisely the newest window *)
  let r = FR.create ~capacity:4 () in
  for i = 0 to 3 do
    FR.record r FR.Retired ~pc:(200 + i) ~arg:i
  done;
  Alcotest.(check int) "full ring, nothing dropped" 0 (FR.dropped r);
  Alcotest.(check (list int)) "all four retained" [ 200; 201; 202; 203 ]
    (List.map (fun (e : FR.entry) -> e.FR.pc) (FR.entries r));
  (* one more full turn: exactly the first four fall off *)
  for i = 4 to 7 do
    FR.record r FR.Retired ~pc:(200 + i) ~arg:i
  done;
  Alcotest.(check int) "recorded counts every event" 8 (FR.recorded r);
  Alcotest.(check int) "one turn dropped" 4 (FR.dropped r);
  Alcotest.(check (list int)) "second turn retained" [ 204; 205; 206; 207 ]
    (List.map (fun (e : FR.entry) -> e.FR.pc) (FR.entries r));
  Alcotest.(check (list int)) "seqs keep global numbering" [ 4; 5; 6; 7 ]
    (List.map (fun (e : FR.entry) -> e.FR.seq) (FR.entries r));
  (* degenerate capacity 1: always exactly the newest event *)
  let r1 = FR.create ~capacity:1 () in
  for i = 0 to 5 do
    FR.record r1 FR.Ocall ~pc:(300 + i) ~arg:0
  done;
  Alcotest.(check (list int)) "capacity 1 keeps the newest" [ 305 ]
    (List.map (fun (e : FR.entry) -> e.FR.pc) (FR.entries r1));
  Alcotest.(check int) "capacity 1 dropped the rest" 5 (FR.dropped r1)

let test_recorder_interp_events () =
  (* capacity generously above the event volume so nothing wraps and the
     very first event (the ECall) is still retained *)
  let recorder = FR.create ~capacity:(1 lsl 18) () in
  let o = run_session ~recorder looping_src in
  (match o.Session.exit with
  | Interp.Exited 0L -> ()
  | e -> Alcotest.failf "unexpected exit %s" (Interp.exit_reason_to_string e));
  let es = FR.entries recorder in
  let count k = List.length (List.filter (fun (e : FR.entry) -> e.FR.ekind = k) es) in
  (* the first event is the host entering the enclave *)
  (match es with
  | { FR.ekind = FR.Ecall; _ } :: _ -> ()
  | _ -> Alcotest.fail "first event is not an ECall");
  Alcotest.(check bool) "retired events" true (count FR.Retired > 0);
  Alcotest.(check bool) "taken branches (loop back-edges)" true (count FR.Branch_taken > 0);
  Alcotest.(check bool) "fall-throughs (loop exit)" true (count FR.Branch_not_taken > 0);
  Alcotest.(check int) "send -> one ocall" 1 (count FR.Ocall);
  (* every retained event retired within the run *)
  Alcotest.(check bool) "bounded by instruction count" true
    (FR.recorded recorder <= 4 * o.Session.instructions + 8)

let test_recorder_aex_events () =
  let recorder = FR.create ~capacity:(1 lsl 18) () in
  match
    W.Runner.run ~policies:Policy.Set.p1_p6 ~aex_interval:(Some 200) ~recorder looping_src
  with
  | Error e -> Alcotest.failf "runner failed: %s" e
  | Ok m ->
    Alcotest.(check bool) "platform injected AEXes" true (m.W.Runner.aexes > 0);
    let aexes =
      List.filter (fun (e : FR.entry) -> e.FR.ekind = FR.Aex) (FR.entries recorder)
    in
    Alcotest.(check int) "one event per AEX" m.W.Runner.aexes (List.length aexes);
    (* the arg carries the running AEX count: strictly increasing *)
    let args = List.map (fun (e : FR.entry) -> e.FR.arg) aexes in
    Alcotest.(check bool) "AEX count increases" true (List.sort compare args = args)

(* ------------------------------------------------------------------ *)
(* Crash reports *)

let test_crash_policy_abort () =
  let recorder = FR.create () in
  let o = run_session ~recorder violate_src in
  (match o.Session.exit with
  | Interp.Policy_abort _ -> ()
  | e -> Alcotest.failf "expected policy abort, got %s" (Interp.exit_reason_to_string e));
  match o.Session.crash with
  | None -> Alcotest.fail "abnormal exit carries no crash report"
  | Some c ->
    Alcotest.(check string) "kind" "policy-abort" c.Report.kind;
    (match c.Report.policy with
    | Some Policy.P1 -> ()
    | Some p -> Alcotest.failf "wrong policy %s" (Policy.name p)
    | None -> Alcotest.fail "violated policy not identified");
    (match c.Report.abort_stub with
    | Some s -> Alcotest.(check string) "abort stub" "__abort_store" s
    | None -> Alcotest.fail "abort stub not identified");
    Alcotest.(check bool) "pc recorded" true (c.Report.pc > 0);
    Alcotest.(check bool) "instruction bytes" true (String.length c.Report.instr_bytes > 0);
    (* the disassembly window contains exactly one marked fault line, at pc *)
    let faults = List.filter (fun w -> w.Report.w_fault) c.Report.window in
    (match faults with
    | [ w ] ->
      Alcotest.(check bool) "fault line covers pc" true (w.Report.w_addr <= c.Report.pc)
    | _ -> Alcotest.failf "%d fault lines in window" (List.length faults));
    Alcotest.(check bool) "window has context" true (List.length c.Report.window > 8);
    Alcotest.(check int) "full register file" 16 (List.length c.Report.regs);
    Alcotest.(check bool) "memory map present" true (List.length c.Report.regions >= 6);
    (* the flight recorder tail made it into the report, ending in the abort *)
    Alcotest.(check bool) "events captured" true (List.length c.Report.events > 0);
    (match List.rev c.Report.events with
    | { FR.ekind = FR.Abort; pc; _ } :: _ -> Alcotest.(check int) "abort at pc" c.Report.pc pc
    | _ -> Alcotest.fail "last event is not the abort");
    (* pretty printer mentions the essentials *)
    let txt = Format.asprintf "%a" Report.pp_crash c in
    List.iter
      (fun frag ->
        Alcotest.(check bool) ("report mentions " ^ frag) true (contains txt frag))
      [ "crash report"; "P1"; "__abort_store"; "=>"; "flight recorder" ]

let test_crash_json_roundtrip () =
  let o = run_session ~recorder:(FR.create ()) violate_src in
  let c = Option.get o.Session.crash in
  let doc = Report.crash_to_json c in
  let reparsed =
    match Json.parse (Json.to_string ~pretty:true doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "crash JSON does not parse: %s" e
  in
  Alcotest.(check bool) "round-trip equal" true (doc = reparsed);
  let str k = match Json.member k reparsed with Some (Json.Str s) -> s | _ -> "?" in
  Alcotest.(check string) "schema" "deflection-forensics/1" (str "schema");
  Alcotest.(check string) "kind" "crash" (str "kind");
  Alcotest.(check string) "policy" "P1" (str "policy");
  (match Json.member "pc" reparsed with
  | Some (Json.Int pc) -> Alcotest.(check int) "pc" c.Report.pc pc
  | _ -> Alcotest.fail "pc missing");
  (match Json.member "regs" reparsed with
  | Some (Json.Obj regs) -> Alcotest.(check int) "16 registers" 16 (List.length regs)
  | _ -> Alcotest.fail "registers missing");
  match Json.member "window" reparsed with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "disassembly window missing"

let test_crash_json_escaping () =
  (* a crash report whose string fields carry the worst the disassembler
     can produce — raw control bytes, quotes, backslashes, non-UTF8
     bytes — must still serialize to parseable JSON and survive the
     round trip byte-for-byte *)
  let nasty = "\x00\x01\x1f\"\\\n\r\t\xff\xfe<bad opcode 0x9c>" in
  let crash =
    {
      Report.kind = "bad-decode";
      detail = "decode failed at pc\t0x40 \"garbage\"\n";
      policy = None;
      abort_stub = Some nasty;
      pc = 0x40;
      instr_bytes = nasty;
      window =
        [
          { Report.w_addr = 0x38; w_bytes = "9c ff"; w_text = nasty; w_fault = false };
          { Report.w_addr = 0x40; w_bytes = ""; w_text = "<bad opcode>"; w_fault = true };
        ];
      regs = [ ("r0", 0L); ("r1", -1L) ];
      regions = [ { Report.r_name = "text"; r_lo = 0; r_hi = 4096; r_perm = "r-x" } ];
      events = [];
      events_dropped = 0;
      cycles = 1;
      instructions = 1;
      aexes = 0;
      ocalls = 0;
      leaked_bytes = 0;
    }
  in
  let doc = Report.crash_to_json crash in
  let text = Json.to_string ~pretty:true doc in
  (* control characters must never appear raw inside the serialized form *)
  String.iter
    (fun c ->
      if Char.code c < 0x20 && c <> '\n' && c <> ' ' then
        Alcotest.failf "raw control byte %#x in serialized JSON" (Char.code c))
    text;
  (match Json.parse text with
  | Error e -> Alcotest.failf "escaped crash JSON does not parse: %s" e
  | Ok reparsed ->
    Alcotest.(check bool) "round-trip equal" true (doc = reparsed);
    (match Json.member "instr_bytes" reparsed with
    | Some (Json.Str s) -> Alcotest.(check string) "instr bytes intact" nasty s
    | _ -> Alcotest.fail "instr_bytes missing");
    match Json.member "window" reparsed with
    | Some (Json.List (first :: _)) -> (
      match Json.member "text" first with
      | Some (Json.Str s) -> Alcotest.(check string) "window text intact" nasty s
      | _ -> Alcotest.fail "window text missing")
    | _ -> Alcotest.fail "window missing");
  (* the disassembly window over genuinely undecodable bytes feeds the
     same path from real data: render and serialize without raising *)
  let garbage = Bytes.init 24 (fun i -> Char.chr ((0xf0 + i) land 0xff)) in
  let window = Report.disasm_window ~code:garbage ~base:0 ~pc:8 () in
  Alcotest.(check bool) "garbage still windows" true (List.length window > 0);
  let doc2 = Report.crash_to_json { crash with window } in
  match Json.parse (Json.to_string doc2) with
  | Ok j -> Alcotest.(check bool) "garbage window round-trips" true (doc2 = j)
  | Error e -> Alcotest.failf "garbage window JSON does not parse: %s" e

let test_crash_runtime_fault () =
  (* a hardware-level fault (not a policy abort): same forensic machinery,
     different kind, no policy clause. The divisor is loaded from a
     zero-initialized global so the frontend cannot fold it away. *)
  let div_src = "int z[1]; int main() { return 7 / z[0]; }" in
  let o = run_session ~recorder:(FR.create ()) div_src in
  (match o.Session.exit with
  | Interp.Div_by_zero _ -> ()
  | e -> Alcotest.failf "expected div-by-zero, got %s" (Interp.exit_reason_to_string e));
  match o.Session.crash with
  | None -> Alcotest.fail "fault carries no crash report"
  | Some c ->
    Alcotest.(check string) "kind" "div-by-zero" c.Report.kind;
    Alcotest.(check bool) "no policy clause" true (c.Report.policy = None);
    (match List.rev c.Report.events with
    | { FR.ekind = FR.Fault; _ } :: _ -> ()
    | _ -> Alcotest.fail "last event is not the fault");
    Alcotest.(check bool) "window still decodes" true (List.length c.Report.window > 0)

let test_no_crash_on_clean_exit () =
  let o = run_session looping_src in
  Alcotest.(check bool) "clean exit, no crash" true (o.Session.crash = None)

(* ------------------------------------------------------------------ *)
(* Rejection forensics *)

let reject_of ~verify_policies obj =
  match Verifier.verify ~policies:verify_policies ~ssa_q:obj.Objfile.ssa_q obj with
  | Ok _ -> Alcotest.fail "expected the verifier to reject"
  | Error rej -> rej

let test_rejection_scan_verdict () =
  (* a P-none binary has bare stores; P1 verification rejects in the scan *)
  let obj = Frontend.compile_exn ~policies:Policy.Set.none violate_src in
  let rej = reject_of ~verify_policies:Policy.Set.p1 obj in
  Alcotest.(check string) "pass" "scan" (Verifier.pass_label rej.Verifier.pass);
  Alcotest.(check bool) "offset in text" true
    (rej.Verifier.offset >= 0 && rej.Verifier.offset < Bytes.length obj.Objfile.text);
  let v =
    Report.explain_rejection ~text:obj.Objfile.text
      ~pass:(Verifier.pass_label rej.Verifier.pass) ~offset:rej.Verifier.offset
      ~reason:rej.Verifier.reason ()
  in
  Alcotest.(check string) "verdict pass" "scan" v.Report.v_pass;
  Alcotest.(check bool) "evidence produced" true (List.length v.Report.v_evidence > 0);
  Alcotest.(check bool) "window decoded" true (List.length v.Report.v_window > 0);
  let faults = List.filter (fun w -> w.Report.w_fault) v.Report.v_window in
  Alcotest.(check int) "offending line marked" 1 (List.length faults);
  let txt = Format.asprintf "%a" Report.pp_verdict v in
  Alcotest.(check bool) "prints the pass" true (contains txt "scan");
  Alcotest.(check bool) "prints the reason" true (contains txt rej.Verifier.reason)

let test_rejection_symbols_pass () =
  (* strip a required abort stub: the symbol pass must be the one blamed *)
  let obj = Frontend.compile_exn ~policies:Policy.Set.p1_p6 violate_src in
  let crippled =
    {
      obj with
      Objfile.symbols =
        List.filter
          (fun (s : Objfile.symbol) -> s.Objfile.name <> "__abort_store")
          obj.Objfile.symbols;
    }
  in
  let rej = reject_of ~verify_policies:Policy.Set.p1_p6 crippled in
  Alcotest.(check string) "pass" "symbols" (Verifier.pass_label rej.Verifier.pass);
  Alcotest.(check bool) "names the symbol" true
    (contains rej.Verifier.reason "__abort_store")

let test_rejection_json_roundtrip () =
  let obj = Frontend.compile_exn ~policies:Policy.Set.none violate_src in
  let rej = reject_of ~verify_policies:Policy.Set.p1 obj in
  let v =
    Report.explain_rejection ~text:obj.Objfile.text
      ~pass:(Verifier.pass_label rej.Verifier.pass) ~offset:rej.Verifier.offset
      ~reason:rej.Verifier.reason ()
  in
  let doc = Report.verdict_to_json v in
  let reparsed =
    match Json.parse (Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "verdict JSON does not parse: %s" e
  in
  Alcotest.(check bool) "round-trip equal" true (doc = reparsed);
  let str k = match Json.member k reparsed with Some (Json.Str s) -> s | _ -> "?" in
  Alcotest.(check string) "schema" "deflection-forensics/1" (str "schema");
  Alcotest.(check string) "kind" "rejection" (str "kind");
  Alcotest.(check string) "pass" "scan" (str "pass");
  match Json.member "offset" reparsed with
  | Some (Json.Int o) -> Alcotest.(check int) "offset" rej.Verifier.offset o
  | _ -> Alcotest.fail "offset missing"

(* ------------------------------------------------------------------ *)
(* Profiler *)

let test_profiler_sample_invariant () =
  (* an interval coprime to everything: the floor must still be exact *)
  let interval = 7 in
  let profiler = Profiler.create ~interval () in
  let o = run_session ~profiler looping_src in
  Alcotest.(check bool) "sampled" true (Profiler.samples_total profiler > 0);
  Alcotest.(check int) "samples = floor(cycles / interval)"
    (o.Session.cycles / interval)
    (Profiler.samples_total profiler)

let test_profiler_retired_agrees_with_interp () =
  let profiler = Profiler.create ~interval:64 () in
  let o = run_session ~profiler looping_src in
  Alcotest.(check int) "retired = interpreter instruction count" o.Session.instructions
    (Profiler.retired profiler);
  (* ...and with the per-class partition the interpreter publishes *)
  let class_sum =
    List.fold_left
      (fun acc (name, v) ->
        let p = "interp.class." in
        let lp = String.length p in
        if String.length name > lp && String.sub name 0 lp = p then acc + v else acc)
      0 o.Session.telemetry.T.counters
  in
  Alcotest.(check int) "retired = sum of class counters" class_sum
    (Profiler.retired profiler);
  Alcotest.(check (option int)) "the profiler is named as the reason the trace tier was off"
    (Some 1)
    (List.assoc_opt "interp.trace.off.profiler" o.Session.telemetry.T.counters)

let test_profiler_symbol_attribution () =
  let p = Profiler.create ~interval:1 () in
  Profiler.set_symbols p [ ("beta", 0x200); ("alpha", 0x100) ];
  (* one cycle per step: every pc is sampled once *)
  Profiler.on_step p ~cycles:1 ~pc:0x150;
  Profiler.on_step p ~cycles:2 ~pc:0x150;
  Profiler.on_step p ~cycles:3 ~pc:0x208;
  Profiler.on_step p ~cycles:4 ~pc:0x50;
  let hs = Profiler.hotspots p in
  let find f off =
    List.find_opt (fun (h : Profiler.hotspot) -> h.Profiler.func = f && h.Profiler.offset = off) hs
  in
  (match find "alpha" 0x50 with
  | Some h -> Alcotest.(check int) "alpha;+0x50 twice" 2 h.Profiler.count
  | None -> Alcotest.fail "sample not attributed to alpha");
  Alcotest.(check bool) "beta;+0x8 present" true (find "beta" 0x8 <> None);
  Alcotest.(check bool) "below every symbol -> unmapped" true
    (find "<unmapped>" 0x50 <> None);
  (* hottest first *)
  (match hs with
  | first :: _ -> Alcotest.(check int) "sorted by count" 2 first.Profiler.count
  | [] -> Alcotest.fail "no hotspots");
  Alcotest.(check (list (pair string int))) "per-function rollup"
    [ ("alpha", 2); ("<unmapped>", 1); ("beta", 1) ]
    (Profiler.by_function p)

let test_profiler_collapsed_format () =
  let profiler = Profiler.create ~interval:16 () in
  let o = run_session ~profiler looping_src in
  ignore o;
  let lines =
    String.split_on_char '\n' (Profiler.collapsed profiler)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "lines emitted" true (List.length lines > 0);
  let parsed_counts =
    List.map
      (fun line ->
        (* function;+0xOFFSET COUNT *)
        match String.index_opt line ';' with
        | None -> Alcotest.failf "no frame separator in %S" line
        | Some semi ->
          (match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "no count in %S" line
          | Some sp ->
            let site = String.sub line (semi + 1) (sp - semi - 1) in
            if String.length site < 4 || String.sub site 0 3 <> "+0x" then
              Alcotest.failf "bad site %S in %S" site line;
            (match int_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
            | Some c when c > 0 -> c
            | _ -> Alcotest.failf "bad count in %S" line)))
      lines
  in
  Alcotest.(check int) "counts sum to the sample total"
    (Profiler.samples_total profiler)
    (List.fold_left ( + ) 0 parsed_counts)

let test_profile_json () =
  let profiler = Profiler.create ~interval:32 () in
  let o = run_session ~profiler looping_src in
  let doc = Profiler.to_json ~cycles:o.Session.cycles profiler in
  let reparsed =
    match Json.parse (Json.to_string ~pretty:true doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "profile JSON does not parse: %s" e
  in
  Alcotest.(check bool) "round-trip equal" true (doc = reparsed);
  (match Json.member "schema" reparsed with
  | Some (Json.Str "deflection-profile/1") -> ()
  | _ -> Alcotest.fail "schema wrong");
  (match Json.member "samples_total" reparsed with
  | Some (Json.Int n) -> Alcotest.(check int) "totals" (Profiler.samples_total profiler) n
  | _ -> Alcotest.fail "samples_total missing");
  match Json.member "cycles" reparsed with
  | Some (Json.Int n) -> Alcotest.(check int) "cycles recorded" o.Session.cycles n
  | _ -> Alcotest.fail "cycles missing"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let test_prometheus_lines () =
  Alcotest.(check string) "sanitize dots" "interp_class_alu"
    (Prometheus.sanitize_name "interp.class.alu");
  Alcotest.(check string) "sanitize leading digit" "_lives" (Prometheus.sanitize_name "9lives");
  let tm = T.create () in
  T.count tm "interp.instructions" 42;
  T.count tm "verifier.annot.store" 3;
  let h = T.histogram tm "channel.record_bytes" in
  List.iter (T.observe h) [ 1; 2; 3; 100 ];
  let text = Prometheus.of_snapshot (T.snapshot tm) in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  (* every line is either a comment or "name[{labels}] value" *)
  let is_metric_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = ':'
  in
  List.iter
    (fun line ->
      if String.length line >= 2 && String.sub line 0 2 = "# " then ()
      else begin
        (* metric name: legal charset up to '{' or ' ' *)
        let i = ref 0 in
        while !i < String.length line && is_metric_char line.[!i] do
          incr i
        done;
        if !i = 0 then Alcotest.failf "no metric name in %S" line;
        let rest =
          match line.[!i] with
          | '{' -> (
            match String.index_from_opt line !i '}' with
            | Some close when close + 1 < String.length line && line.[close + 1] = ' ' ->
              String.sub line (close + 2) (String.length line - close - 2)
            | _ -> Alcotest.failf "malformed labels in %S" line)
          | ' ' -> String.sub line (!i + 1) (String.length line - !i - 1)
          | c -> Alcotest.failf "unexpected %C in %S" c line
        in
        if float_of_string_opt rest = None then Alcotest.failf "bad value in %S" line
      end)
    lines;
  Alcotest.(check bool) "counter exported with _total" true
    (contains text "deflection_interp_instructions_total 42");
  (* histogram buckets are cumulative and end at +Inf = count *)
  Alcotest.(check bool) "+Inf bucket" true
    (contains text "deflection_channel_record_bytes_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "cumulative buckets" true
    (contains text "deflection_channel_record_bytes_bucket{le=\"4\"} 3");
  Alcotest.(check bool) "sum" true (contains text "deflection_channel_record_bytes_sum 106");
  Alcotest.(check bool) "count" true (contains text "deflection_channel_record_bytes_count 4")

let test_prometheus_hdr_families () =
  let module Hdr = Deflection_telemetry.Hdr in
  let h = Hdr.create () in
  List.iter (Hdr.observe h) [ 150; 150; 3_000; 90_000 ];
  let text =
    Prometheus.of_hdr_families ~prefix:"deflection_gateway_latency_ns" [ ("verify", h) ]
  in
  Alcotest.(check bool) "family name sanitized+prefixed" true
    (contains text "# TYPE deflection_gateway_latency_ns_verify histogram");
  Alcotest.(check bool) "+Inf closes the series" true
    (contains text "deflection_gateway_latency_ns_verify_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "count line" true
    (contains text "deflection_gateway_latency_ns_verify_count 4");
  Alcotest.(check bool) "sum line" true
    (contains text "deflection_gateway_latency_ns_verify_sum 93300");
  (* buckets must be cumulative and monotone in bound order *)
  let lines = String.split_on_char '\n' text in
  let buckets =
    List.filter_map
      (fun l ->
        let pre = "deflection_gateway_latency_ns_verify_bucket{le=\"" in
        if String.length l > String.length pre && String.sub l 0 (String.length pre) = pre
        then
          match String.index_opt l ' ' with
          | Some sp -> int_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "at least two buckets" true (List.length buckets >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative counts monotone" true (monotone buckets);
  (* the last cumulative bucket (+Inf) equals the total count *)
  Alcotest.(check int) "closes at the count" 4 (List.nth buckets (List.length buckets - 1))

(* ------------------------------------------------------------------ *)
(* Saved-document rendering (the [deflectionc report] path) *)

let test_render_documents () =
  let o = run_session ~recorder:(FR.create ()) violate_src in
  let crash_doc = Report.crash_to_json (Option.get o.Session.crash) in
  (match Report.render crash_doc with
  | Ok txt ->
    Alcotest.(check bool) "crash renders" true (contains txt "crash report");
    Alcotest.(check bool) "crash names policy" true (contains txt "P1")
  | Error e -> Alcotest.failf "crash render failed: %s" e);
  let obj = Frontend.compile_exn ~policies:Policy.Set.none violate_src in
  let rej = reject_of ~verify_policies:Policy.Set.p1 obj in
  let v =
    Report.explain_rejection ~text:obj.Objfile.text
      ~pass:(Verifier.pass_label rej.Verifier.pass) ~offset:rej.Verifier.offset
      ~reason:rej.Verifier.reason ()
  in
  (match Report.render (Report.verdict_to_json v) with
  | Ok txt -> Alcotest.(check bool) "verdict renders" true (contains txt "scan")
  | Error e -> Alcotest.failf "verdict render failed: %s" e);
  let profiler = Profiler.create ~interval:64 () in
  let o2 = run_session ~profiler looping_src in
  (match Report.render (Profiler.to_json ~cycles:o2.Session.cycles profiler) with
  | Ok txt -> Alcotest.(check bool) "profile renders" true (contains txt "samples")
  | Error e -> Alcotest.failf "profile render failed: %s" e);
  (* unknown documents are refused, not garbled *)
  (match Report.render (Json.Obj [ ("schema", Json.Str "nope/9") ]) with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error _ -> ());
  match Report.render (Json.Str "not even an object") with
  | Ok _ -> Alcotest.fail "non-object accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Exit codes *)

let test_exit_codes () =
  let samples =
    [
      ( Session.Verifier_rejection
          { Verifier.pass = Verifier.Scan; offset = 0; reason = "x" },
        2 );
      (Session.Compile_error { Frontend.line = 1; col = 1; message = "x" }, 3);
      ( Session.Attestation_error
          { role = Deflection_attestation.Attestation.Ratls.Code_provider; detail = "x" },
        4 );
      (Session.Runtime_error Deflection.Bootstrap.Not_verified, 5);
      (Session.Delivery_error Deflection.Bootstrap.No_provider_session, 6);
      (Session.Upload_error Deflection.Bootstrap.No_owner_session, 7);
      (Session.Decrypt_error "x", 8);
      (Session.Stage_timeout { stage = "deliver"; detail = "x" }, 10);
    ]
  in
  List.iter
    (fun (e, expected) ->
      Alcotest.(check int)
        ("exit code of " ^ Session.error_to_string e)
        expected (Session.exit_code e))
    samples;
  (* all distinct, and disjoint from the CLI's 0 / 1 / 9 / 11 *)
  let codes = List.map (fun (e, _) -> Session.exit_code e) samples in
  Alcotest.(check int) "distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c ->
      Alcotest.(check bool) "reserved codes untouched" false (List.mem c [ 0; 1; 9; 11 ]))
    codes;
  (* the Ok-side mapping: fuel exhaustion is 11, distinct from everything *)
  Alcotest.(check bool) "11 documented" true
    (List.mem 11 Deflection_chaos.Oracle.documented_exit_codes);
  Alcotest.(check bool) "10 documented" true
    (List.mem 10 Deflection_chaos.Oracle.documented_exit_codes);
  (* the mapping holds for errors produced by real failing sessions too *)
  (match Session.run ~source:"int main( {" ~inputs:[] () with
  | Error e -> Alcotest.(check int) "real compile error -> 3" 3 (Session.exit_code e)
  | Ok _ -> Alcotest.fail "bad source accepted");
  match
    Session.run ~policies:Policy.Set.none ~source:looping_src ~inputs:[] ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Session.error_to_string e)

let suite =
  [
    Alcotest.test_case "flight recorder: disabled is inert" `Quick test_recorder_disabled;
    Alcotest.test_case "flight recorder: ring wraps, counts drops" `Quick
      test_recorder_wraparound;
    Alcotest.test_case "flight recorder: wrap boundaries exact" `Quick
      test_recorder_wrap_boundary;
    Alcotest.test_case "flight recorder: interpreter event stream" `Quick
      test_recorder_interp_events;
    Alcotest.test_case "flight recorder: AEX events" `Quick test_recorder_aex_events;
    Alcotest.test_case "crash report: policy abort" `Quick test_crash_policy_abort;
    Alcotest.test_case "crash report: JSON round-trip" `Quick test_crash_json_roundtrip;
    Alcotest.test_case "crash report: escapes non-printable disasm bytes" `Quick
      test_crash_json_escaping;
    Alcotest.test_case "crash report: runtime fault" `Quick test_crash_runtime_fault;
    Alcotest.test_case "crash report: absent on clean exit" `Quick test_no_crash_on_clean_exit;
    Alcotest.test_case "rejection: scan verdict with evidence" `Quick
      test_rejection_scan_verdict;
    Alcotest.test_case "rejection: symbols-pass attribution" `Quick test_rejection_symbols_pass;
    Alcotest.test_case "rejection: JSON round-trip" `Quick test_rejection_json_roundtrip;
    Alcotest.test_case "profiler: samples = cycles / interval" `Quick
      test_profiler_sample_invariant;
    Alcotest.test_case "profiler: retired agrees with interpreter" `Quick
      test_profiler_retired_agrees_with_interp;
    Alcotest.test_case "profiler: symbol attribution" `Quick test_profiler_symbol_attribution;
    Alcotest.test_case "profiler: collapsed-stack format" `Quick test_profiler_collapsed_format;
    Alcotest.test_case "profiler: JSON export" `Quick test_profile_json;
    Alcotest.test_case "prometheus: exposition parses line by line" `Quick
      test_prometheus_lines;
    Alcotest.test_case "prometheus: hdr latency families" `Quick test_prometheus_hdr_families;
    Alcotest.test_case "report: renders saved documents" `Quick test_render_documents;
    Alcotest.test_case "exit codes: distinct and documented" `Quick test_exit_codes;
  ]
