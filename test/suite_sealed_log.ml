(* The sealed segment log under both of its clients, the admission audit
   log and the server's persisted verdict cache:
   - one tamper table: each row edits a sealed document the way a
     hostile host would and states the typed verdict its client must
     reach. The shared layout lets one edit (a flipped segment MAC, an
     old schema label) apply to both clients; each row is registered in
     its client's suite;
   - a 1k-mutation total-parser fuzz per client: byte flips, truncations
     and JSON field edits never make a loader raise, never make the
     audit verifier accept a different document, and never make the
     cache loader return an entry the file did not hold. *)

module Audit = Deflection_audit.Audit
module Persist = Deflection_server.Persist
module Server = Deflection_server.Server
module Verifier = Deflection_verifier.Verifier
module Policy = Deflection_policy.Policy
module Attestation = Deflection_attestation.Attestation
module Chaos = Deflection_chaos.Chaos
module Sha256 = Deflection_crypto.Sha256
module Json = Deflection_telemetry.Json
module Prng = Deflection_util.Prng

(* ---- fixtures ------------------------------------------------------ *)

let platform () = Attestation.Platform.create ~seed:77L
let foreign_platform () = Attestation.Platform.create ~seed:78L

let report i =
  {
    Verifier.instructions_checked = 100 + i;
    store_annotations = 3;
    rsp_annotations = 2;
    cfi_annotations = 1;
    prologues = 1;
    epilogues = 1;
    ssa_checks = 4;
  }

let rejection = { Verifier.pass = Verifier.Scan; offset = 6; reason = "planted rejection" }

(* a log of [n] synthetic admissions: distinct measurements, one planted
   rejection at seq 2, lanes cycling over 2 workers *)
let sample_log ?(segment_records = 2) ?(n = 5) ?(tag = "binary") plat =
  let log = Audit.Log.create ~segment_records ~platform:plat () in
  for i = 0 to n - 1 do
    let verdict = if i = 2 then Audit.Rejected rejection else Audit.Accepted (report i) in
    ignore
      (Audit.Log.append log
         ~measurement:(Sha256.digest_string (Printf.sprintf "%s-%d" tag i))
         ~policies:Policy.Set.p1_p6 ~mode:Verifier.Descent ~ssa_q:20 ~verdict
         ~cache:(if i = 0 then Audit.Miss else Audit.Hit)
         ~lane:(i mod 2))
  done;
  log

let check_ok what plat doc =
  match Audit.verify ~platform:plat doc with
  | Ok s -> s
  | Error t -> Alcotest.failf "%s: unexpected tamper: %s" what (Audit.tamper_to_string t)

let temp_dir name =
  let safe = String.map (function ('a' .. 'z' | '0' .. '9') as c -> c | _ -> '-') name in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("deflection-test-" ^ safe) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "verdict-cache.json"; "verdict-cache.json.1"; "verdict-cache.json.tmp" ];
  dir

let read_text path = In_channel.with_open_bin path In_channel.input_all
let write_text path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* two generations of 8 entries over two tenants (acceptances carrying
   classification offsets, one rejection) in segments of 3 + 3 + 2; the
   previous generation survives as [.1], the material a stale-segment
   replay uses *)
let sealed_cache ~dir =
  let plat = platform () in
  let p, _, _ = Persist.recover ~segment_entries:3 ~dir ~platform:plat () in
  let entry i =
    {
      Persist.tenant = (if i mod 2 = 0 then "t0" else "t1");
      key = Bytes.to_string (Sha256.digest_string (Printf.sprintf "key-%d" i));
      mode = "descent";
      verdict =
        (if i = 2 then Error rejection
         else
           let machinery = [ i; i + 40 ] and guarded_stores = [ i + 80 ] in
           Ok (report i, Verifier.classification_of_offsets ~machinery ~guarded_stores));
    }
  in
  for round = 0 to 1 do
    match Persist.save ~round p (List.init 8 entry) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save failed: %s" e
  done;
  (plat, Filename.concat dir "verdict-cache.json")

let reload ?chaos ~dir plat =
  let _, entries, report = Persist.recover ?chaos ~segment_entries:3 ~dir ~platform:plat () in
  (entries, report)

(* ---- structural surgery on the shared layout ----------------------- *)

let update name f = function
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) fields)
  | j -> j

let member name j = Option.value ~default:Json.Null (Json.member name j)
let list_of = function Json.List l -> l | _ -> Alcotest.fail "expected a JSON list"
let update_segments f = update "segments" (fun j -> Json.List (f (list_of j)))
let map_segment i f = update_segments (List.mapi (fun k s -> if k = i then f s else s))
let update_entries f = update "entries" (fun j -> Json.List (f (list_of j)))
let segments_of doc = list_of (member "segments" doc)

let swap i j l =
  List.mapi (fun k x -> if k = i then List.nth l j else if k = j then List.nth l i else x) l

let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l

(* rewrite the flat entry sequence, refilling each segment to its size *)
let map_flat f doc =
  let rest = ref (f (List.concat_map (fun s -> list_of (member "entries" s)) (segments_of doc))) in
  update_segments
    (List.map
       (update_entries (fun mine ->
            let n = List.length mine in
            let taken = List.filteri (fun i _ -> i < n) !rest in
            rest := List.filteri (fun i _ -> i >= n) !rest;
            taken)))
    doc

let flip_hex = function
  | Json.Str s ->
    Json.Str (String.mapi (fun i c -> if i > 0 then c else if c = '0' then '1' else '0') s)
  | j -> j

let set name v = update name (fun _ -> v)
let bump = function Json.Int q -> Json.Int (q + 1) | j -> j
let flip_mac i = map_segment i (update "mac" flip_hex)

(* ---- the tamper table ---------------------------------------------- *)

type tamper =
  | Edit of (Json.t -> Json.t)  (** structural surgery on the sealed document *)
  | Torn  (** only the first half of the sealed text reaches the disk *)
  | Foreign_platform  (** read back under another platform's keys *)
  | Stale_segment  (** the previous generation's segment 0 served in its place *)
  | Unreadable  (** a directory stands where the state file should be *)

(* what the client must conclude: the audit verifier's first tamper, or
   the cache loader's (malformed, truncated, per-segment outcomes) *)
type expect =
  | Tamper of Audit.tamper
  | Report of (bool * bool * Persist.segment_outcome list)

let bad = Persist.Seg_bad_mac
let loaded n = Persist.Seg_loaded n

(* the audit fixture: six records in three full segments of two; the
   cache fixture: eight entries in segments of 3 + 3 + 2 *)
let rows =
  [
    ("field flip detected", Edit (map_flat (List.map (update "ssa_q" bump))),
     Tamper (Chain_mismatch { segment = 0 }));
    ("record drop detected", Edit (map_segment 1 (update_entries List.tl)),
     Tamper (Sequence_broken { index = 2 }));
    ("reorder detected", Edit (map_flat (swap 1 2)), Tamper (Sequence_broken { index = 1 }));
    (* the adversary swaps two records AND patches their seq fields so the
       numbering looks clean: the chain still diverges *)
    ("renumbered swap detected",
     Edit (map_flat (fun l -> List.mapi (fun i r -> set "seq" (Json.Int i) r) (swap 1 2 l))),
     Tamper (Chain_mismatch { segment = 0 }));
    (* the strongest truncation: cut exactly at a segment boundary and
       retarget the head, so chain, sequence and every remaining segment
       MAC all verify; only the closing MAC gives it away *)
    ("truncation at segment boundary detected",
     Edit
       (fun doc ->
         let doc = update_segments drop_last doc in
         set "head" (member "head" (List.nth (segments_of doc) 1)) doc),
     Tamper Final_mac_mismatch);
    (* graft segment 0's MAC from a second log sealed under the SAME
       platform: the key is right, the covered records are not *)
    ("spliced segment detected",
     Edit
       (fun doc ->
         let donor = Audit.Log.seal (sample_log ~n:3 ~tag:"donor" (platform ())) in
         map_segment 0 (set "mac" (member "mac" (List.hd (segments_of donor)))) doc),
     Tamper (Segment_mac_mismatch { segment = 0 }));
    ("segment mac flip detected", Edit (flip_mac 0), Tamper (Segment_mac_mismatch { segment = 0 }));
    ("forged quote detected", Edit (update "quote" (update "signature" flip_hex)),
     Tamper (Quote_mismatch "attestation service rejected the quote"));
    (* `audit verify` exits 12 on this as on every tamper verdict *)
    ("old schema refused", Edit (set "schema" (Json.Str "deflection-audit/1")),
     Tamper (Malformed {|schema is "deflection-audit/1", not "deflection-audit/2"|}));
    (* the sealing key never leaves the platform derivation *)
    ("wrong platform rejected", Foreign_platform, Tamper (Segment_mac_mismatch { segment = 0 }));
    ("tamper: segment bit flip", Edit (flip_mac 0),
     Report (false, false, [ bad; loaded 3; loaded 2 ]));
    (* the closing MAC binds the entry count *)
    ("tamper: dropped entry", Edit (map_segment 1 (update_entries List.tl)),
     Report (false, true, [ loaded 3; bad; loaded 2 ]));
    ("tamper: splice/reorder", Edit (update_segments (swap 0 1)),
     Report (false, false, [ bad; bad; loaded 2 ]));
    ("tamper: truncated tail", Edit (update_segments drop_last),
     Report (false, true, [ loaded 3; loaded 3 ]));
    ("tamper: torn write", Torn, Report (true, false, []));
    (* reading fails on every retry: the server must still start, cold *)
    ("tamper: unreadable state file", Unreadable, Report (true, false, []));
    ("tamper: old schema", Edit (set "schema" (Json.Str "deflection-server-cache/1")),
     Report (true, false, []));
    ("tamper: wrong platform", Foreign_platform, Report (false, true, [ bad; bad; bad ]));
    (* its MAC carries the old generation, so exactly that segment dies *)
    ("tamper: stale segment replay", Stale_segment,
     Report (false, false, [ bad; loaded 3; loaded 2 ]));
  ]

let run_audit_row name tamper expected =
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log ~n:6 plat) in
  let verdict =
    match tamper with
    | Edit f -> Audit.verify ~platform:plat (f doc)
    | Foreign_platform -> Audit.verify ~platform:(foreign_platform ()) doc
    | Torn | Stale_segment | Unreadable -> Alcotest.failf "%s: no audit-log analogue" name
  in
  match verdict with
  | Error t when t = expected -> ()
  | Error t ->
    Alcotest.failf "%s: expected %s, got %s" name (Audit.tamper_to_string expected)
      (Audit.tamper_to_string t)
  | Ok _ -> Alcotest.failf "%s: tampered document verified clean" name

let run_cache_row name tamper (malformed, truncated, segments) =
  let dir = temp_dir name in
  let plat, path = sealed_cache ~dir in
  let text = read_text path in
  let es, (r : Persist.load_report) =
    match tamper with
    | Edit f ->
      write_text path (Json.to_string (f (Result.get_ok (Json.parse text))));
      reload ~dir plat
    | Torn ->
      write_text path (String.sub text 0 (String.length text / 2));
      reload ~dir plat
    | Foreign_platform -> reload ~dir (foreign_platform ())
    | Stale_segment ->
      let faults = [ Chaos.Stale_segment { segment = 0 } ] in
      reload ~dir plat ~chaos:(Chaos.of_plan { Chaos.seed = 1L; faults })
    | Unreadable ->
      Sys.remove path;
      Sys.mkdir path 0o755;
      Fun.protect ~finally:(fun () -> Sys.rmdir path) (fun () -> reload ~dir plat)
  in
  let survivors = List.fold_left (fun n -> function Persist.Seg_loaded k -> n + k | _ -> n) 0 in
  if
    not
      (r.found && r.malformed = malformed && r.truncated = truncated && r.segments = segments
     && List.length es = survivors segments)
  then
    Alcotest.failf "%s: got %d entries and %s" name (List.length es)
      (Json.to_string (Persist.load_report_to_json r))

(* the rows for the audit log ([~audit:true]) or the verdict cache *)
let cases ~audit =
  List.filter_map
    (fun (name, tamper, expect) ->
      match expect with
      | Tamper t when audit ->
        Some (Alcotest.test_case name `Quick (fun () -> run_audit_row name tamper t))
      | Report r when not audit ->
        Some (Alcotest.test_case name `Quick (fun () -> run_cache_row name tamper r))
      | _ -> None)
    rows

(* ---- total-parser fuzz --------------------------------------------- *)

let rec node_count = function
  | Json.List l -> List.fold_left (fun n j -> n + node_count j) 1 l
  | Json.Obj kv -> List.fold_left (fun n (_, j) -> n + node_count j) 1 kv
  | _ -> 1

(* one seeded edit of one JSON node: nudge a number, change a character,
   drop / duplicate / swap a list element, drop an object field, null *)
let field_edit prng doc =
  let target = Prng.int prng (node_count doc) and k = ref (-1) in
  let pick l = Prng.int prng (List.length l) in
  let edit = function
    | _ when Prng.int prng 8 = 0 -> Json.Null
    | Json.Int i -> Json.Int (if Prng.bool prng then i + 1 else i - 1)
    | Json.Str "" -> Json.Str "0"
    | Json.Str s ->
      let i = Prng.int prng (String.length s) in
      let bump k c = if k <> i then c else Char.chr ((Char.code c + 1) land 0x7f) in
      Json.Str (String.mapi bump s)
    | Json.List (_ :: _ as l) -> (
      let i = pick l in
      match Prng.int prng 3 with
      | 0 -> Json.List (List.filteri (fun k _ -> k <> i) l)
      | 1 -> Json.List (List.concat (List.mapi (fun k x -> if k = i then [ x; x ] else [ x ]) l))
      | _ -> Json.List (swap i (pick l) l))
    | Json.Obj (_ :: _ as kv) ->
      let i = pick kv in
      Json.Obj (List.filteri (fun k _ -> k <> i) kv)
    | j -> j
  in
  let rec go j =
    incr k;
    if !k = target then edit j
    else
      match j with
      | Json.List l -> Json.List (List.map go l)
      | Json.Obj kv -> Json.Obj (List.map (fun (key, v) -> (key, go v)) kv)
      | j -> j
  in
  go doc

(* one seeded mutation of a sealed document's text: a field edit, or one
   of the byte-level mutations the other untrusted parsers are fuzzed
   with (bit flip, truncation, noise, spliced noise) *)
let mutate prng doc text =
  if Prng.int prng 3 = 0 then Json.to_string (field_edit prng doc)
  else Bytes.to_string (Suite_chaos.mutate prng (Bytes.of_string text))

let mutants = 1000

let test_audit_total_parser () =
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log ~n:6 plat) in
  let text = Json.to_string doc in
  let prng = Prng.create 0x5ea1edL in
  let refused = ref 0 in
  for i = 1 to mutants do
    match Json.parse (mutate prng doc text) with
    | Error _ -> ()
    | Ok m -> (
      match Audit.verify ~platform:plat m with
      | Ok _ when m <> doc -> Alcotest.failf "mutant %d verified but is not the sealed document" i
      | Ok _ -> ()
      | Error _ -> incr refused
      | exception e -> Alcotest.failf "mutant %d: Audit.verify raised %s" i (Printexc.to_string e))
  done;
  Alcotest.(check bool) "mutants reached the verifier and were refused" true
    (!refused > mutants / 4)

let test_cache_total_parser () =
  let dir = temp_dir "fuzz" in
  let plat, path = sealed_cache ~dir in
  let text = read_text path in
  let doc = Result.get_ok (Json.parse text) in
  let fingerprint (e : Persist.entry) =
    let offsets (r, c) = (r, Verifier.classification_offsets c) in
    (e.tenant, e.key, e.mode, Result.map offsets e.verdict)
  in
  let held = List.map fingerprint (fst (reload ~dir plat)) in
  Alcotest.(check int) "the intact file loads whole" 8 (List.length held);
  let prng = Prng.create 0xcac4eL in
  let lost = ref 0 in
  for i = 1 to mutants do
    write_text path (mutate prng doc text);
    match reload ~dir plat with
    | es, _ ->
      if List.exists (fun e -> not (List.mem (fingerprint e) held)) es then
        Alcotest.failf "mutant %d: loaded an entry the sealed file did not hold" i;
      if List.length es < 8 then incr lost
    | exception e -> Alcotest.failf "mutant %d: Persist.recover raised %s" i (Printexc.to_string e)
  done;
  Alcotest.(check bool) "mutants cost entries" true (!lost > mutants / 2)

let test_old_cache_schema_starts_cold () =
  (* the server behind a deflection-server-cache/1 file (the "tamper: old
     schema" row) recovers nothing and serves its first load cold *)
  let dir = temp_dir "old-schema" in
  let _, path = sealed_cache ~dir in
  let doc = Result.get_ok (Json.parse (read_text path)) in
  write_text path (Json.to_string (set "schema" (Json.Str "deflection-server-cache/1") doc));
  let server = Server.create { Server.default_config with Server.state_dir = Some dir } in
  ignore (Server.serve_load server ~offered:16 ~rounds:2 ~kill_after:None);
  Alcotest.(check bool) "served cold" true
    (match member "cold_misses" (Server.doc server) with Json.Int n -> n > 0 | _ -> false)

let suite =
  [
    Alcotest.test_case "audit verify is total (1k mutants)" `Quick test_audit_total_parser;
    Alcotest.test_case "cache load is total (1k mutants)" `Quick test_cache_total_parser;
    Alcotest.test_case "server-cache/1 file starts cold" `Quick test_old_cache_schema_starts_cold;
  ]
