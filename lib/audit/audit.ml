module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Json = Deflection_telemetry.Json
module Sha256 = Deflection_crypto.Sha256
module Hex = Deflection_util.Hex
module Field = Sealed_log.Field

type cache_outcome = Hit | Miss | Uncached

let cache_outcome_label = function Hit -> "hit" | Miss -> "miss" | Uncached -> "uncached"

let cache_outcome_of_label = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "uncached" -> Some Uncached
  | _ -> None

type verdict =
  | Accepted of Verifier.report
  | Rejected of Verifier.rejection

let to_result = function Accepted r -> Ok r | Rejected j -> Error j
let of_result = function Ok r -> Accepted r | Error j -> Rejected j

type record = {
  seq : int;
  measurement : string;
  policies : string;
  mode : string;  (* Verifier.mode_label of the admitting verification mode *)
  ssa_q : int;
  verdict : verdict;
  cache : cache_outcome;
  lane : int;
}

let schema = "deflection-audit/2"

let canonical r =
  Sealed_log.mac_body "deflection-audit-record/1"
    ([ string_of_int r.seq; r.measurement; r.policies; r.mode; string_of_int r.ssa_q ]
    @ Verdict_codec.canonical (to_result r.verdict)
    @ [ cache_outcome_label r.cache; string_of_int r.lane ])

let content_key r = canonical { r with seq = 0; lane = 0 }

let genesis_raw = Sha256.digest (Bytes.of_string schema)
let genesis = Hex.encode genesis_raw
let plane_measurement = Sha256.digest (Bytes.of_string "DEFLECTION-audit-plane-v1")

let chain_step prev canon =
  let ctx = Sha256.init () in
  Sha256.update ctx prev;
  Sha256.update_string ctx canon;
  Sha256.finalize ctx

(* An audit log only ever grows, so it is a single generation. The
   closing MAC also binds the document head and the segment size. *)
let generation = 0
let bound = [ "segment_records"; "head" ]
let sealed_log key = Sealed_log.create ~schema ~key

let record_json r =
  Json.Obj
    [
      ("seq", Json.Int r.seq);
      ("measurement", Json.Str r.measurement);
      ("policies", Json.Str r.policies);
      ("mode", Json.Str r.mode);
      ("ssa_q", Json.Int r.ssa_q);
      ("verdict", Json.Obj (Verdict_codec.fields (to_result r.verdict)));
      ("cache", Json.Str (cache_outcome_label r.cache));
      ("lane", Json.Int r.lane);
    ]

(* ------------------------------------------------------------------ *)

module Log = struct
  (* A closed segment's MAC is computed when a seal first needs it (under
     the mutex), so appending never hashes beyond the chain step. *)
  type segment = {
    records : record list;
    head : bytes;  (* chain head after its last record *)
    mac : bytes Lazy.t;
  }

  type t = {
    platform : Attestation.Platform.t;
    sealed : Sealed_log.t;
    segment_records : int;
    mutex : Mutex.t;
    mutable count : int;
    mutable head : bytes;
    mutable open_rev : (record * string) list;
        (* the open segment's records with their canonical forms, newest first *)
    mutable closed_rev : segment list;
  }

  let create ?(segment_records = 8) ~platform () =
    if segment_records < 1 then
      invalid_arg "Audit.Log.create: segment_records must be positive";
    {
      platform;
      sealed = sealed_log (Attestation.Platform.sealing_key platform);
      segment_records;
      mutex = Mutex.create ();
      count = 0;
      head = genesis_raw;
      open_rev = [];
      closed_rev = [];
    }

  (* close the open segment at [position]; call with the mutex held *)
  let close_open t ~position =
    let canons = List.rev_map snd t.open_rev in
    {
      records = List.rev_map fst t.open_rev;
      head = t.head;
      mac = lazy (Sealed_log.segment_mac t.sealed ~generation ~position canons);
    }

  let append t ~measurement ~policies ~mode ~ssa_q ~verdict ~cache ~lane =
    Mutex.protect t.mutex @@ fun () ->
    let r =
      {
        seq = t.count;
        measurement = Hex.encode measurement;
        policies = Policy.Set.label policies;
        mode = Verifier.mode_label mode;
        ssa_q;
        verdict;
        cache;
        lane;
      }
    in
    let canon = canonical r in
    t.head <- chain_step t.head canon;
    t.count <- t.count + 1;
    t.open_rev <- (r, canon) :: t.open_rev;
    if t.count mod t.segment_records = 0 then begin
      t.closed_rev <- close_open t ~position:((t.count / t.segment_records) - 1) :: t.closed_rev;
      t.open_rev <- []
    end;
    r

  let length t = Mutex.protect t.mutex (fun () -> t.count)
  let head t = Mutex.protect t.mutex (fun () -> Hex.encode t.head)

  let records t =
    Mutex.protect t.mutex (fun () ->
        List.concat_map (fun s -> s.records) (List.rev t.closed_rev) @ List.rev_map fst t.open_rev)

  let seal t =
    let count, head, segments =
      Mutex.protect t.mutex @@ fun () ->
      let closed = List.rev t.closed_rev in
      (* a trailing partial segment is sealed too, so every record of the
         sealed document is MAC-covered *)
      let segments =
        if t.open_rev = [] then closed else closed @ [ close_open t ~position:(List.length closed) ]
      in
      List.iter (fun s -> ignore (Lazy.force s.mac)) segments;
      (t.count, t.head, segments)
    in
    let quote =
      Attestation.Platform.quote t.platform ~measurement:plane_measurement ~report_data:head
    in
    let hex b = Json.Str (Hex.encode b) in
    Sealed_log.document t.sealed ~generation ~entries:count
      ~bound:[ ("segment_records", Json.Int t.segment_records); ("head", hex head) ]
      ~extra:
        [
          ("genesis", Json.Str genesis);
          ( "quote",
            Json.Obj
              [
                ("measurement", hex quote.Attestation.Quote.measurement);
                ("report_data", hex quote.Attestation.Quote.report_data);
                ("signature", hex quote.Attestation.Quote.signature);
              ] );
        ]
      (List.mapi
         (fun position s ->
           Sealed_log.segment ~position ~mac:(Lazy.force s.mac) (List.map record_json s.records)
             [ ("head", hex s.head) ])
         segments)
end

type sink = { log : Log.t; lane : int }

(* ------------------------------------------------------------------ *)
(* Consumer side: re-walk a sealed document. *)

type tamper =
  | Malformed of string
  | Sequence_broken of { index : int }
  | Chain_mismatch of { segment : int }
  | Segment_mac_mismatch of { segment : int }
  | Head_mismatch
  | Final_mac_mismatch
  | Quote_mismatch of string

let tamper_to_string = function
  | Malformed m -> Printf.sprintf "malformed audit document: %s" m
  | Sequence_broken { index } ->
    Printf.sprintf "sequence broken at record %d: drop, reorder or insertion" index
  | Chain_mismatch { segment } ->
    Printf.sprintf "hash chain diverges inside segment %d: a record was altered" segment
  | Segment_mac_mismatch { segment } ->
    Printf.sprintf "segment %d MAC does not verify: spliced or forged history" segment
  | Head_mismatch -> "document head is not the re-walked chain head"
  | Final_mac_mismatch -> "closing MAC fails: history truncated or extended"
  | Quote_mismatch m -> Printf.sprintf "quote does not bind this history: %s" m

let pp_tamper fmt t = Format.pp_print_string fmt (tamper_to_string t)

type summary = { n_records : int; n_segments : int }

let ( let* ) = Result.bind

let record_of_json j =
  let* seq = Field.int "seq" j in
  let* measurement = Field.str "measurement" j in
  let* policies = Field.str "policies" j in
  let* mode = Field.str "mode" j in
  let* _ = Option.to_result ~none:"unknown verification mode" (Verifier.mode_of_label mode) in
  let* ssa_q = Field.int "ssa_q" j in
  let* verdict = Result.bind (Field.get "verdict" j) Verdict_codec.of_json in
  let* label = Field.str "cache" j in
  let* cache = Option.to_result ~none:"unknown cache outcome" (cache_outcome_of_label label) in
  let* lane = Field.int "lane" j in
  Ok { seq; measurement; policies; mode; ssa_q; verdict = of_result verdict; cache; lane }

let parse sealed doc =
  Sealed_log.parse sealed ~decode:record_of_json ~canonical ~bound doc

let records_of_doc doc =
  (* structure only: without the platform there is no key, so MAC
     outcomes are meaningless here and ignored *)
  let* p = parse (sealed_log Bytes.empty) doc in
  Sealed_log.all
    (fun (s : record Sealed_log.segment) ->
      match s.outcome with
      | Sealed_log.Verified rs | Bad_mac rs -> Ok rs
      | Malformed m -> Error m)
    p.segments
  |> Result.map List.concat

let verify ~platform doc =
  let malformed r = Result.map_error (fun m -> Malformed m) r in
  let* p = malformed (parse (sealed_log (Attestation.Platform.sealing_key platform)) doc) in
  let* () =
    malformed
      (Result.bind (Field.str "genesis" doc) (fun g ->
           if String.equal g genesis then Ok () else Error "genesis does not match the schema"))
  in
  let* segments =
    malformed
      (Sealed_log.all
         (fun (s : record Sealed_log.segment) ->
           let* head = Field.hex "head" s.fields in
           match s.outcome with
           | Sealed_log.Verified rs -> Ok (rs, head, true)
           | Bad_mac rs -> Ok (rs, head, false)
           | Malformed m -> Error m)
         p.segments)
  in
  let* doc_head = malformed (Field.hex "head" doc) in
  let* quote =
    malformed
      (let* q = Field.get "quote" doc in
       let* measurement = Field.hex "measurement" q in
       let* report_data = Field.hex "report_data" q in
       let* signature = Field.hex "signature" q in
       Ok { Attestation.Quote.measurement; report_data; signature })
  in
  let records = List.concat_map (fun (rs, _, _) -> rs) segments in
  (* 1. sequence discipline: record i must carry seq i *)
  let* () =
    match List.find_mapi (fun i r -> if r.seq <> i then Some i else None) records with
    | Some index -> Error (Sequence_broken { index })
    | None -> Ok ()
  in
  (* 2. re-walk the chain, checking each segment's recorded head *)
  let* head =
    let rec walk h i = function
      | [] -> Ok h
      | (rs, seg_head, _) :: rest ->
        let h = List.fold_left (fun h r -> chain_step h (canonical r)) h rs in
        if Bytes.equal h seg_head then walk h (i + 1) rest
        else Error (Chain_mismatch { segment = i })
    in
    walk genesis_raw 0 segments
  in
  (* 3. every segment MAC; 4. the document head; 5. the closing MAC *)
  let* () =
    match List.find_index (fun (_, _, mac_ok) -> not mac_ok) segments with
    | Some segment -> Error (Segment_mac_mismatch { segment })
    | None -> Ok ()
  in
  let* () = if Bytes.equal head doc_head then Ok () else Error Head_mismatch in
  let* () = if p.closed then Ok () else Error Final_mac_mismatch in
  (* 6. the quote must be valid and bind exactly this head *)
  let report = Attestation.Ias.verify (Attestation.Ias.for_platform platform) quote in
  if not report.Attestation.Ias.ok then
    Error (Quote_mismatch "attestation service rejected the quote")
  else if not (Bytes.equal report.Attestation.Ias.measurement plane_measurement) then
    Error (Quote_mismatch "quote measurement is not the audit plane")
  else if not (Bytes.equal report.Attestation.Ias.report_data head) then
    Error (Quote_mismatch "quote report data is not the chain head")
  else Ok { n_records = List.length records; n_segments = List.length segments }
