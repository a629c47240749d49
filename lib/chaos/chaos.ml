module Prng = Deflection_util.Prng
module Json = Deflection_telemetry.Json

type site =
  | Deliver_binary
  | Upload_data
  | Return_outputs
  | Provider_quote
  | Owner_quote
  | Ocall_result
  | Enclave_memory
  | Aex_schedule
  | Interp_fuel
  | Persist_seal
  | Persist_load
  | Ingress
  | Serve_loop

let all_sites =
  [
    Deliver_binary;
    Upload_data;
    Return_outputs;
    Provider_quote;
    Owner_quote;
    Ocall_result;
    Enclave_memory;
    Aex_schedule;
    Interp_fuel;
    Persist_seal;
    Persist_load;
    Ingress;
    Serve_loop;
  ]

let site_label = function
  | Deliver_binary -> "deliver-binary"
  | Upload_data -> "upload-data"
  | Return_outputs -> "return-outputs"
  | Provider_quote -> "provider-quote"
  | Owner_quote -> "owner-quote"
  | Ocall_result -> "ocall-result"
  | Enclave_memory -> "enclave-memory"
  | Aex_schedule -> "aex-schedule"
  | Interp_fuel -> "interp-fuel"
  | Persist_seal -> "persist-seal"
  | Persist_load -> "persist-load"
  | Ingress -> "ingress"
  | Serve_loop -> "serve-loop"

let site_of_label l = List.find_opt (fun s -> String.equal (site_label s) l) all_sites

type channel_action = Bit_flip | Truncate | Drop | Duplicate | Replay

let all_actions = [ Bit_flip; Truncate; Drop; Duplicate; Replay ]

let action_label = function
  | Bit_flip -> "bit-flip"
  | Truncate -> "truncate"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Replay -> "replay"

let action_of_label l = List.find_opt (fun a -> String.equal (action_label a) l) all_actions

type fault =
  | Channel_fault of { site : site; action : channel_action }
  | Quote_corrupt of { site : site }
  | Ocall_fail of { nth : int; times : int }
  | Mem_flip of { flips : int }
  | Aex_storm of { interval : int }
  | Fuel_limit of { fuel : int }
  | Torn_write of { round : int; frac16 : int }
  | Stale_segment of { segment : int }
  | Mac_corrupt of { segment : int }
  | Queue_storm of { round : int; burst : int }
  | Kill_point of { round : int }

let fault_site = function
  | Channel_fault { site; _ } | Quote_corrupt { site } -> site
  | Ocall_fail _ -> Ocall_result
  | Mem_flip _ -> Enclave_memory
  | Aex_storm _ -> Aex_schedule
  | Fuel_limit _ -> Interp_fuel
  | Torn_write _ -> Persist_seal
  | Stale_segment _ | Mac_corrupt _ -> Persist_load
  | Queue_storm _ -> Ingress
  | Kill_point _ -> Serve_loop

type plan = { seed : int64; faults : fault list }

(* ------------------------------------------------------------------ *)
(* Plan generation *)

let transport_sites = [| Deliver_binary; Upload_data; Return_outputs |]
let quote_sites = [| Provider_quote; Owner_quote |]
let actions = Array.of_list all_actions

let random_fault rng =
  match Prng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    (* transport faults carry most of the campaign's weight: they are the
       adversary the RA-TLS channel is designed against *)
    Channel_fault
      {
        site = transport_sites.(Prng.int rng (Array.length transport_sites));
        action = actions.(Prng.int rng (Array.length actions));
      }
  | 4 | 5 -> Quote_corrupt { site = quote_sites.(Prng.int rng (Array.length quote_sites)) }
  | 6 -> Ocall_fail { nth = 1 + Prng.int rng 6; times = 1 + Prng.int rng 4 }
  | 7 -> Mem_flip { flips = 1 + Prng.int rng 8 }
  | 8 -> Aex_storm { interval = 5 + Prng.int rng 45 }
  | _ -> Fuel_limit { fuel = 500 + Prng.int rng 19_500 }

let generate ~seed =
  let rng = Prng.create (Prng.derive seed ~label:"chaos-plan") in
  let n = 1 + Prng.int rng 3 in
  { seed; faults = List.init n (fun _ -> random_fault rng) }

(* Server-plane faults live under their own derivation label so adding
   them never perturbs the plans existing seeds already replay. Round
   ranges assume the server chaos campaign's protocol: it restarts the
   server once mid-run (after round 3), so torn writes land on rounds
   0-3 (observable at the restart load) and kill points on rounds 1-5. *)
let random_server_fault rng =
  match Prng.int rng 10 with
  | 0 | 1 -> Torn_write { round = Prng.int rng 4; frac16 = Prng.int rng 16 }
  | 2 | 3 -> Stale_segment { segment = Prng.int rng 8 }
  | 4 | 5 -> Mac_corrupt { segment = Prng.int rng 8 }
  | 6 | 7 -> Queue_storm { round = Prng.int rng 6; burst = 8 + Prng.int rng 56 }
  | _ -> Kill_point { round = 1 + Prng.int rng 5 }

let generate_server ~seed =
  let rng = Prng.create (Prng.derive seed ~label:"server-chaos-plan") in
  let n = 1 + Prng.int rng 3 in
  { seed; faults = List.init n (fun _ -> random_server_fault rng) }

(* ------------------------------------------------------------------ *)
(* Serialization (embedded in the deflection-chaos/1 campaign report) *)

let fault_to_json = function
  | Channel_fault { site; action } ->
    Json.Obj
      [
        ("kind", Json.Str "channel");
        ("site", Json.Str (site_label site));
        ("action", Json.Str (action_label action));
      ]
  | Quote_corrupt { site } ->
    Json.Obj [ ("kind", Json.Str "quote"); ("site", Json.Str (site_label site)) ]
  | Ocall_fail { nth; times } ->
    Json.Obj [ ("kind", Json.Str "ocall"); ("nth", Json.Int nth); ("times", Json.Int times) ]
  | Mem_flip { flips } -> Json.Obj [ ("kind", Json.Str "mem"); ("flips", Json.Int flips) ]
  | Aex_storm { interval } ->
    Json.Obj [ ("kind", Json.Str "aex"); ("interval", Json.Int interval) ]
  | Fuel_limit { fuel } -> Json.Obj [ ("kind", Json.Str "fuel"); ("fuel", Json.Int fuel) ]
  | Torn_write { round; frac16 } ->
    Json.Obj [ ("kind", Json.Str "torn"); ("round", Json.Int round); ("frac16", Json.Int frac16) ]
  | Stale_segment { segment } ->
    Json.Obj [ ("kind", Json.Str "stale"); ("segment", Json.Int segment) ]
  | Mac_corrupt { segment } ->
    Json.Obj [ ("kind", Json.Str "mac"); ("segment", Json.Int segment) ]
  | Queue_storm { round; burst } ->
    Json.Obj [ ("kind", Json.Str "storm"); ("round", Json.Int round); ("burst", Json.Int burst) ]
  | Kill_point { round } -> Json.Obj [ ("kind", Json.Str "kill"); ("round", Json.Int round) ]

let plan_to_json p =
  Json.Obj
    [
      (* the seed as a decimal string: Json.Int is an OCaml int and must
         not be trusted with arbitrary int64 values *)
      ("seed", Json.Str (Int64.to_string p.seed));
      ("faults", Json.List (List.map fault_to_json p.faults));
    ]

let str_member key j =
  match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let int_member key j = match Json.member key j with Some (Json.Int i) -> Some i | _ -> None

let fault_of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "malformed fault" in
  match str_member "kind" j with
  | Some "channel" ->
    let* site = Option.bind (str_member "site" j) site_of_label in
    let* action = Option.bind (str_member "action" j) action_of_label in
    Ok (Channel_fault { site; action })
  | Some "quote" ->
    let* site = Option.bind (str_member "site" j) site_of_label in
    Ok (Quote_corrupt { site })
  | Some "ocall" ->
    let* nth = int_member "nth" j in
    let* times = int_member "times" j in
    Ok (Ocall_fail { nth; times })
  | Some "mem" ->
    let* flips = int_member "flips" j in
    Ok (Mem_flip { flips })
  | Some "aex" ->
    let* interval = int_member "interval" j in
    Ok (Aex_storm { interval })
  | Some "fuel" ->
    let* fuel = int_member "fuel" j in
    Ok (Fuel_limit { fuel })
  | Some "torn" ->
    let* round = int_member "round" j in
    let* frac16 = int_member "frac16" j in
    Ok (Torn_write { round; frac16 })
  | Some "stale" ->
    let* segment = int_member "segment" j in
    Ok (Stale_segment { segment })
  | Some "mac" ->
    let* segment = int_member "segment" j in
    Ok (Mac_corrupt { segment })
  | Some "storm" ->
    let* round = int_member "round" j in
    let* burst = int_member "burst" j in
    Ok (Queue_storm { round; burst })
  | Some "kill" ->
    let* round = int_member "round" j in
    Ok (Kill_point { round })
  | _ -> Error "unknown fault kind"

let plan_of_json j =
  match (str_member "seed" j, Json.member "faults" j) with
  | Some seed_s, Some (Json.List fs) -> (
    match Int64.of_string_opt seed_s with
    | None -> Error "bad plan seed"
    | Some seed ->
      let rec all acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> ( match fault_of_json f with Ok v -> all (v :: acc) rest | Error _ as e -> e)
      in
      (match all [] fs with Ok faults -> Ok { seed; faults } | Error _ as e -> e))
  | _ -> Error "malformed plan"

(* ------------------------------------------------------------------ *)
(* Engine *)

type t = {
  plan_ : plan option;
  rng : Prng.t;  (* chaos-private stream: fault payloads (bit positions, ...) *)
  mutable pending : fault list;
  fired_tbl : (string, int) Hashtbl.t;
  mutable captured : bytes list;  (* replay material, newest first *)
  mutable ocall_attempts : int;
  mutable ocall_fail_left : int;
}

let disabled =
  {
    plan_ = None;
    rng = Prng.create 0L;
    pending = [];
    fired_tbl = Hashtbl.create 1;
    captured = [];
    ocall_attempts = 0;
    ocall_fail_left = 0;
  }

let of_plan p =
  {
    plan_ = Some p;
    rng = Prng.create (Prng.derive p.seed ~label:"chaos-engine");
    pending = p.faults;
    fired_tbl = Hashtbl.create 8;
    captured = [];
    ocall_attempts = 0;
    ocall_fail_left = 0;
  }

let enabled t = Option.is_some t.plan_
let plan t = t.plan_

let record_fired t site =
  let key = site_label site in
  Hashtbl.replace t.fired_tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt t.fired_tbl key))

let fired t =
  List.map
    (fun s ->
      let key = site_label s in
      (key, Option.value ~default:0 (Hashtbl.find_opt t.fired_tbl key)))
    all_sites

let backoff_seed t =
  match t.plan_ with
  | Some p -> Prng.derive p.seed ~label:"retry-jitter"
  | None -> Prng.derive 0L ~label:"retry-jitter"

(* Remove and return the first pending fault [pick] accepts. *)
let take_pending t pick =
  let rec go acc = function
    | [] -> None
    | f :: rest -> (
      match pick f with
      | Some v ->
        t.pending <- List.rev_append acc rest;
        record_fired t (fault_site f);
        Some v
      | None -> go (f :: acc) rest)
  in
  go [] t.pending

let flip_one_bit rng b =
  if Bytes.length b = 0 then b
  else begin
    let i = Prng.int rng (Bytes.length b) in
    let bit = Prng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    b
  end

let capture_cap = 16

let transport t ~site m =
  if not (enabled t) then [ m ]
  else begin
    let delivered =
      match
        take_pending t (function
          | Channel_fault f when f.site = site -> Some f.action
          | _ -> None)
      with
      | None -> [ m ]
      | Some Bit_flip -> [ flip_one_bit t.rng (Bytes.copy m) ]
      | Some Truncate -> [ Bytes.sub m 0 (Prng.int t.rng (max 1 (Bytes.length m))) ]
      | Some Drop -> []
      | Some Duplicate -> [ m; Bytes.copy m ]
      | Some Replay -> (
        match t.captured with
        | [] -> [ Bytes.copy m; m ]  (* nothing to replay yet: stutter *)
        | l -> [ Bytes.copy (List.nth l (Prng.int t.rng (List.length l))); m ])
    in
    t.captured <-
      (if List.length t.captured >= capture_cap then m :: List.filteri (fun i _ -> i < capture_cap - 1) t.captured
       else m :: t.captured);
    delivered
  end

let corrupt_quote t ~site q =
  if not (enabled t) then q
  else
    match
      take_pending t (function Quote_corrupt f when f.site = site -> Some () | _ -> None)
    with
    | None -> q
    | Some () -> flip_one_bit t.rng (Bytes.copy q)

let ocall_fails t =
  if not (enabled t) then false
  else if t.ocall_fail_left > 0 then begin
    t.ocall_fail_left <- t.ocall_fail_left - 1;
    record_fired t Ocall_result;
    true
  end
  else begin
    t.ocall_attempts <- t.ocall_attempts + 1;
    match
      take_pending t (function
        | Ocall_fail { nth; times } when nth = t.ocall_attempts -> Some times
        | _ -> None)
    with
    | Some times ->
      t.ocall_fail_left <- times - 1;
      true
    | None -> false
  end

let mem_flip_plan t ~lo ~hi =
  if (not (enabled t)) || hi <= lo then []
  else
    match take_pending t (function Mem_flip { flips } -> Some flips | _ -> None) with
    | None -> []
    | Some flips ->
      List.init flips (fun _ -> (lo + Prng.int t.rng (hi - lo), Prng.int t.rng 8))

let aex_interval_override t =
  if not (enabled t) then None
  else take_pending t (function Aex_storm { interval } -> Some interval | _ -> None)

let fuel_override t =
  if not (enabled t) then None
  else take_pending t (function Fuel_limit { fuel } -> Some fuel | _ -> None)

(* --- server / persistence plane --------------------------------------- *)

let torn_write t ~round =
  if not (enabled t) then None
  else
    take_pending t (function
      | Torn_write { round = r; frac16 } when r = round -> Some frac16
      | _ -> None)

let stale_segment t =
  if not (enabled t) then None
  else take_pending t (function Stale_segment { segment } -> Some segment | _ -> None)

let mac_corrupt t =
  if not (enabled t) then None
  else take_pending t (function Mac_corrupt { segment } -> Some segment | _ -> None)

let queue_storm t ~round =
  if not (enabled t) then None
  else
    take_pending t (function
      | Queue_storm { round = r; burst } when r = round -> Some burst
      | _ -> None)

let kill_point t ~round =
  if not (enabled t) then false
  else
    Option.is_some
      (take_pending t (function Kill_point { round = r } when r = round -> Some () | _ -> None))
