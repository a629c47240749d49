module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Measurement = Deflection_enclave.Measurement
module Manifest = Deflection_policy.Manifest
module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp
module Loader = Deflection_loader.Loader
module Verifier = Deflection_verifier.Verifier
module Objfile = Deflection_isa.Objfile
module Isa = Deflection_isa.Isa
module Attestation = Deflection_attestation.Attestation
module Channel = Deflection_crypto.Channel
module Ratls = Attestation.Ratls
module Telemetry = Deflection_telemetry.Telemetry
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module Report = Deflection_forensics.Report
module Chaos = Deflection_chaos.Chaos
module Resilience = Deflection_chaos.Resilience
module Audit = Deflection_audit.Audit
module Sha256 = Deflection_crypto.Sha256

type config = {
  layout : Layout.config;
  manifest : Manifest.t;
  interp : Interp.config;
  policies : Policy.Set.t;
  verification : Verifier.mode;
      (* how ecall_receive_binary verifies deliveries: classic recursive
         descent or the witness-checked linear pass *)
  seed : int64;
  oram_capacity : int option;
      (* when set, the manifest's oram_read/oram_write OCalls are backed
         by a Path ORAM over untrusted host memory (paper Section VII) *)
  verifier_cache :
    (key:string -> verify:(unit -> Verifier.verdict) -> Verifier.verdict * [ `Hit | `Miss ])
    option;
      (* when set, ecall_receive_binary looks its verdict up under the key
         it derives itself ([cache_key]), running its own verifier pass
         on a miss: verify-once / admit-many across one gateway *)
  audit : Audit.sink option;
      (* when set, every admission decision ecall_receive_binary renders
         — acceptance or rejection, cached or not — appends one record
         to the shared hash-chained audit log under this worker lane *)
}

let default_config =
  {
    layout = Layout.small_config;
    manifest = Manifest.default;
    interp = Interp.default_config;
    policies = Policy.Set.p1_p6;
    verification = Verifier.Descent;
    seed = 1L;
    oram_capacity = None;
    verifier_cache = None;
    audit = None;
  }

let consumer_code (config : config) =
  let b = Buffer.create 256 in
  Buffer.add_string b "DEFLECTION consumer v1 (loader+verifier+imm-rewriter+ocall-wrappers);";
  Buffer.add_string b (Printf.sprintf "policies=%s;" (Policy.Set.label config.policies));
  (* the verification mode is part of the measured consumer identity: a
     remote party attesting the enclave knows which admission discipline
     will judge its binary *)
  Buffer.add_string b
    (Printf.sprintf "verification=%s;" (Verifier.mode_label config.verification));
  Buffer.add_string b (Printf.sprintf "ssa_q=%d;aex_threshold=%d;" config.manifest.Manifest.ssa_q
       config.manifest.Manifest.aex_threshold);
  List.iter
    (fun (o : Manifest.ocall_spec) ->
      Buffer.add_string b
        (Printf.sprintf "ocall%d=%s,enc=%b,pad=%s;" o.Manifest.index o.Manifest.name
           o.Manifest.encrypt_output
           (match o.Manifest.pad_output_to with Some n -> string_of_int n | None -> "none")))
    config.manifest.Manifest.allowed_ocalls;
  Buffer.to_bytes b

type ecall_error =
  | No_provider_session
  | No_owner_session
  | Auth_failure of string  (* which record failed authentication *)
  | Malformed_binary of string
  | Loader_error of Loader.error
  | Verifier_rejection of Verifier.rejection
  | Rewrite_error of Loader.error
  | Not_verified

let pp_ecall_error fmt = function
  | No_provider_session -> Format.fprintf fmt "no code-provider session established"
  | No_owner_session ->
    Format.fprintf fmt "no data-owner session established (output cannot be protected)"
  | Auth_failure what -> Format.fprintf fmt "%s record failed authentication" what
  | Malformed_binary e -> Format.fprintf fmt "malformed target binary: %s" e
  | Loader_error e -> Format.fprintf fmt "loader: %a" Loader.pp_error e
  | Verifier_rejection r -> Format.fprintf fmt "verifier: %a" Verifier.pp_rejection r
  | Rewrite_error e -> Format.fprintf fmt "imm rewriter: %a" Loader.pp_error e
  | Not_verified -> Format.fprintf fmt "no verified target binary loaded"

let ecall_error_to_string e = Format.asprintf "%a" pp_ecall_error e

type t = {
  config : config;
  tm : Telemetry.t;
  layout : Layout.t;
  mem : Memory.t;
  platform : Attestation.Platform.t;
  prng : Deflection_util.Prng.t;
  measurement : bytes;
  mutable provider_session : Ratls.session option;
  mutable owner_session : Ratls.session option;
  mutable loaded : Loader.loaded option;
  mutable verified : bool;
  mutable block_leaders : int list;
      (** verified basic-block leader offsets from the accepting verdict;
          handed to the interpreter's trace tier at run time *)
  mutable input_queue : bytes list;  (** plaintext chunks, FIFO *)
  mutable bits_sent : int;
  oram : Deflection_oram.Path_oram.t option;
}

let create ?(config = default_config) ?(tm = Telemetry.disabled) ~platform () =
  let layout = Layout.make config.layout in
  let mem = Memory.create layout in
  let consumer = consumer_code config in
  (* place the consumer code in its region: part of the initial, measured
     enclave state *)
  let consumer_cap = layout.Layout.consumer_hi - layout.Layout.consumer_lo in
  let consumer_placed =
    if Bytes.length consumer > consumer_cap then Bytes.sub consumer 0 consumer_cap else consumer
  in
  (* the consumer pages are RX; write through the privileged interface *)
  Memory.priv_write_bytes mem layout.Layout.consumer_lo consumer_placed;
  {
    config;
    tm;
    layout;
    mem;
    platform;
    prng = Deflection_util.Prng.create config.seed;
    measurement = Measurement.measure layout ~consumer_code:consumer;
    provider_session = None;
    owner_session = None;
    loaded = None;
    verified = false;
    block_leaders = [];
    input_queue = [];
    bits_sent = 0;
    oram =
      Option.map
        (fun capacity ->
          Deflection_oram.Path_oram.create ~seed:(Int64.add config.seed 4242L) ~capacity ())
        config.oram_capacity;
  }

let config t = t.config
let measurement t = t.measurement
let memory t = t.mem
let oram_trace t = Option.map Deflection_oram.Path_oram.trace t.oram

let accept_party t ~role hello =
  let reply, session =
    Ratls.enclave_accept ~tm:t.tm t.prng ~platform:t.platform ~measurement:t.measurement ~role
      hello
  in
  (match role with
  | Ratls.Code_provider -> t.provider_session <- Some session
  | Ratls.Data_owner -> t.owner_session <- Some session);
  reply

(* The verdict-cache key, derived inside the enclave from what it was
   delivered: the verification mode (the tiers are not extensionally
   equal), the enforced policy set, the period q and the exact serialized
   objfile, witness section included. *)
let cache_key (config : config) ~ssa_q serialized =
  let ctx = Sha256.init () in
  Sha256.update_string ctx
    (Printf.sprintf "%s|%s|q=%d|" (Verifier.mode_label config.verification)
       (Policy.Set.label config.policies) ssa_q);
  Sha256.update ctx serialized;
  Bytes.to_string (Sha256.finalize ctx)

let ecall_receive_binary t sealed =
  Telemetry.span t.tm "deliver" @@ fun () ->
  match t.provider_session with
  | None -> Error No_provider_session
  | Some session ->
    (match Channel.open_ session.Ratls.rx sealed with
    | exception Channel.Auth_failure -> Error (Auth_failure "binary")
    | plaintext ->
      Telemetry.count t.tm "channel.bytes_unsealed" (Bytes.length plaintext);
      (match Objfile.deserialize plaintext with
      | Error e -> Error (Malformed_binary e)
      | Ok obj ->
        (match
           Loader.load ~tm:t.tm t.mem ~aex_threshold:t.config.manifest.Manifest.aex_threshold
             obj
         with
        | Error e -> Error (Loader_error e)
        | Ok loaded ->
          let verify () =
            Verifier.verify_mode ~tm:t.tm ~mode:t.config.verification
              ~policies:t.config.policies ~ssa_q:obj.Objfile.ssa_q obj
          in
          let verdict, cache_outcome =
            match t.config.verifier_cache with
            | None -> (verify (), Audit.Uncached)
            | Some lookup -> (
              match lookup ~key:(cache_key t.config ~ssa_q:obj.Objfile.ssa_q plaintext) ~verify with
              | v, `Hit ->
                Telemetry.count t.tm "verifier.cache.hit" 1;
                (v, Audit.Hit)
              | v, `Miss ->
                Telemetry.count t.tm "verifier.cache.miss" 1;
                (v, Audit.Miss))
          in
          (* the admission decision is now rendered: evidence it before
             acting on it, acceptance and rejection alike *)
          (match t.config.audit with
          | None -> ()
          | Some sink ->
            let av =
              match verdict with
              | Ok (report, _) -> Audit.Accepted report
              | Error r -> Audit.Rejected r
            in
            ignore
              (Audit.Log.append sink.Audit.log
                 ~measurement:(Sha256.digest plaintext)
                 ~policies:t.config.policies ~mode:t.config.verification
                 ~ssa_q:obj.Objfile.ssa_q ~verdict:av ~cache:cache_outcome
                 ~lane:sink.Audit.lane);
            Telemetry.count t.tm "audit.records" 1);
          (match verdict with
          | Error r -> Error (Verifier_rejection r)
          | Ok (report, classification) ->
            (match Loader.rewrite_imms ~tm:t.tm t.mem loaded ~policies:t.config.policies with
            | Error e -> Error (Rewrite_error e)
            | Ok rewritten ->
              t.loaded <- Some loaded;
              t.verified <- true;
              (* a cache-recovered verdict carries its leaders too:
                 Persist seals them with the accepted verdict *)
              t.block_leaders <- Verifier.classification_leaders classification;
              Ok (report, rewritten))))))

let ecall_receive_userdata t sealed =
  match t.owner_session with
  | None -> Error No_owner_session
  | Some session ->
    (match Channel.open_ session.Ratls.rx sealed with
    | exception Channel.Auth_failure -> Error (Auth_failure "data")
    | plaintext ->
      Telemetry.count t.tm "channel.bytes_unsealed" (Bytes.length plaintext);
      t.input_queue <- t.input_queue @ [ plaintext ];
      Ok ())

type run_stats = {
  exit : Interp.exit_reason;
  cycles : int;
  instructions : int;
  aexes : int;
  ocalls : int;
  leaked_bytes : int;
  sealed_outputs : bytes list;
  crash : Report.crash option;
}

(* Freeze the interpreter state into a crash report. Only called on
   abnormal exits, so the disassembly/decode cost never taxes a clean
   run. *)
let build_crash t (loaded : Loader.loaded) itp exit =
  let kind, detail, policy, abort_stub =
    match (exit : Interp.exit_reason) with
    | Interp.Exited _ -> ("exited", Interp.exit_reason_to_string exit, None, None)
    | Interp.Policy_abort r ->
      ( "policy-abort",
        Interp.exit_reason_to_string exit,
        Some (Report.policy_of_abort ~enforced:t.config.policies r),
        Some (Deflection_annot.Annot.abort_symbol r) )
    | Interp.Mem_fault _ -> ("mem-fault", Interp.exit_reason_to_string exit, None, None)
    | Interp.Invalid_instruction _ ->
      ("bad-decode", Interp.exit_reason_to_string exit, None, None)
    | Interp.Div_by_zero _ -> ("div-by-zero", Interp.exit_reason_to_string exit, None, None)
    | Interp.Div_overflow _ ->
      ("div-overflow", Interp.exit_reason_to_string exit, None, None)
    | Interp.Ocall_denied _ ->
      ("ocall-denied", Interp.exit_reason_to_string exit, Some Policy.P0, None)
    | Interp.Ocall_failed _ ->
      ("ocall-failed", Interp.exit_reason_to_string exit, None, None)
    | Interp.Limit_exceeded ->
      ("limit-exceeded", Interp.exit_reason_to_string exit, None, None)
    | Interp.Fuel_exhausted ->
      ("fuel-exhausted", Interp.exit_reason_to_string exit, None, None)
  in
  let pc = Interp.rip itp in
  let text = Memory.priv_read_bytes t.mem loaded.Loader.text_base loaded.Loader.text_len in
  let window = Report.disasm_window ~code:text ~base:loaded.Loader.text_base ~pc () in
  let instr_bytes =
    match List.find_opt (fun l -> l.Report.w_fault) window with
    | Some l -> l.Report.w_bytes
    | None -> ""
  in
  let regions =
    List.filter_map
      (fun (name, lo, hi) ->
        if lo >= hi then None
        else
          Some
            {
              Report.r_name = name;
              r_lo = lo;
              r_hi = hi;
              r_perm = Format.asprintf "%a" Memory.pp_perm (Memory.page_perm t.mem lo);
            })
      (Layout.regions t.layout)
  in
  let recorder = Interp.recorder itp in
  {
    Report.kind;
    detail;
    policy;
    abort_stub;
    pc;
    instr_bytes;
    window;
    regs = Interp.register_file itp;
    regions;
    events = Flight_recorder.entries recorder;
    events_dropped = Flight_recorder.dropped recorder;
    cycles = Interp.cycles itp;
    instructions = Interp.instructions itp;
    aexes = Interp.aex_count itp;
    ocalls = Interp.ocall_count itp;
    leaked_bytes = Memory.leaked_bytes t.mem;
  }

(* OCall wrappers: P0. Buffers handed out by the target are validated to
   lie inside the data/stack regions before the wrapper touches them. *)
let buffer_ok t addr nelems =
  let lo = t.layout.Layout.data_lo and hi = t.layout.Layout.stack_hi in
  nelems >= 0 && nelems <= 1 lsl 20 && addr >= lo && addr + (8 * nelems) <= hi

(* per-byte cycle surcharge for record encryption done by the wrapper *)
let crypto_cycles_per_byte = 4

let run ?(recorder = Flight_recorder.disabled) ?(profiler = Profiler.disabled)
    ?(chaos = Chaos.disabled) ?(resilience = Resilience.default_config) t =
  if not t.verified then Error Not_verified
  else begin
    match (t.loaded, t.owner_session) with
    | None, _ -> Error Not_verified
    | _, None -> Error No_owner_session
    | Some loaded, Some owner ->
      Telemetry.span t.tm "execute" @@ fun () ->
      let outputs = ref [] in
      let record_hist = Telemetry.histogram t.tm "channel.record_bytes" in
      let seal_record plaintext pad_to itp =
        Interp.add_cycles itp (crypto_cycles_per_byte * (Bytes.length plaintext + pad_to));
        let sealed = Channel.seal_padded owner.Ratls.tx ~pad_to plaintext in
        Telemetry.count t.tm "channel.bytes_sealed" (Bytes.length sealed);
        if Telemetry.enabled t.tm then Telemetry.observe record_hist (Bytes.length sealed);
        sealed
      in
      let entropy_exceeded spec bits =
        match spec.Manifest.max_output_bits with
        | Some budget -> t.bits_sent + bits > budget
        | None -> false
      in
      let ocall index itp =
        match Manifest.find_ocall t.config.manifest index with
        | None -> Interp.Halt (Interp.Ocall_denied index)
        | Some spec ->
          let rdi = Int64.to_int (Interp.read_reg itp Isa.RDI) in
          let rsi = Int64.to_int (Interp.read_reg itp Isa.RSI) in
          (match spec.Manifest.name with
          | "send" ->
            if not (buffer_ok t rdi rsi) then Interp.Halt (Interp.Ocall_denied index)
            else if entropy_exceeded spec (8 * rsi) then Interp.Halt (Interp.Ocall_denied index)
            else begin
              let plain = Bytes.create rsi in
              for i = 0 to rsi - 1 do
                let v = Memory.priv_read_u64 t.mem (rdi + (8 * i)) in
                Bytes.set plain i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
              done;
              t.bits_sent <- t.bits_sent + (8 * rsi);
              let pad = match spec.Manifest.pad_output_to with Some p -> p | None -> rsi in
              outputs := seal_record plain (max pad rsi) itp :: !outputs;
              Interp.write_reg itp Isa.RAX (Int64.of_int rsi);
              Interp.Continue
            end
          | "recv" ->
            if not (buffer_ok t rdi rsi) then Interp.Halt (Interp.Ocall_denied index)
            else begin
              match t.input_queue with
              | [] ->
                Interp.write_reg itp Isa.RAX 0L;
                Interp.Continue
              | chunk :: rest ->
                t.input_queue <- rest;
                let k = min rsi (Bytes.length chunk) in
                for i = 0 to k - 1 do
                  Memory.priv_write_u64 t.mem (rdi + (8 * i))
                    (Int64.of_int (Char.code (Bytes.get chunk i)))
                done;
                Interp.write_reg itp Isa.RAX (Int64.of_int k);
                Interp.Continue
            end
          | "oram_read" -> (
            match t.oram with
            | None -> Interp.Halt (Interp.Ocall_denied index)
            | Some oram ->
              if rdi < 0 || rdi >= Deflection_oram.Path_oram.capacity oram then
                Interp.Halt (Interp.Ocall_denied index)
              else begin
                let v = Deflection_oram.Path_oram.read oram rdi in
                (* one path read + one write-back, a few cycles per bucket *)
                Interp.add_cycles itp
                  (64 * 2 * (Deflection_oram.Path_oram.height oram + 1));
                Telemetry.count t.tm "oram.accesses" 1;
                Interp.write_reg itp Isa.RAX v;
                Interp.Continue
              end)
          | "oram_write" -> (
            match t.oram with
            | None -> Interp.Halt (Interp.Ocall_denied index)
            | Some oram ->
              if rdi < 0 || rdi >= Deflection_oram.Path_oram.capacity oram then
                Interp.Halt (Interp.Ocall_denied index)
              else begin
                Deflection_oram.Path_oram.write oram rdi (Interp.read_reg itp Isa.RSI);
                Interp.add_cycles itp
                  (64 * 2 * (Deflection_oram.Path_oram.height oram + 1));
                Telemetry.count t.tm "oram.accesses" 1;
                Interp.write_reg itp Isa.RAX 0L;
                Interp.Continue
              end)
          | "print" ->
            let plain = Bytes.of_string (Int64.to_string (Interp.read_reg itp Isa.RDI)) in
            if entropy_exceeded spec (8 * Bytes.length plain) then
              Interp.Halt (Interp.Ocall_denied index)
            else begin
              t.bits_sent <- t.bits_sent + (8 * Bytes.length plain);
              let pad =
                match spec.Manifest.pad_output_to with
                | Some p -> p
                | None -> Bytes.length plain
              in
              outputs := seal_record plain (max pad (Bytes.length plain)) itp :: !outputs;
              Interp.write_reg itp Isa.RAX 0L;
              Interp.Continue
            end
          | _ -> Interp.Halt (Interp.Ocall_denied index))
      in
      (* chaos: single-bit flips in the non-measured data/stack pages
         before execution starts — the enclave must stay fail-closed
         (sealed outputs or a documented fault, never a leak) *)
      List.iter
        (fun (addr, bit) ->
          let b = Memory.priv_read_bytes t.mem addr 1 in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
          Memory.priv_write_bytes t.mem addr b)
        (Chaos.mem_flip_plan chaos ~lo:t.layout.Layout.data_lo ~hi:t.layout.Layout.stack_hi);
      let interp_config =
        let c = t.config.interp in
        let c =
          match Chaos.aex_interval_override chaos with
          | Some i -> { c with Interp.aex_interval = Some i }
          | None -> c
        in
        match Chaos.fuel_override chaos with
        | Some f -> { c with Interp.fuel = Some f }
        | None -> c
      in
      (* the OCall wrapper retries host-side service failures; only a
         failure outlasting the whole budget surfaces as Ocall_failed *)
      let ocall index itp =
        let rec attempt k =
          if Chaos.ocall_fails chaos then begin
            Interp.add_cycles itp 64 (* re-issued host round trip *);
            if k >= resilience.Resilience.max_attempts then
              Interp.Halt (Interp.Ocall_failed index)
            else attempt (k + 1)
          end
          else ocall index itp
        in
        attempt 1
      in
      Profiler.set_symbols profiler loaded.Loader.function_addrs;
      let itp = Interp.create ~config:interp_config ~tm:t.tm ~recorder ~profiler ~ocall t.mem in
      (* verified block boundaries, rebased from text offsets to pcs *)
      Interp.set_block_leaders itp
        (List.map (fun off -> loaded.Loader.text_base + off) t.block_leaders);
      Interp.init_stack itp;
      (* R15 is the reserved shadow-stack pointer; target code cannot
         write it (the verifier rejects such instructions under P5) *)
      Interp.write_reg itp Deflection_annot.Annot.shadow_stack_reg
        (Int64.of_int (Deflection_enclave.Layout.ss_stack_base t.layout));
      let exit = Interp.run itp ~entry:loaded.Loader.entry_addr in
      (* on-demand time blurring (paper Section VII): the reply is held
         until the next quantum boundary, so completion time reveals only
         a coarse bucket *)
      (match t.config.manifest.Manifest.time_quantum with
      | Some q when q > 0 ->
        let c = Interp.cycles itp in
        let padded = (c + q - 1) / q * q in
        Interp.add_cycles itp (padded - c)
      | Some _ | None -> ());
      (* the blurring padding is real enclave time: attribute its samples
         to the final pc so the sample count tracks the cycle count *)
      Profiler.catch_up profiler ~cycles:(Interp.cycles itp) ~pc:(Interp.rip itp);
      if Telemetry.enabled t.tm then begin
        Telemetry.count t.tm "interp.instructions" (Interp.instructions itp);
        Telemetry.count t.tm "interp.cycles" (Interp.cycles itp);
        Telemetry.count t.tm "interp.aexes" (Interp.aex_count itp);
        Telemetry.count t.tm "interp.ocalls" (Interp.ocall_count itp);
        List.iter
          (fun (name, n) -> Telemetry.count t.tm ("interp.trace." ^ name) n)
          (Interp.trace_counters itp);
        List.iter
          (fun (cls, n) -> Telemetry.count t.tm ("interp.class." ^ cls) n)
          (Interp.class_counts itp)
      end;
      let crash =
        match exit with
        | Interp.Exited _ -> None
        | _ -> Some (build_crash t loaded itp exit)
      in
      Ok
        {
          exit;
          cycles = Interp.cycles itp;
          instructions = Interp.instructions itp;
          aexes = Interp.aex_count itp;
          ocalls = Interp.ocall_count itp;
          leaked_bytes = Memory.leaked_bytes t.mem;
          sealed_outputs = List.rev !outputs;
          crash;
        }
  end
