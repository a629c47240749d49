module Isa = Deflection_isa.Isa
module Codec = Deflection_isa.Codec
module Objfile = Deflection_isa.Objfile
module Policy = Deflection_policy.Policy
module Annot = Deflection_annot.Annot
module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Loader = Deflection_loader.Loader
module Verifier = Deflection_verifier.Verifier
module Interp = Deflection_runtime.Interp
module Codegen = Deflection_compiler.Codegen

type violation = { policy : string; at : int; detail : string }

type exec = {
  exit : Interp.exit_reason;
  exit_code : int64 option;
  outputs : string list;
  violations : violation list;
  instructions : int;
  leaked_bytes : int;
  verifier_report : Verifier.report;
}

type outcome =
  | Rejected of Verifier.rejection
  | Load_refused of string
  | Executed of exec

let pp_violation fmt v =
  Format.fprintf fmt "%s violation at %#x: %s" v.policy v.at v.detail

let max_violations = 16

let run ?(inputs = []) ?(instr_limit = 2_000_000) ?monitor_policies ~policies
    ~ssa_q (obj : Objfile.t) =
  let monitor_policies = Option.value ~default:policies monitor_policies in
  let layout = Layout.make Layout.default_config in
  let mem = Memory.create layout in
  match Loader.load mem ~aex_threshold:64 obj with
  | Error e -> Load_refused (Loader.error_to_string e)
  | Ok loaded -> (
    match Verifier.verify_classified ~policies ~ssa_q obj with
    | Error r -> Rejected r
    | Ok (report, cls) -> (
      match Loader.rewrite_imms mem loaded ~policies with
      | Error e -> Load_refused (Loader.error_to_string e)
      | Ok _ ->
        let monitored p = Policy.Set.mem p monitor_policies in
        let text_base = loaded.Loader.text_base in
        let text_hi = text_base + loaded.Loader.text_len in
        let branch_targets =
          List.init loaded.Loader.branch_table_len (fun i ->
              Int64.to_int
                (Memory.priv_read_u64 mem (loaded.Loader.branch_table_addr + (8 * i))))
        in
        let violations = ref [] in
        let n_violations = ref 0 in
        let record policy at detail =
          if !n_violations < max_violations then
            violations := { policy = Policy.name policy; at; detail } :: !violations;
          incr n_violations
        in
        (* OCall wrappers with Eval's exact output formatting and recv
           chunk semantics, so results are differentially comparable *)
        let outputs = ref [] in
        let input_queue = ref inputs in
        let buffer_ok addr nelems =
          nelems >= 0
          && nelems <= 1 lsl 20
          && addr >= layout.Layout.data_lo
          && addr + (8 * nelems) <= layout.Layout.stack_hi
        in
        let ocall index itp =
          let rdi = Int64.to_int (Interp.read_reg itp Isa.RDI) in
          let rsi = Int64.to_int (Interp.read_reg itp Isa.RSI) in
          if index = Codegen.ocall_print then begin
            outputs := Int64.to_string (Interp.read_reg itp Isa.RDI) :: !outputs;
            Interp.write_reg itp Isa.RAX 0L;
            Interp.Continue
          end
          else if index = Codegen.ocall_send then
            if not (buffer_ok rdi rsi) then Interp.Halt (Interp.Ocall_denied index)
            else begin
              let b = Bytes.create rsi in
              for i = 0 to rsi - 1 do
                let v = Memory.priv_read_u64 mem (rdi + (8 * i)) in
                Bytes.set b i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
              done;
              outputs := Bytes.to_string b :: !outputs;
              Interp.write_reg itp Isa.RAX (Int64.of_int rsi);
              Interp.Continue
            end
          else if index = Codegen.ocall_recv then
            if not (buffer_ok rdi rsi) then Interp.Halt (Interp.Ocall_denied index)
            else begin
              (match !input_queue with
              | [] -> Interp.write_reg itp Isa.RAX 0L
              | chunk :: rest ->
                input_queue := rest;
                let k = min rsi (Bytes.length chunk) in
                for i = 0 to k - 1 do
                  Memory.priv_write_u64 mem (rdi + (8 * i))
                    (Int64.of_int (Char.code (Bytes.get chunk i)))
                done;
                Interp.write_reg itp Isa.RAX (Int64.of_int k));
              Interp.Continue
            end
          else Interp.Halt (Interp.Ocall_denied index)
        in
        let config =
          { Interp.default_config with Interp.instr_limit; aex_interval = None }
        in
        let itp = Interp.create ~config ~ocall mem in
        Interp.init_stack itp;
        Interp.write_reg itp Annot.shadow_stack_reg
          (Int64.of_int (Layout.ss_stack_base layout));
        Interp.set_rip itp loaded.Loader.entry_addr;
        let store_lo, store_hi =
          Layout.store_bounds layout
            ~p3:(monitored Policy.P3) ~p4:(monitored Policy.P4)
        in
        let reg itp r = Int64.to_int (Interp.read_reg itp r) in
        let eff_addr itp (m : Isa.mem) =
          let b = match m.Isa.base with Some r -> reg itp r | None -> 0 in
          let i = match m.Isa.index with Some r -> reg itp r * m.Isa.scale | None -> 0 in
          b + i + Int64.to_int m.Isa.disp
        in
        let operand_value itp = function
          | Isa.Reg r -> Some (reg itp r)
          | Isa.Imm i -> Some (Int64.to_int i)
          | Isa.Mem m ->
            let a = eff_addr itp m in
            if Memory.in_elrange mem a && Memory.in_elrange mem (a + 7) then
              Some (Int64.to_int (Memory.priv_read_u64 mem a))
            else None
          | Isa.Sym _ -> None
        in
        let check_store off itp (m : Isa.mem) =
          let a = eff_addr itp m in
          if monitored Policy.P1 && not (Memory.in_elrange mem a && Memory.in_elrange mem (a + 7))
          then record Policy.P1 off (Printf.sprintf "store to %#x outside ELRANGE" a)
          else if a < store_lo || a + 8 > store_hi then
            if a < layout.Layout.code_lo && monitored Policy.P3 then
              record Policy.P3 off
                (Printf.sprintf "store to %#x below code_lo (security metadata)" a)
            else if a >= layout.Layout.code_lo && a < layout.Layout.code_hi
                    && monitored Policy.P4
            then record Policy.P4 off (Printf.sprintf "store to %#x inside code" a)
        in
        let pre_step () =
          let pc = Interp.rip itp in
          if pc < text_base || pc >= text_hi then begin
            if monitored Policy.P5 then
              record Policy.P5 (pc - text_base)
                (Printf.sprintf "pc %#x left the target text region" pc)
          end
          else begin
            let off = pc - text_base in
            match Codec.decode (Memory.code_bytes mem) (Memory.to_offset mem pc) with
            | exception Codec.Decode_error _ -> ()  (* interp will fault *)
            | instr, _len ->
              let machinery = Verifier.is_machinery cls off in
              if not machinery then begin
                (match Isa.maystore instr with
                | Some m -> check_store off itp m
                | None -> ());
                if monitored Policy.P5 && Isa.writes_reg Annot.shadow_stack_reg instr
                then record Policy.P5 off "target code writes the shadow-stack register"
              end;
              (match instr with
              | Isa.JmpInd op | Isa.CallInd op when monitored Policy.P5 -> (
                match operand_value itp op with
                | Some target when not (List.mem target branch_targets) ->
                  record Policy.P5 off
                    (Printf.sprintf "indirect branch to %#x not in the branch table"
                       target)
                | Some _ | None -> ())
              | Isa.Ret when monitored Policy.P5 ->
                let rsp = reg itp Isa.RSP in
                if Memory.in_elrange mem rsp && Memory.in_elrange mem (rsp + 7) then begin
                  let ra = Int64.to_int (Memory.priv_read_u64 mem rsp) in
                  if ra < text_base || ra >= text_hi then
                    record Policy.P5 off
                      (Printf.sprintf "return to %#x outside the text region" ra)
                end
              | _ -> ())
          end
        in
        let machinery_at pc =
          pc >= text_base && pc < text_hi && Verifier.is_machinery cls (pc - text_base)
        in
        let leaked_before = ref (Memory.leaked_bytes mem) in
        let post_step () =
          (* P2's contract is check-after-write: RSP may legitimately be out
             of region while the annotation that detects it (or the abort
             stub it branches to) is still executing. Flag only when TARGET
             code is about to run with RSP out of region. *)
          if monitored Policy.P2 && not (machinery_at (Interp.rip itp)) then begin
            let rsp = reg itp Isa.RSP in
            if rsp < layout.Layout.stack_lo || rsp > layout.Layout.stack_hi then
              record Policy.P2 (Interp.rip itp - text_base)
                (Printf.sprintf "RSP %#x left the stack region" rsp)
          end;
          let leaked = Memory.leaked_bytes mem in
          if leaked > !leaked_before then begin
            if monitored Policy.P1 then
              record Policy.P1 (Interp.rip itp - text_base)
                (Printf.sprintf "%d bytes escaped ELRANGE" (leaked - !leaked_before));
            leaked_before := leaked
          end
        in
        let rec loop () =
          if !n_violations >= max_violations then Interp.Limit_exceeded
          else begin
            pre_step ();
            match Interp.step itp with
            | Some reason -> reason
            | None ->
              post_step ();
              loop ()
          end
        in
        let exit = loop () in
        post_step ();
        Executed
          {
            exit;
            exit_code = (match exit with Interp.Exited c -> Some c | _ -> None);
            outputs = List.rev !outputs;
            violations = List.rev !violations;
            instructions = Interp.instructions itp;
            leaked_bytes = Memory.leaked_bytes mem;
            verifier_report = report;
          }))
