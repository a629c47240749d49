module Isa = Deflection_isa.Isa
module Codec = Deflection_isa.Codec
module Objfile = Deflection_isa.Objfile
module Annot = Deflection_annot.Annot
module Policy = Deflection_policy.Policy
module Telemetry = Deflection_telemetry.Telemetry
module Sha256 = Deflection_crypto.Sha256
open Isa

type pass = Symbols | Scan | Cfg | Witness

let pass_label = function
  | Symbols -> "symbols"
  | Scan -> "scan"
  | Cfg -> "cfg"
  | Witness -> "witness"

let pass_of_label = function
  | "symbols" -> Some Symbols
  | "scan" -> Some Scan
  | "cfg" -> Some Cfg
  | "witness" -> Some Witness
  | _ -> None

type mode = Descent | Witnessed

let mode_label = function Descent -> "descent" | Witnessed -> "witnessed"

let mode_of_label = function
  | "descent" -> Some Descent
  | "witnessed" -> Some Witnessed
  | _ -> None

type rejection = { pass : pass; offset : int; reason : string }

let pp_rejection fmt r =
  Format.fprintf fmt "rejected at %#x (%s pass): %s" r.offset (pass_label r.pass) r.reason

type report = {
  instructions_checked : int;
  store_annotations : int;
  rsp_annotations : int;
  cfi_annotations : int;
  prologues : int;
  epilogues : int;
  ssa_checks : int;
}

let pp_report fmt r =
  Format.fprintf fmt
    "verified: %d instructions, %d store / %d rsp / %d cfi annotations, %d prologues, %d \
     epilogues, %d ssa checks"
    r.instructions_checked r.store_annotations r.rsp_annotations r.cfi_annotations r.prologues
    r.epilogues r.ssa_checks

exception Reject of int * string

let reject offset reason = raise (Reject (offset, reason))

(* A witness-specific rejection: the binary may well be compliant, but the
   witness lied about it (or went stale). Kept distinct from [Reject] so
   the catcher can attribute it to the [Witness] pass even when it fires
   in the middle of the scan replay. *)
exception Reject_w of int * string

let wreject offset reason = raise (Reject_w (offset, reason))

(* P6 slack: the instrumentation pass may delay a marker inspection past
   the nominal period while flags are live; see Instrument.maybe_ssa_check. *)
let ssa_slack = 8

type classification = {
  machinery : (int, unit) Hashtbl.t;
  guarded_stores : (int, unit) Hashtbl.t;
  leaders : (int, unit) Hashtbl.t;
      (* basic-block leader offsets discovered during the descent: branch
         targets, function entries, stubs, the AEX handler and _start.
         A performance hint for the trace tier, not part of the verdict. *)
}

let is_machinery c off = Hashtbl.mem c.machinery off
let is_guarded_store c off = Hashtbl.mem c.guarded_stores off

let empty_classification () =
  { machinery = Hashtbl.create 1; guarded_stores = Hashtbl.create 1; leaders = Hashtbl.create 1 }

let sorted_offsets h = Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare

(* Flat views for persistence: a classification is fully determined by
   its two offset sets, so (sorted offsets out, offsets in) round-trips.
   Leaders are deliberately not persisted — a recovered verdict merely
   loses the block-boundary hint, never soundness. *)
let classification_offsets c = (sorted_offsets c.machinery, sorted_offsets c.guarded_stores)
let classification_leaders c = sorted_offsets c.leaders

let classification_of_offsets ~machinery ~guarded_stores =
  let tbl xs =
    let h = Hashtbl.create (max 1 (List.length xs)) in
    List.iter (fun o -> Hashtbl.replace h o ()) xs;
    h
  in
  { machinery = tbl machinery; guarded_stores = tbl guarded_stores; leaders = Hashtbl.create 1 }

(* Witnessed-replay tables, offset-indexed. [wlens.(off)] is the claimed
   instruction length at a claimed boundary (0 elsewhere), [winstrs.(off)]
   the instruction the validation pass decoded there, [wclaims.(off)] the
   annotation-site claim anchored there. Arrays rather than hash tables
   because the replay consults them once per scanned offset, and reusing
   the validation pass's decode results is what makes the witnessed tier
   fast: a claimed boundary is decoded exactly once per verification. *)
type wtab = {
  wlens : int array;
  winstrs : instr array;
  wclaims : Objfile.site option array;
  wdecodes : int;  (* decodes the validation pass made *)
}

(* Offset-set membership bits, one byte per text offset. The scan probes
   and updates several of these sets per instruction, so they live in a
   single flat byte array ([st.flags], length tlen+1 so a branch target of
   exactly tlen can be tracked) instead of seven hash tables; wild
   out-of-range branch targets — rejected when popped — overflow into the
   small [st.oob] table used only for worklist dedup. *)
let f_visited = 1
let f_starts = 2
let f_interior = 4
let f_members = 8
let f_guarded = 16
let f_ssa = 32
let f_enqueued = 64

type st = {
  text : bytes;
  tlen : int;
  policies : Policy.Set.t;
  ssa_q : int;
  stub_addr : Annot.abort_reason -> int;
  stub_at : (int, Annot.abort_reason) Hashtbl.t;
      (** offset -> abort reason, precomputed so the per-offset stub probe
          in {!scan_run} is one hash lookup instead of a
          [List.find_opt]-over-[List.assoc] scan *)
  aex_handler_off : int;
  start_off : int;
  user_funs : (int, string) Hashtbl.t;  (** offset -> name *)
  (* witnessed replay: when [wt] is set the scan consults the witness
     instead of running the full template try-chain at every offset — see
     [scan_run]. [None] is the classic recursive descent. *)
  wt : wtab option;
  (* classification: [f_*] membership bits per offset. [f_enqueued] marks
     offsets ever pushed on the worklist — converging branches used to
     enqueue the same target once per incoming edge (harmless for the
     verdict thanks to the pop-time visited check, but the worklist grew
     with the in-degree); [enqueue] filters at push time. *)
  flags : Bytes.t;
  oob : (int, unit) Hashtbl.t;  (** out-of-range offsets ever enqueued *)
  mutable jump_targets : (int * int) list;  (** (site, target) of jmp/jcc *)
  mutable call_targets : (int * int) list;
  mutable worklist : int list;
  (* per-pass attribution: wall-clock nanoseconds accumulated by each
     policy-check family during the scan. [now] is [None] when telemetry
     is disabled, so the hot path (bench/fuzz verify throughput) pays one
     match and nothing else. Decode time inside a matched template is
     attributed to the template's policy, not to [decode]. *)
  now : (unit -> int) option;
  mutable ns_decode : int;
  mutable ns_p1_store : int;
  mutable ns_p2_rsp : int;
  mutable ns_p5_cfi : int;
  mutable ns_p5_stack : int;
  mutable ns_p6_ssa : int;
  (* stats *)
  mutable n_instr : int;
  mutable n_store : int;
  mutable n_rsp : int;
  mutable n_cfi : int;
  mutable n_prologue : int;
  mutable n_epilogue : int;
  mutable n_ssa : int;
  mutable n_decodes : int;  (* every decode of the text, validation included *)
}

let has p st = Policy.Set.mem p st.policies

(* Flag-set probes. [fmem] treats out-of-range offsets as absent, exactly
   as a hash-table miss did; [fset] callers only pass in-range offsets
   (instruction starts the scan decoded) except [enqueue], which guards. *)
let fmem st mask off =
  off >= 0 && off < Bytes.length st.flags
  && Char.code (Bytes.unsafe_get st.flags off) land mask <> 0

let fset st mask off =
  Bytes.unsafe_set st.flags off
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get st.flags off) lor mask))

(* Push a discovered control-flow target exactly once: skip offsets that
   are already scanned or already pending. The pop-time visited check in
   the drain loop stays as a second line of defense (an offset can become
   visited between enqueue and pop when a fall-through run reaches it). *)
let enqueue st off =
  if off >= 0 && off < Bytes.length st.flags then begin
    if not (fmem st (f_visited lor f_enqueued) off) then begin
      fset st f_enqueued off;
      st.worklist <- off :: st.worklist
    end
  end
  else if not (Hashtbl.mem st.oob off) then begin
    Hashtbl.replace st.oob off ();
    st.worklist <- off :: st.worklist
  end

let decode st off =
  st.n_decodes <- st.n_decodes + 1;
  Codec.decode st.text off

let decode_at st off =
  match st.wt with
  | Some wt when off >= 0 && off < st.tlen && wt.wlens.(off) > 0 ->
    (* claimed boundary: reuse the validation pass's decode *)
    (wt.winstrs.(off), wt.wlens.(off))
  | _ ->
    if off < 0 || off >= st.tlen then reject off "control flow leaves the text section";
    (match decode st off with
    | exception Codec.Decode_error _ -> reject off "undecodable instruction"
    | instr, len ->
      if off + len > st.tlen then reject off "instruction extends past the text section";
      (instr, len))

(* Try to match a template starting at [off]. Returns the unit offsets and
   the end offset, or None (without raising) on mismatch. *)
let match_template st off (slots : Annot.slot list) : (int array * int) option =
  let n = List.length slots in
  let offsets = Array.make (n + 1) 0 in
  let decoded = Array.make n Nop in
  (* decode pass: any decode failure is a mismatch, not a rejection *)
  let ok =
    try
      let cur = ref off in
      List.iteri
        (fun i _ ->
          offsets.(i) <- !cur;
          if !cur >= st.tlen then raise Exit;
          match st.wt with
          | Some wt when wt.wlens.(!cur) > 0 ->
            decoded.(i) <- wt.winstrs.(!cur);
            cur := !cur + wt.wlens.(!cur)
          | _ -> (
            match decode st !cur with
            | exception Codec.Decode_error _ -> raise Exit
            | instr, len ->
              if !cur + len > st.tlen then raise Exit;
              decoded.(i) <- instr;
              cur := !cur + len))
        slots;
      offsets.(n) <- !cur;
      true
    with Exit -> false
  in
  if not ok then None
  else begin
    let resolve = function
      | Annot.To_abort r -> st.stub_addr r
      | Annot.To_aex_handler -> st.aex_handler_off
      | Annot.Internal i -> offsets.(i)
    in
    let check i slot =
      match (slot, decoded.(i)) with
      | Annot.Exact e, d -> e = d
      | Annot.Jcc_to (c, dst), Jcc (c', Rel r) ->
        c = c' && offsets.(i + 1) + r = resolve dst
      | Annot.Jmp_to dst, Jmp (Rel r) -> offsets.(i + 1) + r = resolve dst
      | Annot.Call_to dst, Call (Rel r) -> offsets.(i + 1) + r = resolve dst
      | (Annot.Jcc_to _ | Annot.Jmp_to _ | Annot.Call_to _), _ -> false
    in
    let all_ok = List.for_all2 (fun i s -> check i s) (List.init n Fun.id) slots in
    if all_ok then Some (Array.sub offsets 0 n, offsets.(n)) else None
  end

let mark_group st unit_offsets end_off =
  fset st f_starts unit_offsets.(0);
  Array.iteri
    (fun i o ->
      fset st (f_visited lor f_members) o;
      if i > 0 then fset st f_interior o)
    unit_offsets;
  st.n_instr <- st.n_instr + Array.length unit_offsets;
  end_off

(* The store group is the Figure-5 template followed by the guarded store;
   the template's lea operand must equal the push-adjusted destination.
   [find_store_group] is pure (no marking, no counters): the witness sweep
   re-matches unreachable claimed groups without perturbing the report. *)
let find_store_group st off : (int array * int) option =
  (* peek at unit 2 to learn the lea operand *)
  let peek_lea () =
    try
      let cur = ref off in
      let skip () =
        match decode st !cur with
        | exception Codec.Decode_error _ -> raise Exit
        | i, len ->
          cur := !cur + len;
          i
      in
      let i1 = skip () in
      let i2 = skip () in
      let i3 = skip () in
      match (i1, i2, i3) with
      | Push (Reg RBX), Push (Reg RAX), Lea (RAX, m) -> Some m
      | _ -> None
    with Exit -> None
  in
  match peek_lea () with
  | None -> None
  | Some m ->
    (match match_template st off (Annot.store_template m) with
    | None -> None
    | Some (units, tmpl_end) ->
      (* the guarded store itself *)
      (match
         (try Some (decode st tmpl_end) with Codec.Decode_error _ -> None)
       with
      | Some (store_instr, slen) when tmpl_end + slen <= st.tlen ->
        (match maystore store_instr with
        | Some m' when Annot.adjust_mem_for_pushes m' 2 = m ->
          Some (Array.append units [| tmpl_end |], tmpl_end + slen)
        | Some _ | None -> None)
      | Some _ | None -> None))

let match_store_group st off : int option =
  match find_store_group st off with
  | None -> None
  | Some (all_units, end_off) ->
    fset st f_guarded all_units.(Array.length all_units - 1);
    Some (mark_group st all_units end_off)

let match_simple_group st off template : int option =
  match match_template st off template with
  | None -> None
  | Some (units, end_off) -> Some (mark_group st units end_off)

(* CFI group: the table-scan template followed by the indirect branch via
   R10. Returns (units, end offset, branch kind). *)
let find_cfi_group st off : (int array * int * [ `Jmp | `Call ]) option =
  match match_template st off Annot.cfi_template with
  | None -> None
  | Some (units, tmpl_end) ->
    (match (try Some (decode st tmpl_end) with Codec.Decode_error _ -> None) with
    | Some (JmpInd (Reg r), len) when r = Annot.cfi_target_reg ->
      Some (Array.append units [| tmpl_end |], tmpl_end + len, `Jmp)
    | Some (CallInd (Reg r), len) when r = Annot.cfi_target_reg ->
      Some (Array.append units [| tmpl_end |], tmpl_end + len, `Call)
    | Some _ | None -> None)

let match_cfi_group st off : (int * [ `Jmp | `Call ]) option =
  match find_cfi_group st off with
  | None -> None
  | Some (all, end_off, kind) -> Some (mark_group st all end_off, kind)

(* A plain instruction that writes RSP must drag the P2 suffix with it. *)
let match_rsp_unit st off instr len : int =
  match match_template st (off + len) Annot.rsp_template with
  | None -> reject off (Format.asprintf "RSP write without P2 annotation: %a" pp_instr instr)
  | Some (units, end_off) ->
    let all = Array.append [| off |] units in
    st.n_rsp <- st.n_rsp + 1;
    mark_group st all end_off

(* ------------------------------------------------------------------ *)
(* Witness validation: the O(n) linear pass. Re-derives every structural
   claim from the raw bytes — nothing the untrusted generator wrote is
   believed without a cross-decode. Returns the boundary map and the
   per-offset claim table the scan replay consults. *)

let validate_witness ~(text : bytes) (w : Objfile.witness) =
  let tlen = Bytes.length text in
  (* stale witness: built for different bytes than were delivered *)
  if not (String.equal w.w_text_digest (Bytes.to_string (Sha256.digest text))) then
    wreject 0 "witness text digest does not match the delivered binary";
  let decodes = ref 0 in
  let decodable off =
    incr decodes;
    match Codec.decode text off with
    | exception Codec.Decode_error _ -> None
    | instr, len -> if off + len > tlen then None else Some (instr, len)
  in
  (* boundary map: strictly increasing, in-range, re-decoded, and the gaps
     between claimed instructions must hold no decodable instruction (a
     gap that decodes is where a lying witness would hide code). The
     decode results are kept in offset-indexed arrays so the scan replay
     and the dead-code sweep never decode a claimed boundary again. *)
  let wlens = Array.make (max tlen 1) 0 in
  let winstrs = Array.make (max tlen 1) Nop in
  let wclaims = Array.make (max tlen 1) None in
  let check_gap from_ until =
    for g = from_ to until - 1 do
      match decodable g with
      | Some _ -> wreject g "witness boundary gap hides a decodable instruction"
      | None -> ()
    done
  in
  let prev_end = ref 0 in
  Array.iter
    (fun (off, len) ->
      if off < !prev_end || len < 1 || off > tlen || len > tlen - off then
        wreject (max 0 off) "witness boundary map is not a monotone in-range tiling";
      check_gap !prev_end off;
      (match decodable off with
      | Some (instr, len') when len' = len -> winstrs.(off) <- instr
      | Some _ -> wreject off "witness boundary length disagrees with the decoded instruction"
      | None -> wreject off "witness boundary does not decode");
      wlens.(off) <- len;
      prev_end := off + len)
    w.w_boundaries;
  check_gap !prev_end tlen;
  let claimed off = off >= 0 && off < tlen && wlens.(off) > 0 in
  (* branch list: every claimed (site, target) must be a claimed boundary
     holding a direct branch whose encoded displacement lands on target *)
  List.iter
    (fun (site, target) ->
      if not (claimed site) then wreject site "witness branch site is not a claimed boundary";
      match winstrs.(site) with
      | Jmp (Rel d) | Jcc (_, Rel d) | Call (Rel d) ->
        if site + wlens.(site) + d <> target then
          wreject site "witness branch target disagrees with the encoded displacement"
      | _ -> wreject site "witness branch site is not a direct branch")
    w.w_branches;
  (* leaders: advisory for downstream consumers, but they must at least be
     claimed instruction boundaries *)
  List.iter
    (fun off ->
      if not (claimed off) then wreject off "witness leader is not a claimed boundary")
    w.w_leaders;
  (* annotation sites: in-range extents anchored on claimed boundaries, at
     most one claim per offset; the template cross-match happens during
     the scan replay (reachable sites) or the final sweep (dead sites) *)
  List.iter
    (fun (s : Objfile.site) ->
      if s.Objfile.w_off < 0 || s.Objfile.w_end <= s.Objfile.w_off || s.Objfile.w_end > tlen
      then wreject (max 0 s.Objfile.w_off) "witness site extent is out of range";
      if not (claimed s.Objfile.w_off) then
        wreject s.Objfile.w_off "witness site is not anchored on a claimed boundary";
      if wclaims.(s.Objfile.w_off) <> None then
        wreject s.Objfile.w_off "duplicate witness site claim";
      wclaims.(s.Objfile.w_off) <- Some s)
    w.w_sites;
  { wlens; winstrs; wclaims; wdecodes = !decodes }

(* ------------------------------------------------------------------ *)
(* Run scanning *)

type unit_result = Fallthrough of int | End_of_run | Branch_and_fall of int

let scan_plain st off =
  let instr, len =
    match st.now with
    | None -> decode_at st off
    | Some now ->
      let t0 = now () in
      let r = decode_at st off in
      st.ns_decode <- st.ns_decode + now () - t0;
      r
  in
  let end_off = off + len in
  (* witnessed replay: every plain instruction the scan actually reaches
     must be a claimed boundary with the claimed length — reaching code
     the witness did not describe (e.g. a branch into the middle of a
     claimed instruction) means the witness lied about the boundary map *)
  (match st.wt with
  | None -> ()
  | Some wt ->
    let l = wt.wlens.(off) in
    if l = 0 then wreject off "reachable instruction not claimed by the witness boundary map"
    else if l <> len then
      wreject off "instruction length disagrees with the witness boundary map");
  (* policy gates on bare instructions *)
  (match maystore instr with
  | Some _ when has Policy.P1 st ->
    reject off (Format.asprintf "memory store without annotation: %a" pp_instr instr)
  | Some _ | None -> ());
  (match instr with
  | Ret when has Policy.P5 st -> reject off "RET outside a shadow-stack epilogue"
  | (JmpInd _ | CallInd _) when has Policy.P5 st ->
    reject off "indirect branch without CFI annotation"
  | _ -> ());
  if has Policy.P5 st && writes_reg Annot.shadow_stack_reg instr then
    reject off "write to the reserved shadow-stack register";
  if writes_rsp instr && has Policy.P2 st then begin
    let e =
      match st.now with
      | None -> match_rsp_unit st off instr len
      | Some now ->
        let t0 = now () in
        let r = match_rsp_unit st off instr len in
        st.ns_p2_rsp <- st.ns_p2_rsp + now () - t0;
        r
    in
    Fallthrough e
  end
  else begin
    fset st (f_visited lor f_starts) off;
    st.n_instr <- st.n_instr + 1;
    match instr with
    | Jmp (Rel d) ->
      st.jump_targets <- (off, end_off + d) :: st.jump_targets;
      enqueue st (end_off + d);
      End_of_run
    | Jcc (_, Rel d) ->
      st.jump_targets <- (off, end_off + d) :: st.jump_targets;
      enqueue st (end_off + d);
      Branch_and_fall end_off
    | Call (Rel d) ->
      st.call_targets <- (off, end_off + d) :: st.call_targets;
      enqueue st (end_off + d);
      Fallthrough end_off
    | Jmp (Lab _) | Jcc (_, Lab _) | Call (Lab _) -> reject off "unresolved label in binary"
    | Ret -> End_of_run
    | Hlt -> End_of_run
    | JmpInd _ -> End_of_run (* only reachable when P5 is off *)
    | Nop | Mov _ | Lea _ | Push _ | Pop _ | Binop _ | Unop _ | Shift _ | Idiv _ | Cmp _
    | Test _ | CallInd _ | Ocall _ | Fbin _ | Fcmp _ | Cvtsi2sd _ | Cvttsd2si _ | Fsqrt _ ->
      Fallthrough end_off
  end

let scan_run st start =
  let ssa_counter = ref 0 in
  let bump_ssa off =
    if has Policy.P6 st then begin
      incr ssa_counter;
      if !ssa_counter > st.ssa_q + ssa_slack then
        reject off "straight-line run exceeds the SSA inspection period"
    end
  in
  let rec step off =
    if off = st.tlen then reject off "control flow falls off the end of the text"
    else if off < 0 || off > st.tlen then
      reject off "control flow leaves the text section"
    else if fmem st f_visited off then () (* merged with an already-scanned run *)
    else begin
      (* stubs *)
      match Hashtbl.find_opt st.stub_at off with
      | Some r ->
        let template =
          [ Annot.Exact (Mov (Reg RAX, Imm (Annot.abort_exit_code r))); Annot.Exact Hlt ]
        in
        (match match_simple_group st off template with
        | Some _ -> () (* stub ends the run *)
        | None -> reject off "malformed abort stub")
      | None ->
        if off = st.aex_handler_off then begin
          match match_simple_group st off Annot.aex_handler_template with
          | Some _ -> ()
          | None -> reject off "malformed AEX handler"
        end
        else if off = st.start_off then begin
          (* __start: call entry; hlt *)
          let instr, len = decode_at st off in
          match instr with
          | Call (Rel d) ->
            let target = off + len + d in
            st.call_targets <- (off, target) :: st.call_targets;
            enqueue st target;
            fset st (f_visited lor f_starts) off;
            let i2, _ = decode_at st (off + len) in
            if i2 <> Hlt then reject (off + len) "__start must halt after calling the entry";
            fset st (f_visited lor f_starts) (off + len);
            st.n_instr <- st.n_instr + 2
          | _ -> reject off "__start must begin with a direct call"
        end
        else begin
          (* function entry? *)
          let is_fun = Hashtbl.mem st.user_funs off in
          if is_fun && has Policy.P5 st then begin
            match
              (match st.now with
              | None -> match_simple_group st off Annot.prologue_template
              | Some now ->
                let t0 = now () in
                let r = match_simple_group st off Annot.prologue_template in
                st.ns_p5_stack <- st.ns_p5_stack + now () - t0;
                r)
            with
            | Some e ->
              (* in a witnessed replay the prologue is the one template the
                 scan matches unprompted, so lying-by-omission is caught
                 here: a matched prologue must also be claimed *)
              (match st.wt with
              | None -> ()
              | Some wt -> (
                match wt.wclaims.(off) with
                | Some { Objfile.w_kind = Objfile.Wprologue; w_end; _ } when w_end = e -> ()
                | Some _ -> wreject off "function prologue claim disagrees with the code"
                | None -> wreject off "function prologue not claimed by the witness"));
              st.n_prologue <- st.n_prologue + 1;
              bump_ssa off;
              step e
            | None -> reject off "function entry without shadow-stack prologue"
          end
          else begin
            (* annotation groups *)
            let try_ssa () =
              if has Policy.P6 st then
                match
                  (match st.now with
                  | None -> match_simple_group st off Annot.ssa_template
                  | Some now ->
                    let t0 = now () in
                    let r = match_simple_group st off Annot.ssa_template in
                    st.ns_p6_ssa <- st.ns_p6_ssa + now () - t0;
                    r)
                with
                | Some e ->
                  st.n_ssa <- st.n_ssa + 1;
                  fset st f_ssa off;
                  ssa_counter := 0;
                  Some e
                | None -> None
              else None
            in
            let try_store () =
              if has Policy.P1 st then
                match
                  (match st.now with
                  | None -> match_store_group st off
                  | Some now ->
                    let t0 = now () in
                    let r = match_store_group st off in
                    st.ns_p1_store <- st.ns_p1_store + now () - t0;
                    r)
                with
                | Some e ->
                  st.n_store <- st.n_store + 1;
                  Some e
                | None -> None
              else None
            in
            let try_cfi () =
              match st.now with
              | None -> match_cfi_group st off
              | Some now ->
                let t0 = now () in
                let r = match_cfi_group st off in
                st.ns_p5_cfi <- st.ns_p5_cfi + now () - t0;
                r
            in
            let try_epilogue () =
              match st.now with
              | None -> match_simple_group st off Annot.epilogue_template
              | Some now ->
                let t0 = now () in
                let r = match_simple_group st off Annot.epilogue_template in
                st.ns_p5_stack <- st.ns_p5_stack + now () - t0;
                r
            in
            let descent_chain () =
              match try_ssa () with
              | Some e -> step e
              | None ->
                (match try_store () with
                | Some e ->
                  bump_ssa off;
                  step e
                | None ->
                  if has Policy.P5 st then begin
                    match try_cfi () with
                    | Some (e, kind) ->
                      st.n_cfi <- st.n_cfi + 1;
                      bump_ssa off;
                      (match kind with `Jmp -> () | `Call -> step e)
                    | None ->
                      (match try_epilogue () with
                      | Some _ ->
                        st.n_epilogue <- st.n_epilogue + 1
                        (* epilogue ends with ret: end of run *)
                      | None -> plain off)
                  end
                  else plain off)
            in
            match st.wt with
            | None -> descent_chain ()
            | Some wt -> (
              (* witnessed replay: the claim table names the one template
                 the descent chain would have matched here (the Figure-5
                 templates are mutually exclusive — distinct two-instruction
                 heads — so claim-guided matching cannot pick a different
                 template than the priority chain). Claims whose policy is
                 not enforced are ignored exactly as the descent chain
                 ignores the corresponding matcher; an unclaimed offset runs
                 only the plain-instruction gates, which is where a
                 lying-by-omission witness is caught (the bare store /
                 indirect branch / RSP write the omitted claim was hiding
                 rejects on its own). *)
              match wt.wclaims.(off) with
              | Some { Objfile.w_kind = Objfile.Wssa; w_end; _ } when has Policy.P6 st -> (
                match try_ssa () with
                | Some e when e = w_end -> step e
                | Some _ -> wreject off "SSA site extent disagrees with the witness"
                | None -> wreject off "claimed SSA site does not match the canonical template")
              | Some { Objfile.w_kind = Objfile.Wstore; w_end; _ } when has Policy.P1 st -> (
                match try_store () with
                | Some e when e = w_end ->
                  bump_ssa off;
                  step e
                | Some _ -> wreject off "store site extent disagrees with the witness"
                | None -> wreject off "claimed store site does not match the canonical template")
              | Some { Objfile.w_kind = Objfile.Wcfi; w_end; _ } when has Policy.P5 st -> (
                match try_cfi () with
                | Some (e, kind) when e = w_end ->
                  st.n_cfi <- st.n_cfi + 1;
                  bump_ssa off;
                  (match kind with `Jmp -> () | `Call -> step e)
                | Some _ -> wreject off "CFI site extent disagrees with the witness"
                | None -> wreject off "claimed CFI site does not match the canonical template")
              | Some { Objfile.w_kind = Objfile.Wepilogue; w_end; _ } when has Policy.P5 st -> (
                match try_epilogue () with
                | Some e when e = w_end -> st.n_epilogue <- st.n_epilogue + 1
                | Some _ -> wreject off "epilogue extent disagrees with the witness"
                | None -> wreject off "claimed epilogue does not match the canonical template")
              | Some _ | None -> plain off)
          end
        end
    end
  and plain off =
    match scan_plain st off with
    | End_of_run -> ()
    | Fallthrough e ->
      bump_ssa off;
      step e
    | Branch_and_fall e ->
      bump_ssa off;
      step e
  in
  step start

(* ------------------------------------------------------------------ *)
(* Lying-by-omission sweep: after the replay accepted, walk every claimed
   boundary the scan never reached. Dead code the descent would not even
   look at must still be benign under the witness's claims — an unclaimed
   (or mis-claimed) store, RSP write, indirect branch or shadow-stack
   write anywhere in the text rejects. This is deliberately stricter than
   the descent (which ignores unreachable bytes): a host whose binary it
   rejects can resubmit it for [Descent] verification.
   Pure matching only (find_*/match_template): report counters must stay
   byte-identical to the descent's, which never counts unreachable code. *)

let witness_sweep st (w : Objfile.witness) (wt : wtab) =
  let n = Array.length w.w_boundaries in
  let i = ref 0 in
  while !i < n do
    let off, _len = w.w_boundaries.(!i) in
    if fmem st f_visited off then incr i
    else begin
      let skip_to e =
        incr i;
        while !i < n && fst w.w_boundaries.(!i) < e do incr i done
      in
      match wt.wclaims.(off) with
      | Some { Objfile.w_kind = Objfile.Wssa; w_end; _ } when has Policy.P6 st -> (
        match match_template st off Annot.ssa_template with
        | Some (_, e) when e = w_end -> skip_to e
        | Some _ | None -> wreject off "unreachable claimed SSA site does not match the code")
      | Some { Objfile.w_kind = Objfile.Wstore; w_end; _ } when has Policy.P1 st -> (
        match find_store_group st off with
        | Some (_, e) when e = w_end -> skip_to e
        | Some _ | None -> wreject off "unreachable claimed store site does not match the code")
      | Some { Objfile.w_kind = Objfile.Wcfi; w_end; _ } when has Policy.P5 st -> (
        match find_cfi_group st off with
        | Some (_, e, _) when e = w_end -> skip_to e
        | Some _ | None -> wreject off "unreachable claimed CFI site does not match the code")
      | Some { Objfile.w_kind = Objfile.Wprologue; w_end; _ } when has Policy.P5 st -> (
        match match_template st off Annot.prologue_template with
        | Some (_, e) when e = w_end -> skip_to e
        | Some _ | None -> wreject off "unreachable claimed prologue does not match the code")
      | Some { Objfile.w_kind = Objfile.Wepilogue; w_end; _ } when has Policy.P5 st -> (
        match match_template st off Annot.epilogue_template with
        | Some (_, e) when e = w_end -> skip_to e
        | Some _ | None -> wreject off "unreachable claimed epilogue does not match the code")
      | Some { Objfile.w_kind = Objfile.Wrsp; w_end; _ } when has Policy.P2 st ->
        (* validation already decoded every claimed boundary *)
        let instr = wt.winstrs.(off) and ilen = wt.wlens.(off) in
        if not (writes_rsp instr) then
          wreject off "unreachable claimed RSP site does not write RSP";
        (match match_template st (off + ilen) Annot.rsp_template with
        | Some (_, e) when e = w_end -> skip_to e
        | Some _ | None -> wreject off "unreachable claimed RSP site does not match the code")
      | Some _ | None ->
        (* unclaimed (or policy-idle) dead instruction: nothing a policy
           would require an annotation for may live here *)
        let instr = wt.winstrs.(off) in
        (match maystore instr with
        | Some _ when has Policy.P1 st ->
          wreject off "unreachable memory store not claimed by the witness"
        | Some _ | None -> ());
        (match instr with
        | (Ret | JmpInd _ | CallInd _) when has Policy.P5 st ->
          wreject off "unreachable indirect control flow not claimed by the witness"
        | _ -> ());
        if has Policy.P5 st && writes_reg Annot.shadow_stack_reg instr then
          wreject off "unreachable shadow-stack write not claimed by the witness";
        if has Policy.P2 st && writes_rsp instr then
          wreject off "unreachable RSP write not claimed by the witness";
        incr i
    end
  done

(* ------------------------------------------------------------------ *)

(* Per-pass wall-clock attribution, emitted as counters so a session's
   snapshot carries the scan's cost breakdown next to the coarser
   verify.symbols/verify.scan/verify.cfg spans. Emitted on acceptance and
   rejection alike (a rejected scan still did attributable work). *)
let emit_pass_ns tm st =
  if Telemetry.enabled tm then begin
    (* histograms, not counters: the values are wall-clock nanoseconds,
       which belong in the timing-variant plane — the gateway's merged
       counter totals must stay schedule-independent *)
    let emit name v = Telemetry.observe (Telemetry.histogram tm name) v in
    emit "verifier.pass_ns.decode" st.ns_decode;
    emit "verifier.pass_ns.p1_store" st.ns_p1_store;
    emit "verifier.pass_ns.p2_rsp" st.ns_p2_rsp;
    emit "verifier.pass_ns.p5_cfi" st.ns_p5_cfi;
    emit "verifier.pass_ns.p5_stack" st.ns_p5_stack;
    emit "verifier.pass_ns.p6_ssa" st.ns_p6_ssa
  end

let verify_with ?(tm = Telemetry.disabled) ~policies ~ssa_q
    ~(witness : Objfile.witness option) (obj : Objfile.t) =
  Telemetry.span tm "verify" @@ fun () ->
  let current_pass = ref Symbols in
  let st_cell = ref None in
  try
    let text = obj.Objfile.text in
    (* witness structural validation runs first: boundary re-decode, gap
       audit, branch/leader/site anchoring — the linear O(n) pass *)
    let wtables =
      match witness with
      | None -> None
      | Some w ->
        current_pass := Witness;
        let tables = Telemetry.span tm "verify.witness" (fun () -> validate_witness ~text w) in
        current_pass := Symbols;
        Some tables
    in
    let sym name =
      match Objfile.find_symbol obj name with
      | Some s when s.Objfile.section = Objfile.Text -> Some s.Objfile.offset
      | Some _ | None -> None
    in
    let require name =
      match sym name with
      | Some off -> off
      | None -> reject 0 ("missing required symbol " ^ name)
    in
    let stub_tbl, aex_handler_off, start_off, stub_offsets, user_funs =
      Telemetry.span tm "verify.symbols" @@ fun () ->
      let stub_tbl =
        List.map (fun r -> (r, require (Annot.abort_symbol r))) Annot.all_abort_reasons
      in
      let aex_handler_off = require Annot.aex_handler_symbol in
      let start_off = require Annot.start_symbol in
      let stub_offsets =
        (start_off :: aex_handler_off :: List.map snd stub_tbl)
      in
      let user_funs = Hashtbl.create 16 in
      List.iter
        (fun (s : Objfile.symbol) ->
          if
            s.Objfile.section = Objfile.Text && s.Objfile.is_function
            && not (List.mem s.Objfile.offset stub_offsets)
          then Hashtbl.replace user_funs s.Objfile.offset s.Objfile.name)
        obj.Objfile.symbols;
      (* the indirect-branch list must point at user functions *)
      List.iter
        (fun name ->
          match Objfile.find_symbol obj name with
          | Some s when s.Objfile.section = Objfile.Text && s.Objfile.is_function -> ()
          | Some _ | None -> reject 0 ("branch-list entry is not a function: " ^ name))
        obj.Objfile.branch_targets;
      (stub_tbl, aex_handler_off, start_off, stub_offsets, user_funs)
    in
    let stub_addr r = List.assoc r stub_tbl in
    (* offset-keyed views of the symbol tables, built once: scan_run probes
       [stub_at] per offset and the CFG pass probes [stub_offset_set] per
       backward branch. Insertion order mirrors [all_abort_reasons] so a
       (hypothetical) shared offset resolves to the same reason the old
       list scan found first. *)
    let stub_at = Hashtbl.create 16 in
    List.iter
      (fun (r, off) -> if not (Hashtbl.mem stub_at off) then Hashtbl.add stub_at off r)
      stub_tbl;
    let stub_offset_set = Hashtbl.create 16 in
    List.iter (fun off -> Hashtbl.replace stub_offset_set off ()) stub_offsets;
    let st =
      {
        text;
        tlen = Bytes.length text;
        policies;
        ssa_q;
        stub_addr;
        stub_at;
        aex_handler_off;
        start_off;
        user_funs;
        wt = wtables;
        flags = Bytes.make (Bytes.length text + 1) '\000';
        oob = Hashtbl.create 8;
        jump_targets = [];
        call_targets = [];
        worklist = [];
        now = (if Telemetry.enabled tm then Some (fun () -> Telemetry.now_ns tm) else None);
        ns_decode = 0;
        ns_p1_store = 0;
        ns_p2_rsp = 0;
        ns_p5_cfi = 0;
        ns_p5_stack = 0;
        ns_p6_ssa = 0;
        n_instr = 0;
        n_store = 0;
        n_rsp = 0;
        n_cfi = 0;
        n_prologue = 0;
        n_epilogue = 0;
        n_ssa = 0;
        n_decodes = (match wtables with Some wt -> wt.wdecodes | None -> 0);
      }
    in
    st_cell := Some st;
    (* seed: entry, stubs, every function, every indirect target. The seed
       list is built exactly as before, then deduplicated preserving the
       first pop position of each offset ([_start] appears in both the
       explicit head and [stub_offsets]), so the scan order — and thus
       which rejection fires first on a multi-defect binary — is unchanged
       from the pre-dedup verifier. *)
    st.worklist <- start_off :: stub_offsets;
    Hashtbl.iter (fun off _ -> st.worklist <- off :: st.worklist) user_funs;
    st.worklist <-
      List.filter
        (fun off ->
          if off >= 0 && off < Bytes.length st.flags then
            if fmem st f_enqueued off then false
            else begin
              fset st f_enqueued off;
              true
            end
          else if Hashtbl.mem st.oob off then false
          else begin
            Hashtbl.replace st.oob off ();
            true
          end)
        st.worklist;
    let rec drain () =
      match st.worklist with
      | [] -> ()
      | off :: rest ->
        st.worklist <- rest;
        if not (fmem st f_visited off) then scan_run st off;
        drain ()
    in
    current_pass := Scan;
    Telemetry.span tm "verify.scan" drain;
    (* a-posteriori control-flow target validation *)
    current_pass := Cfg;
    Telemetry.span tm "verify.cfg" (fun () ->
        List.iter
          (fun (site, target) ->
            if fmem st f_interior target then
              reject site "branch target inside an annotation group";
            if not (fmem st f_starts target) then
              reject site "branch target is not an instruction boundary";
            (* every CFG cycle goes through a backward branch: its target must
               carry an SSA inspection (function entries carry their own) *)
            if
              Policy.Set.mem Policy.P6 policies && target <= site
              && not
                   (fmem st f_ssa target
                   || Hashtbl.mem st.user_funs target
                   || Hashtbl.mem stub_offset_set target)
            then reject site "backward branch target without SSA inspection")
          st.jump_targets;
        List.iter
          (fun (site, target) ->
            if not (Hashtbl.mem st.user_funs target || target = st.aex_handler_off) then
              reject site "direct call target is not a function entry")
          st.call_targets);
    (* witnessed tier: lying-by-omission sweep over unreached boundaries.
       Runs last so every defect in reachable code rejects with exactly
       the (pass, offset, reason) triple the descent would produce. *)
    (match (witness, wtables) with
    | Some w, Some wt ->
      current_pass := Witness;
      Telemetry.span tm "verify.sweep" (fun () -> witness_sweep st w wt)
    | _ -> ());
    emit_pass_ns tm st;
    Telemetry.count tm "verifier.instructions" st.n_instr;
    Telemetry.count tm "verifier.decodes" st.n_decodes;
    Telemetry.count tm "verifier.annot.store" st.n_store;
    Telemetry.count tm "verifier.annot.rsp" st.n_rsp;
    Telemetry.count tm "verifier.annot.cfi" st.n_cfi;
    Telemetry.count tm "verifier.annot.prologue" st.n_prologue;
    Telemetry.count tm "verifier.annot.epilogue" st.n_epilogue;
    Telemetry.count tm "verifier.annot.ssa" st.n_ssa;
    (* materialize the classification sets from the flag array: machinery
       is members minus guarded stores, leaders are the verified
       basic-block boundaries — every offset the descent proved to be a
       legitimate control-flow entry *)
    let machinery = Hashtbl.create 256 in
    let guarded_stores = Hashtbl.create 64 in
    let leaders = Hashtbl.create 256 in
    for off = 0 to Bytes.length st.flags - 1 do
      let f = Char.code (Bytes.unsafe_get st.flags off) in
      if f land f_members <> 0 && f land f_guarded = 0 then Hashtbl.replace machinery off ();
      if f land f_guarded <> 0 then Hashtbl.replace guarded_stores off ();
      if f land f_starts <> 0 then Hashtbl.replace leaders off ()
    done;
    Hashtbl.iter (fun off _ -> Hashtbl.replace leaders off ()) st.user_funs;
    Hashtbl.iter (fun off _ -> Hashtbl.replace leaders off ()) st.stub_at;
    Hashtbl.replace leaders st.aex_handler_off ();
    Hashtbl.replace leaders st.start_off ();
    Ok
      ( {
          instructions_checked = st.n_instr;
          store_annotations = st.n_store;
          rsp_annotations = st.n_rsp;
          cfi_annotations = st.n_cfi;
          prologues = st.n_prologue;
          epilogues = st.n_epilogue;
          ssa_checks = st.n_ssa;
        },
        { machinery; guarded_stores; leaders } )
  with
  | Reject _ | Reject_w _ as exn ->
    let pass, offset, reason =
      match exn with
      | Reject (offset, reason) -> (!current_pass, offset, reason)
      | Reject_w (offset, reason) -> (Witness, offset, reason)
      | _ -> assert false
    in
    Option.iter (emit_pass_ns tm) !st_cell;
    let r = { pass; offset; reason } in
    if Telemetry.tracing tm then
      Telemetry.event tm "verifier.reject"
        ~args:
          [
            ("pass", pass_label r.pass);
            ("offset", Printf.sprintf "%#x" r.offset);
            ("reason", r.reason);
          ];
    Error r

let verify_classified ?tm ~policies ~ssa_q (obj : Objfile.t) =
  verify_with ?tm ~policies ~ssa_q ~witness:None obj

let verify ?tm ~policies ~ssa_q obj =
  match verify_classified ?tm ~policies ~ssa_q obj with
  | Ok (report, _) -> Ok report
  | Error r -> Error r

let verify_witnessed ?tm ~policies ~ssa_q (obj : Objfile.t) =
  match obj.Objfile.witness with
  | None -> Error { pass = Witness; offset = 0; reason = "binary carries no witness" }
  | Some w -> verify_with ?tm ~policies ~ssa_q ~witness:(Some w) obj

let verify_mode ?(tm = Telemetry.disabled) ~mode ~policies ~ssa_q (obj : Objfile.t) =
  match mode with
  | Descent -> verify_classified ~tm ~policies ~ssa_q obj
  | Witnessed -> verify_witnessed ~tm ~policies ~ssa_q obj

(* ------------------------------------------------------------------ *)
(* Witness construction: the untrusted generator's side. Shares the
   template matchers with the checker above — the witness is honest by
   construction for any binary, including non-compliant ones (the witness
   then faithfully describes the violation, and the replay rejects with
   the descent's exact triple). *)

module Witness = struct
  (* unresolvable abort-stub/handler symbols resolve to a sentinel no
     encodable displacement can reach: the affected templates simply never
     match, and the verifier rejects such a binary in its symbols pass
     before consulting any claim *)
  let sentinel = min_int / 4

  let build_state (obj : Objfile.t) =
    let sym name =
      match Objfile.find_symbol obj name with
      | Some s when s.Objfile.section = Objfile.Text -> Some s.Objfile.offset
      | Some _ | None -> None
    in
    let resolve name = match sym name with Some o -> o | None -> sentinel in
    let text = obj.Objfile.text in
    {
      text;
      tlen = Bytes.length text;
      policies = Policy.Set.p1_p6 (* template matching is policy-blind *);
      ssa_q = obj.Objfile.ssa_q;
      stub_addr = (fun r -> resolve (Annot.abort_symbol r));
      stub_at = Hashtbl.create 1;
      aex_handler_off = resolve Annot.aex_handler_symbol;
      start_off = resolve Annot.start_symbol;
      user_funs = Hashtbl.create 1;
      wt = None;
      flags = Bytes.make (Bytes.length text + 1) '\000';
      oob = Hashtbl.create 1;
      jump_targets = [];
      call_targets = [];
      worklist = [];
      now = None;
      ns_decode = 0;
      ns_p1_store = 0;
      ns_p2_rsp = 0;
      ns_p5_cfi = 0;
      ns_p5_stack = 0;
      ns_p6_ssa = 0;
      n_instr = 0;
      n_store = 0;
      n_rsp = 0;
      n_cfi = 0;
      n_prologue = 0;
      n_epilogue = 0;
      n_ssa = 0;
      n_decodes = 0;
    }

  let build (obj : Objfile.t) : Objfile.witness =
    let st = build_state obj in
    let text = obj.Objfile.text in
    let tlen = Bytes.length text in
    (* 1. greedy linear boundary map, one-byte resync over undecodable input *)
    let bounds = ref [] in
    let off = ref 0 in
    while !off < tlen do
      match Codec.decode text !off with
      | exception Codec.Decode_error _ -> incr off
      | _, len -> if !off + len > tlen then incr off
        else begin
          bounds := (!off, len) :: !bounds;
          off := !off + len
        end
    done;
    let w_boundaries = Array.of_list (List.rev !bounds) in
    let bset = Hashtbl.create (max 16 (2 * Array.length w_boundaries)) in
    Array.iter (fun (o, l) -> Hashtbl.replace bset o l) w_boundaries;
    (* 2. annotation sites and direct branches over the boundary starts,
       skipping claimed extents (the replay records branches only outside
       matched groups, and so does the witness) *)
    let sites = ref [] in
    let branches = ref [] in
    let nb = Array.length w_boundaries in
    let i = ref 0 in
    while !i < nb do
      let boff, blen = w_boundaries.(!i) in
      let claim kind e =
        sites := { Objfile.w_kind = kind; w_off = boff; w_end = e } :: !sites;
        incr i;
        while !i < nb && fst w_boundaries.(!i) < e do incr i done
      in
      let plain () =
        (match Codec.decode text boff with
        | exception Codec.Decode_error _ -> ()
        | (Jmp (Rel d) | Jcc (_, Rel d) | Call (Rel d)), _ ->
          branches := (boff, boff + blen + d) :: !branches
        | _ -> ());
        incr i
      in
      match match_template st boff Annot.ssa_template with
      | Some (_, e) -> claim Objfile.Wssa e
      | None -> (
        match find_store_group st boff with
        | Some (_, e) -> claim Objfile.Wstore e
        | None -> (
          match find_cfi_group st boff with
          | Some (_, e, _) -> claim Objfile.Wcfi e
          | None -> (
            match match_template st boff Annot.prologue_template with
            | Some (_, e) -> claim Objfile.Wprologue e
            | None -> (
              match match_template st boff Annot.epilogue_template with
              | Some (_, e) -> claim Objfile.Wepilogue e
              | None -> (
                match Codec.decode text boff with
                | exception Codec.Decode_error _ -> incr i
                | instr, _ when writes_rsp instr -> (
                  match match_template st (boff + blen) Annot.rsp_template with
                  | Some (_, e) -> claim Objfile.Wrsp e
                  | None -> plain ())
                | _ -> plain ())))))
    done;
    (* 3. leaders: claimed branch targets and function entries that land on
       instruction boundaries (a corrupt branch target that misses every
       boundary is simply not a leader — the verifier rejects it in its
       CFG pass either way) *)
    let leader_set = Hashtbl.create 64 in
    let add_leader o = if Hashtbl.mem bset o then Hashtbl.replace leader_set o () in
    List.iter (fun (_, t) -> add_leader t) !branches;
    List.iter
      (fun (s : Objfile.symbol) ->
        if s.Objfile.section = Objfile.Text && s.Objfile.is_function then
          add_leader s.Objfile.offset)
      obj.Objfile.symbols;
    {
      Objfile.w_boundaries;
      w_leaders = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) leader_set []);
      w_branches = List.rev !branches;
      w_sites = List.rev !sites;
      w_text_digest = Bytes.to_string (Sha256.digest text);
    }

  let attach (obj : Objfile.t) : Objfile.t = { obj with Objfile.witness = Some (build obj) }
end

(* ------------------------------------------------------------------ *)
(* Measurement-keyed verdict cache: verify once, admit many. *)

module Cache = struct
  module Sha256 = Deflection_crypto.Sha256

  type verdict = (report * classification, rejection) result

  (* An [In_flight] entry is a claim: the domain that inserted it is
     verifying; later arrivals for the same key block on the condition
     until the verdict lands, then re-look-up. This single-flight
     discipline makes hit/miss totals a function of the batch alone, not
     of the domain schedule. A claim whose verifier raised is simply
     removed (no terminal poisoned state): woken waiters find the key
     absent and convert to a fresh miss, so one crashed verification
     never blocks a measurement for the cache's lifetime. *)
  type entry = { mutable state : state; mutable last_used : int }
  and state = In_flight | Done of verdict

  type t = {
    capacity : int;
    mutex : Mutex.t;
    cond : Condition.t;
    table : (string, entry) Hashtbl.t;
    mutable tick : int;  (* logical access clock for LRU *)
    mutable epoch : int option;
        (* when set, accesses stamp this value instead of the tick: a
           server pins the epoch to its round number so LRU victim order
           (and thus eviction under a quota trim) is a function of the
           round's request set, never of the domain schedule inside it *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  type stats = { hits : int; misses : int; evictions : int; entries : int; capacity : int }

  let default_capacity = 64

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Verifier.Cache.create: capacity must be positive";
    {
      capacity;
      mutex = Mutex.create ();
      cond = Condition.create ();
      table = Hashtbl.create 64;
      tick = 0;
      epoch = None;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let capacity (t : t) = t.capacity

  let stats (t : t) =
    Mutex.lock t.mutex;
    let s =
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
      }
    in
    Mutex.unlock t.mutex;
    s

  let stats_to_list s =
    [
      ("hits", s.hits);
      ("misses", s.misses);
      ("evictions", s.evictions);
      ("entries", s.entries);
      ("capacity", s.capacity);
    ]

  (* The key binds everything the verdict depends on: the exact serialized
     objfile (the measurement of the delivered code — which includes the
     witness section, so a witness edit re-keys on its own), the enforced
     policy set, the inspection period and the verification mode. The mode
     is part of the key because the tiers are not extensionally equal: the
     pure witnessed tier is strictly sounder on dead code, and a witnessed
     verdict must never answer a descent request (or vice versa). *)
  let key ~mode ~policies ~ssa_q ~(serialized : bytes) =
    let ctx = Sha256.init () in
    Sha256.update_string ctx (mode_label mode);
    Sha256.update_string ctx "|";
    Sha256.update_string ctx (Policy.Set.label policies);
    Sha256.update_string ctx (Printf.sprintf "|q=%d|" ssa_q);
    Sha256.update ctx serialized;
    Bytes.to_string (Sha256.finalize ctx)

  (* Logical access stamp: the tick by default, the pinned epoch when a
     server has set one (see [set_epoch]). *)
  let stamp t =
    match t.epoch with
    | Some e -> e
    | None ->
      t.tick <- t.tick + 1;
      t.tick

  let set_epoch t e =
    Mutex.lock t.mutex;
    t.epoch <- Some e;
    Mutex.unlock t.mutex

  (* Evict least-recently-used settled entries while over [cap].
     In-flight entries are never evicted (a waiter may hold a reference);
     the table can thus briefly exceed capacity by the number of
     concurrent distinct verifications, but settles back under it. Ties
     on [last_used] (routine under a pinned epoch) break on the key, so
     the victim sequence is a function of the table's contents alone. *)
  let evict_down_to t cap =
    let evicted = ref 0 in
    while
      Hashtbl.length t.table > cap
      &&
      let victim = ref None in
      Hashtbl.iter
        (fun k e ->
          match e.state with
          | In_flight -> ()
          | Done _ -> (
            match !victim with
            | Some (bk, bu) when bu < e.last_used || (bu = e.last_used && bk <= k) -> ()
            | _ -> victim := Some (k, e.last_used)))
        t.table;
      match !victim with
      | None -> false
      | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.evictions <- t.evictions + 1;
        incr evicted;
        true
    do
      ()
    done;
    !evicted

  let evict_over_capacity t = ignore (evict_down_to t t.capacity)

  let trim t ~capacity =
    if capacity < 0 then invalid_arg "Verifier.Cache.trim: capacity must be >= 0";
    Mutex.lock t.mutex;
    let n = evict_down_to t capacity in
    Mutex.unlock t.mutex;
    n

  let lookup_or_verify t ?(tm = Telemetry.disabled) ~key:k ~(verify : unit -> verdict) () :
      verdict * [ `Hit | `Miss ] =
    Mutex.lock t.mutex;
    let rec attempt () =
      match Hashtbl.find_opt t.table k with
      | Some e -> (
        e.last_used <- stamp t;
        match e.state with
        | Done v ->
          t.hits <- t.hits + 1;
          Mutex.unlock t.mutex;
          Telemetry.count tm "verifier.cache.hit" 1;
          (v, `Hit)
        | In_flight ->
          (* wait for the claimant to settle, then re-look-up: the claim
             may have landed a verdict (hit on the next attempt) or died
             (key absent — this delivery claims afresh as a miss) *)
          Condition.wait t.cond t.mutex;
          attempt ())
      | None ->
        let e = { state = In_flight; last_used = stamp t } in
        Hashtbl.replace t.table k e;
        t.misses <- t.misses + 1;
        Mutex.unlock t.mutex;
        Telemetry.count tm "verifier.cache.miss" 1;
        (* verify outside the lock: distinct keys verify concurrently *)
        let v =
          match verify () with
          | v -> v
          | exception exn ->
            (* never leave waiters blocked on a dead claim: drop it and
               wake them — they re-attempt and verify afresh *)
            Mutex.lock t.mutex;
            Hashtbl.remove t.table k;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            raise exn
        in
        Mutex.lock t.mutex;
        e.state <- Done v;
        evict_over_capacity t;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        (v, `Miss)
    in
    attempt ()

  let verify_classified_outcome t ?tm ?(mode = Descent) ~policies ~ssa_q ~serialized obj :
      verdict * [ `Hit | `Miss ] =
    let k = key ~mode ~policies ~ssa_q ~serialized in
    lookup_or_verify t ?tm ~key:k
      ~verify:(fun () -> verify_mode ?tm ~mode ~policies ~ssa_q obj)
      ()

  let verify_classified t ?tm ?mode ~policies ~ssa_q ~serialized obj : verdict =
    fst (verify_classified_outcome t ?tm ?mode ~policies ~ssa_q ~serialized obj)

  (* Persistence surface: settled verdicts out, trusted verdicts back in.
     [export] never includes in-flight claims; [preload] never overwrites
     a live entry and never touches hit/miss accounting, so a reloaded
     cache's stats measure only post-restart traffic. *)
  let export t =
    Mutex.lock t.mutex;
    let xs =
      Hashtbl.fold
        (fun k e acc -> match e.state with Done v -> (k, v) :: acc | In_flight -> acc)
        t.table []
    in
    Mutex.unlock t.mutex;
    List.sort (fun (a, _) (b, _) -> String.compare a b) xs

  let preload t ~key:k (v : verdict) =
    Mutex.lock t.mutex;
    if not (Hashtbl.mem t.table k) then begin
      Hashtbl.replace t.table k { state = Done v; last_used = stamp t };
      evict_over_capacity t
    end;
    Mutex.unlock t.mutex
end
