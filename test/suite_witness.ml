(* The witnessed verification tier (proof-carrying admission).

   Three layers of evidence, all fixed-seed:
   - differential sweep: on compiler output (honest witness) the
     witnessed tier reproduces the descent verdict exactly — report,
     classification, and on rejection the (pass, offset, reason) triple;
   - adversarial taxonomy: one fixture per witness-mutation class, each
     a distinct way of lying to the checker, each rejected;
   - replay/shrink forms: witness-mutant cases round-trip through their
     JSON form with identical verdicts, and the shrinker keeps their
     shape. *)

module Verifier = Deflection_verifier.Verifier
module Frontend = Deflection_compiler.Frontend
module Objfile = Deflection_isa.Objfile
module Policy = Deflection_policy.Policy
module Gen = Deflection_fuzz.Gen
module Fuzz = Deflection_fuzz.Fuzz
module Mutate = Deflection_fuzz.Mutate
module Json = Deflection_telemetry.Json

let compile ?(policies = Policy.Set.p1_p6) src =
  Frontend.compile_exn ~policies ~ssa_q:20 src

(* rich base: guarded stores, an indirect call, a loop, two functions —
   every annotation template class is present in the witness *)
let rich_src = {|
int g[8];
fnptr t[2];
int helper(int x) { g[x & 7] = x; return x + 1; }
int main() {
  t[0] = &helper;
  fnptr h = t[0];
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) { acc = h(acc); }
  return acc;
}
|}

let rejection_str r = Format.asprintf "%a" Verifier.pp_rejection r

let both_tiers ?(policies = Policy.Set.p1_p6) obj =
  ( Verifier.verify_classified ~policies ~ssa_q:obj.Objfile.ssa_q obj,
    Verifier.verify_witnessed ~policies ~ssa_q:obj.Objfile.ssa_q obj )

(* [dead_leaders] counts the witness leaders only dead code branches to:
   the linear witness lists them, the descent never scans the branch. *)
let check_identical_verdicts label ?policies ?(dead_leaders = 0) obj =
  match both_tiers ?policies obj with
  | Ok (rd, cd), Ok (rw, cw) ->
    Alcotest.(check bool) (label ^ ": same report") true (rd = rw);
    Alcotest.(check bool) (label ^ ": same classification") true
      (Seq.for_all
         (fun o ->
           Verifier.is_machinery cd o = Verifier.is_machinery cw o
           && Verifier.is_guarded_store cd o = Verifier.is_guarded_store cw o)
         (Seq.init (Bytes.length obj.Objfile.text) Fun.id));
    Alcotest.(check bool) (label ^ ": same leaders") true
      (Verifier.classification_leaders cd = Verifier.classification_leaders cw);
    (* one leader definition: the descent's are the compiled witness's *)
    let leaders = Verifier.classification_leaders cd
    and w_leaders = (Option.get obj.Objfile.witness).Objfile.w_leaders in
    Alcotest.(check bool) (label ^ ": leaders are witness leaders") true
      (List.for_all (fun o -> List.mem o w_leaders) leaders);
    Alcotest.(check int) (label ^ ": witness leaders only dead code reaches") dead_leaders
      (List.length w_leaders - List.length leaders)
  | Error a, Error b ->
    Alcotest.(check string) (label ^ ": same rejection triple") (rejection_str a)
      (rejection_str b)
  | Ok _, Error r ->
    Alcotest.failf "%s: witnessed rejected what descent accepts: %s" label (rejection_str r)
  | Error r, Ok _ ->
    Alcotest.failf "%s: witnessed accepted what descent rejects: %s" label (rejection_str r)

(* ------------------------------------------------------------------ *)
(* The witness itself *)

let test_compiler_attaches_witness () =
  let obj = compile rich_src in
  match obj.Objfile.witness with
  | None -> Alcotest.fail "compiler output carries no witness"
  | Some w ->
    Alcotest.(check bool) "boundaries cover text" true
      (Array.length w.Objfile.w_boundaries > 0);
    let last_off, last_len =
      w.Objfile.w_boundaries.(Array.length w.Objfile.w_boundaries - 1)
    in
    Alcotest.(check int) "tiling ends at text end" (Bytes.length obj.Objfile.text)
      (last_off + last_len);
    Alcotest.(check bool) "sites claimed" true (List.length w.Objfile.w_sites > 0);
    Alcotest.(check bool) "leaders claimed" true (List.length w.Objfile.w_leaders > 0);
    List.iter
      (fun k ->
        Alcotest.(check bool)
          (Printf.sprintf "site kind %s present" (Objfile.site_kind_label k))
          true
          (List.exists (fun s -> s.Objfile.w_kind = k) w.Objfile.w_sites))
      [ Objfile.Wstore; Objfile.Wcfi; Objfile.Wprologue; Objfile.Wepilogue; Objfile.Wssa ]

let test_witness_survives_serialization () =
  let obj = compile rich_src in
  match Objfile.deserialize (Objfile.serialize obj) with
  | Error e -> Alcotest.fail e
  | Ok obj' -> check_identical_verdicts "reparsed binary" obj'

let test_witnessless_binary_refused () =
  let obj = { (compile rich_src) with Objfile.witness = None } in
  match Verifier.verify_witnessed ~policies:Policy.Set.p1_p6 ~ssa_q:20 obj with
  | Error { Verifier.pass = Verifier.Witness; _ } -> ()
  | Error r -> Alcotest.failf "wrong pass: %s" (rejection_str r)
  | Ok _ -> Alcotest.fail "witness-less binary admitted by the witnessed tier"

(* ------------------------------------------------------------------ *)
(* Differential sweep: acceptance *)

let test_differential_seeded_programs () =
  for s = 1 to 20 do
    let g = Gen.generate ~seed:(Int64.of_int s) in
    let obj = compile g.Gen.source in
    (* seeds 8 and 13 each have a loop whose body always breaks: its back
       edge is dead, so only the witness lists the loop head *)
    let dead_leaders = if s = 8 || s = 13 then 1 else 0 in
    check_identical_verdicts (Printf.sprintf "seed %d" s) ~dead_leaders obj
  done

let test_differential_all_policy_sets () =
  List.iter
    (fun (label, policies) ->
      let obj = compile ~policies rich_src in
      check_identical_verdicts label ~policies obj)
    [
      ("none", Policy.Set.none);
      ("P1", Policy.Set.p1);
      ("P1+P2", Policy.Set.p1_p2);
      ("P1-P5", Policy.Set.p1_p5);
      ("P1-P6", Policy.Set.p1_p6);
    ]

(* ------------------------------------------------------------------ *)
(* Differential sweep: rejection triples. A binary compiled for a weaker
   policy set carries an honest witness for the code it has; verified
   against a stronger set, both tiers must reject at the same (pass,
   offset, reason). *)

let test_differential_rejection_triples () =
  List.iter
    (fun (label, compile_policies, verify_policies) ->
      let obj = compile ~policies:compile_policies rich_src in
      match
        ( Verifier.verify_classified ~policies:verify_policies ~ssa_q:20 obj,
          Verifier.verify_witnessed ~policies:verify_policies ~ssa_q:20 obj )
      with
      | Error a, Error b ->
        Alcotest.(check string) (label ^ ": identical triple") (rejection_str a)
          (rejection_str b)
      | Ok _, Ok _ -> Alcotest.failf "%s: expected a rejection" label
      | Ok _, Error r | Error r, Ok _ ->
        Alcotest.failf "%s: tiers disagree on admissibility: %s" label (rejection_str r))
    [
      ("bare store under P1", Policy.Set.none, Policy.Set.p1);
      ("bare ret under P1-P5", Policy.Set.p1_p2, Policy.Set.p1_p5);
      ("no ssa under P1-P6", Policy.Set.p1_p5, Policy.Set.p1_p6);
    ]

(* ------------------------------------------------------------------ *)
(* Adversarial taxonomy: every class of witness lie is rejected. The
   honest base is compiler output; each fixture doctors exactly one
   aspect of the proof. *)

let expect_witness_reject label obj =
  match Verifier.verify_witnessed ~policies:Policy.Set.p1_p6 ~ssa_q:obj.Objfile.ssa_q obj with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: lying witness admitted" label

let taxonomy =
  [
    ("flipped digest", [ Mutate.Wflip_digest ]);
    ("shifted boundary length", [ Mutate.Wshift_boundary { idx = 0 } ]);
    ("dropped boundary", [ Mutate.Wdrop_boundary { idx = 5 } ]);
    ("omitted annotation site", [ Mutate.Womit_site { idx = 0 } ]);
    ("shifted group extent", [ Mutate.Wshift_extent { idx = 0 } ]);
    ("relabeled site kind", [ Mutate.Wrelabel_site { idx = 0 } ]);
    ("lying branch target", [ Mutate.Wlie_branch { idx = 0; delta = 3 } ]);
    ("mid-instruction leader", [ Mutate.Wmid_leader { idx = 0 } ]);
    ("stale witness over patched text", [ Mutate.Wstale_text { pos = 40; bit = 0 } ]);
  ]

let test_taxonomy_each_class_rejected () =
  let base = compile rich_src in
  List.iter
    (fun (label, wmutations) ->
      let obj = Mutate.apply_witness base wmutations in
      (* the mutation must not have degenerated to a no-op on this base *)
      Alcotest.(check bool) (label ^ ": mutation changed the binary") true
        (obj <> base);
      expect_witness_reject label obj)
    taxonomy

let test_taxonomy_every_omittable_site_kind () =
  (* omission of each catchable site kind individually: drop the first
     claim of that kind and the scan must find the bare machinery *)
  let base = compile rich_src in
  let w = Option.get base.Objfile.witness in
  List.iter
    (fun kind ->
      let sites =
        List.filter (fun s -> s.Objfile.w_kind <> kind) w.Objfile.w_sites
      in
      if List.length sites < List.length w.Objfile.w_sites then
        expect_witness_reject
          (Printf.sprintf "all %s claims omitted" (Objfile.site_kind_label kind))
          { base with Objfile.witness = Some { w with Objfile.w_sites = sites } })
    [ Objfile.Wstore; Objfile.Wcfi; Objfile.Wprologue; Objfile.Wepilogue ]

(* ------------------------------------------------------------------ *)
(* Replay and shrink forms *)

let test_witness_mutant_case_replays () =
  let case =
    Fuzz.Witness_mutant
      {
        prog_seed = 5L;
        wmutations = [ Mutate.Wrelabel_site { idx = 2 }; Mutate.Wlie_branch { idx = 1; delta = -2 } ];
      }
  in
  let v1 = Fuzz.run_case case in
  (* through the serialized form, as a replay file would travel *)
  (match Json.parse (Json.to_string (Fuzz.case_to_json case)) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j -> (
    match Fuzz.case_of_json j with
    | Error e -> Alcotest.failf "case_of_json: %s" e
    | Ok case' ->
      Alcotest.(check bool) "case round-trips" true (case = case');
      let v2 = Fuzz.run_case case' in
      Alcotest.(check bool) "identical verdict on replay" true (v1 = v2)));
  match v1 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "witness-mutant oracle failed: %s" f.Fuzz.detail

let test_witness_mutant_shrink_keeps_shape () =
  let f =
    {
      Fuzz.case =
        Fuzz.Witness_mutant
          {
            prog_seed = 1L;
            wmutations =
              [ Mutate.Wflip_digest; Mutate.Wshift_boundary { idx = 3 }; Mutate.Wmid_leader { idx = 0 } ];
          };
      kind = Fuzz.Soundness;
      detail = "fabricated";
    }
  in
  let s = Fuzz.shrink f in
  match s.Fuzz.case with
  | Fuzz.Witness_mutant { wmutations; _ } ->
    Alcotest.(check bool) "mutation list not grown" true (List.length wmutations <= 3)
  | _ -> Alcotest.fail "witness-mutant case changed shape"

(* ------------------------------------------------------------------ *)
(* Campaign: a focused 60-case witness-mutation run must be all-reject-
   or-descent-equal (the 500-case sweep runs in CI / evidence) *)

let test_witness_campaign_clean () =
  let r = Fuzz.campaign ~base_seed:23L ~programs:4 ~mutants:0 ~witness_mutants:60 () in
  List.iter
    (fun (orig, shrunk) ->
      Alcotest.failf "witness campaign failure: %s: %s (shrunk: %s)"
        (Fuzz.failure_kind_label orig.Fuzz.kind) orig.Fuzz.detail
        (Json.to_string (Fuzz.case_to_json shrunk.Fuzz.case)))
    r.Fuzz.failures;
  Alcotest.(check int) "witness mutants counted" 60 r.Fuzz.witness_mutants;
  Alcotest.(check int) "partition" 60 (r.Fuzz.wmutants_rejected + r.Fuzz.wmutants_clean);
  Alcotest.(check bool) "most lies rejected" true (r.Fuzz.wmutants_rejected >= 30);
  Alcotest.(check bool) "witness selftest caught" true r.Fuzz.selftest_witness_caught

let suite =
  [
    Alcotest.test_case "compiler attaches witness" `Quick test_compiler_attaches_witness;
    Alcotest.test_case "witness survives serialization" `Quick test_witness_survives_serialization;
    Alcotest.test_case "witness-less binary refused" `Quick test_witnessless_binary_refused;
    Alcotest.test_case "differential: seeded programs" `Quick test_differential_seeded_programs;
    Alcotest.test_case "differential: all policy sets" `Quick test_differential_all_policy_sets;
    Alcotest.test_case "differential: rejection triples" `Quick test_differential_rejection_triples;
    Alcotest.test_case "taxonomy: each lie class rejected" `Quick test_taxonomy_each_class_rejected;
    Alcotest.test_case "taxonomy: omission per site kind" `Quick test_taxonomy_every_omittable_site_kind;
    Alcotest.test_case "witness-mutant case replays" `Quick test_witness_mutant_case_replays;
    Alcotest.test_case "witness-mutant shrink keeps shape" `Quick test_witness_mutant_shrink_keeps_shape;
    Alcotest.test_case "witness campaign clean" `Quick test_witness_campaign_clean;
  ]
