(** Tests for the verdict-guided demand-driven inlining planner:
    budget exhaustion mid-round leaves a valid partial plan, an
    unresolvable blocker terminates the fixpoint with a refusal, a
    recursive callee is refused with a structured diagnostic (and the
    planner does not hang), and on the full PERFECT matrix the demand
    configuration parallelizes a superset of annotation-based inlining's
    loops while inlining strictly fewer sites than conventional
    inlining. *)

module Pipeline = Core.Pipeline
module Verdict = Parallelizer.Verdict

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let parse src = Frontend.Resolve.parse src

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* Marked loops of the original program, as a set of stable ids. *)
let marked_orig (r : Pipeline.result) =
  List.sort_uniq compare
    (List.filter
       (fun i -> List.mem i r.Pipeline.res_original_loops)
       r.Pipeline.res_marked)

let plan_warnings diags =
  List.filter
    (fun (d : Frontend.Diag.t) -> d.d_code = Frontend.Diag.Plan)
    diags

(* ---------------- budget exhausted mid-round ---------------- *)

(* Two call-blocked loops.  SMALL is one statement and fits a tight
   budget; BIG is made large enough that committing it would overshoot.
   SMALL blocks two loops so the deterministic most-blocking-first order
   probes it before BIG. *)
let budget_source =
  let big_body =
    String.concat ""
      (List.init 40 (fun i -> Printf.sprintf "      Y(I) = Y(I) + %d.0\n" i))
  in
  "      PROGRAM T\n" ^ "      DIMENSION A(100), B(100), C(100)\n"
  ^ "      DO K = 1, 50\n" ^ "        CALL SMALL(A, K)\n" ^ "      ENDDO\n"
  ^ "      DO L = 1, 50\n" ^ "        CALL SMALL(C, L)\n" ^ "      ENDDO\n"
  ^ "      DO J = 1, 50\n" ^ "        CALL BIG(B, J)\n" ^ "      ENDDO\n"
  ^ "      END\n" ^ "      SUBROUTINE SMALL(X, I)\n" ^ "      DIMENSION X(*)\n"
  ^ "      X(I) = I\n" ^ "      END\n" ^ "      SUBROUTINE BIG(Y, I)\n"
  ^ "      DIMENSION Y(*)\n" ^ big_body ^ "      END\n"

let test_budget_exhausted_mid_round () =
  let dg = Frontend.Diag.collector () in
  let res, plan = Planner.run ~growth_budget:1.2 ~dg (parse budget_source) in
  cb "budget exhausted" true plan.Planner.pl_budget_exhausted;
  (* the partial plan is still valid: SMALL committed before the budget
     ran out, BIG was refused over budget *)
  cb "SMALL committed" true
    (List.mem_assoc "SMALL" plan.Planner.pl_callees);
  cb "BIG not committed" false
    (List.mem_assoc "BIG" plan.Planner.pl_callees);
  cb "some sites inlined" true (plan.Planner.pl_sites > 0);
  let refusals =
    List.concat_map (fun r -> r.Planner.rn_refused) plan.Planner.pl_rounds
  in
  cb "BIG refused over budget" true
    (List.exists
       (fun (rf : Planner.refusal) ->
         String.equal rf.rf_callee "BIG"
         && contains rf.rf_why "growth budget")
       refusals);
  (* the committed part of the plan stayed inside the budget *)
  cb "growth within budget" true
    (plan.Planner.pl_growth <= plan.Planner.pl_budget +. 1e-9);
  (* SMALL's loops did parallelize; BIG's loop is still blocked on it *)
  cb "SMALL's loops resolved" true (List.length (marked_orig res) >= 2);
  cb "BIG's loop remains blocked" true
    (List.exists
       (fun (_, cs) -> List.mem "BIG" cs)
       plan.Planner.pl_remaining)

(* ---------------- unresolvable blocker ---------------- *)

let ghost_source =
  "      PROGRAM T\n" ^ "      DIMENSION A(10)\n" ^ "      DO K = 1, 10\n"
  ^ "        CALL GHOST(A, K)\n" ^ "      ENDDO\n" ^ "      END\n"

let test_unresolvable_blocker_terminates () =
  let dg = Frontend.Diag.collector () in
  let res, plan = Planner.run ~dg (parse ghost_source) in
  (* the fixpoint terminated in one round with a permanent refusal *)
  ci "one round" 1 (List.length plan.Planner.pl_rounds);
  ci "nothing inlined" 0 plan.Planner.pl_sites;
  cb "budget untouched" false plan.Planner.pl_budget_exhausted;
  cb "GHOST refused as undefined" true
    (List.exists
       (fun (rf : Planner.refusal) ->
         String.equal rf.rf_callee "GHOST"
         && contains rf.rf_why "no definition")
       (List.concat_map
          (fun r -> r.Planner.rn_refused)
          plan.Planner.pl_rounds));
  cb "loop still blocked at the end" true
    (List.exists
       (fun (_, cs) -> List.mem "GHOST" cs)
       plan.Planner.pl_remaining);
  ci "no loop parallelized" 0 (List.length (marked_orig res));
  cb "refusal surfaced as a Plan diagnostic" true
    (plan_warnings res.Pipeline.res_diags <> [])

(* ---------------- recursive callee ---------------- *)

let recursive_source =
  "      PROGRAM T\n" ^ "      DIMENSION A(10)\n" ^ "      DO K = 1, 10\n"
  ^ "        CALL DEEP(A, K)\n" ^ "      ENDDO\n" ^ "      END\n"
  ^ "      SUBROUTINE DEEP(B, J)\n" ^ "      DIMENSION B(*)\n"
  ^ "      B(J) = J\n" ^ "      CALL DEEP(B, J)\n" ^ "      END\n"

(* The test completing at all is the no-hang property: a planner that
   tried to expand DEEP would never terminate. *)
let test_recursive_callee_refused () =
  let dg = Frontend.Diag.collector () in
  let res, plan = Planner.run ~dg (parse recursive_source) in
  ci "nothing inlined" 0 plan.Planner.pl_sites;
  cb "DEEP refused as recursive" true
    (List.exists
       (fun (rf : Planner.refusal) ->
         String.equal rf.rf_callee "DEEP"
         && contains rf.rf_why "recursive")
       (List.concat_map
          (fun r -> r.Planner.rn_refused)
          plan.Planner.pl_rounds));
  cb "structured Plan diagnostic names DEEP" true
    (List.exists
       (fun (d : Frontend.Diag.t) ->
         contains d.d_message "DEEP")
       (plan_warnings res.Pipeline.res_diags));
  cb "loop stays blocked" true
    (List.exists
       (fun (_, cs) -> List.mem "DEEP" cs)
       plan.Planner.pl_remaining)

(* ---------------- full matrix: demand >= annotation ---------------- *)

(* Per benchmark, the demand plan must parallelize (at least) every
   original-program loop annotation-based inlining parallelizes; across
   the suite it must do so while inlining strictly fewer call sites than
   conventional inlining.  Fresh id-reset parses make the stable loop
   ids comparable across configurations, as the suite driver does. *)
let test_full_matrix_containment () =
  let conv_sites = ref 0 and demand_sites = ref 0 in
  List.iter
    (fun (b : Perfect.Bench_def.t) ->
      let annots = Perfect.Bench_def.annots b in
      let fresh () =
        Frontend.Ast.reset_ids ();
        Perfect.Bench_def.parse b
      in
      let annot_res =
        Pipeline.run ~annots ~mode:Pipeline.Annotation_based (fresh ())
      in
      let conv_res = Pipeline.run ~mode:Pipeline.Conventional (fresh ()) in
      let demand_res, plan =
        Planner.run ~annots ~dg:(Frontend.Diag.collector ()) (fresh ())
      in
      let am = marked_orig annot_res and dm = marked_orig demand_res in
      cb
        (b.name ^ ": demand superset of annotation")
        true
        (List.for_all (fun i -> List.mem i dm) am);
      (match conv_res.Pipeline.res_inline_stats with
      | Some st ->
          conv_sites := !conv_sites + List.length st.Inliner.Inline.inlined_calls
      | None -> ());
      demand_sites := !demand_sites + plan.Planner.pl_sites)
    Perfect.Suite.all;
  cb "conventional inlines something" true (!conv_sites > 0);
  cb "demand inlines strictly fewer sites than conventional" true
    (!demand_sites < !conv_sites)

(* ---------------- the per-plan unit table ---------------- *)

let check_same what (fresh : Pipeline.result) (shared : Pipeline.result) =
  Alcotest.(check string)
    (what ^ ": text and verdicts")
    (Helpers.fingerprint fresh) (Helpers.fingerprint shared);
  Alcotest.(check (list int)) (what ^ ": marked") fresh.Pipeline.res_marked
    shared.Pipeline.res_marked;
  ci (what ^ ": code size") fresh.Pipeline.res_code_size
    shared.Pipeline.res_code_size;
  Alcotest.(check (list string)) (what ^ ": diagnostics")
    (List.map Frontend.Diag.render fresh.Pipeline.res_diags)
    (List.map Frontend.Diag.render shared.Pipeline.res_diags)

(* A probe's program through the table that analyzed the pristine
   program must equal a fresh analysis of it, while the units inlining
   left alone are not analyzed again. *)
let test_unit_table_reuse () =
  let shared_tests = ref 0 and fresh_tests = ref 0 in
  List.iter
    (fun (b : Perfect.Bench_def.t) ->
      let annots = Perfect.Bench_def.annots b in
      Pipeline.reset_gensyms ();
      let pristine = Perfect.Bench_def.parse b in
      let inlined, _ = Core.Annot_inline.run ~robust:true ~annots pristine in
      let analyze ?units prof p =
        Pipeline.run_robust ~prof ?units ~annots ~mode:Pipeline.Demand p
      in
      let tests prof =
        (Frontend.Prof.snapshot prof).Frontend.Prof.dep_tests_run
      in
      let units = Pipeline.unit_table () in
      ignore (analyze ~units (Frontend.Prof.create ()) pristine);
      let p_shared = Frontend.Prof.create () in
      let shared = analyze ~units p_shared inlined in
      let p_fresh = Frontend.Prof.create () in
      let fresh = analyze p_fresh inlined in
      check_same b.name fresh shared;
      cb (b.name ^ ": no more dependence questions") true
        (tests p_shared <= tests p_fresh);
      shared_tests := !shared_tests + tests p_shared;
      fresh_tests := !fresh_tests + tests p_fresh)
    Perfect.Suite.all;
  cb "the shared runs ask fewer dependence questions" true
    (!shared_tests < !fresh_tests)

(* MAIN's forward substitution is what makes A(K) analyzable; a one-shot
   fault there salvages MAIN with the pass skipped.  The next analysis
   through the same table must redo MAIN, not reuse the salvage. *)
let salvage_source =
  "      PROGRAM T\n" ^ "      DIMENSION A(100), B(100)\n"
  ^ "      DO I = 1, 50\n" ^ "        K = I + 1\n" ^ "        A(K) = B(I)\n"
  ^ "      ENDDO\n" ^ "      CALL FILL(B)\n" ^ "      END\n"
  ^ "      SUBROUTINE FILL(X)\n" ^ "      DIMENSION X(100)\n"
  ^ "      DO J = 1, 100\n" ^ "        X(J) = J\n" ^ "      ENDDO\n"
  ^ "      END\n"

let test_salvaged_unit_not_reused () =
  Pipeline.reset_gensyms ();
  let program = parse salvage_source in
  let analyze ?units () =
    Pipeline.run_robust ?units ~mode:Pipeline.Demand program
  in
  let units = Pipeline.unit_table () in
  let plan =
    Frontend.Fault.plan_of_rules
      [
        {
          Frontend.Fault.r_site = "analysis.forward_subst";
          r_trigger = Nth 1;
          r_action = Raise;
        };
      ]
  in
  let salvaged, again =
    Frontend.Fault.with_plan plan (fun () ->
        let salvaged = analyze ~units () in
        (salvaged, analyze ~units ()))
  in
  ci "the fault fired once" 1 (Frontend.Fault.fired_count plan);
  cb "the first analysis salvaged a unit" true
    (salvaged.Pipeline.res_diags <> []);
  let clean = analyze () in
  cb "the salvage changed the output" true
    (Helpers.fingerprint salvaged <> Helpers.fingerprint clean);
  check_same "after the fault" clean again

let suite =
  [
    Alcotest.test_case "budget exhausted mid-round keeps partial plan" `Quick
      test_budget_exhausted_mid_round;
    Alcotest.test_case "unresolvable blocker terminates the fixpoint" `Quick
      test_unresolvable_blocker_terminates;
    Alcotest.test_case "recursive callee refused, no hang" `Quick
      test_recursive_callee_refused;
    Alcotest.test_case "full matrix: demand >= annotation, fewer sites" `Slow
      test_full_matrix_containment;
    Alcotest.test_case "probes reuse unchanged units byte-identically" `Slow
      test_unit_table_reuse;
    Alcotest.test_case "a salvaged unit is never reused" `Quick
      test_salvaged_unit_not_reused;
  ]
