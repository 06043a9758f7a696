(** Validation-oracle tests: hand-marked racy vs. clean loop pairs (true
    dependence, privatizable scalar, sum/min reductions, lastprivate via
    peeling), the serial/parallel differential checker, a seeded race
    through the unsound [trust_nonlinear] ablation switch, oracle Prof
    counters, and the atomic bench-JSON writer. *)

open Helpers

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)

(* Attach OpenMP clauses to every DO loop using the given index variable.
   The checker is exercised on hand-marked loops: racy directives the
   real parallelizer would (correctly) refuse to emit must still be
   flagged when they reach the runtime. *)
let mark ?(private_ = []) ?(reductions = []) index (p : Frontend.Ast.program)
    =
  let module A = Frontend.Ast in
  {
    A.p_units =
      List.map
        (fun u ->
          {
            u with
            A.u_body =
              A.map_stmts
                (fun s ->
                  match s.A.node with
                  | A.Do_loop l when String.equal l.A.index index ->
                      [
                        {
                          s with
                          A.node =
                            A.Do_loop
                              {
                                l with
                                A.parallel =
                                  Some
                                    {
                                      A.omp_private = private_;
                                      A.omp_reductions = reductions;
                                    };
                              };
                        };
                      ]
                  | _ -> [ s ])
                u.A.u_body;
          })
        p.A.p_units;
  }

let validate = Checker.Oracle.validate ~threads:3

let fill_b =
  "      DO 10 J = 1, 100\n      B(J) = J * 1.0\n 10   CONTINUE\n"

(* ---------------- true dependence ---------------- *)

let dep_src =
  "      PROGRAM T\n      COMMON /C/ A(101), B(100)\n" ^ fill_b
  ^ "      DO 20 I = 1, 100\n\
    \      A(I+1) = A(I) + 1.0\n\
    \ 20   CONTINUE\n\
    \      PRINT *, A(101)\n\
    \      END\n"

let test_true_dependence_flagged () =
  let v = validate (mark "I" (parse dep_src)) in
  cb "verdict not ok" false v.Checker.Oracle.v_ok;
  cb "unexcused race reported" true (v.Checker.Oracle.v_unexcused > 0);
  let witness =
    List.find_opt
      (fun (r : Checker.Race.race) ->
        (not r.Checker.Race.r_excused)
        && String.equal r.Checker.Race.r_var "A")
      v.Checker.Oracle.v_races
  in
  (match witness with
  | None -> Alcotest.fail "no witness on A"
  | Some r ->
      cb "witness iterations differ" true
        (r.Checker.Race.r_iter <> r.Checker.Race.r_iter'));
  cb "a race diagnostic was emitted" true
    (List.exists
       (fun (d : Frontend.Diag.t) -> d.Frontend.Diag.d_code = Frontend.Diag.Race)
       v.Checker.Oracle.v_diags)

let clean_src =
  "      PROGRAM T\n      COMMON /C/ A(100), B(100)\n" ^ fill_b
  ^ "      DO 20 I = 1, 100\n\
    \      A(I) = B(I) * 2.0\n\
    \ 20   CONTINUE\n\
    \      PRINT *, A(50)\n\
    \      END\n"

let test_clean_loop_passes () =
  let v = validate (mark "I" (parse clean_src)) in
  cb "verdict ok" true v.Checker.Oracle.v_ok;
  ci "no unexcused races" 0 v.Checker.Oracle.v_unexcused;
  cb "iterations traced" true (v.Checker.Oracle.v_iterations >= 100);
  cb "index conflicts excused, not hidden" true
    (v.Checker.Oracle.v_excused > 0)

(* ---------------- privatizable scalar ---------------- *)

let priv_src =
  "      PROGRAM T\n      COMMON /C/ A(100), B(100)\n" ^ fill_b
  ^ "      DO 20 I = 1, 100\n\
    \      T = B(I) * 2.0\n\
    \      A(I) = T * T\n\
    \ 20   CONTINUE\n\
    \      PRINT *, A(50)\n\
    \      END\n"

let test_privatizable_scalar () =
  (* without the clause the scalar is a shared-write race ... *)
  let bad = validate (mark "I" (parse priv_src)) in
  cb "missing PRIVATE flagged" true (bad.Checker.Oracle.v_unexcused > 0);
  cb "bad verdict not ok" false bad.Checker.Oracle.v_ok;
  (* ... and PRIVATE(T) excuses exactly that conflict *)
  let good = validate (mark ~private_:[ "T" ] "I" (parse priv_src)) in
  ci "no unexcused races with PRIVATE(T)" 0 good.Checker.Oracle.v_unexcused;
  cb "good verdict ok" true good.Checker.Oracle.v_ok;
  cb "scalar conflicts excused" true
    (good.Checker.Oracle.v_excused > bad.Checker.Oracle.v_excused)

(* ---------------- reductions ---------------- *)

let sum_src =
  "      PROGRAM T\n      COMMON /C/ B(100), S\n" ^ fill_b
  ^ "      S = 0.0\n\
    \      DO 20 I = 1, 100\n\
    \      S = S + B(I)\n\
    \ 20   CONTINUE\n\
    \      PRINT *, S\n\
    \      END\n"

let min_src =
  "      PROGRAM T\n      COMMON /C/ B(100), S\n" ^ fill_b
  ^ "      S = 1.0E30\n\
    \      DO 20 I = 1, 100\n\
    \      S = MIN(S, B(I))\n\
    \ 20   CONTINUE\n\
    \      PRINT *, S\n\
    \      END\n"

let test_sum_reduction () =
  let bad = validate (mark "I" (parse sum_src)) in
  cb "unclaused sum is a race" true (bad.Checker.Oracle.v_unexcused > 0);
  let good =
    validate
      (mark ~reductions:[ (Frontend.Ast.Rsum, "S") ] "I" (parse sum_src))
  in
  ci "REDUCTION(+:S) excuses it" 0 good.Checker.Oracle.v_unexcused;
  cb "sum verdict ok (reassociation tolerated)" true
    good.Checker.Oracle.v_ok

let test_min_reduction () =
  let bad = validate (mark "I" (parse min_src)) in
  cb "unclaused min is a race" true (bad.Checker.Oracle.v_unexcused > 0);
  let good =
    validate
      (mark ~reductions:[ (Frontend.Ast.Rmin, "S") ] "I" (parse min_src))
  in
  ci "REDUCTION(min:S) excuses it" 0 good.Checker.Oracle.v_unexcused;
  cb "min verdict ok" true good.Checker.Oracle.v_ok

(* ---------------- lastprivate via peeling ---------------- *)

let lastpriv_src =
  "      PROGRAM T\n      COMMON /C/ A(100), B(100), T\n" ^ fill_b
  ^ "      DO 20 I = 1, 100\n\
    \      T = B(I) * 2.0\n\
    \      A(I) = T\n\
    \ 20   CONTINUE\n\
    \      PRINT *, T\n\
    \      END\n"

let test_lastprivate_peeling_validates () =
  (* the real parallelizer privatizes the live-out scalar and peels the
     last iteration; the peeled iteration runs outside the directive
     loop, so the oracle must find the result clean *)
  let r =
    Core.Pipeline.run ~mode:Core.Pipeline.No_inlining (parse lastpriv_src)
  in
  cb "parallelizer marked the loop" true (r.Core.Pipeline.res_marked <> []);
  let v = validate r.Core.Pipeline.res_program in
  ci "no unexcused races" 0 v.Checker.Oracle.v_unexcused;
  cb "no divergence" false v.Checker.Oracle.v_diverged;
  cb "verdict ok" true v.Checker.Oracle.v_ok

let test_divergence_detected () =
  (* hand-marked PRIVATE(T) without peeling: every conflict is excused,
     but the live-out value of T differs between the serial replay (last
     iteration's value) and the parallel run (private copies discarded).
     Only the differential half of the oracle can catch this. *)
  let v = validate (mark ~private_:[ "T" ] "I" (parse lastpriv_src)) in
  ci "all conflicts excused" 0 v.Checker.Oracle.v_unexcused;
  cb "divergence detected" true v.Checker.Oracle.v_diverged;
  cb "verdict not ok" false v.Checker.Oracle.v_ok;
  cb "a verify diagnostic was emitted" true
    (List.exists
       (fun (d : Frontend.Diag.t) ->
         d.Frontend.Diag.d_code = Frontend.Diag.Verify)
       v.Checker.Oracle.v_diags)

(* ---------------- seeded race: trust_nonlinear ablation ---------------- *)

let seeded_src =
  "      PROGRAM T\n      COMMON /C/ A(5), B(100)\n" ^ fill_b
  ^ "      DO 20 I = 1, 100\n\
    \      A(MOD(I,5)+1) = A(MOD(I,5)+1) + B(I)\n\
    \ 20   CONTINUE\n\
    \      PRINT *, A(1)\n\
    \      END\n"

let test_seeded_race_detected () =
  (* the sound parallelizer refuses the nonlinear subscript ... *)
  let sound =
    Core.Pipeline.run ~mode:Core.Pipeline.No_inlining (parse seeded_src)
  in
  let marked_i (r : Core.Pipeline.result) =
    List.exists
      (fun (rep : Parallelizer.Parallelize.loop_report) ->
        rep.Parallelizer.Parallelize.rep_marked
        && String.equal rep.Parallelizer.Parallelize.rep_index "I")
      r.Core.Pipeline.res_reports
  in
  cb "sound pipeline leaves the loop serial" false (marked_i sound);
  (* ... the trust_nonlinear ablation marks it, and the oracle catches
     the real WW race it seeded, with a witness iteration pair *)
  let cfg =
    {
      Parallelizer.Parallelize.default_config with
      Parallelizer.Parallelize.trust_nonlinear = true;
    }
  in
  let unsound =
    Core.Pipeline.run ~par_config:cfg ~mode:Core.Pipeline.No_inlining
      (parse seeded_src)
  in
  cb "ablation marks the loop" true (marked_i unsound);
  let v = validate unsound.Core.Pipeline.res_program in
  cb "seeded race detected" true (v.Checker.Oracle.v_unexcused > 0);
  cb "verdict not ok" false v.Checker.Oracle.v_ok;
  let witness =
    List.find_opt
      (fun (r : Checker.Race.race) ->
        (not r.Checker.Race.r_excused)
        && String.equal r.Checker.Race.r_var "A")
      v.Checker.Oracle.v_races
  in
  match witness with
  | None -> Alcotest.fail "no witness pair on A"
  | Some r ->
      cb "witness iterations collide mod 5" true
        (r.Checker.Race.r_iter <> r.Checker.Race.r_iter'
        && (r.Checker.Race.r_iter - r.Checker.Race.r_iter') mod 5 = 0)

(* ---------------- pipeline + driver integration ---------------- *)

let test_pipeline_validate_field () =
  let off =
    Core.Pipeline.run_robust ~mode:Core.Pipeline.No_inlining
      (parse clean_src)
  in
  cb "no verdict without ~validate" true
    (off.Core.Pipeline.res_validation = None);
  let on =
    Core.Pipeline.run_robust ~validate:true ~mode:Core.Pipeline.No_inlining
      (parse clean_src)
  in
  match on.Core.Pipeline.res_validation with
  | None -> Alcotest.fail "verdict missing with ~validate:true"
  | Some v ->
      cb "clean program validates" true v.Checker.Oracle.v_ok;
      cb "oracle diagnostics joined res_diags" true
        (List.length on.Core.Pipeline.res_diags
        >= List.length v.Checker.Oracle.v_diags)

let test_matrix_validates () =
  (* the acceptance bar: zero unexcused races and zero divergences over
     the whole 12-benchmark x 4-configuration matrix *)
  let points = Perfect.Driver.run_suite ~jobs:2 ~validate:true () in
  ci "12 benchmarks x 4 configs" 48 (List.length points);
  List.iter
    (fun (p : Perfect.Driver.point) ->
      let label =
        Printf.sprintf "%s/%s" p.pt_bench
          (Core.Pipeline.mode_name p.pt_config)
      in
      match p.pt_validation with
      | None -> Alcotest.fail (label ^ ": verdict missing")
      | Some v ->
          ci (label ^ " unexcused races") 0 v.Checker.Oracle.v_unexcused;
          cb (label ^ " no divergence") false v.Checker.Oracle.v_diverged;
          cb (label ^ " validated") true v.Checker.Oracle.v_ok)
    points;
  ci "suite exit stays 0" 0 (Perfect.Driver.exit_status points)

let test_validation_failure_degrades_exit () =
  let points =
    Perfect.Driver.run_suite ~jobs:1 ~validate:true
      ~par_config:
        {
          Parallelizer.Parallelize.default_config with
          Parallelizer.Parallelize.trust_nonlinear = true;
        }
      ~benches:
        [
          {
            Perfect.Bench_def.name = "SEEDED";
            description = "seeded-race fixture (trust_nonlinear)";
            source = seeded_src;
            annotations = "";
          };
        ]
      ()
  in
  ci "four points" 4 (List.length points);
  cb "some verdict failed" true
    (List.exists
       (fun (p : Perfect.Driver.point) ->
         match p.pt_validation with
         | Some v -> not v.Checker.Oracle.v_ok
         | None -> false)
       points);
  ci "suite exit degrades to 1" 1 (Perfect.Driver.exit_status points)

(* ---------------- Prof counters ---------------- *)

let test_oracle_prof_counters () =
  let prof = Frontend.Prof.create () in
  let v =
    Frontend.Prof.with_profiling prof (fun () ->
        validate (mark "I" (parse priv_src)))
  in
  let c = Frontend.Prof.snapshot prof in
  cb "iterations counter matches verdict" true
    (c.Frontend.Prof.iterations_traced = v.Checker.Oracle.v_iterations
    && v.Checker.Oracle.v_iterations > 0);
  ci "conflict counter"
    (v.Checker.Oracle.v_unexcused + v.Checker.Oracle.v_excused)
    c.Frontend.Prof.race_conflicts;
  ci "excused counter" v.Checker.Oracle.v_excused c.Frontend.Prof.race_excused;
  (* nothing leaks without an installed profile *)
  let quiet = Frontend.Prof.create () in
  ignore (validate (mark "I" (parse priv_src)));
  ci "no ticks without profile" 0
    (Frontend.Prof.snapshot quiet).Frontend.Prof.race_conflicts

(* ---------------- zero-cost-when-off tracing ---------------- *)

let test_tracing_off_by_default () =
  cb "tracer disarmed outside with_tracing" false (Runtime.Trace.on ());
  let sink = Runtime.Trace.create () in
  Runtime.Trace.with_tracing sink (fun () ->
      cb "tracer armed inside" true (Runtime.Trace.on ()));
  cb "tracer disarmed after" false (Runtime.Trace.on ());
  ci "no conflicts from an idle sink" 0
    (List.length (Runtime.Trace.conflicts sink))

(* ---------------- atomic JSON write ---------------- *)

let test_atomic_json_write () =
  let dir = Filename.temp_file "parinline_json" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "bench.json" in
  let payload = "{\"schema_version\":\"2\"}\n" in
  Perfect.Driver.write_file_atomic path payload;
  let ic = open_in_bin path in
  let got =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "content intact" payload got;
  (* overwrite in place: the rename replaces the old artifact *)
  Perfect.Driver.write_file_atomic path "{}\n";
  let ic = open_in_bin path in
  let got2 =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "overwrite intact" "{}\n" got2;
  ci "no temp litter on the happy path" 1 (Array.length (Sys.readdir dir));
  Sys.remove path;
  Unix.rmdir dir

let suite =
  [
    ("true dependence flagged with witness pair", `Quick,
     test_true_dependence_flagged);
    ("clean loop passes", `Quick, test_clean_loop_passes);
    ("privatizable scalar: clause-gated", `Quick, test_privatizable_scalar);
    ("sum reduction: clause-gated", `Quick, test_sum_reduction);
    ("min reduction: clause-gated", `Quick, test_min_reduction);
    ("lastprivate via peeling validates", `Quick,
     test_lastprivate_peeling_validates);
    ("divergence caught by differential", `Quick, test_divergence_detected);
    ("seeded race (trust_nonlinear) detected", `Quick,
     test_seeded_race_detected);
    ("pipeline ?validate plumbs the verdict", `Quick,
     test_pipeline_validate_field);
    ("full matrix validates", `Slow, test_matrix_validates);
    ("validation failure degrades suite exit", `Quick,
     test_validation_failure_degrades_exit);
    ("oracle prof counters", `Quick, test_oracle_prof_counters);
    ("tracing off by default", `Quick, test_tracing_off_by_default);
    ("atomic bench JSON write", `Quick, test_atomic_json_write);
  ]
