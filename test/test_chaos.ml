(** Chaos-layer tests: fault-registry semantics, pipeline degradation
    under injected faults, pool self-healing, and the off-mode
    inertness/differential guarantees. *)

open Frontend

let () = Printexc.record_backtrace true

(* A plan from literal rules, no spec-string round trip. *)
let plan ?(seed = 0) rules = Fault.plan_of_rules ~seed rules
let nth site n = { Fault.r_site = site; r_trigger = Nth n; r_action = Raise }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let msrc =
  "      PROGRAM T\n\
  \      REAL A(10)\n\
  \      INTEGER I\n\
  \      DO I = 1, 10\n\
  \        A(I) = FLOAT(I)\n\
  \      ENDDO\n\
  \      DO I = 1, 10\n\
  \        A(I) = A(I) * 2.0\n\
  \      ENDDO\n\
  \      PRINT *, A(5)\n\
  \      END\n"

(* A program whose loop calls a subroutine: exercises the full ladder
   (annotation site -> conventional -> none). *)
let call_src =
  "      PROGRAM T\n\
  \      REAL A(10), B(10)\n\
  \      INTEGER I\n\
  \      DO I = 1, 10\n\
  \        A(I) = FLOAT(I)\n\
  \        B(I) = 1.0\n\
  \      ENDDO\n\
  \      DO I = 1, 10\n\
  \        CALL STEP(A, B, I)\n\
  \      ENDDO\n\
  \      PRINT *, A(5)\n\
  \      END\n\
  \      SUBROUTINE STEP(X, Y, I)\n\
  \      REAL X(10), Y(10)\n\
  \      INTEGER I\n\
  \      X(I) = X(I) + Y(I)\n\
  \      END\n"

let robust ?(mode = Core.Pipeline.Annotation_based) ?(annot = "") src =
  fst (Planner.compile_source ~mode ~annot_source:annot src)

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_inert_off () =
  Alcotest.(check bool) "off" false (Fault.on ());
  (* no plan installed: every query is a cheap no-op *)
  Fault.point "any.site";
  Alcotest.(check bool) "check off" false (Fault.check "any.site");
  Alcotest.(check (float 0.0)) "stall off" 0.0 (Fault.stall "any.site")

let test_nth_fires_once () =
  let pl = plan [ nth "a.b" 2 ] in
  Fault.with_plan pl (fun () ->
      Fault.point "a.b";
      (* arrival 1: no fire *)
      (match Fault.point "a.b" with
      | () -> Alcotest.fail "arrival 2 should have fired"
      | exception Fault.Injected ("a.b", 2) -> ()
      | exception e -> raise e);
      Fault.point "a.b" (* arrival 3: Nth already consumed *));
  Alcotest.(check int) "one firing" 1 (Fault.fired_count pl);
  (* other sites never match *)
  let pl2 = plan [ nth "a.b" 1 ] in
  Fault.with_plan pl2 (fun () -> Fault.point "other.site");
  Alcotest.(check int) "no firing" 0 (Fault.fired_count pl2)

let test_every_and_prefix () =
  let pl =
    plan [ { Fault.r_site = "x.*"; r_trigger = Every 2; r_action = Raise } ]
  in
  let fired = ref 0 in
  Fault.with_plan pl (fun () ->
      for _ = 1 to 6 do
        match Fault.point "x.y" with
        | () -> ()
        | exception Fault.Injected _ -> incr fired
      done);
  Alcotest.(check int) "every 2nd of 6" 3 !fired;
  (* prefix pattern must not match an unrelated site *)
  Fault.with_plan (plan [ nth "x.*" 1 ]) (fun () -> Fault.point "y.z")

let test_prob_deterministic () =
  let count seed =
    let pl =
      plan ~seed
        [ { Fault.r_site = "*"; r_trigger = Prob 0.5; r_action = Raise } ]
    in
    let n = ref 0 in
    Fault.with_plan pl (fun () ->
        for _ = 1 to 200 do
          match Fault.point "p.q" with
          | () -> ()
          | exception Fault.Injected _ -> incr n
        done);
    !n
  in
  let a = count 7 and b = count 7 in
  Alcotest.(check int) "same seed, same schedule" a b;
  Alcotest.(check bool) "prob 0.5 fires sometimes" true (a > 20 && a < 180);
  Alcotest.(check bool) "different seed differs" true (count 7 <> count 8)

let test_parse_spec () =
  (match Fault.parse_spec "42" with
  | Ok pl ->
      Alcotest.(check int) "seed" 42 (Fault.seed pl);
      Alcotest.(check string) "spec kept" "42" (Fault.spec pl)
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "1:dependence.ddtest=3,inliner.*=*2,*=0.5%" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "9:runtime.pool.stall=1~50" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.parse_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad
      | Error _ -> ())
    [ ""; "x"; "1:nosuchsep"; "1:a="; "1:a=b"; "1:a=-1"; "1:a=200%" ]

let test_stall_only_at_stall_sites () =
  let pl =
    plan
      [ { Fault.r_site = "*"; r_trigger = Every 1; r_action = Stall 0.05 } ]
  in
  Fault.with_plan pl (fun () ->
      (* a stall rule must not fire at a raise-only point *)
      Fault.point "some.point";
      Alcotest.(check bool) "check ignores stall rules" false
        (Fault.check "some.point");
      Alcotest.(check (float 1e-9)) "stall site sees it" 0.05
        (Fault.stall "runtime.pool.stall"))

let test_prof_counter () =
  let p = Prof.create () in
  Prof.with_profiling p (fun () ->
      Fault.with_plan (plan [ nth "c.d" 1 ]) (fun () ->
          match Fault.point "c.d" with
          | () -> Alcotest.fail "should fire"
          | exception Fault.Injected _ -> ()));
  Alcotest.(check int) "counter ticked" 1 (Prof.snapshot p).Prof.faults_injected

(* ------------------------------------------------------------------ *)
(* Pipeline degradation ladder                                          *)
(* ------------------------------------------------------------------ *)

let degraded_sites diags =
  List.filter
    (fun (d : Diag.t) -> contains d.Diag.d_message "injected fault")
    diags

let test_ladder_annot_site () =
  (* the per-site barrier eats the fault; inlining falls back for that
     site and the run still completes (MDG has real annotations) *)
  let r =
    Fault.with_plan (plan [ nth "inliner.annot.site" 1 ]) (fun () ->
        robust ~annot:Perfect.Mdg.annotations Perfect.Mdg.source)
  in
  Alcotest.(check bool) "salvage diag names the site" true
    (degraded_sites r.res_diags <> []);
  Alcotest.(check bool) "program produced" true (r.res_program.Frontend.Ast.p_units <> [])

let test_ladder_annot_pass () =
  let r =
    Fault.with_plan (plan [ nth "inliner.annot" 1 ]) (fun () ->
        robust ~annot:Perfect.Mdg.annotations Perfect.Mdg.source)
  in
  Alcotest.(check bool) "salvaged" true (degraded_sites r.res_diags <> []);
  Alcotest.(check bool) "program produced" true (r.res_program.Frontend.Ast.p_units <> [])

let test_ladder_conventional () =
  let r =
    Fault.with_plan (plan [ nth "inliner.inline" 1 ]) (fun () ->
        robust ~mode:Core.Pipeline.Conventional call_src)
  in
  Alcotest.(check bool) "salvaged" true (degraded_sites r.res_diags <> []);
  Alcotest.(check bool) "program produced" true (r.res_program.Frontend.Ast.p_units <> [])

let test_ladder_parallelizer () =
  let r =
    Fault.with_plan (plan [ nth "parallelizer.unit" 1 ]) (fun () ->
        robust ~mode:Core.Pipeline.No_inlining msrc)
  in
  Alcotest.(check bool) "salvaged" true (degraded_sites r.res_diags <> []);
  (* the faulted unit is left serial *)
  Alcotest.(check (list int)) "no directives" [] r.res_marked

let test_salvage_carries_backtrace () =
  let r =
    Fault.with_plan (plan [ nth "parallelizer.unit" 1 ]) (fun () ->
        robust ~mode:Core.Pipeline.No_inlining msrc)
  in
  match degraded_sites r.res_diags with
  | [] -> Alcotest.fail "expected a salvage diagnostic"
  | d :: _ ->
      Alcotest.(check bool) "backtrace recorded" true
        (match d.Diag.d_backtrace with Some s -> String.length s > 0 | None -> false)

let test_parser_fault_is_structured () =
  (* frontend faults take the Diag channel: the robust parser drops the
     statement/unit and the pipeline still returns *)
  let r =
    Fault.with_plan (plan [ nth "frontend.parser.stmt" 1 ]) (fun () ->
        robust ~mode:Core.Pipeline.No_inlining msrc)
  in
  Alcotest.(check bool) "parse diag present" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.d_code = Diag.Parse)
       r.res_diags)

(* ------------------------------------------------------------------ *)
(* Pool self-healing                                                    *)
(* ------------------------------------------------------------------ *)

let test_shutdown_idempotent () =
  let p = Runtime.Pool.create 2 in
  Runtime.Pool.shutdown p;
  Runtime.Pool.shutdown p

let test_parallel_for_after_shutdown () =
  let p = Runtime.Pool.create 2 in
  Runtime.Pool.shutdown p;
  match Runtime.Pool.parallel_for p ~chunks:2 (fun _ -> ()) with
  | () -> Alcotest.fail "expected Diag.Fatal on a shut-down pool"
  | exception Diag.Fatal d ->
      Alcotest.(check bool) "exec code" true (d.Diag.d_code = Diag.Exec)

let test_retry_transient () =
  let p = Runtime.Pool.create 1 in
  let attempts = Array.make 4 0 in
  Runtime.Pool.parallel_for p ~retries:2 ~chunks:4 (fun c ->
      attempts.(c) <- attempts.(c) + 1;
      if c = 2 && attempts.(c) = 1 then
        raise (Fault.Injected ("test.chunk", 1)));
  Alcotest.(check int) "chunk re-ran" 2 attempts.(2);
  Alcotest.(check int) "retry counted" 1 (Runtime.Pool.stats p).retries;
  Runtime.Pool.shutdown p

let test_nontransient_reported () =
  let p = Runtime.Pool.create 2 in
  let events = ref [] in
  Runtime.Pool.parallel_for p ~retries:3
    ~report:(fun evs -> events := evs)
    ~chunks:3
    (fun c -> if c = 1 then failwith "boom");
  let failed =
    List.filter_map
      (function
        | Runtime.Pool.Chunk_failed { chunk; backtrace; _ } ->
            Some (chunk, backtrace)
        | _ -> None)
      !events
  in
  (match failed with
  | [ (1, _) ] -> ()
  | _ -> Alcotest.fail "expected exactly chunk 1 to fail");
  Alcotest.(check int) "no retries for non-transients" 0
    (Runtime.Pool.stats p).retries;
  Runtime.Pool.shutdown p

let test_worker_death_respawn () =
  let p = Runtime.Pool.create 3 in
  let pl = plan [ nth "runtime.pool.worker" 1 ] in
  Fault.with_plan pl (fun () ->
      let seen = Array.make 8 false in
      (* slow chunks so the worker domains actually wake up and take the
         job (the first to arrive dies at the injected point) *)
      Runtime.Pool.parallel_for p ~chunks:8 (fun c ->
          Unix.sleepf 0.01;
          seen.(c) <- true);
      Alcotest.(check bool) "all chunks ran" true
        (Array.for_all Fun.id seen));
  (* the killed worker is respawned (lazily, at the next dispatch) *)
  let seen2 = Array.make 8 false in
  Runtime.Pool.parallel_for p ~chunks:8 (fun c -> seen2.(c) <- true);
  Alcotest.(check bool) "pool still works" true (Array.for_all Fun.id seen2);
  let st = Runtime.Pool.stats p in
  Alcotest.(check bool) "death recorded" true (st.deaths >= 1);
  Alcotest.(check bool) "respawn recorded" true (st.respawns >= st.deaths);
  Runtime.Pool.shutdown p

let test_deadline_watchdog () =
  let p = Runtime.Pool.create 2 in
  let pl =
    plan
      [
        {
          Fault.r_site = "runtime.pool.stall";
          r_trigger = Nth 1;
          r_action = Stall 0.4;
        };
      ]
  in
  let events = ref [] in
  Fault.with_plan pl (fun () ->
      Runtime.Pool.parallel_for p ~deadline_s:0.05
        ~report:(fun evs -> events := evs)
        ~chunks:2
        (fun _ -> ()));
  Alcotest.(check bool) "deadline missed" true
    (List.exists
       (function Runtime.Pool.Deadline_missed _ -> true | _ -> false)
       !events);
  Alcotest.(check bool) "miss counted" true
    ((Runtime.Pool.stats p).deadline_misses >= 1);
  Runtime.Pool.shutdown p

let test_deadline_raises_timeout_without_report () =
  let p = Runtime.Pool.create 2 in
  let pl =
    plan
      [
        {
          Fault.r_site = "runtime.pool.stall";
          r_trigger = Nth 1;
          r_action = Stall 0.4;
        };
      ]
  in
  (match
     Fault.with_plan pl (fun () ->
         Runtime.Pool.parallel_for p ~deadline_s:0.05 ~chunks:2 (fun _ -> ()))
   with
  | () -> Alcotest.fail "expected a timeout"
  | exception Diag.Fatal d ->
      Alcotest.(check bool) "timeout code" true (d.Diag.d_code = Diag.Timeout));
  Runtime.Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Suite driver under chaos                                             *)
(* ------------------------------------------------------------------ *)

let small_benches = [ Perfect.Mdg.bench; Perfect.Trfd.bench ]

let test_driver_degrades_one_point () =
  (* a lexer fault during one task's parse kills that point only *)
  let pl = plan [ nth "frontend.lexer.line" 30 ] in
  let points =
    Fault.with_plan pl (fun () ->
        Perfect.Driver.run_suite ~benches:small_benches ())
  in
  Alcotest.(check int) "full matrix" 8 (List.length points);
  let crashed =
    List.filter (fun (p : Perfect.Driver.point) -> p.pt_crashed) points
  in
  Alcotest.(check int) "exactly one point lost" 1 (List.length crashed);
  let p = List.hd crashed in
  Alcotest.(check bool) "diag names the site and owning unit" true
    (List.exists
       (fun (d : Diag.t) ->
         contains d.Diag.d_message "frontend.lexer.line"
         && d.Diag.d_unit = Some p.pt_bench)
       p.pt_diags);
  Alcotest.(check bool) "exit contract" true
    (Perfect.Driver.exit_status points <= 1)

let test_driver_pool_retry_heals_chunk () =
  (* an injected chunk fault is transient by default: with retries the
     point completes clean aside from the retry counter *)
  let pl = plan [ nth "runtime.pool.chunk" 2 ] in
  let points =
    Fault.with_plan pl (fun () ->
        Perfect.Driver.run_suite ~jobs:2 ~retries:2 ~benches:small_benches ())
  in
  Alcotest.(check int) "full matrix" 8 (List.length points);
  Alcotest.(check bool) "no point crashed" true
    (List.for_all (fun (p : Perfect.Driver.point) -> not p.pt_crashed) points);
  Alcotest.(check int) "one retry recorded" 1
    (List.fold_left
       (fun a (p : Perfect.Driver.point) -> a + p.pt_retries)
       0 points)

(* ------------------------------------------------------------------ *)
(* Off-mode differential                                                *)
(* ------------------------------------------------------------------ *)

let fingerprint (points : Perfect.Driver.point list) =
  List.map
    (fun (p : Perfect.Driver.point) ->
      ( p.pt_bench,
        Core.Pipeline.mode_name p.pt_config,
        (p.pt_par, p.pt_loss, p.pt_extra, p.pt_size),
        p.pt_counters.Prof.dep_tests_run,
        p.pt_counters.Prof.faults_injected,
        List.length p.pt_verdicts ))
    points

let test_armed_empty_equals_off () =
  (* arming the registry with a schedule that never fires must not
     perturb any observable result *)
  let off = Perfect.Driver.run_suite ~benches:small_benches () in
  let never = plan [ nth "dependence.ddtest" 999_999_999 ] in
  let armed =
    Fault.with_plan never (fun () ->
        Perfect.Driver.run_suite ~benches:small_benches ())
  in
  Alcotest.(check bool) "identical fingerprints" true
    (fingerprint off = fingerprint armed);
  Alcotest.(check bool) "armed-but-inert fired nothing" true
    (Fault.fired_count never = 0);
  (* and the explain-diff attribution is byte-identical *)
  let js pts =
    Frontend.Json.to_string (Perfect.Explain.to_json (Perfect.Driver.explain pts))
  in
  Alcotest.(check string) "explain-diff identical" (js off) (js armed)

let suite =
  [
    Alcotest.test_case "off: registry is inert" `Quick test_inert_off;
    Alcotest.test_case "nth trigger fires exactly once" `Quick
      test_nth_fires_once;
    Alcotest.test_case "every trigger + prefix match" `Quick
      test_every_and_prefix;
    Alcotest.test_case "probability schedule is seed-deterministic" `Quick
      test_prob_deterministic;
    Alcotest.test_case "spec grammar parses and rejects" `Quick
      test_parse_spec;
    Alcotest.test_case "stall rules only bind stall-capable sites" `Quick
      test_stall_only_at_stall_sites;
    Alcotest.test_case "faults_injected counter ticks" `Quick
      test_prof_counter;
    Alcotest.test_case "ladder: annotation site falls back" `Quick
      test_ladder_annot_site;
    Alcotest.test_case "ladder: annotation pass falls back" `Quick
      test_ladder_annot_pass;
    Alcotest.test_case "ladder: conventional inliner falls back" `Quick
      test_ladder_conventional;
    Alcotest.test_case "ladder: parallelizer leaves unit serial" `Quick
      test_ladder_parallelizer;
    Alcotest.test_case "salvage diagnostics carry backtraces" `Quick
      test_salvage_carries_backtrace;
    Alcotest.test_case "parser faults stay on the Diag channel" `Quick
      test_parser_fault_is_structured;
    Alcotest.test_case "pool: shutdown is idempotent" `Quick
      test_shutdown_idempotent;
    Alcotest.test_case "pool: parallel_for after shutdown is structured"
      `Quick test_parallel_for_after_shutdown;
    Alcotest.test_case "pool: transient failures retry" `Quick
      test_retry_transient;
    Alcotest.test_case "pool: non-transients reported with backtrace" `Quick
      test_nontransient_reported;
    Alcotest.test_case "pool: killed worker is respawned" `Quick
      test_worker_death_respawn;
    Alcotest.test_case "pool: watchdog reports missed deadline" `Quick
      test_deadline_watchdog;
    Alcotest.test_case "pool: deadline raises structured timeout" `Quick
      test_deadline_raises_timeout_without_report;
    Alcotest.test_case "driver: fault degrades one point" `Quick
      test_driver_degrades_one_point;
    Alcotest.test_case "driver: pool retry heals a chunk" `Quick
      test_driver_pool_retry_heals_chunk;
    Alcotest.test_case "armed-but-empty schedule is a no-op" `Quick
      test_armed_empty_equals_off;
  ]
