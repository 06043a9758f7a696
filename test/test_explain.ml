(** Tests for the decision-provenance layer: structured verdicts and
    their JSON round-trip, loop-id stability under gensym resets,
    multi-blocker collection, the explain-diff attribution over the full
    12x3 suite matrix, Chrome-trace balance, the version-2 bench-schema
    compatibility reader, and unit-qualified diagnostic rendering. *)

open Frontend
module Verdict = Parallelizer.Verdict

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

(* ---------------- JSON round-trip ---------------- *)

let all_blockers : Verdict.blocker list =
  [
    Verdict.Io_stmt;
    Verdict.Unknown_call "RADB";
    Verdict.Unknown_func "F";
    Verdict.Index_write;
    Verdict.Scalar_blocker { sb_name = "T"; sb_why = "read before write" };
    Verdict.Dep_cycle
      {
        dc_array = "XDT";
        dc_ref_a = "XDT(I-1)";
        dc_ref_b = "XDT(I)";
        dc_test = "inconclusive";
      };
    Verdict.Array_not_private "XDT";
    Verdict.Nonunit_peel;
    Verdict.Not_analyzed "no verdict in this configuration";
  ]

let test_blocker_roundtrip () =
  List.iter
    (fun b ->
      match Verdict.blocker_of_json (Verdict.blocker_to_json b) with
      | Some b' -> cb (Verdict.blocker_kind b ^ " round-trips") true (b = b')
      | None -> Alcotest.failf "blocker %s did not parse" (Verdict.blocker_kind b))
    all_blockers

let test_verdict_roundtrip () =
  let lid =
    {
      Verdict.lid_unit = "INTERF";
      lid_line = 42;
      lid_index = "I";
      lid_path = [ "K"; "J" ];
      lid_loop = 7;
    }
  in
  cs "structural key" "INTERF:K.J.I@42" (Verdict.key lid);
  let serial = { Verdict.v_loop = lid; v_outcome = Verdict.Serial all_blockers } in
  let parallel =
    {
      Verdict.v_loop = lid;
      v_outcome =
        Verdict.Parallel
          {
            Verdict.par_private = [ "T"; "U" ];
            par_reductions = [ (Ast.Rsum, "S"); (Ast.Rmax, "M") ];
            par_peeled = true;
            par_marked = true;
          };
    }
  in
  List.iter
    (fun v ->
      match Verdict.of_json (Verdict.to_json v) with
      | Some v' -> cb "verdict round-trips" true (v = v')
      | None -> Alcotest.fail "verdict did not parse back")
    [ serial; parallel ];
  (* the wire form survives an actual print/parse cycle too *)
  match Json.parse (Json.to_string (Verdict.to_json serial)) with
  | Error e -> Alcotest.failf "printed verdict does not reparse: %s" e
  | Ok j -> cb "textual round-trip" true (Verdict.of_json j = Some serial)

(* ---------------- loop-id stability ---------------- *)

let stability_src =
  "      PROGRAM MAIN\n\
  \      DIMENSION A(100), B(100)\n\
  \      DO I = 1, 100\n\
  \        A(I) = I\n\
  \      ENDDO\n\
  \      DO K = 1, 10\n\
  \        DO J = 1, 10\n\
  \          B(J + 10*K - 10) = A(J)\n\
  \        ENDDO\n\
  \      ENDDO\n\
  \      WRITE(6,*) B(5)\n\
  \      END\n"

let verdict_keys src =
  Perfect.Driver.reset_gensyms ();
  let r =
    Core.Pipeline.run ~mode:Core.Pipeline.No_inlining (Resolve.parse src)
  in
  List.map
    (fun (rep : Parallelizer.Parallelize.loop_report) ->
      let l = rep.rep_verdict.Verdict.v_loop in
      (Verdict.key l, l.Verdict.lid_loop))
    r.Core.Pipeline.res_reports

let test_loop_id_stability () =
  let first = verdict_keys stability_src in
  (* burn gensym state, then recompile: ids must not drift *)
  for _ = 1 to 50 do
    ignore (Ast.fresh_sid ());
    ignore (Ast.fresh_loop_id ())
  done;
  let second = verdict_keys stability_src in
  cb "keys and ids stable across gensym resets" true (first = second);
  cb "some loops analyzed" true (List.length first >= 3);
  (* structural keys carry unit, nesting path and source line *)
  let has_prefix p (k, _) =
    String.length k >= String.length p && String.sub k 0 (String.length p) = p
  in
  cb "outer key present" true (List.exists (has_prefix "MAIN:I@") first);
  cb "nested key present" true (List.exists (has_prefix "MAIN:K.J@") first);
  (* every verdict carries a real source line (the parser wired do_line) *)
  List.iter
    (fun (k, _) ->
      cb (k ^ " has a source line") false
        (String.length k >= 2 && String.sub k (String.length k - 2) 2 = "@0"))
    first

(* ---------------- multi-blocker collection ---------------- *)

let multi_src =
  "      PROGRAM MAIN\n\
  \      DIMENSION X(10)\n\
  \      DO I = 1, 10\n\
  \        WRITE(6,*) I\n\
  \        CALL OPAQUE(I)\n\
  \        X(1) = X(1) + I\n\
  \      ENDDO\n\
  \      END\n\
  \      SUBROUTINE OPAQUE(J)\n\
  \      WRITE(6,*) J\n\
  \      END\n"

let test_collects_all_blockers () =
  let r =
    Core.Pipeline.run ~mode:Core.Pipeline.No_inlining
      (Resolve.parse multi_src)
  in
  let rep =
    List.find
      (fun (rep : Parallelizer.Parallelize.loop_report) ->
        rep.rep_unit = "MAIN")
      r.Core.Pipeline.res_reports
  in
  let bs = Verdict.blockers rep.rep_verdict in
  cb "multiple blockers collected" true (List.length bs >= 2);
  let kinds = List.map Verdict.blocker_kind bs in
  cb "io blocker present" true (List.mem "io-stmt" kinds);
  cb "call blocker present" true (List.mem "unknown-call" kinds);
  (* the legacy reason is exactly the first blocker's legacy rendering *)
  cs "rep_reason = first blocker" (Verdict.render_blocker (List.hd bs))
    rep.rep_reason;
  cs "detection order preserved" "I/O, STOP or RETURN" rep.rep_reason

(* ---------------- explain-diff over the suite ---------------- *)

let test_explain_diff_suite () =
  let points = Perfect.Driver.run_suite ~jobs:4 () in
  ci "12 benchmarks x 4 configs" 48 (List.length points);
  (* every serial verdict is structured: at least one typed blocker, and
     the legacy reason is its first blocker's rendering (no free-form
     reasons survive anywhere in the matrix) *)
  List.iter
    (fun (p : Perfect.Driver.point) ->
      List.iter
        (fun (_, v) ->
          if not (Verdict.is_parallel v) then
            cb
              (Printf.sprintf "%s/%s: serial verdict carries blockers"
                 p.pt_bench
                 (Core.Pipeline.mode_name p.pt_config))
              true
              (Verdict.blockers v <> []))
        p.pt_verdicts)
    points;
  let e = Perfect.Driver.explain points in
  let summary mode =
    List.find
      (fun (s : Perfect.Explain.summary) -> s.sum_config = mode)
      e.Perfect.Explain.summaries
  in
  let annot = summary Core.Pipeline.Annotation_based in
  let conv = summary Core.Pipeline.Conventional in
  cb "annotation mode gains loops" true (annot.sum_gained >= 1);
  ci "annotation mode loses nothing" 0 annot.sum_lost;
  cb "conventional inlining loses loops" true (conv.sum_lost >= 1);
  (* the classification agrees with the Table II counters *)
  let annot_pts =
    List.filter
      (fun (p : Perfect.Driver.point) ->
        p.pt_config = Core.Pipeline.Annotation_based)
      points
  in
  ci "gained = sum of per-bench extra" annot.sum_gained
    (List.fold_left (fun a (p : Perfect.Driver.point) -> a + p.pt_extra) 0
       annot_pts);
  ci "lost = sum of per-bench loss" annot.sum_lost
    (List.fold_left (fun a (p : Perfect.Driver.point) -> a + p.pt_loss) 0
       annot_pts);
  (* every gained row explains itself: the baseline blockers it removed *)
  List.iter
    (fun (r : Perfect.Explain.row) ->
      if r.row_class = Perfect.Explain.Gained then
        cb "gained row carries baseline blockers" true
          (r.row_base_blockers <> []))
    e.Perfect.Explain.rows

(* ---------------- Chrome trace export ---------------- *)

let count_ph evs want =
  List.length
    (List.filter
       (fun e -> Json.to_str (Json.member "ph" e) = want)
       evs)

let test_chrome_trace_balanced () =
  let sink = Span.create () in
  Span.with_tracing sink (fun () ->
      ignore
        (Planner.compile_source ~strict:true
           ~mode:Core.Pipeline.Annotation_based
           multi_src));
  match Json.parse (Span.to_chrome_json sink) with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok j ->
      let evs = Json.to_list (Json.member "traceEvents" j) in
      cb "events recorded" true (evs <> []);
      ci "balanced B/E" (count_ph evs "B") (count_ph evs "E");
      ci "nothing dropped" 0 (Json.to_int (Json.member "droppedSpans" j))

let test_chrome_trace_bounded () =
  (* a tiny buffer forces drops; the stream must stay balanced anyway *)
  let sink = Span.create ~max_events:4 () in
  Span.with_tracing sink (fun () ->
      ignore
        (Planner.compile_source ~strict:true
           ~mode:Core.Pipeline.Annotation_based
           multi_src));
  cb "spans dropped under tiny budget" true (Span.dropped sink > 0);
  match Json.parse (Span.to_chrome_json sink) with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok j ->
      let evs = Json.to_list (Json.member "traceEvents" j) in
      ci "still balanced" (count_ph evs "B") (count_ph evs "E");
      cb "buffer respected" true (List.length evs <= 4)

let test_tracing_off_is_inert () =
  (* no sink installed: spans run the payload and record nothing *)
  cb "no sink by default" true (not (Span.on ()));
  ci "span returns payload" 5 (Span.span "noop" (fun () -> 5));
  Span.instant "nothing";
  cb "still no sink" true (not (Span.on ()))

(* ---------------- bench schema reader ---------------- *)

let v2_doc =
  {|{"schema_version":2,"suite":"perfect","jobs_deterministic":true,
     "points":[{"bench":"MDG","config":"no-inlining","par_loops":21,
                "loss":0,"extra":0,"code_size":260,"wall_ms":10.0,
                "pass_ms":{},"counters":{},"validation":null,
                "salvage":{"errors":0,"warnings":0,"crashed":false,
                           "messages":[]}}]}|}

let test_schema_reader_v2_compat () =
  match Perfect.Driver.read_json v2_doc with
  | Error e -> Alcotest.failf "v2 document rejected: %s" e
  | Ok doc ->
      ci "version 2" 2 doc.Perfect.Driver.rd_version;
      ci "one point" 1 (List.length doc.rd_points);
      let p = List.hd doc.rd_points in
      cs "bench" "MDG" p.Perfect.Driver.rd_bench;
      cs "config" "no-inlining" p.rd_config;
      ci "par" 21 p.rd_par;
      cb "v2 has no verdict counts" true (p.rd_verdicts = None)

(* a version-6 document as the previous driver wrote it: no serve
   counters, no top-level serve object — must stay readable forever *)
let v6_doc =
  {|{"schema_version":6,"suite":"perfect","jobs_deterministic":true,
     "points":[{"bench":"MDG","config":"demand","par_loops":23,
                "loss":0,"extra":2,"code_size":260,"wall_ms":10.0,
                "exec_ms":null,"retries":0,"deadline_misses":0,
                "pass_ms":{},
                "counters":{"dep_tests_run":40,"dep_cache_hits":10,
                            "dep_cache_misses":30,"faults_injected":0},
                "validation":null,
                "planner":{"rounds":2,"sites_inlined":3,
                           "growth_ratio":1.100,"blockers_resolved":4,
                           "blockers_remaining":0,
                           "budget_exhausted":false},
                "verdicts":{"parallel":23,"marked":23,"serial":2,
                            "blockers":{}},
                "salvage":{"errors":0,"warnings":0,"crashed":false,
                           "messages":[]}}]}|}

let test_schema_reader_v6_compat () =
  match Perfect.Driver.read_json v6_doc with
  | Error e -> Alcotest.failf "v6 document rejected: %s" e
  | Ok doc ->
      ci "version 6" 6 doc.Perfect.Driver.rd_version;
      cb "v6 has no serve object" true (doc.rd_serve = None);
      let p = List.hd doc.rd_points in
      cs "config" "demand" p.Perfect.Driver.rd_config;
      ci "dep tests" 40 p.rd_dep_tests_run;
      (match p.rd_planner with
      | None -> Alcotest.fail "v6 demand point lost its planner stats"
      | Some pl -> ci "rounds" 2 pl.Perfect.Driver.rp_rounds);
      cb "serve counters absent from v6 points" true
        (not (List.mem "requests_served" p.rd_counter_keys))

let test_schema_reader_v9_current () =
  let points =
    Perfect.Driver.run_suite ~jobs:1 ~benches:[ Perfect.Mdg.bench ] ()
  in
  let explain = Perfect.Driver.explain points in
  match Perfect.Driver.read_json (Perfect.Driver.to_json ~explain points) with
  | Error e -> Alcotest.failf "current document rejected: %s" e
  | Ok doc ->
      ci "version 9" 9 doc.Perfect.Driver.rd_version;
      cb "no serve object without serve-bench" true (doc.rd_serve = None);
      ci "four points" 4 (List.length doc.rd_points);
      List.iter
        (fun (p : Perfect.Driver.read_point) ->
          (match p.rd_verdicts with
          | None -> Alcotest.fail "v6 point lost its verdict counts"
          | Some (par, ser) ->
              cb "counts sane" true (par >= 0 && ser >= 0 && par + ser > 0));
          cb "exec_ms null without --time-exec" true (p.rd_exec_ms = None);
          ci "hits + misses = run" p.rd_dep_tests_run
            (p.rd_dep_cache_hits + p.rd_dep_cache_misses);
          (* chaos-off run: resilience counters are present but zero *)
          ci "no retries" 0 p.rd_retries;
          ci "no deadline misses" 0 p.rd_deadline_misses;
          ci "no faults" 0 p.rd_faults_injected)
        doc.rd_points;
      (* the demand point round-trips its planner stats; the other
         configurations stay planner-free *)
      List.iter
        (fun (p : Perfect.Driver.read_point) ->
          match (p.rd_config, p.rd_planner) with
          | "demand", None ->
              Alcotest.fail "demand point lost its planner stats"
          | "demand", Some pl ->
              cb "planner stats sane" true
                (pl.Perfect.Driver.rp_rounds >= 1
                && pl.rp_sites >= 0 && pl.rp_growth >= 1.0
                && pl.rp_resolved >= 0)
          | _, Some _ -> Alcotest.fail (p.rd_config ^ " grew planner stats")
          | _, None -> ())
        doc.rd_points;
      (* v7 serve counters are present (and zero — this run never touched
         the daemon), and the top-level serve object round-trips *)
      List.iter
        (fun (p : Perfect.Driver.read_point) ->
          cb "serve counters present in v7 points" true
            (List.mem "requests_served" p.rd_counter_keys
            && List.mem "unit_cache_hits" p.rd_counter_keys
            && List.mem "snapshot_restores" p.rd_counter_keys))
        doc.rd_points;
      let serve =
        {
          Perfect.Driver.sv_requests = 96;
          sv_cold_rps = 120.5;
          sv_warm_rps = 3600.25;
          sv_p50_ms = 0.75;
          sv_p99_ms = 80.125;
          sv_cold_p50_ms = 4.5;
          sv_cold_p90_ms = 9.25;
          sv_cold_p99_ms = 80.125;
          sv_warm_p50_ms = 0.25;
          sv_warm_p90_ms = 0.5;
          sv_warm_p99_ms = 1.125;
          sv_hit_ratio = 0.5;
          sv_snapshot_restores = 1;
          sv_clients =
            [
              {
                Perfect.Driver.cp_clients = 1;
                cp_rps = 900.5;
                cp_p50_ms = 0.25;
                cp_p99_ms = 1.125;
              };
              {
                Perfect.Driver.cp_clients = 4;
                cp_rps = 2700.75;
                cp_p50_ms = 0.375;
                cp_p99_ms = 2.25;
              };
            ];
          sv_speedup = 3.0;
          sv_cores = 4;
          sv_evictions = 24;
          sv_cache_units = 24;
          sv_max_cache_units = 24;
        }
      in
      (match Perfect.Driver.read_json (Perfect.Driver.to_json ~serve []) with
      | Error e -> Alcotest.failf "serve document rejected: %s" e
      | Ok doc -> (
          match doc.Perfect.Driver.rd_serve with
          | None -> Alcotest.fail "serve object lost in round-trip"
          | Some s ->
              ci "requests" 96 s.Perfect.Driver.rs_requests;
              cb "rates round-trip" true
                (abs_float (s.rs_cold_rps -. 120.5) < 0.001
                && abs_float (s.rs_warm_rps -. 3600.25) < 0.001
                && abs_float (s.rs_p99_ms -. 80.125) < 0.001
                && abs_float (s.rs_hit_ratio -. 0.5) < 0.001);
              cb "v8 per-pass quantiles round-trip" true
                (abs_float (s.rs_cold_p50_ms -. 4.5) < 0.001
                && abs_float (s.rs_cold_p90_ms -. 9.25) < 0.001
                && abs_float (s.rs_cold_p99_ms -. 80.125) < 0.001
                && abs_float (s.rs_warm_p50_ms -. 0.25) < 0.001
                && abs_float (s.rs_warm_p90_ms -. 0.5) < 0.001
                && abs_float (s.rs_warm_p99_ms -. 1.125) < 0.001);
              ci "v9 clients array round-trips" 2 (List.length s.rs_clients);
              (match s.rs_clients with
              | [ (k1, r1, _, _); (k4, r4, _, p99) ] ->
                  ci "client counts" 1 k1;
                  ci "client counts" 4 k4;
                  cb "client rates round-trip" true
                    (abs_float (r1 -. 900.5) < 0.001
                    && abs_float (r4 -. 2700.75) < 0.001
                    && abs_float (p99 -. 2.25) < 0.001)
              | _ -> Alcotest.fail "clients array shape");
              cb "v9 speedup round-trips" true
                (abs_float (s.rs_speedup -. 3.0) < 0.001);
              ci "v9 evictions round-trip" 24 s.rs_evictions))

let test_schema_reader_rejects_garbage () =
  cb "non-JSON rejected" true
    (Result.is_error (Perfect.Driver.read_json "not json"));
  cb "missing version rejected" true
    (Result.is_error (Perfect.Driver.read_json "{\"points\":[]}"));
  cb "future version rejected" true
    (Result.is_error
       (Perfect.Driver.read_json "{\"schema_version\":99,\"points\":[]}"))

(* ---------------- unit-qualified diagnostics ---------------- *)

let test_diag_unit_rendering () =
  cs "unit + line"
    "error[parallel] MDG:INTERF line 42: carried dependence"
    (Diag.render
       (Diag.make ~loc:(Diag.loc 42) ~unit_:"MDG:INTERF" Diag.Parallel
          "carried dependence"));
  cs "unit only" "warning[inline] RUN: skipped"
    (Diag.render
       (Diag.make ~severity:Diag.Warning ~unit_:"RUN" Diag.Inline "skipped"));
  cs "no unit (legacy shape)" "error[parse] line 3: bad token"
    (Diag.render (Diag.make ~loc:(Diag.loc 3) Diag.Parse "bad token"));
  cs "with_unit attaches" "note[exec] MDG: done"
    (Diag.render
       (Diag.with_unit "MDG"
          (Diag.make ~severity:Diag.Note Diag.Exec "done")))

let suite =
  [
    Alcotest.test_case "blocker JSON round-trip" `Quick test_blocker_roundtrip;
    Alcotest.test_case "verdict JSON round-trip" `Quick test_verdict_roundtrip;
    Alcotest.test_case "loop ids stable under gensym resets" `Quick
      test_loop_id_stability;
    Alcotest.test_case "all blockers collected, legacy reason preserved"
      `Quick test_collects_all_blockers;
    Alcotest.test_case "explain-diff over the 12x3 matrix" `Slow
      test_explain_diff_suite;
    Alcotest.test_case "chrome trace balanced" `Quick
      test_chrome_trace_balanced;
    Alcotest.test_case "chrome trace bounded buffer stays balanced" `Quick
      test_chrome_trace_bounded;
    Alcotest.test_case "tracing off is inert" `Quick test_tracing_off_is_inert;
    Alcotest.test_case "schema reader: v2 compatibility" `Quick
      test_schema_reader_v2_compat;
    Alcotest.test_case "schema reader: v6 compatibility" `Quick
      test_schema_reader_v6_compat;
    Alcotest.test_case "schema reader: current v9" `Quick
      test_schema_reader_v9_current;
    Alcotest.test_case "schema reader rejects garbage" `Quick
      test_schema_reader_rejects_garbage;
    Alcotest.test_case "diagnostics render owning unit" `Quick
      test_diag_unit_rendering;
  ]
