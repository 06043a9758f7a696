(* parinline -- command-line driver for the enhanced-inlining pipeline.

   Usage:
     parinline compile  FILE.f [--annot FILE.annot] [--mode MODE] [-o OUT]
     parinline report   FILE.f [--annot FILE.annot]
     parinline explain  FILE.f [--annot FILE.annot] [--mode MODE]
                               [--loop ID] [--json]
     parinline run      FILE.f [--annot FILE.annot] [--mode MODE] [--threads N]
     parinline check    FILE.f [--annot FILE.annot] [--mode MODE] [--threads N]
     parinline plan     FILE.f [--annot FILE.annot] [--growth-budget F]
                               [--max-rounds N] [--json]
     parinline serve    [--socket PATH] [--cache-dir DIR] [--jobs N]
     parinline client   --socket PATH [--op OP] [FILE.f] [--annot FILE.annot]
                               [--mode MODE]

   MODE is one of: none | conventional | annotation | demand
   (default: annotation).  demand runs the verdict-guided planner: only
   the callees whose opaque-call blockers actually serialize a loop are
   inlined, one fixpoint round at a time, until nothing more resolves
   or the --growth-budget (x the original statement count) is spent.

   explain prints the structured verdict of every analyzed loop — stable
   identity (unit, nesting path, source line), outcome, clauses, and the
   complete blocker list for serial loops; --json round-trips.

   plan prints the planner's decision trace without emitting code: per
   round, the callees inlined (and by which method), the callees
   refused (and why), and the loops each round's inlining unlocked;
   --json emits the machine-readable plan document instead.

   Tracing (compile, explain, run, check): --trace-out FILE records
   begin/end spans of every instrumented region and writes Chrome
   trace_event JSON for chrome://tracing / Perfetto.

   check optimizes the program, replays it serially under the access
   tracer to detect cross-iteration races not excused by the emitted
   PRIVATE/REDUCTION clauses, then runs it in parallel and compares the
   final observable state against the serial run (exit 1 on any race or
   divergence).

   Robustness flags (all commands taking FILE.f):
     --keep-going     salvage what parses/optimizes, accumulating diagnostics
     --max-errors N   stop after N errors in --keep-going mode (default 20)
     --fuel N         (run) trap execution after ~N loop iterations + calls
     --chaos SEED[:SPEC]
                      arm the deterministic fault-injection registry for the
                      duration of the command; a firing summary lands on
                      stderr at exit.  SPEC rules look like
                      dependence.ddtest=3 (third arrival), inliner.*=*2
                      (every 2nd), *=0.5% (probability), or
                      runtime.pool.stall=1~50 (stall 50ms).  Bare SEED uses
                      the default 0.5%-everywhere schedule.

   Fuzzing:
     parinline fuzz --seed S --count N [--mutate] [--dump-dir DIR]
   generates N deterministic F77 programs (seeds S..S+N-1), runs each
   through the salvaging pipeline with the validation oracle armed, and
   fails (exit 1) if any exception escapes the structured diagnostic
   channel or any emitted PARALLEL DO races/diverges.  --mutate applies
   token-level damage to exercise parser recovery (runtime crashes of
   salvaged programs are tolerated there; races never are).

   Profiling (compile, run):
     --profile        dump the per-pass timing breakdown and analysis
                      counters (same schema as the bench driver) on stderr

   Exit codes: 0 = clean, 1 = diagnostics emitted but work salvaged,
   2 = fatal (nothing usable produced). *)

open Cmdliner

let () = Printexc.record_backtrace true

let fail_cli fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("parinline: " ^ s);
      exit 2)
    fmt

let read_file path =
  if not (Sys.file_exists path) then fail_cli "no such file: %s" path;
  match open_in_bin path with
  | exception Sys_error m -> fail_cli "%s" m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let mode_of_string m =
  match Core.Pipeline.mode_of_string m with
  | Ok mode -> mode
  | Error _ ->
      fail_cli
        "unknown mode %S (expected none | conventional | annotation | demand)"
        m

let load source_file annot_file =
  let source = read_file source_file in
  let annot_source =
    match annot_file with Some f -> read_file f | None -> ""
  in
  (source, annot_source)

let print_diags ds =
  List.iter (fun d -> prerr_endline (Core.Diag.render d)) ds

(* Exit per the contract once all output is flushed: 1 when any error
   diagnostic was salvaged, 0 otherwise (warnings alone stay 0). *)
let finish_with ds = if Core.Diag.errors_in ds > 0 then exit 1

(* Run [f ()] under the strict pipeline, converting the first fault into a
   rendered diagnostic and exit 2.  An injected chaos fault reaching this
   barrier (strict mode has no salvage) follows the same contract. *)
let strict f =
  match f () with
  | r -> r
  | exception Core.Diag.Fatal d ->
      prerr_endline (Core.Diag.render d);
      exit 2
  | exception Core.Annot_parser.Annot_parse_error m ->
      fail_cli "annotation file rejected: %s" m
  | exception Frontend.Fault.Injected (site, n) ->
      prerr_endline
        (Core.Diag.render
           (Core.Diag.make Core.Diag.Exec
              (Printf.sprintf "injected fault at %s (arrival %d)" site n)));
      exit 2

(* Run [f ()] under the salvaging pipeline; the error cap aborts. *)
let robust f =
  match f () with
  | r -> r
  | exception Core.Diag.Error_limit n ->
      fail_cli "error limit (%d) reached; giving up" n

(* --chaos support: parse the schedule spec, arm the registry for the
   duration of [f], and report what fired on stderr at exit (the
   commands exit from inside [f] on diagnostics; at_exit still gets the
   summary out on those paths). *)
let with_chaos chaos f =
  match chaos with
  | None -> f ()
  | Some spec -> (
      match Frontend.Fault.parse_spec spec with
      | Error m -> fail_cli "bad --chaos spec: %s" m
      | Ok pl ->
          at_exit (fun () -> prerr_endline (Frontend.Fault.summary pl));
          Frontend.Fault.with_plan pl f)

(* --profile support: build a profile when asked, render it on stderr
   once the work is done. *)
let make_prof profile = if profile then Some (Frontend.Prof.create ()) else None

let dump_prof = function
  | None -> ()
  | Some p -> prerr_string (Frontend.Prof.render p)

(* --trace-out support: arm a span sink for the duration of [f] and
   export the stream as Chrome trace_event JSON (atomically — a killed
   run never leaves a truncated trace for tooling to choke on). *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
      let s = Frontend.Span.create () in
      let written = ref false in
      let write () =
        if not !written then begin
          written := true;
          Perfect.Driver.write_file_atomic path
            (Frontend.Span.to_chrome_json s);
          Printf.eprintf "trace: wrote %d events to %s%s\n"
            (List.length (Frontend.Span.events s))
            path
            (match Frontend.Span.dropped s with
            | 0 -> ""
            | n -> Printf.sprintf " (%d spans dropped)" n)
        end
      in
      (* the commands exit from inside [f] on diagnostics (1) and fatals
         (2); at_exit still gets the trace out on those paths *)
      at_exit write;
      let r = Frontend.Span.with_tracing s f in
      write ();
      r

(* One pipeline entry for the FILE.f commands: the four-configuration
   entry the daemon and the suite driver share.  --keep-going salvages
   (parse errors and analysis errors each capped at --max-errors);
   without it the first fault is fatal.  Demand routes through the
   verdict-guided planner, which always runs the salvaging pipeline —
   an error diagnostic still degrades the exit status per the 0/1
   contract. *)
let run_pipeline ?prof ?growth_budget ?max_rounds ~keep_going ~max_errors
    ~mode ~annot_source source =
  robust @@ fun () ->
  strict @@ fun () ->
  Planner.compile_source ?prof ~strict:(not keep_going) ?growth_budget
    ?max_rounds ~max_errors ~mode ~annot_source source

let compile_run source_file annot_file mode out keep_going max_errors profile
    trace_out chaos =
  let mode = mode_of_string mode in
  let source, annot_source = load source_file annot_file in
  with_chaos chaos @@ fun () ->
  with_trace trace_out @@ fun () ->
  let prof = make_prof profile in
  let r, _plan =
    run_pipeline ?prof ~keep_going ~max_errors ~mode ~annot_source source
  in
  let text = Frontend.Pretty.program_to_string r.res_program in
  (match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text)
  | None -> print_string text);
  print_diags r.res_diags;
  Printf.eprintf "parallel loops: %d, code size: %d lines%s\n"
    (List.length r.res_marked) r.res_code_size
    (match Core.Diag.summary r.res_diags with
    | "" -> ""
    | s -> " (" ^ s ^ ")");
  dump_prof prof;
  finish_with r.res_diags

let report_run source_file annot_file keep_going max_errors chaos =
  let source, annot_source = load source_file annot_file in
  with_chaos chaos @@ fun () ->
  (* parse once so loop ids are comparable across configurations *)
  let dg = Core.Diag.collector ~max_errors () in
  let program, annots, parse_diags =
    robust (fun () ->
        strict (fun () ->
            Core.Pipeline.parse_source ~strict:(not keep_going) ~max_errors
              ~dg ~annot_source source))
  in
  let parse_diags = parse_diags @ Core.Diag.to_list dg in
  let run_mode mode =
    let dg = Core.Diag.collector ~max_errors () in
    fst
      (robust (fun () ->
           strict (fun () ->
               Planner.compile ~strict:(not keep_going) ~annots ~dg ~mode
                 program)))
  in
  let all_diags = ref parse_diags in
  let base = run_mode Core.Pipeline.No_inlining in
  List.iter
    (fun mode ->
      let r = if mode = Core.Pipeline.No_inlining then base else run_mode mode in
      all_diags := !all_diags @ r.res_diags;
      let par, loss, extra = Core.Pipeline.table2_counts ~baseline:base r in
      Printf.printf
        "%-18s #par-loops=%3d  #par-loss=%3d  #par-extra=%3d  size=%5d%s\n"
        (Core.Pipeline.mode_name mode) par loss extra r.res_code_size
        (match Core.Diag.summary r.res_diags with
        | "" -> ""
        | s -> "  [" ^ s ^ "]")
      ;
      List.iter
        (fun (rep : Parallelizer.Parallelize.loop_report) ->
          Printf.printf "  [%s] loop %d (DO %s): %s%s\n" rep.rep_unit
            rep.rep_loop_id rep.rep_index
            (if rep.rep_marked then "PARALLEL"
             else if rep.rep_safe then "safe (not profitable)"
             else "sequential: " ^ rep.rep_reason)
            (if rep.rep_private <> [] then
               " private(" ^ String.concat "," rep.rep_private ^ ")"
             else ""))
        r.res_reports)
    [ Core.Pipeline.No_inlining; Core.Pipeline.Conventional;
      Core.Pipeline.Annotation_based; Core.Pipeline.Demand ];
  print_diags parse_diags;
  finish_with !all_diags

let exec_run source_file annot_file mode threads keep_going max_errors fuel
    profile trace_out chaos =
  let mode = mode_of_string mode in
  let source, annot_source = load source_file annot_file in
  with_chaos chaos @@ fun () ->
  with_trace trace_out @@ fun () ->
  let prof = make_prof profile in
  let r, _plan =
    run_pipeline ?prof ~keep_going ~max_errors ~mode ~annot_source source
  in
  print_diags r.res_diags;
  let fuel = if fuel <= 0 then None else Some fuel in
  let t0 = Frontend.Prof.monotonic_ns () in
  match
    Frontend.Prof.with_opt prof (fun () ->
        Frontend.Prof.time "execute" (fun () ->
            Runtime.Interp.run_program ~threads ?fuel r.res_program))
  with
  | output ->
      let dt = Frontend.Prof.seconds_since t0 in
      print_string output;
      Printf.eprintf "elapsed: %.3fs (threads=%d)\n" dt threads;
      dump_prof prof;
      finish_with r.res_diags
  | exception Runtime.Interp.Trap d ->
      print_diags (r.res_diags @ [ d ]);
      dump_prof prof;
      exit 1
  | exception Runtime.Value.Runtime_error m ->
      prerr_endline (Core.Diag.render (Core.Diag.make Core.Diag.Exec m));
      exit 2
  | exception Frontend.Fault.Injected (site, n) ->
      print_diags
        (r.res_diags
        @ [
            Core.Diag.make Core.Diag.Exec
              (Printf.sprintf "execution hit injected fault at %s (arrival %d)"
                 site n);
          ]);
      dump_prof prof;
      exit 1
  | exception Runtime.Pool.Worker_failure (l, e) ->
      print_diags
        (r.res_diags
        @ [
            Core.Diag.make
              ~backtrace:(Printexc.get_backtrace ())
              Core.Diag.Exec
              (Printf.sprintf "execution lost worker (%s): %s" l
                 (Printexc.to_string e));
          ]);
      dump_prof prof;
      exit 1

let check_run source_file annot_file mode threads keep_going max_errors fuel
    profile trace_out chaos =
  let mode = mode_of_string mode in
  let source, annot_source = load source_file annot_file in
  with_chaos chaos @@ fun () ->
  with_trace trace_out @@ fun () ->
  let prof = make_prof profile in
  let r, _plan =
    run_pipeline ?prof ~keep_going ~max_errors ~mode ~annot_source source
  in
  print_diags r.res_diags;
  let fuel = if fuel <= 0 then None else Some fuel in
  let v =
    Frontend.Prof.with_opt prof (fun () ->
        Frontend.Prof.time "validate" (fun () ->
            Checker.Oracle.validate ~threads ?fuel r.res_program))
  in
  print_diags v.Checker.Oracle.v_diags;
  Printf.eprintf
    "check (%s, threads=%d): %s — %d directive loop(s), %d iterations \
     traced, %d conflict(s) (%d excused)\n"
    (Core.Pipeline.mode_name mode)
    threads
    (Checker.Oracle.verdict_summary v)
    (List.length r.res_marked)
    v.Checker.Oracle.v_iterations
    (v.Checker.Oracle.v_unexcused + v.Checker.Oracle.v_excused)
    v.Checker.Oracle.v_excused;
  dump_prof prof;
  if not v.Checker.Oracle.v_ok then exit 1;
  finish_with r.res_diags

(* The explain subcommand: structured per-loop verdicts (the provenance
   layer behind Table II).  Every analyzed loop prints its stable id,
   outcome, clauses, and — for serial loops — the complete blocker list
   (the parallelizer no longer stops at the first obstacle).  [--loop]
   filters by gensym id or by the structural "UNIT:PATH@LINE" key;
   [--json] emits the round-trippable verdict objects instead. *)
let explain_run source_file annot_file mode loop_filter json keep_going
    max_errors trace_out chaos =
  let mode = mode_of_string mode in
  let source, annot_source = load source_file annot_file in
  with_chaos chaos @@ fun () ->
  with_trace trace_out @@ fun () ->
  let r, _plan =
    run_pipeline ~keep_going ~max_errors ~mode ~annot_source source
  in
  let verdicts =
    List.map
      (fun (rep : Parallelizer.Parallelize.loop_report) -> rep.rep_verdict)
      r.res_reports
  in
  let verdicts =
    match loop_filter with
    | None -> verdicts
    | Some want ->
        List.filter
          (fun (v : Parallelizer.Verdict.t) ->
            let l = v.Parallelizer.Verdict.v_loop in
            String.equal (string_of_int l.lid_loop) want
            || String.equal (Parallelizer.Verdict.key l) want)
          verdicts
  in
  if json then
    print_string
      (Frontend.Json.to_string
         (Frontend.Json.List
            (List.map Parallelizer.Verdict.to_json verdicts))
      ^ "\n")
  else begin
    Printf.printf "%s: %d loop verdict(s)\n"
      (Core.Pipeline.mode_name mode)
      (List.length verdicts);
    List.iter
      (fun v -> print_endline (Parallelizer.Verdict.render v))
      verdicts
  end;
  print_diags r.res_diags;
  finish_with r.res_diags

(* The plan subcommand: run the demand-driven planner and print its
   decision trace — which callees were inlined in which round (and by
   which method), which were refused and why, and which loops each
   round unlocked — without emitting the optimized program.  [--json]
   emits the machine-readable plan document (the same object the bench
   driver embeds per demand point). *)
let plan_run source_file annot_file growth_budget max_rounds json keep_going
    max_errors trace_out chaos =
  let source, annot_source = load source_file annot_file in
  with_chaos chaos @@ fun () ->
  with_trace trace_out @@ fun () ->
  if growth_budget <= 0.0 then fail_cli "--growth-budget must be positive";
  if max_rounds < 1 then fail_cli "--max-rounds must be at least 1";
  let r, plan =
    run_pipeline ~growth_budget ~max_rounds ~keep_going ~max_errors
      ~mode:Core.Pipeline.Demand ~annot_source source
  in
  Option.iter
    (fun plan ->
      print_string
        (if json then Frontend.Json.to_string (Planner.to_json plan) ^ "\n"
         else Planner.render plan))
    plan;
  print_diags r.res_diags;
  finish_with r.res_diags

(* ---- cmdliner plumbing ---- *)

(* positional FILE argument as a plain string: existence is checked by
   [read_file] so the missing-file path owns the exit-2 contract instead
   of cmdliner's generic 124 *)
let source_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.f")

let annot_arg =
  Arg.(value & opt (some string) None & info [ "annot" ] ~docv:"FILE.annot")

let mode_arg =
  Arg.(value & opt string "annotation" & info [ "mode" ] ~docv:"MODE")

let out_arg = Arg.(value & opt (some string) None & info [ "o"; "output" ])
let threads_arg = Arg.(value & opt int 4 & info [ "threads" ])

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:"Salvage what parses and optimizes, accumulating diagnostics.")

let max_errors_arg =
  Arg.(
    value
    & opt int Core.Diag.default_max_errors
    & info [ "max-errors" ] ~docv:"N"
        ~doc:"Give up after $(docv) errors in --keep-going mode.")

let fuel_arg =
  Arg.(
    value & opt int 0
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Trap execution after roughly $(docv) loop iterations plus calls \
           (0 = unlimited).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Dump the per-pass timing breakdown and analysis counters on \
           stderr (the bench driver's schema).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record begin/end spans of every instrumented region (pipeline \
           phases, per-loop analysis, dependence tests, inline sites, \
           reverse matches) and write them to $(docv) as Chrome \
           trace_event JSON (load in chrome://tracing or Perfetto).")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED[:SPEC]"
        ~doc:
          "Arm the deterministic fault-injection registry for the duration \
           of the command.  $(docv) is a seed optionally followed by \
           colon-separated rules (SITE=TRIGGER[~MILLIS]); a bare seed uses \
           the default 0.5%-everywhere schedule.  The firing summary is \
           printed on stderr at exit.")

let loop_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "loop" ] ~docv:"ID"
        ~doc:
          "Only the verdict(s) of this loop: a numeric loop id or a \
           structural UNIT:PATH@LINE key as printed by explain.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit verdicts as JSON (round-trippable) instead of text.")

let compile_cmd =
  Cmd.v (Cmd.info "compile" ~doc:"Optimize a program and print the result")
    Term.(
      const compile_run $ source_arg $ annot_arg $ mode_arg $ out_arg
      $ keep_going_arg $ max_errors_arg $ profile_arg $ trace_out_arg
      $ chaos_arg)

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Compare the four inlining configurations")
    Term.(
      const report_run $ source_arg $ annot_arg $ keep_going_arg
      $ max_errors_arg $ chaos_arg)

let growth_budget_arg =
  Arg.(
    value
    & opt float Planner.default_growth_budget
    & info [ "growth-budget" ] ~docv:"F"
        ~doc:
          "Refuse any inlining step that would grow the program past \
           $(docv) times its original statement count.")

let max_rounds_arg =
  Arg.(
    value
    & opt int Planner.default_max_rounds
    & info [ "max-rounds" ] ~docv:"N"
        ~doc:"Stop the planning fixpoint after $(docv) rounds.")

let plan_cmd =
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Run the verdict-guided demand-driven inlining planner and print \
          its decision trace: per round, the callees inlined (and by which \
          method), the callees refused (and why), and the loops the round \
          unlocked")
    Term.(
      const plan_run $ source_arg $ annot_arg $ growth_budget_arg
      $ max_rounds_arg $ json_arg $ keep_going_arg $ max_errors_arg
      $ trace_out_arg $ chaos_arg)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print the structured parallelization verdict of every analyzed \
          loop: stable loop identity, outcome, PRIVATE/REDUCTION clauses, \
          and the complete blocker list for serial loops")
    Term.(
      const explain_run $ source_arg $ annot_arg $ mode_arg $ loop_arg
      $ json_arg $ keep_going_arg $ max_errors_arg $ trace_out_arg
      $ chaos_arg)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Optimize then execute a program")
    Term.(
      const exec_run $ source_arg $ annot_arg $ mode_arg $ threads_arg
      $ keep_going_arg $ max_errors_arg $ fuel_arg $ profile_arg
      $ trace_out_arg $ chaos_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate the emitted PARALLEL DO directives: clause-aware race \
          detection over a traced serial replay, then a serial/parallel \
          differential run")
    Term.(
      const check_run $ source_arg $ annot_arg $ mode_arg $ threads_arg
      $ keep_going_arg $ max_errors_arg $ fuel_arg $ profile_arg
      $ trace_out_arg $ chaos_arg)

let bench_run name threads chaos =
  match Perfect.Suite.find name with
  | None -> fail_cli "unknown benchmark %s" name
  | Some b -> (
      match
        with_chaos chaos @@ fun () ->
        let points = Perfect.Driver.run_suite ~benches:[ b ] () in
        Printf.printf "%s: %s\n" b.name b.description;
        List.iter2
          (fun label (p : Perfect.Driver.point) ->
            Printf.printf "  %-16s par=%3d loss=%3d extra=%3d size=%5d%s\n"
              label p.pt_par p.pt_loss p.pt_extra p.pt_size
              (match Core.Diag.summary p.pt_diags with
              | "" -> ""
              | s -> "  [" ^ s ^ "]"))
          [ "no-inlining"; "conventional"; "annotation"; "demand" ]
          points;
        let f = Perfect.Experiment.fig20_row ~threads b points in
        Printf.printf
          "  fig20 (threads=%d): seq=%.3fs  speedups: none=%.2f conv=%.2f \
           annot=%.2f demand=%.2f\n"
          threads f.f_seq f.f_no_inline f.f_conventional f.f_annotation
          f.f_demand
      with
      | () -> ()
      | exception Core.Diag.Fatal d ->
          prerr_endline (Core.Diag.render d);
          exit 2)

(* The fuzz gate: generate a deterministic corpus, push every program
   through the salvaging pipeline with the oracle armed, and fail loudly
   on any invariant violation.  Violating programs are dumped to
   --dump-dir (when given) for CI artifact upload. *)
let fuzz_run seed count mutate dump_dir =
  if count <= 0 then fail_cli "--count must be positive";
  let progress n =
    if n mod 100 = 0 then Printf.eprintf "fuzz: %d/%d\n%!" n count
  in
  let s = Fuzz.Harness.run_corpus ~mutate ~progress ~seed ~count () in
  Printf.printf
    "fuzz: %d program(s) from seed %d%s: %d directive(s) validated, %d \
     violation(s), corpus md5 %s\n"
    s.s_total seed
    (if mutate then " (mutated)" else "")
    s.s_marked_total
    (List.length s.s_violations)
    s.s_digest;
  match s.s_violations with
  | [] -> ()
  | vs ->
      (match dump_dir with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          List.iter
            (fun (sd, _) ->
              let o = Fuzz.Harness.run_one ~mutate ~seed:sd () in
              let path = Filename.concat dir (Printf.sprintf "seed-%d.f" sd) in
              Perfect.Driver.write_file_atomic path o.Fuzz.Harness.o_source)
            vs);
      List.iter
        (fun (sd, why) -> Printf.eprintf "fuzz: seed %d: %s\n" sd why)
        vs;
      exit 1

let fuzz_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"S" ~doc:"First seed of the corpus.")

let fuzz_count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")

let fuzz_mutate_arg =
  Arg.(
    value & flag
    & info [ "mutate" ]
        ~doc:
          "Apply deterministic token-level damage to each program to \
           exercise parser recovery (runtime crashes of salvaged programs \
           are tolerated; races and divergence never are).")

let fuzz_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-dir" ] ~docv:"DIR"
        ~doc:"Write every violating program to $(docv)/seed-N.f.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate a deterministic corpus of F77 programs and enforce the \
          crash-free gate: no exception escapes the structured diagnostic \
          channel, and every emitted PARALLEL DO passes the race detector \
          and the serial/parallel differential oracle")
    Term.(
      const fuzz_run $ fuzz_seed_arg $ fuzz_count_arg $ fuzz_mutate_arg
      $ fuzz_dump_arg)

(* ---- the analysis daemon (serve) and its protocol client ---- *)

(* Run the long-lived analysis daemon: NDJSON over a Unix-domain socket
   (--socket) or over stdin/stdout (default).  The loops own the
   never-crash contract; this wrapper owns startup/teardown — restore
   diagnostics on stderr, signal-triggered graceful drain, and the
   warm-cache snapshot on the way out. *)
let serve_run socket cache_dir jobs conn_jobs backlog max_inflight
    max_cache_units max_cache_bytes max_errors chaos log_file log_level =
  if jobs < 1 then fail_cli "--jobs must be at least 1";
  if conn_jobs < 0 then fail_cli "--conn-jobs must be at least 0";
  if backlog < 1 then fail_cli "--backlog must be at least 1";
  if max_inflight < 1 then fail_cli "--max-inflight must be at least 1";
  if max_cache_units < 0 then fail_cli "--max-cache-units must be at least 0";
  if max_cache_bytes < 0 then fail_cli "--max-cache-bytes must be at least 0";
  let log_level =
    match Server.Serve.log_level_of_string log_level with
    | Ok l -> l
    | Error m -> fail_cli "%s" m
  in
  with_chaos chaos @@ fun () ->
  let t, start_diags =
    Server.Serve.create ~jobs ~conn_jobs ~backlog ~max_inflight
      ~max_cache_units ~max_cache_bytes ?cache_dir ~max_errors ?log_file
      ~log_level ()
  in
  print_diags start_diags;
  let on_signal =
    Sys.Signal_handle
      (fun _ ->
        Server.Serve.stop t;
        raise Exit)
  in
  (try
     Sys.set_signal Sys.sigterm on_signal;
     Sys.set_signal Sys.sigint on_signal
   with Invalid_argument _ | Sys_error _ -> ());
  (try
     match socket with
     | Some path ->
         Printf.eprintf
           "parinline serve: listening on %s (jobs=%d, conn-jobs=%d, \
            backlog=%d%s)\n\
            %!"
           path jobs conn_jobs backlog
           (match cache_dir with
           | None -> ""
           | Some d -> ", cache-dir=" ^ d);
         Server.Serve.serve_socket t ~path
     | None -> Server.Serve.serve_channels t stdin stdout
   with Exit -> ());
  print_diags (Server.Serve.drain t);
  exit 0

(* One protocol round-trip against a running daemon.  Work-op output is
   printed so it is byte-identical to the one-shot commands: analyze
   prints the verdict array exactly as [explain --json] would, compile
   prints the optimized source, plan prints the plan document as
   [plan --json] would.  Cache provenance goes to stderr. *)
let client_run socket op source_file annot_file mode growth_budget max_rounds
    json =
  let module Json = Frontend.Json in
  let req =
    match op with
    | "ping" | "stats" | "metrics" | "snapshot" | "shutdown" ->
        Server.Serve.request ~op ()
    | "analyze" | "compile" | "plan" -> (
        match source_file with
        | None -> fail_cli "client --op %s needs FILE.f" op
        | Some f ->
            if growth_budget <= 0.0 then
              fail_cli "--growth-budget must be positive";
            if max_rounds < 1 then fail_cli "--max-rounds must be at least 1";
            let source, annot_source = load f annot_file in
            Server.Serve.request ~op ~mode ~source ~annot:annot_source
              ~growth_budget ~max_rounds ())
    | op -> fail_cli "unknown op %S (expected ping | stats | metrics | snapshot | shutdown | analyze | compile | plan)" op
  in
  (* a daemon that drops the connection surfaces as a failed write below,
     not as a SIGPIPE death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      fail_cli "cannot connect to %s: %s" socket (Unix.error_message e));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let closed m = fail_cli "server closed the connection: %s" m in
  (try
     output_string oc (Json.to_string req);
     output_char oc '\n';
     flush oc
   with Sys_error m -> closed m);
  let line =
    match input_line ic with
    | line -> line
    | exception End_of_file -> fail_cli "server closed the connection"
    | exception Sys_error m -> closed m
  in
  close_out_noerr oc;
  match Json.parse line with
  | Error m -> fail_cli "unparseable server response: %s" m
  | Ok j ->
      if not (Json.to_bool (Json.member "ok" j)) then begin
        List.iter
          (fun d -> prerr_endline (Json.to_str d))
          (Json.to_list (Json.member "diags" j));
        exit 1
      end;
      let result = Json.member "result" j in
      (match op with
      | "analyze" ->
          print_string (Json.to_string (Json.member "verdicts" result) ^ "\n")
      | "compile" -> print_string (Json.to_str (Json.member "program" result))
      | "plan" ->
          print_string (Json.to_string (Json.member "plan" result) ^ "\n")
      | "metrics" ->
          (* text exposition by default, the JSON form with --json *)
          if json then
            print_string (Json.to_string (Json.member "metrics" j) ^ "\n")
          else print_string (Json.to_str (Json.member "exposition" j))
      | _ -> print_endline line);
      (match op with
      | "analyze" | "compile" | "plan" ->
          Printf.eprintf "client: %s (%s)\n"
            (if Json.to_bool (Json.member "cached" j) then "unit-cache hit"
             else "computed")
            (Json.to_str (Json.member "hash" j))
      | _ -> ())

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the daemon.")

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at $(docv) (an existing file is \
           replaced).  Without it the daemon speaks the same \
           newline-delimited-JSON protocol on stdin/stdout.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the warm caches (dependence memo store + content-hashed \
           unit cache) as a versioned snapshot under $(docv), restored on \
           the next startup.  A corrupt or version-mismatched snapshot is \
           rejected with a warning and the daemon cold-starts.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Shard batch requests across $(docv) worker domains.")

let conn_jobs_arg =
  Arg.(
    value & opt int 4
    & info [ "conn-jobs" ] ~docv:"N"
        ~doc:
          "Serve up to $(docv) connections concurrently on a fixed pool of \
           worker domains (socket mode only).  0 serves each connection \
           synchronously on the accept loop.")

let backlog_arg =
  Arg.(
    value & opt int 64
    & info [ "backlog" ] ~docv:"N"
        ~doc:
          "Kernel listen(2) backlog for the daemon socket: connections \
           queued by the OS before accept, beyond which connects fail.")

let max_inflight_arg =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Admission control: with $(docv) accepted connections already \
           queued or being served, new connections are shed with a \
           structured overload error instead of waiting.")

let max_cache_units_arg =
  Arg.(
    value & opt int 0
    & info [ "max-cache-units" ] ~docv:"N"
        ~doc:
          "Bound the content-hashed unit cache to $(docv) entries; the \
           least-recently-used entry is evicted when the bound is \
           exceeded.  0 means unbounded.")

let max_cache_bytes_arg =
  Arg.(
    value & opt int 0
    & info [ "max-cache-bytes" ] ~docv:"BYTES"
        ~doc:
          "Bound the unit cache's resident body bytes to $(docv); \
           least-recently-used entries are evicted until the cache fits.  \
           0 means unbounded.")

let op_arg =
  Arg.(
    value & opt string "analyze"
    & info [ "op" ] ~docv:"OP"
        ~doc:
          "Request to send: analyze | compile | plan (need FILE.f) or ping \
           | stats | metrics | snapshot | shutdown.")

let client_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "With --op metrics, print the JSON snapshot instead of the \
           Prometheus-style text exposition.")

let serve_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write a structured NDJSON request log to $(docv): one line per \
           request with request_id, op, unit hash, cache outcome, latency \
           and the chaos fault sites that fired.")

let serve_log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Request-log threshold: debug (control ops included) | info \
           (work requests and lifecycle) | warn (degraded requests) | \
           error (dropped connections).")

let client_source_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.f")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: batched analyze/compile/plan \
          requests over newline-delimited JSON (stdin/stdout or a \
          Unix-domain socket), content-hashed unit caching, the dependence \
          memo store kept warm across requests, and optional on-disk \
          snapshots (--cache-dir) that survive restarts")
    Term.(
      const serve_run $ serve_socket_arg $ cache_dir_arg $ jobs_arg
      $ conn_jobs_arg $ backlog_arg $ max_inflight_arg $ max_cache_units_arg
      $ max_cache_bytes_arg $ max_errors_arg $ chaos_arg $ serve_log_arg
      $ serve_log_level_arg)

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running analysis daemon and print the \
          result (analyze output is byte-identical to explain --json; plan \
          output to plan --json)")
    Term.(
      const client_run $ socket_arg $ op_arg $ client_source_arg $ annot_arg
      $ mode_arg $ growth_budget_arg $ max_rounds_arg $ client_json_arg)

let bench_name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH")

let bench_cmd =
  Cmd.v (Cmd.info "bench" ~doc:"Run one PERFECT benchmark's experiments")
    Term.(const bench_run $ bench_name_arg $ threads_arg $ chaos_arg)

let () =
  let info = Cmd.info "parinline" ~doc:"Annotation-based inlining for interprocedural parallelization" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; report_cmd; explain_cmd; plan_cmd; run_cmd;
            check_cmd; bench_cmd; fuzz_cmd; serve_cmd; client_cmd ]))
