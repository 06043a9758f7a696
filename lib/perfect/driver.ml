(** Profiled parallel suite driver.

    Shards the 12-benchmark × 4-configuration experiment matrix across
    the {!Runtime.Pool} domain pool — the same pool (and the same
    fault-isolation semantics, PR 1) the interpreter uses for parallel
    loops.  One task = one (benchmark, configuration) compilation; a task
    that crashes beyond what the robust pipeline can salvage degrades to
    a crashed {!point} carrying its diagnostics, and the other 35 tasks
    are unaffected.

    Determinism: every task starts by resetting the calling domain's
    gensym counters ({!reset_gensyms}), so statement/loop/tag ids and
    generated names are a pure function of the benchmark source — a
    parallel ([~jobs]) run produces results identical to the sequential
    one regardless of how tasks land on domains.  All the id counters
    this relies on are domain-local (see [Frontend.Ast]).

    Each task carries its own {!Frontend.Prof} profile (installed
    domain-locally), so per-pass timings and analysis counters of
    concurrent compilations never mix.  {!to_json} serializes the
    resulting points in the stable schema CI archives on every run. *)

open Core
module Verdict = Parallelizer.Verdict
module Json = Frontend.Json

(** One (benchmark, configuration) measurement. *)
type point = {
  pt_bench : string;
  pt_config : Pipeline.mode;
  pt_par : int;  (** #par-loops (original-program loops only) *)
  pt_loss : int;  (** baseline loops lost by this configuration *)
  pt_extra : int;  (** loops gained over the baseline *)
  pt_size : int;  (** non-comment lines of the optimized output *)
  pt_wall_ms : float;  (** whole-task wall clock, monotonic *)
  pt_exec_ms : float option;
      (** serial execution wall clock of the optimized program, measured
          when the suite ran with [~time_exec:true]; [None] otherwise or
          when execution failed *)
  pt_pass_ms : (string * float) list;  (** per-pass milliseconds *)
  pt_counters : Frontend.Prof.counters;
  pt_diags : Diag.t list;  (** salvage record; [[]] on a healthy run *)
  pt_crashed : bool;
      (** the task died beyond salvage (e.g. unparseable source); the
          numeric fields are zero and [pt_diags] holds the cause *)
  pt_retries : int;
      (** pool-level chunk re-executions this task needed (transient
          failures, e.g. injected chaos faults); 0 on a clean run *)
  pt_deadline_misses : int;
      (** 1 when the pool watchdog abandoned this task past its
          deadline (the point is then also crashed); 0 otherwise *)
  pt_validation : Checker.Oracle.verdict option;
      (** oracle verdict when the suite ran with [~validate:true] *)
  pt_verdicts : (int * Verdict.t) list;
      (** representative verdict per analyzed loop id, restricted to
          units reachable from MAIN; a marked copy wins over a serial
          copy (a loop parallel *anywhere live* counts as parallel,
          matching the Table II accounting).  [[]] on a crashed point *)
  pt_original : int list;  (** loop ids of the benchmark's input program *)
  pt_plan : Planner.plan option;
      (** the demand configuration's plan trace; [None] elsewhere *)
  pt_program : Frontend.Ast.program option;
      (** the optimized program, which Fig. 20 and the output checks
          run; [None] on a crashed point *)
}

let configs =
  [
    Pipeline.No_inlining;
    Pipeline.Conventional;
    Pipeline.Annotation_based;
    Pipeline.Demand;
  ]

(** {!Pipeline.reset_gensyms}, called once per task. *)
let reset_gensyms = Pipeline.reset_gensyms

(* Intermediate per-task record, before baseline-relative accounting. *)
type task_result = {
  tr_result : Pipeline.result option;  (** [None] = crashed beyond salvage *)
  tr_wall_ms : float;
  tr_exec_ms : float option;
  tr_prof : Frontend.Prof.t;
  tr_diags : Diag.t list;
  tr_plan : Planner.plan option;  (** [Demand] tasks only *)
}

(* A task that produced nothing, with the cause in [diags]. *)
let crashed_task diags =
  {
    tr_result = None;
    tr_wall_ms = 0.0;
    tr_exec_ms = None;
    tr_prof = Frontend.Prof.create ();
    tr_diags = diags;
    tr_plan = None;
  }

let run_task ?par_config ?growth_budget ?validate ?validate_threads ?span
    ?(time_exec = false) (b : Bench_def.t) (mode : Pipeline.mode) :
    task_result =
  let prof = Frontend.Prof.create () in
  let dg = Diag.collector () in
  let t0 = Frontend.Prof.monotonic_ns () in
  let result, crash =
    match
      Frontend.Prof.with_profiling prof @@ fun () ->
      Frontend.Span.with_opt span @@ fun () ->
      Frontend.Span.span ~cat:"driver" ~unit_:b.name
        ("task:" ^ Pipeline.mode_name mode)
      @@ fun () ->
      reset_gensyms ();
      let program = Frontend.Prof.time "parse" (fun () -> Bench_def.parse b) in
      let annots = Frontend.Prof.time "parse" (fun () -> Bench_def.annots b) in
      Planner.compile ?growth_budget ?par_config ?validate ?validate_threads
        ~annots ~dg ~mode program
    with
    | r, pl -> (Some (r, pl), [])
    | exception e ->
        (* the whole-task fault barrier: anything the robust pipeline
           could not absorb (unparseable source, error-limit overflow)
           becomes a diagnostic on this point *)
        let backtrace =
          Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
        in
        let d = Diag.of_exn ~backtrace Diag.Exec e in
        let d =
          {
            d with
            Diag.d_message =
              Printf.sprintf "benchmark %s (%s) crashed: %s" b.name
                (Pipeline.mode_name mode) d.Diag.d_message;
          }
        in
        (None, [ d ])
  in
  let wall_ms = 1000.0 *. Frontend.Prof.seconds_since t0 in
  (* Serial execution timing of the optimized program (schema v4): a
     single-threaded interpreter run, so the number measures the
     compiled-statement hot path without pool scheduling noise.  An
     execution failure degrades to [None] — timing is reporting, never a
     fault source. *)
  let exec_ms =
    if not time_exec then None
    else
      match result with
      | None -> None
      | Some (r, _) -> (
          let e0 = Frontend.Prof.monotonic_ns () in
          match Runtime.Interp.run_program ~threads:1 r.Pipeline.res_program with
          | (_ : string) -> Some (1000.0 *. Frontend.Prof.seconds_since e0)
          | exception _ -> None)
  in
  let diags =
    match result with
    | Some (r, _) -> r.Pipeline.res_diags
    | None -> Diag.to_list dg @ crash
  in
  (* qualify the owning unit with the benchmark, so a suite-wide salvage
     log renders e.g. [warning[parallel] MDG:INTERF line 42: ...] *)
  let diags =
    List.map
      (fun (d : Diag.t) ->
        match d.Diag.d_unit with
        | Some u -> Diag.with_unit (b.name ^ ":" ^ u) d
        | None -> Diag.with_unit b.name d)
      diags
  in
  {
    tr_result = Option.map fst result;
    tr_wall_ms = wall_ms;
    tr_exec_ms = exec_ms;
    tr_prof = prof;
    tr_diags = diags;
    tr_plan = Option.bind result snd;
  }

(** Run the suite matrix.  [jobs] is the domain count ([<= 1] runs
    everything on the caller — the same code path, minus the workers).
    Points come back in deterministic order: benchmark-major, then
    no-inlining / conventional / annotation-based / demand.  With
    [~validate:true] every optimized program additionally runs under the
    validation oracle and the per-point verdict lands in
    [pt_validation].  [growth_budget] caps the demand planner's code
    growth (default {!Planner.default_growth_budget}). *)
let run_suite ?(jobs = 1) ?par_config ?growth_budget ?validate
    ?validate_threads ?span ?time_exec ?deadline_s ?(retries = 0)
    ?(benches = Suite.all) () : point list =
  let tasks =
    Array.of_list
      (List.concat_map (fun b -> List.map (fun m -> (b, m)) configs) benches)
  in
  let n = Array.length tasks in
  let out : task_result option array = Array.make n None in
  let retries_arr = Array.make n 0 in
  let dmiss_arr = Array.make n 0 in
  (* A failed or abandoned chunk degrades to a crashed point carrying
     the cause; the remaining 47 tasks are untouched.  Tasks are
     idempotent ([out.(i) <- ...]), so pool-level retries are safe. *)
  let degrade chunk (d : Diag.t) = out.(chunk) <- Some (crashed_task [ d ]) in
  let absorb (ev : Runtime.Pool.event) =
    match ev with
    | Runtime.Pool.Chunk_retried { chunk; _ } ->
        retries_arr.(chunk) <- retries_arr.(chunk) + 1
    | Runtime.Pool.Chunk_failed { chunk; error; backtrace } ->
        let b, m = tasks.(chunk) in
        let d = Diag.of_exn ~backtrace Diag.Exec error in
        degrade chunk
          (Diag.with_unit b.Bench_def.name
             {
               d with
               Diag.d_message =
                 Printf.sprintf "benchmark %s (%s) crashed in pool: %s"
                   b.Bench_def.name (Pipeline.mode_name m) d.Diag.d_message;
             })
    | Runtime.Pool.Deadline_missed { chunk; waited_s } ->
        let b, m = tasks.(chunk) in
        dmiss_arr.(chunk) <- dmiss_arr.(chunk) + 1;
        degrade chunk
          (Diag.make ~unit_:b.Bench_def.name Diag.Timeout
             (Printf.sprintf
                "benchmark %s (%s) abandoned by the pool watchdog after %.0f \
                 ms"
                b.Bench_def.name (Pipeline.mode_name m) (waited_s *. 1000.0)))
  in
  let pool = Runtime.Pool.create jobs in
  let events = ref [] in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.shutdown pool)
    (fun () ->
      Runtime.Pool.parallel_for ~label:"suite-driver" ?deadline_s ~retries
        ~report:(fun evs -> events := evs)
        pool ~chunks:n (fun i ->
          let b, m = tasks.(i) in
          out.(i) <-
            Some
              (run_task ?par_config ?growth_budget ?validate ?validate_threads
                 ?span ?time_exec b m)));
  (* Absorb events only after shutdown joined every worker: a worker
     stalled past the deadline may still have been writing its (now
     abandoned) slot, and the degraded point must win deterministically. *)
  List.iter absorb !events;
  (* Baseline-relative accounting: group the per-bench tasks and count
     against the no-inlining result.  A crashed baseline degrades
     loss/extra to 0 (each result is counted against itself). *)
  List.concat
    (List.mapi
       (fun bi (b : Bench_def.t) ->
         let tr m =
           (* [None] is unreachable: parallel_for ran every chunk *)
           Option.value ~default:(crashed_task [])
             out.((bi * List.length configs) + m)
         in
         let base = (tr 0).tr_result in
         List.mapi
           (fun m mode ->
             let t = tr m in
             let chunk = (bi * List.length configs) + m in
             let par, loss, extra, size =
               match t.tr_result with
               | None -> (0, 0, 0, 0)
               | Some r ->
                   let baseline = match base with Some b -> b | None -> r in
                   let par, loss, extra =
                     Pipeline.table2_counts ~baseline r
                   in
                   (par, loss, extra, r.Pipeline.res_code_size)
             in
             {
               pt_bench = b.name;
               pt_config = mode;
               pt_par = par;
               pt_loss = loss;
               pt_extra = extra;
               pt_size = size;
               pt_wall_ms = t.tr_wall_ms;
               pt_exec_ms = t.tr_exec_ms;
               pt_pass_ms = Frontend.Prof.pass_ms t.tr_prof;
               pt_counters = Frontend.Prof.snapshot t.tr_prof;
               pt_diags = t.tr_diags;
               pt_crashed = t.tr_result = None;
               pt_retries = retries_arr.(chunk);
               pt_deadline_misses = dmiss_arr.(chunk);
               pt_validation =
                 Option.bind t.tr_result (fun r -> r.Pipeline.res_validation);
               pt_verdicts =
                 Option.fold ~none:[] ~some:Pipeline.verdict_map t.tr_result;
               pt_original =
                 Option.fold ~none:[]
                   ~some:(fun r -> r.Pipeline.res_original_loops)
                   t.tr_result;
               pt_plan = t.tr_plan;
               pt_program =
                 Option.map (fun r -> r.Pipeline.res_program) t.tr_result;
             })
           configs)
       benches)

(** Join the suite's points into the explain-diff attribution: per
    benchmark, each inlined configuration's original-program loops
    classified kept / lost / gained / serial against the no-inlining
    baseline, with the blocker deltas (see {!Explain}). *)
let explain (points : point list) : Explain.t =
  let benches =
    List.fold_left
      (fun acc p -> if List.mem p.pt_bench acc then acc else p.pt_bench :: acc)
      [] points
  in
  let rows =
    List.concat_map
      (fun bench ->
        let mine = List.filter (fun p -> String.equal p.pt_bench bench) points in
        let find m = List.find_opt (fun p -> p.pt_config = m) mine in
        match find Pipeline.No_inlining with
        | None -> []
        | Some base ->
            let others =
              List.filter_map
                (fun m -> Option.map (fun p -> (m, p.pt_verdicts)) (find m))
                [
                  Pipeline.Conventional;
                  Pipeline.Annotation_based;
                  Pipeline.Demand;
                ]
            in
            (* demand's gained loops attribute to the planning round and
               inlined callee that unlocked them (from the plan trace) *)
            let attrs =
              match find Pipeline.Demand with
              | Some { pt_plan = Some pl; _ } ->
                  [
                    ( Pipeline.Demand,
                      List.map
                        (fun (a : Planner.attribution) ->
                          (a.at_loop, (a.at_round, a.at_callee)))
                        pl.Planner.pl_resolved );
                  ]
              | _ -> []
            in
            Explain.diff_bench ~bench ~attrs ~original:base.pt_original
              ~baseline:base.pt_verdicts others)
      (List.rev benches)
  in
  Explain.make rows

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* Documents are built as {!Json.t}: integral floats print without
   decimals, the others as %.3f (finite by construction). *)

let json_of_point (p : point) : Json.t =
  let c = p.pt_counters in
  Json.Obj
    [
      ("bench", Json.Str p.pt_bench);
      ("config", Json.Str (Pipeline.mode_name p.pt_config));
      ("par_loops", Json.Int p.pt_par);
      ("loss", Json.Int p.pt_loss);
      ("extra", Json.Int p.pt_extra);
      ("code_size", Json.Int p.pt_size);
      ("wall_ms", Json.Float p.pt_wall_ms);
      ( "exec_ms",
        Option.fold ~none:Json.Null ~some:(fun ms -> Json.Float ms)
          p.pt_exec_ms );
      ("retries", Json.Int p.pt_retries);
      ("deadline_misses", Json.Int p.pt_deadline_misses);
      ( "cache_hit_ratio",
        if c.Frontend.Prof.dep_tests_run = 0 then Json.Null
        else
          Json.Float
            (float_of_int c.Frontend.Prof.dep_cache_hits
            /. float_of_int c.Frontend.Prof.dep_tests_run) );
      ( "pass_ms",
        Json.Obj (List.map (fun (k, ms) -> (k, Json.Float ms)) p.pt_pass_ms) );
      ("counters", Frontend.Prof.counters_json c);
      ( "validation",
        Option.fold ~none:Json.Null
          ~some:(fun (v : Checker.Oracle.verdict) ->
            Json.Obj
              [
                ("ok", Json.Bool v.v_ok);
                ("races", Json.Int v.v_unexcused);
                ("excused", Json.Int v.v_excused);
                ("iterations", Json.Int v.v_iterations);
                ("diverged", Json.Bool v.v_diverged);
                ("crashed", Json.Bool v.v_crashed);
                ("verdict", Json.Str (Checker.Oracle.verdict_summary v));
              ])
          p.pt_validation );
      ( "salvage",
        Json.Obj
          [
            ("errors", Json.Int (Diag.errors_in p.pt_diags));
            ("warnings", Json.Int (Diag.warnings_in p.pt_diags));
            ("crashed", Json.Bool p.pt_crashed);
            ( "messages",
              Json.List
                (List.map (fun d -> Json.Str (Diag.render d)) p.pt_diags) );
          ] );
      ( "planner",
        Option.fold ~none:Json.Null
          ~some:(fun (pl : Planner.plan) ->
            Json.Obj
              [
                ("rounds", Json.Int (List.length pl.pl_rounds));
                ("sites_inlined", Json.Int pl.pl_sites);
                ("growth_ratio", Json.Float pl.pl_growth);
                ("blockers_resolved", Json.Int (List.length pl.pl_resolved));
                ("blockers_remaining", Json.Int (List.length pl.pl_remaining));
                ("budget_exhausted", Json.Bool pl.pl_budget_exhausted);
              ])
          p.pt_plan );
      ( "verdicts",
        let vs = List.map snd p.pt_verdicts in
        let parallel = List.filter Verdict.is_parallel vs in
        let serial = List.filter (fun v -> not (Verdict.is_parallel v)) vs in
        let hist = Hashtbl.create 8 in
        List.iter
          (fun v ->
            List.iter
              (fun b ->
                let k = Verdict.blocker_kind b in
                Hashtbl.replace hist k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt hist k)))
              (Verdict.blockers v))
          serial;
        Json.Obj
          [
            ("parallel", Json.Int (List.length parallel));
            ( "marked",
              Json.Int (List.length (List.filter Verdict.is_marked vs)) );
            ("serial", Json.Int (List.length serial));
            ( "blockers",
              Json.Obj
                (List.map
                   (fun (k, n) -> (k, Json.Int n))
                   (List.sort compare
                      (Hashtbl.fold (fun k n acc -> (k, n) :: acc) hist []))) );
          ] );
    ]

(** The stable bench schema, one JSON document per suite run.  CI
    archives this as [BENCH_*.json]; consumers key on [schema_version].
    Version 2 added the per-point ["validation"] object ([null] when the
    suite ran without [--validate]) and the oracle counters.  Version 3
    adds per-point ["verdicts"] counts (parallel / marked / serial plus
    a blocker-kind histogram) and, with [?explain], the top-level
    ["explain_diff"] attribution object.  Version 4 adds per-point
    ["exec_ms"] (serial execution wall clock, [null] unless the suite
    ran with [--time-exec]), ["cache_hit_ratio"], and the
    ["dep_cache_hits"]/["dep_cache_misses"] counters — the dependence
    memo trajectory CI gates on.  Version 5 adds per-point ["retries"]
    and ["deadline_misses"] (pool-level recovery accounting) and the
    ["faults_injected"] counter (chaos faults fired inside the task);
    all three are zero whenever no [--chaos] plan is armed, so a
    faults-off v5 document differs from v4 only by the new fields.
    Version 6 adds the fourth ["demand"] configuration and its per-point
    ["planner"] object (rounds, sites inlined, growth ratio, blockers
    resolved/remaining, budget exhaustion); ["planner"] is [null] on the
    other three configurations.  Version 7 adds the analysis-daemon
    counters (["requests_served"], ["unit_cache_hits"],
    ["snapshot_restores"] — all zero outside serve runs) and, with
    [?serve], the top-level ["serve"] throughput object produced by
    [bench serve-bench]: request count, cold/warm requests per second,
    p50/p99 request latency, and the end-to-end unit-cache hit ratio.
    Version 8 splits the serve latency distribution by pass — per-pass
    ["cold_p50_ms"/"cold_p90_ms"/"cold_p99_ms"] and
    ["warm_p50_ms"/"warm_p90_ms"/"warm_p99_ms"] quantiles next to the
    pooled v7 ["p50_ms"/"p99_ms"] — so the serve SLO gate
    ([bench/slo.json], [scripts/check_serve_slo.sh]) can put a ceiling
    on warm p99 instead of only a floor under warm throughput.
    Version 9 adds the concurrency and eviction surface of the
    multi-connection daemon: a serve ["clients"] array with warm
    rps/p50/p99 per concurrent-client count, ["concurrent_speedup"]
    (warm rps at the highest client count over single-client),
    ["cores"] (the machine's recommended domain count, so a gate can
    tell "no speedup" from "no cores to speed up on"), and the unit
    cache's ["evictions"], ["cache_units"], ["max_cache_units"]. *)

type client_point = {
  cp_clients : int;  (** concurrent client connections driven *)
  cp_rps : float;  (** aggregate warm requests per second *)
  cp_p50_ms : float;
  cp_p99_ms : float;
}

type serve_stats = {
  sv_requests : int;  (** work requests driven through the daemon *)
  sv_cold_rps : float;  (** first (cold) pass requests per second *)
  sv_warm_rps : float;  (** second (warm) pass requests per second *)
  sv_p50_ms : float;  (** median request latency, both passes *)
  sv_p99_ms : float;  (** 99th-percentile request latency, both passes *)
  sv_cold_p50_ms : float;  (** v8: cold-pass quantiles *)
  sv_cold_p90_ms : float;
  sv_cold_p99_ms : float;
  sv_warm_p50_ms : float;  (** v8: warm-pass quantiles (the SLO surface) *)
  sv_warm_p90_ms : float;
  sv_warm_p99_ms : float;
  sv_hit_ratio : float;  (** unit-cache hits / requests served *)
  sv_snapshot_restores : int;
  sv_clients : client_point list;  (** v9: warm throughput per client count *)
  sv_speedup : float;  (** v9: rps at max clients / rps at 1 client *)
  sv_cores : int;  (** v9: recommended domain count of the bench host *)
  sv_evictions : int;  (** v9: unit-cache LRU evictions over the run *)
  sv_cache_units : int;  (** v9: resident unit-cache entries at the end *)
  sv_max_cache_units : int;  (** v9: the cap driven (0 = unbounded) *)
}

let json_of_serve (s : serve_stats) : Json.t =
  Json.Obj
    [
      ("requests", Json.Int s.sv_requests);
      ("cold_rps", Json.Float s.sv_cold_rps);
      ("warm_rps", Json.Float s.sv_warm_rps);
      ("p50_ms", Json.Float s.sv_p50_ms);
      ("p99_ms", Json.Float s.sv_p99_ms);
      ("cold_p50_ms", Json.Float s.sv_cold_p50_ms);
      ("cold_p90_ms", Json.Float s.sv_cold_p90_ms);
      ("cold_p99_ms", Json.Float s.sv_cold_p99_ms);
      ("warm_p50_ms", Json.Float s.sv_warm_p50_ms);
      ("warm_p90_ms", Json.Float s.sv_warm_p90_ms);
      ("warm_p99_ms", Json.Float s.sv_warm_p99_ms);
      ("unit_hit_ratio", Json.Float s.sv_hit_ratio);
      ("snapshot_restores", Json.Int s.sv_snapshot_restores);
      ( "clients",
        Json.List
          (List.map
             (fun cp ->
               Json.Obj
                 [
                   ("clients", Json.Int cp.cp_clients);
                   ("rps", Json.Float cp.cp_rps);
                   ("p50_ms", Json.Float cp.cp_p50_ms);
                   ("p99_ms", Json.Float cp.cp_p99_ms);
                 ])
             s.sv_clients) );
      ("concurrent_speedup", Json.Float s.sv_speedup);
      ("cores", Json.Int s.sv_cores);
      ("evictions", Json.Int s.sv_evictions);
      ("cache_units", Json.Int s.sv_cache_units);
      ("max_cache_units", Json.Int s.sv_max_cache_units);
    ]

let to_json ?(explain : Explain.t option) ?(serve : serve_stats option)
    (points : point list) : string =
  Json.to_string
    (Json.Obj
       ([
          ("schema_version", Json.Int 9);
          ("suite", Json.Str "perfect");
          ("jobs_deterministic", Json.Bool true);
          ("points", Json.List (List.map json_of_point points));
        ]
       @ (match explain with
         | None -> []
         | Some e -> [ ("explain_diff", Explain.to_json e) ])
       @
       match serve with
       | None -> []
       | Some s -> [ ("serve", json_of_serve s) ]))
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Backward-compatible reader                                          *)
(* ------------------------------------------------------------------ *)

(** Minimal parsed view of an archived bench document — the fields CI
    consumers actually key on.  [rd_verdicts] is the (parallel, serial)
    pair of the version-3 ["verdicts"] object; [None] for version-2
    documents, which predate it.  The wall-clock and dependence-cache
    fields are version-4; on older documents they read as their zero /
    [None] defaults so the compare tooling degrades gracefully. *)
type read_planner = {
  rp_rounds : int;
  rp_sites : int;
  rp_growth : float;
  rp_resolved : int;
}

type read_point = {
  rd_bench : string;
  rd_config : string;
  rd_par : int;
  rd_loss : int;
  rd_extra : int;
  rd_verdicts : (int * int) option;
  rd_wall_ms : float;
  rd_exec_ms : float option;
  rd_dep_tests_run : int;
  rd_dep_cache_hits : int;
  rd_dep_cache_misses : int;
  rd_retries : int;  (** v5; 0 on older documents *)
  rd_deadline_misses : int;  (** v5; 0 on older documents *)
  rd_faults_injected : int;  (** v5; 0 on older documents *)
  rd_planner : read_planner option;  (** v6 demand points; [None] elsewhere *)
  rd_counter_keys : string list;
      (** the counter keys this point actually carries — lets consumers
          distinguish "absent in this schema version" from "zero" *)
}

type read_serve = {
  rs_requests : int;
  rs_cold_rps : float;
  rs_warm_rps : float;
  rs_p50_ms : float;
  rs_p99_ms : float;
  rs_cold_p50_ms : float;  (** v8; 0 on v7 documents *)
  rs_cold_p90_ms : float;
  rs_cold_p99_ms : float;
  rs_warm_p50_ms : float;
  rs_warm_p90_ms : float;
  rs_warm_p99_ms : float;
  rs_hit_ratio : float;
  rs_clients : (int * float * float * float) list;
      (** v9 [(clients, rps, p50_ms, p99_ms)]; empty on older documents *)
  rs_speedup : float;  (** v9; 0 on older documents *)
  rs_evictions : int;  (** v9; 0 on older documents *)
}
(** The version-7+ top-level ["serve"] throughput object; [None] on
    older documents and on suite runs without [serve-bench].  The v8
    per-pass quantiles read as [0.0] on v7 documents; the v9
    concurrency fields read as empty/zero on v7–v8 documents. *)

type read_doc = {
  rd_version : int;
  rd_points : read_point list;
  rd_serve : read_serve option;
}

(** Parse a bench JSON document produced by this driver — the current
    version 9 or the archived versions 2 through 8 — into a {!read_doc}.
    Unknown fields are ignored, so the reader keeps working as the
    schema grows. *)
let read_json (s : string) : (read_doc, string) result =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      match Json.member "schema_version" j with
      | Json.Null -> Error "missing schema_version"
      | v ->
          let version = Json.to_int ~default:0 v in
          if version < 2 || version > 9 then
            Error (Printf.sprintf "unsupported schema_version %d" version)
          else
            Ok
              {
                rd_version = version;
                rd_serve =
                  (match Json.member "serve" j with
                  | Json.Null -> None
                  | sv ->
                      Some
                        {
                          rs_requests =
                            Json.to_int (Json.member "requests" sv);
                          rs_cold_rps =
                            Json.to_float (Json.member "cold_rps" sv);
                          rs_warm_rps =
                            Json.to_float (Json.member "warm_rps" sv);
                          rs_p50_ms = Json.to_float (Json.member "p50_ms" sv);
                          rs_p99_ms = Json.to_float (Json.member "p99_ms" sv);
                          rs_cold_p50_ms =
                            Json.to_float (Json.member "cold_p50_ms" sv);
                          rs_cold_p90_ms =
                            Json.to_float (Json.member "cold_p90_ms" sv);
                          rs_cold_p99_ms =
                            Json.to_float (Json.member "cold_p99_ms" sv);
                          rs_warm_p50_ms =
                            Json.to_float (Json.member "warm_p50_ms" sv);
                          rs_warm_p90_ms =
                            Json.to_float (Json.member "warm_p90_ms" sv);
                          rs_warm_p99_ms =
                            Json.to_float (Json.member "warm_p99_ms" sv);
                          rs_hit_ratio =
                            Json.to_float (Json.member "unit_hit_ratio" sv);
                          rs_clients =
                            (match Json.member "clients" sv with
                            | Json.List cps ->
                                List.map
                                  (fun cp ->
                                    ( Json.to_int (Json.member "clients" cp),
                                      Json.to_float (Json.member "rps" cp),
                                      Json.to_float (Json.member "p50_ms" cp),
                                      Json.to_float (Json.member "p99_ms" cp)
                                    ))
                                  cps
                            | _ -> []);
                          rs_speedup =
                            Json.to_float ~default:0.0
                              (Json.member "concurrent_speedup" sv);
                          rs_evictions =
                            Json.to_int ~default:0
                              (Json.member "evictions" sv);
                        });
                rd_points =
                  List.map
                    (fun p ->
                      let counters = Json.member "counters" p in
                      {
                        rd_bench = Json.to_str (Json.member "bench" p);
                        rd_config = Json.to_str (Json.member "config" p);
                        rd_par = Json.to_int (Json.member "par_loops" p);
                        rd_loss = Json.to_int (Json.member "loss" p);
                        rd_extra = Json.to_int (Json.member "extra" p);
                        rd_verdicts =
                          (match Json.member "verdicts" p with
                          | Json.Null -> None
                          | v ->
                              Some
                                ( Json.to_int (Json.member "parallel" v),
                                  Json.to_int (Json.member "serial" v) ));
                        rd_wall_ms = Json.to_float (Json.member "wall_ms" p);
                        rd_exec_ms =
                          (match Json.member "exec_ms" p with
                          | Json.Null -> None
                          | v -> Some (Json.to_float v));
                        rd_dep_tests_run =
                          Json.to_int (Json.member "dep_tests_run" counters);
                        rd_dep_cache_hits =
                          Json.to_int (Json.member "dep_cache_hits" counters);
                        rd_dep_cache_misses =
                          Json.to_int
                            (Json.member "dep_cache_misses" counters);
                        rd_retries =
                          Json.to_int ~default:0 (Json.member "retries" p);
                        rd_deadline_misses =
                          Json.to_int ~default:0
                            (Json.member "deadline_misses" p);
                        rd_faults_injected =
                          Json.to_int ~default:0
                            (Json.member "faults_injected" counters);
                        rd_planner =
                          (match Json.member "planner" p with
                          | Json.Null -> None
                          | pl ->
                              Some
                                {
                                  rp_rounds =
                                    Json.to_int (Json.member "rounds" pl);
                                  rp_sites =
                                    Json.to_int
                                      (Json.member "sites_inlined" pl);
                                  rp_growth =
                                    Json.to_float
                                      (Json.member "growth_ratio" pl);
                                  rp_resolved =
                                    Json.to_int
                                      (Json.member "blockers_resolved" pl);
                                });
                        rd_counter_keys =
                          (match counters with
                          | Json.Obj kvs -> List.map fst kvs
                          | _ -> []);
                      })
                    (Json.to_list (Json.member "points" j));
              })

(** Write [content] to [path] atomically: temp file in the same
    directory, fsync, rename.  A crashed run can leave a stale temp file
    behind but never a truncated [path] for CI to ingest. *)
let write_file_atomic (path : string) (content : string) =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> try close_out oc with _ -> ())
    (fun () ->
      output_string oc content;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

(** Worst exit status over the points, per the 0/1/2 contract: 0 clean,
    1 when any point salvaged errors, crashed, or failed validation (the
    suite as a whole is still usable), callers map whole-run fatals to 2
    themselves. *)
let exit_status (points : point list) =
  if
    List.exists
      (fun p ->
        p.pt_crashed
        || Diag.errors_in p.pt_diags > 0
        || match p.pt_validation with
           | Some v -> not v.Checker.Oracle.v_ok
           | None -> false)
      points
  then 1
  else 0
