(** Perf-layer tests: the dependence memo cache must be semantically
    invisible (byte-identical verdicts and explain output with the cache
    disabled), the interner must be idempotent, the cache counters must
    partition [dep_tests_run], and the batched pool handout must run
    every chunk exactly once even under failure injection. *)

open Frontend

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

(* ---------------- cache on = cache off (differential) ---------------- *)

(* Compiler gensyms (_IL<N> inliner renames, IAN<N> annotation indices,
   UNKANN<N> unknown-annotation temps) number from global counters that
   advance across pipeline runs; blank the digits so fingerprints from
   separate runs are comparable. *)
let gensym_prefixes = [ "_IL"; "IAN"; "UNKANN" ]

let normalize_gensyms s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c =
    (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || is_digit c || c = '_'
  in
  let i = ref 0 in
  while !i < n do
    let matched =
      List.find_opt
        (fun p ->
          let l = String.length p in
          !i + l < n
          && String.sub s !i l = p
          && is_digit s.[!i + l]
          (* word boundary on the left so e.g. MEDIAN3 stays intact *)
          && (!i = 0 || p.[0] = '_' || not (is_word s.[!i - 1])))
        gensym_prefixes
    in
    match matched with
    | Some p ->
        Buffer.add_string b p;
        Buffer.add_char b '#';
        i := !i + String.length p;
        while !i < n && is_digit s.[!i] do
          incr i
        done
    | None ->
        Buffer.add_char b s.[!i];
        incr i
  done;
  Buffer.contents b

(* Byte-level fingerprint of one pipeline run: every loop verdict as its
   JSON encoding (order preserved -- report order is deterministic),
   plus the pretty-printed optimized program. *)
let run_fingerprint (b : Perfect.Bench_def.t) mode =
  let r =
    Core.Pipeline.run
      ~annots:(Perfect.Bench_def.annots b)
      ~mode (Perfect.Bench_def.parse b)
  in
  let verdicts =
    List.map
      (fun (rep : Parallelizer.Parallelize.loop_report) ->
        (* the lid_loop gensym is only unique within one run -- zero it
           so fingerprints from separate parses are comparable *)
        let v = rep.rep_verdict in
        let lid = { v.Parallelizer.Verdict.v_loop with lid_loop = 0 } in
        Json.to_string
          (Parallelizer.Verdict.to_json { v with v_loop = lid }))
      r.res_reports
  in
  normalize_gensyms
    (String.concat "\n" verdicts ^ "\n"
    ^ Pretty.program_to_string r.res_program)

let test_differential_matrix () =
  List.iter
    (fun (b : Perfect.Bench_def.t) ->
      List.iter
        (fun mode ->
          let hot = run_fingerprint b mode in
          let cold =
            Dependence.Memo.with_cache false (fun () -> run_fingerprint b mode)
          in
          cs
            (Printf.sprintf "%s/%s cached = uncached" b.name
               (Core.Pipeline.mode_name mode))
            cold hot)
        [
          Core.Pipeline.No_inlining;
          Core.Pipeline.Conventional;
          Core.Pipeline.Annotation_based;
        ])
    Perfect.Suite.all

let test_differential_explain () =
  let render () =
    let points = Perfect.Driver.run_suite ~jobs:1 () in
    Perfect.Explain.render (Perfect.Driver.explain points)
  in
  let hot = render () in
  let cold = Dependence.Memo.with_cache false render in
  cs "explain-diff byte-identical without cache" cold hot

(* The demand planner runs many probes through one memo; its verdicts,
   plan and program must not depend on who answered the dependence
   questions either. *)
let demand_fingerprint (b : Perfect.Bench_def.t) =
  Core.Pipeline.reset_gensyms ();
  let r, plan =
    Planner.run ~annots:(Perfect.Bench_def.annots b) (Perfect.Bench_def.parse b)
  in
  Json.to_string (Planner.to_json plan) ^ "\n" ^ Helpers.fingerprint r

let test_differential_demand () =
  List.iter
    (fun (b : Perfect.Bench_def.t) ->
      let hot = demand_fingerprint b in
      let cold =
        Dependence.Memo.with_cache false (fun () -> demand_fingerprint b)
      in
      cs (b.name ^ "/demand cached = uncached") cold hot)
    Perfect.Suite.all

(* ---------------- interning ---------------- *)

let test_intern_idempotent () =
  Dependence.Memo.reset ();
  (* memo keys are unit-independent modulo typing: two units with the
     same (here: implicit) types for the mentioned identifiers share
     ids; a unit that retypes one of them splits the key *)
  let u = Helpers.parse_unit "      X = 1" in
  let u' = Helpers.parse_unit ~name:"T2" "      Y = 2" in
  let u_real_n = Helpers.parse_unit ~name:"T3" "      REAL N\n      X = 1" in
  let index = [ Ast.Var "I" ] in
  let inner = [ ("J", Ast.Int_const 1, Ast.Var "N") ] in
  let a = Dependence.Memo.intern_aref u index inner in
  let b = Dependence.Memo.intern_aref u index inner in
  ci "same structure, same id" a b;
  (* structural, not physical: a fresh copy still hits the same id *)
  let c =
    Dependence.Memo.intern_aref u [ Ast.Var "I" ]
      [ ("J", Ast.Int_const 1, Ast.Var "N") ]
  in
  ci "fresh copy interns to the same id" a c;
  ci "same typing, different unit: shared id" a
    (Dependence.Memo.intern_aref u' index inner);
  cb "retyped identifier splits the key" true
    (Dependence.Memo.intern_aref u_real_n index inner <> a);
  let d = Dependence.Memo.intern_aref u [ Ast.Var "J" ] inner in
  cb "different structure, different id" true (d <> a);
  let arefs, _, _ = Dependence.Memo.sizes () in
  ci "exactly three arefs interned" 3 arefs;
  let fp1 = Dependence.Memo.intern_ctx ~u ~index:"I" ~lo:(Ast.Int_const 1)
      ~hi:(Ast.Var "N") ~step:(Ast.Int_const 1) ~positive:[ "N" ] in
  let fp2 = Dependence.Memo.intern_ctx ~u:u' ~index:"I" ~lo:(Ast.Int_const 1)
      ~hi:(Ast.Var "N") ~step:(Ast.Int_const 1) ~positive:[ "N" ] in
  ci "same context, same fingerprint (across units)" fp1 fp2;
  let fp3 = Dependence.Memo.intern_ctx ~u ~index:"I" ~lo:(Ast.Int_const 1)
      ~hi:(Ast.Var "N") ~step:(Ast.Int_const 1) ~positive:[] in
  cb "positive set is part of the fingerprint" true (fp3 <> fp1);
  (* ids are drawn from one counter: ctx fingerprints never collide
     with aref ids, so a memo key can't alias across the two tables *)
  cb "aref ids and ctx fingerprints disjoint" true
    (List.for_all (fun fp -> fp <> a && fp <> c && fp <> d) [ fp1; fp3 ]);
  Dependence.Memo.reset ();
  let arefs, ctxs, table = Dependence.Memo.sizes () in
  cb "reset clears all tables" true (arefs = 0 && ctxs = 0 && table = 0)

(* ---------------- counter partition ---------------- *)

let profiled_counters f =
  let prof = Frontend.Prof.create () in
  f prof;
  Frontend.Prof.snapshot prof

let run_annot ?prof (b : Perfect.Bench_def.t) =
  ignore
    (Core.Pipeline.run ?prof
       ~annots:(Perfect.Bench_def.annots b)
       ~mode:Core.Pipeline.Annotation_based (Perfect.Bench_def.parse b))

let test_counters_partition () =
  let c = profiled_counters (fun prof -> run_annot ~prof Perfect.Mdg.bench) in
  cb "dep tests ran" true (c.Frontend.Prof.dep_tests_run > 0);
  ci "hits + misses = run" c.Frontend.Prof.dep_tests_run
    (c.Frontend.Prof.dep_cache_hits + c.Frontend.Prof.dep_cache_misses);
  cb "the cache fires on MDG" true (c.Frontend.Prof.dep_cache_hits > 0)

let test_counters_cache_disabled () =
  let c =
    profiled_counters (fun prof ->
        Dependence.Memo.with_cache false (fun () ->
            run_annot ~prof Perfect.Mdg.bench))
  in
  cb "dep tests ran" true (c.Frontend.Prof.dep_tests_run > 0);
  ci "no hits when disabled" 0 c.Frontend.Prof.dep_cache_hits;
  ci "every test is a miss when disabled" c.Frontend.Prof.dep_tests_run
    c.Frontend.Prof.dep_cache_misses

(* the memoized run decides exactly the same independence facts as the
   cold run -- only cheaper *)
let test_counters_same_outcomes () =
  let hot = profiled_counters (fun prof -> run_annot ~prof Perfect.Mdg.bench) in
  let cold =
    profiled_counters (fun prof ->
        Dependence.Memo.with_cache false (fun () ->
            run_annot ~prof Perfect.Mdg.bench))
  in
  ci "same dep_tests_run" cold.Frontend.Prof.dep_tests_run
    hot.Frontend.Prof.dep_tests_run;
  ci "same dep_tests_independent" cold.Frontend.Prof.dep_tests_independent
    hot.Frontend.Prof.dep_tests_independent;
  cb "hot run recomputes strictly less" true
    (hot.Frontend.Prof.dep_cache_misses < cold.Frontend.Prof.dep_cache_misses)

(* ---------------- pool: exactly-once under failure ---------------- *)

let test_pool_exactly_once_under_failure () =
  let pool = Runtime.Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.shutdown pool)
    (fun () ->
      let chunks = 100 in
      let runs = Array.make chunks 0 in
      let raised =
        try
          Runtime.Pool.parallel_for ~label:"inject" pool ~chunks (fun c ->
              (* each cell is touched by exactly one chunk, so a double
                 handout shows up as runs.(c) = 2 *)
              runs.(c) <- runs.(c) + 1;
              if c mod 7 = 3 then failwith "injected");
          false
        with Runtime.Pool.Worker_failure ("inject", Failure msg)
        when msg = "injected" ->
          true
      in
      cb "failure propagated with its label" true raised;
      Array.iteri
        (fun c n -> ci (Printf.sprintf "chunk %d ran exactly once" c) 1 n)
        runs;
      (* the pool survives a failed job: the next job runs clean *)
      let total = Atomic.make 0 in
      Runtime.Pool.parallel_for pool ~chunks:64 (fun c ->
          ignore (Atomic.fetch_and_add total (c + 1)));
      ci "pool reusable after failure" (64 * 65 / 2) (Atomic.get total))

(* ---------------- slot-resolved execution ---------------- *)

(* Exercises the interpreter hot paths rebuilt around slots: PARAMETER
   constants, a precompiled CALL with by-reference array and by-value
   scalar arguments, and pipeline-marked parallel loops with privatized
   scalars -- original, serial-optimized, and parallel-optimized
   executions must agree. *)
let slot_src =
  "      PROGRAM SLOTS\n\
   \      PARAMETER (N = 64)\n\
   \      DIMENSION A(64)\n\
   \      DO I = 1, N\n\
   \        A(I) = I\n\
   \      ENDDO\n\
   \      CALL SCALE(A, N, 3.0)\n\
   \      S = 0.0\n\
   \      DO I = 1, N\n\
   \        S = S + A(I)\n\
   \      ENDDO\n\
   \      WRITE(6,*) S\n\
   \      END\n\
   \      SUBROUTINE SCALE(X, M, F)\n\
   \      DIMENSION X(M)\n\
   \      DO I = 1, M\n\
   \        T = F * X(I)\n\
   \        X(I) = T\n\
   \      ENDDO\n\
   \      END\n"

let test_slot_exec_parallel_agrees () =
  let original = Resolve.parse slot_src in
  let marked =
    fst (Parallelizer.Parallelize.run (Core.Pipeline.normalize original))
  in
  let plain = Runtime.Interp.run_program ~threads:1 original in
  let seq = Runtime.Interp.run_program ~threads:1 marked in
  let par = Runtime.Interp.run_program ~threads:4 marked in
  cb "output non-empty" true (String.length plain > 0);
  cs "optimized serial = original" plain seq;
  cs "parallel = serial under slot resolution" seq par

let suite =
  [
    Alcotest.test_case "12x3 matrix: cached = uncached (verdict JSON)" `Slow
      test_differential_matrix;
    Alcotest.test_case "explain-diff unchanged by cache" `Slow
      test_differential_explain;
    Alcotest.test_case "interning idempotent and collision-free" `Quick
      test_intern_idempotent;
    Alcotest.test_case "hits + misses = dep_tests_run" `Quick
      test_counters_partition;
    Alcotest.test_case "disabled cache: all misses, no hits" `Quick
      test_counters_cache_disabled;
    Alcotest.test_case "cache changes cost, not outcomes" `Quick
      test_counters_same_outcomes;
    Alcotest.test_case "pool runs every chunk exactly once under failure"
      `Quick test_pool_exactly_once_under_failure;
    Alcotest.test_case "slot-resolved exec: parallel = serial" `Quick
      test_slot_exec_parallel_agrees;
    Alcotest.test_case "demand: cached = uncached (verdict JSON)" `Slow
      test_differential_demand;
  ]
