(** Runtime tests: interpreter semantics (arithmetic, intrinsics, COMMON
    storage, by-reference arguments, adjustable dimensions), parallel
    execution (privates, reductions, dynamic privatization through calls),
    failure injection, and the worker pool. *)

open Helpers

let cs = Alcotest.(check string)
let cb = Alcotest.(check bool)

let expect src out = cs "program output" out (run_str src)

let test_arith () =
  expect "      PROGRAM T\n      I = 7 / 2\n      X = 7.0 / 2.0\n      J = 2 ** 10\n      WRITE(6,*) I, X, J\n      END\n"
    "3 3.5 1024\n"

let test_mixed_arith () =
  expect "      PROGRAM T\n      X = 1 + 0.5\n      I = 3.9\n      WRITE(6,*) X, I\n      END\n"
    "1.5 3\n"

let test_intrinsics () =
  expect
    "      PROGRAM T\n      WRITE(6,*) MAX(3, 7), MIN(2.5, 1.5), ABS(-4), MOD(17, 5), SQRT(16.0)\n      END\n"
    "7 1.5 4 2 4\n"

let test_logical () =
  expect
    "      PROGRAM T\n      I = 3\n      IF (I .GT. 2 .AND. I .LT. 5) WRITE(6,*) 'YES'\n      IF (.NOT. (I .EQ. 3)) WRITE(6,*) 'NO'\n      END\n"
    "YES\n"

let test_do_semantics () =
  (* zero-trip loop, negative step, index value after loop *)
  expect
    "      PROGRAM T\n      N = 0\n      DO I = 5, 1\n        N = N + 1\n      ENDDO\n      DO I = 6, 2, -2\n        N = N + 10\n      ENDDO\n      WRITE(6,*) N\n      END\n"
    "30\n"

let test_common_shared () =
  expect
    "      PROGRAM T\n      COMMON /C/ X, N\n      X = 1.5\n      N = 2\n      CALL BUMP\n      WRITE(6,*) X, N\n      END\n      SUBROUTINE BUMP\n      COMMON /C/ X, N\n      X = X * 2.0\n      N = N + 1\n      END\n"
    "3 3\n"

let test_byref_scalar () =
  expect
    "      PROGRAM T\n      X = 1.0\n      CALL TWICE(X)\n      WRITE(6,*) X\n      END\n      SUBROUTINE TWICE(Y)\n      Y = Y * 2.0\n      END\n"
    "2\n"

let test_byvalue_expression_arg () =
  (* writes to a formal bound to an expression are lost, not crashing *)
  expect
    "      PROGRAM T\n      X = 3.0\n      CALL TWICE(X + 1.0)\n      WRITE(6,*) X\n      END\n      SUBROUTINE TWICE(Y)\n      Y = Y * 2.0\n      END\n"
    "3\n"

let test_array_slice_view () =
  (* passing A(3) gives the callee a view starting at element 3 *)
  expect
    "      PROGRAM T\n      DIMENSION A(10)\n      DO I = 1, 10\n        A(I) = I\n      ENDDO\n      CALL ZAP(A(3))\n      WRITE(6,*) A(3), A(4), A(2)\n      END\n      SUBROUTINE ZAP(B)\n      DIMENSION B(*)\n      B(1) = -1.0\n      B(2) = -2.0\n      END\n"
    "-1 -2 2\n"

let test_adjustable_dims () =
  (* formal reshaped by its declaration using another formal *)
  expect
    "      PROGRAM T\n      DIMENSION A(12)\n      DO I = 1, 12\n        A(I) = I\n      ENDDO\n      CALL PICK(A, 3)\n      END\n      SUBROUTINE PICK(B, LD)\n      DIMENSION B(LD, 4)\n      WRITE(6,*) B(2, 3)\n      END\n"
    "8\n"

let test_reshaped_common_after_linearization () =
  (* different units may declare different shapes over one COMMON block *)
  expect
    "      PROGRAM T\n      COMMON /C/ A(3,4)\n      A(2,2) = 9.0\n      CALL FLAT\n      END\n      SUBROUTINE FLAT\n      COMMON /C/ A(12)\n      WRITE(6,*) A(5)\n      END\n"
    "9\n"

let test_function_call () =
  expect
    "      PROGRAM T\n      X = SQ(3.0) + SQ(4.0)\n      WRITE(6,*) X\n      END\n      REAL FUNCTION SQ(Y)\n      SQ = Y * Y\n      END\n"
    "25\n"

let test_stop_message () =
  expect
    "      PROGRAM T\n      X = 1.0\n      IF (X .GT. 0.0) STOP 'BOOM'\n      WRITE(6,*) 'UNREACHED'\n      END\n"
    "STOP: BOOM\n"

let test_return_early () =
  expect
    "      PROGRAM T\n      CALL S\n      WRITE(6,*) 'AFTER'\n      END\n      SUBROUTINE S\n      WRITE(6,*) 'IN'\n      RETURN\n      END\n"
    "IN\nAFTER\n"

let test_out_of_bounds_raises () =
  let src =
    "      PROGRAM T\n      DIMENSION A(4,4)\n      I = 9\n      A(I, 2) = 1.0\n      END\n"
  in
  cb "interior bound violation raises" true
    (try
       ignore (run_str src);
       false
     with Runtime.Value.Runtime_error _ -> true)

let test_storage_overflow_raises () =
  let src =
    "      PROGRAM T\n      DIMENSION A(4)\n      I = 9\n      A(I) = 1.0\n      END\n"
  in
  cb "storage overflow raises" true
    (try
       ignore (run_str src);
       false
     with Runtime.Value.Runtime_error _ -> true)

(* ---------------- parallel execution ---------------- *)

let mark_all src =
  (* run the real pipeline so directives are sound *)
  let p = Core.Pipeline.normalize (parse src) in
  fst (Parallelizer.Parallelize.run p)

let par_equals_seq src =
  let opt = mark_all src in
  let seq = Runtime.Interp.run_program ~threads:1 opt in
  let par = Runtime.Interp.run_program ~threads:4 opt in
  cs "parallel = sequential" seq par;
  cs "optimized = original" (run_str src) seq

let test_parallel_simple () =
  par_equals_seq
    "      PROGRAM T\n      DIMENSION A(1000)\n      DO I = 1, 1000\n        A(I) = I * 2\n      ENDDO\n      S = 0.0\n      DO I = 1, 1000\n        S = S + A(I)\n      ENDDO\n      WRITE(6,*) S\n      END\n"

let test_parallel_private_scalar () =
  par_equals_seq
    "      PROGRAM T\n      DIMENSION A(200), B(200)\n      DO I = 1, 200\n        A(I) = I\n      ENDDO\n      DO I = 1, 200\n        T1 = A(I) * 2.0\n        T2 = T1 + 1.0\n        B(I) = T2\n      ENDDO\n      WRITE(6,*) B(200)\n      END\n"

let test_parallel_reduction_int () =
  par_equals_seq
    "      PROGRAM T\n      N = 0\n      DO I = 1, 500\n        N = N + I\n      ENDDO\n      WRITE(6,*) N\n      END\n"

let test_parallel_max_reduction () =
  par_equals_seq
    "      PROGRAM T\n      DIMENSION A(300)\n      DO I = 1, 300\n        A(I) = MOD(I * 37, 101)\n      ENDDO\n      M = 0\n      DO I = 1, 300\n        M = MAX(M, A(I))\n      ENDDO\n      WRITE(6,*) M\n      END\n"

let test_parallel_dynamic_privatization () =
  (* the FSMP pattern: a COMMON temp written by a callee inside a parallel
     loop resolves to the worker's private copy *)
  let src =
    "      PROGRAM T\n      COMMON /W/ TMP(64)\n      DIMENSION OUT(64)\n      DO I = 1, 64\n        CALL FILL(I)\n        S = 0.0\n        DO K = 1, 64\n          S = S + TMP(K)\n        ENDDO\n        OUT(I) = S\n      ENDDO\n      WRITE(6,*) OUT(1), OUT(64), TMP(2)\n      END\n      SUBROUTINE FILL(I)\n      COMMON /W/ TMP(64)\n      DO K = 1, 64\n        TMP(K) = I + K\n      ENDDO\n      END\n"
  in
  (* annotate FILL so the I loop parallelizes *)
  let annots =
    Core.Annot_parser.parse_annotations
      "subroutine FILL(I) { TMP = unknown(I); }"
  in
  let r =
    Core.Pipeline.run ~annots ~mode:Core.Pipeline.Annotation_based (parse src)
  in
  let marked =
    List.exists
      (fun (rep : Parallelizer.Parallelize.loop_report) ->
        rep.rep_unit = "T" && rep.rep_index = "I" && rep.rep_marked)
      r.res_reports
  in
  cb "I loop parallel" true marked;
  cs "dynamic privatization output" (run_str src)
    (Runtime.Interp.run_program ~threads:4 r.res_program)

let test_parallel_nested_runs_sequential () =
  par_equals_seq
    "      PROGRAM T\n      DIMENSION C(32,32)\n      DO J = 1, 32\n        DO I = 1, 32\n          C(I,J) = I + J * 2\n        ENDDO\n      ENDDO\n      WRITE(6,*) C(32,32)\n      END\n"

(* [program] with a PRIVATE clause listing [names] on every DO loop of
   unit [uname], placed by hand so the tests can pin privatization itself
   whatever the parallelizer would emit. *)
let with_private program uname names =
  let omp = { Frontend.Ast.omp_private = names; omp_reductions = [] } in
  let u = Frontend.Ast.find_unit_exn program uname in
  Frontend.Ast.replace_unit program
    {
      u with
      u_body =
        Frontend.Ast.map_stmts
          (fun s ->
            match s.node with
            | Frontend.Ast.Do_loop l ->
                [ { s with node = Do_loop { l with parallel = Some omp } } ]
            | _ -> [ s ])
          u.u_body;
    }

(* A PRIVATE COMMON temporary that only a callee touches is not among the
   loop body's accesses, so nothing resolves it in SUB's fresh frame
   before the fork.  Thousands of 2-iteration forks, each on a new SUB
   frame with the temporaries unresolved, give the workers every chance
   to race on that first resolution; forty of them push the frame's
   name table through a resize while they do. *)
let test_parallel_private_common_callee_only () =
  let temps = List.init 40 (Printf.sprintf "T%d") in
  let src =
    String.concat ""
      ([
         "      PROGRAM T\n";
         "      COMMON /R/ KACC(2)\n";
         "      DO K = 1, 3000\n";
         "        CALL SUB(K)\n";
         "      ENDDO\n";
         "      WRITE(6,*) KACC(1), KACC(2)\n";
         "      END\n";
         "      SUBROUTINE SUB(K)\n";
         "      COMMON /W/ " ^ String.concat ", " temps ^ "\n";
         "      DO I = 1, 2\n";
         "        CALL WORK(I, K)\n";
         "      ENDDO\n";
         "      END\n";
         "      SUBROUTINE WORK(I, K)\n";
         "      COMMON /W/ " ^ String.concat ", " temps ^ "\n";
         "      COMMON /R/ KACC(2)\n";
       ]
      @ List.mapi (fun j t -> Printf.sprintf "      %s = I * K + %d\n" t j) temps
      @ [ "      KACC(I) = KACC(I) + T0 + T39\n"; "      END\n" ])
  in
  let program = with_private (parse src) "SUB" temps in
  let private_keys = Runtime.Interp.private_state_keys program in
  let run threads =
    let out, state = Runtime.Interp.run_program_state ~threads program in
    (out, List.filter (fun (k, _) -> not (List.mem k private_keys)) state)
  in
  let seq_out, seq_state = run 1 in
  cs "sums" "9120000 18123000\n" seq_out;
  List.iter
    (fun threads ->
      let out, state = run threads in
      cs (Printf.sprintf "output at %d threads" threads) seq_out out;
      cb (Printf.sprintf "COMMON state at %d threads" threads) true
        (state = seq_state))
    [ 2; 3 ]

(* Privatizing a name in the directive's unit never reaches another
   unit's variable of that name, while a privatized COMMON member is the
   worker's copy in every unit that reads it, functions included.  The
   directive program must print what the original prints and leave the
   same non-private COMMON state, at every thread count. *)
let test_parallel_private_names_stay_in_unit () =
  let main body =
    "      PROGRAM PRIV\n      COMMON /R/ OUT(8), W(8)\n      COMMON /P/ T1\n\
    \      DO I = 1, 8\n" ^ body
    ^ "      ENDDO\n      WRITE(6,*) OUT(1), OUT(8), W(1), W(8)\n      END\n"
  in
  let cases =
    [
      (* a callee formal, a callee local and a FUNCTION local named T *)
      ( [ "T" ],
        main
          "        T = I * 2.0\n        OUT(I) = 0.0\n        CALL S(OUT(I), I)\n\
          \        CALL S2(I)\n        OUT(I) = OUT(I) + T + F(I)\n"
        ^ "      SUBROUTINE S(T, K)\n      T = T + K\n      END\n\
          \      SUBROUTINE S2(K)\n      COMMON /R/ OUT(8), W(8)\n\
          \      T = K * 3.0\n      W(K) = T\n      END\n\
          \      REAL FUNCTION F(K)\n      T = K * 0.25\n      F = T + 1.0\n\
          \      END\n" );
      (* a privatized COMMON scalar read through a FUNCTION *)
      ( [ "T1" ],
        main "        T1 = I + 0.5\n        OUT(I) = G(I)\n        W(I) = T1\n"
        ^ "      REAL FUNCTION G(K)\n      COMMON /P/ T1\n      G = T1 * K\n\
          \      END\n" );
      (* a PRIVATE name no unit declares or mentions, like TRFD's TSUM *)
      ( [ "T"; "TSUM" ],
        main "        T = I * 2.0\n        OUT(I) = T\n        CALL S2(I)\n"
        ^ "      SUBROUTINE S2(K)\n      COMMON /R/ OUT(8), W(8)\n\
          \      W(K) = K\n      END\n" );
    ]
  in
  List.iter
    (fun (names, src) ->
      let original = parse src in
      let program = with_private original "PRIV" names in
      let private_keys = Runtime.Interp.private_state_keys program in
      let shared state =
        List.filter (fun (k, _) -> not (List.mem k private_keys)) state
      in
      let out, state = Runtime.Interp.run_program_state original in
      List.iter
        (fun threads ->
          let out', state' =
            Runtime.Interp.run_program_state ~threads program
          in
          let what = Printf.sprintf "PRIVATE(%s) at %d threads"
              (String.concat "," names) threads in
          cs (what ^ ": output") out out';
          cb (what ^ ": COMMON state") true (shared state = shared state'))
        [ 1; 2; 3 ])
    cases

(* PARAMETERs are bound when the frame is made: a logical one reads its
   value, and a FUNCTION's REAL one evaluates on the function's own
   scratch stack, not over the caller's half-evaluated expression. *)
let test_parameters () =
  expect
    "      PROGRAM T\n      LOGICAL ON\n      PARAMETER (ON = .TRUE.)\n\
    \      X = 2.0 + F(1.0)\n      IF (ON) WRITE(6,*) X\n      END\n\
    \      REAL FUNCTION F(Y)\n      PARAMETER (P = 3.0)\n      F = Y + P\n\
    \      END\n"
    "6\n"

let test_pool_parallel_for () =
  let pool = Runtime.Pool.create 4 in
  let hits = Array.make 64 0 in
  Runtime.Pool.parallel_for pool ~chunks:64 (fun c -> hits.(c) <- hits.(c) + 1);
  Runtime.Pool.shutdown pool;
  cb "every chunk ran exactly once" true (Array.for_all (( = ) 1) hits)

let test_pool_propagates_exception () =
  let pool = Runtime.Pool.create 4 in
  let raised =
    try
      Runtime.Pool.parallel_for pool ~chunks:8 (fun c ->
          if c = 5 then failwith "boom");
      false
    with Failure m -> m = "boom"
  in
  Runtime.Pool.shutdown pool;
  cb "exception surfaced" true raised

let test_pool_reusable () =
  let pool = Runtime.Pool.create 3 in
  let total = ref 0 in
  let m = Mutex.create () in
  for _ = 1 to 50 do
    Runtime.Pool.parallel_for pool ~chunks:7 (fun _ ->
        Mutex.lock m;
        incr total;
        Mutex.unlock m)
  done;
  Runtime.Pool.shutdown pool;
  Alcotest.(check int) "350 tasks" 350 !total

(* Chunk 0 holds the caller until chunk 1 has started, so the job can
   only complete if a worker domain takes chunk 1 (bounded, so a broken
   handoff fails instead of hanging). *)
let test_pool_worker_takes_chunks () =
  let pool = Runtime.Pool.create 2 in
  let ran_on = Array.make 2 (-1) in
  let started = Atomic.make false in
  let timed_out = ref false in
  for _ = 1 to 50 do
    Atomic.set started false;
    Runtime.Pool.parallel_for pool ~chunks:2 (fun c ->
        ran_on.(c) <- (Domain.self () :> int);
        if c = 1 then Atomic.set started true
        else begin
          let give_up = Unix.gettimeofday () +. 10.0 in
          while
            (not (Atomic.get started)) && Unix.gettimeofday () < give_up
          do
            Domain.cpu_relax ()
          done;
          if not (Atomic.get started) then timed_out := true
        end)
  done;
  Runtime.Pool.shutdown pool;
  cb "chunk 1 started while chunk 0 waited" false !timed_out;
  cb "the chunks ran on two domains" true (ran_on.(0) <> ran_on.(1))

(* Two domains fork on one pool at once: each job's chunks are its own,
   so every chunk of every job runs exactly once. *)
let test_pool_concurrent_callers () =
  let pool = Runtime.Pool.create 3 in
  let jobs = 200 and chunks = 16 in
  let caller () =
    let hits =
      Array.init jobs (fun _ -> Array.init chunks (fun _ -> Atomic.make 0))
    in
    Array.iter
      (fun job ->
        Runtime.Pool.parallel_for pool ~chunks (fun c -> Atomic.incr job.(c)))
      hits;
    hits
  in
  let other = Domain.spawn caller in
  let mine = caller () in
  let theirs = Domain.join other in
  Runtime.Pool.shutdown pool;
  let once = Array.for_all (Array.for_all (fun a -> Atomic.get a = 1)) in
  cb "every chunk of every job ran exactly once" true (once mine && once theirs)

(* Shutdown right after a job finds the workers in their spin window: it
   must stop them there, not after they park, and the pool must still
   refuse later jobs. *)
let test_pool_shutdown_while_spinning () =
  for _ = 1 to 20 do
    let pool = Runtime.Pool.create 3 in
    Runtime.Pool.parallel_for pool ~chunks:3 ignore;
    let t0 = Unix.gettimeofday () in
    Runtime.Pool.shutdown pool;
    cb "shutdown returns promptly" true (Unix.gettimeofday () -. t0 < 2.0);
    match Runtime.Pool.parallel_for pool ~chunks:2 ignore with
    | () -> Alcotest.fail "expected Diag.Fatal on a shut-down pool"
    | exception Frontend.Diag.Fatal d ->
        cb "exec code" true (d.Frontend.Diag.d_code = Frontend.Diag.Exec)
  done

let suite =
  [
    ("interp: arithmetic", `Quick, test_arith);
    ("interp: mixed arithmetic", `Quick, test_mixed_arith);
    ("interp: intrinsics", `Quick, test_intrinsics);
    ("interp: logicals", `Quick, test_logical);
    ("interp: DO semantics", `Quick, test_do_semantics);
    ("interp: COMMON shared", `Quick, test_common_shared);
    ("interp: by-reference scalars", `Quick, test_byref_scalar);
    ("interp: expression arguments", `Quick, test_byvalue_expression_arg);
    ("interp: array slice views", `Quick, test_array_slice_view);
    ("interp: adjustable dims", `Quick, test_adjustable_dims);
    ("interp: reshaped COMMON", `Quick, test_reshaped_common_after_linearization);
    ("interp: functions", `Quick, test_function_call);
    ("interp: STOP", `Quick, test_stop_message);
    ("interp: RETURN", `Quick, test_return_early);
    ("fault: interior bounds", `Quick, test_out_of_bounds_raises);
    ("fault: storage overflow", `Quick, test_storage_overflow_raises);
    ("parallel: simple + reduction", `Quick, test_parallel_simple);
    ("parallel: private scalars", `Quick, test_parallel_private_scalar);
    ("parallel: integer reduction", `Quick, test_parallel_reduction_int);
    ("parallel: max reduction", `Quick, test_parallel_max_reduction);
    ("parallel: dynamic privatization", `Quick, test_parallel_dynamic_privatization);
    ("parallel: nested", `Quick, test_parallel_nested_runs_sequential);
    ( "parallel: callee-only private COMMON",
      `Quick,
      test_parallel_private_common_callee_only );
    ("pool: coverage", `Quick, test_pool_parallel_for);
    ("pool: exceptions", `Quick, test_pool_propagates_exception);
    ("pool: reuse", `Quick, test_pool_reusable);
    ("pool: workers take chunks", `Quick, test_pool_worker_takes_chunks);
    ("pool: concurrent callers", `Quick, test_pool_concurrent_callers);
    ("pool: shutdown while spinning", `Quick, test_pool_shutdown_while_spinning);
    ( "parallel: PRIVATE names stay in their unit",
      `Quick,
      test_parallel_private_names_stay_in_unit );
    ("interp: PARAMETERs", `Quick, test_parameters);
  ]
