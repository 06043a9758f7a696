(** Experiment driver: reproduces the paper's evaluation artifacts for one
    benchmark -- the Table II row (three configurations compared on loop
    counts and code size) and the Figure 20 measurements (speedups of the
    optimized programs over the sequential original, after the paper's
    "empirical performance tuning" step that disables counterproductive
    parallel loops). *)

open Core

type mode_cells = {
  m_par : int;  (** #par-loops *)
  m_loss : int;
  m_extra : int;
  m_size : int;  (** non-comment lines after optimization *)
  m_diags : Diag.t list;
      (** per-benchmark salvage record from the fault-isolated pipeline;
          empty on a healthy run *)
}

type table2_row = {
  t2_name : string;
  t2_no_inline : mode_cells;
  t2_conventional : mode_cells;
  t2_annotation : mode_cells;
}

(* Benchmarks run through the fault-isolated pipeline: a sick unit or a
   failing annotation degrades locally, and whatever was salvaged is
   reported per benchmark through [m_diags]. *)
let run_modes ?par_config (b : Bench_def.t) =
  let program = Bench_def.parse b in
  let annots = Bench_def.annots b in
  let run mode = Pipeline.run_robust ?par_config ~annots ~mode program in
  let base = run Pipeline.No_inlining in
  let conv = run Pipeline.Conventional in
  let annot = run Pipeline.Annotation_based in
  (base, conv, annot)

let table2_row ?par_config (b : Bench_def.t) : table2_row =
  let base, conv, annot = run_modes ?par_config b in
  let cells (r : Pipeline.result) =
    let par, loss, extra = Pipeline.table2_counts ~baseline:base r in
    {
      m_par = par;
      m_loss = loss;
      m_extra = extra;
      m_size = r.res_code_size;
      m_diags = r.res_diags;
    }
  in
  {
    t2_name = b.name;
    t2_no_inline = cells base;
    t2_conventional = cells conv;
    t2_annotation = cells annot;
  }

(* ------------------------------------------------------------------ *)
(* Figure 20: runtime speedups                                          *)
(* ------------------------------------------------------------------ *)

type fig20_row = {
  f_name : string;
  f_seq : float;  (** original program, sequential *)
  f_no_inline : float;  (** speedup vs sequential *)
  f_conventional : float;
  f_annotation : float;
}

(* Numeric output comparison with a small relative tolerance; the single
   definition lives with the validation oracle (parallel reductions
   legally reassociate floating-point sums, so the last printed digit may
   differ from the sequential run). *)
let outputs_equal = Checker.Oracle.outputs_equal

let time_run ?(repeat = 1) ~threads program =
  (* best-of-N wall clock; also checks output stability *)
  let best = ref infinity in
  let out = ref "" in
  for _ = 1 to repeat do
    let t0 = Unix.gettimeofday () in
    let o = Runtime.Interp.run_program ~threads program in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    out := o
  done;
  (!best, !out)

(** The paper's empirical tuning step plus the Figure 20 measurement.

    The authors ran on 4- and 8-core machines; this container may have a
    single core, where wall-clock "speedups" of a multi-domain run are
    meaningless.  We therefore support two measurement modes:

    - [`Measured]: run the optimized program across domains after a
      profile-guided tuning pass that disables directive loops whose
      parallel execution is slower than their sequential execution (the
      paper's "empirical performance tuning");
    - [`Projected]: measure each directive loop's *sequential* time and
      execution count, then project the parallel time with an Amdahl
      model  t/P + n*fork_cost  per loop, choosing for every marked-loop
      nest the level (outer vs inner) that maximizes the benefit -- the
      same choice the tuner makes.  The projection is documented in
      DESIGN.md as the substitution for the paper's multicore testbeds.

    [`Auto] picks [`Measured] when the machine actually has at least
    [threads] cores. *)

type measure_mode = [ `Measured | `Projected | `Auto ]

(* Cost of one fork in the Amdahl model: a model constant, not a
   measurement (DESIGN.md, "Fork cost", has the measured one). *)
let fork_cost = 10e-6

(* Which directive loops actually fork at run time?  Loops nested in a
   parallel region (statically or through calls) never fork; a profile of
   a multi-domain run records exactly the forking loops, with their
   top-level execution counts. *)
let forking_loops ~threads program =
  let tbl : (int, Runtime.Interp.prof_cell) Hashtbl.t = Hashtbl.create 32 in
  ignore (Runtime.Interp.run_program ~threads ~profile:tbl program);
  tbl

let unmark ids program =
  let module P = Frontend.Ast in
  {
    P.p_units =
      List.map
        (fun u ->
          {
            u with
            P.u_body =
              P.map_stmts
                (fun s ->
                  match s.P.node with
                  | P.Do_loop l when List.mem l.loop_id ids ->
                      [ { s with P.node = P.Do_loop { l with parallel = None } } ]
                  | _ -> [ s ])
                u.P.u_body;
          })
        program.P.p_units;
  }

(* Per-loop sequential times, execution counts and the total wall time,
   all from one run (the best of [repeat] runs), so the loop times and
   the total are mutually consistent even on a noisy machine. *)
let seq_profile ~repeat program =
  let best = ref infinity in
  let best_tbl = ref (Hashtbl.create 0) in
  for _ = 1 to max 1 repeat do
    let tbl : (int, Runtime.Interp.prof_cell) Hashtbl.t = Hashtbl.create 32 in
    let t0 = Unix.gettimeofday () in
    ignore (Runtime.Interp.run_program ~threads:1 ~profile:tbl program);
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then begin
      best := dt;
      best_tbl := tbl
    end
  done;
  (!best_tbl, !best)

(* Amdahl gain of parallelizing one forking loop at [threads] ways:
   saved = t_forked*(1 - 1/P) - n*fork_cost, where t_forked scales the
   measured per-execution sequential time by the number of executions
   that actually fork (a loop may also run, without forking, inside other
   parallel regions -- e.g. in a peeled last iteration). *)
let loop_gain ~threads ~(tseq : (int, Runtime.Interp.prof_cell) Hashtbl.t) id n
    =
  match Hashtbl.find_opt tseq id with
  | None -> 0.0
  | Some c when c.Runtime.Interp.pn = 0 -> 0.0
  | Some c ->
      let p = float_of_int threads in
      let per_exec =
        c.Runtime.Interp.pt /. float_of_int c.Runtime.Interp.pn
      in
      let n = min n c.Runtime.Interp.pn in
      (per_exec *. float_of_int n *. (1.0 -. (1.0 /. p)))
      -. (float_of_int n *. fork_cost)

(* Iteratively disable forking loops with non-positive gain; disabling an
   outer loop lets inner directive loops fork on the next round, so the
   loop/nest level selection is implicit.  Returns the tuned program and
   its total projected gain. *)
let rec tune_rounds ~threads ~repeat program round =
  let forking = forking_loops ~threads program in
  let tseq, t_total = seq_profile ~repeat program in
  let gains =
    Hashtbl.fold
      (fun id (c : Runtime.Interp.prof_cell) acc ->
        (id, loop_gain ~threads ~tseq id c.Runtime.Interp.pn) :: acc)
      forking []
  in
  let bad =
    List.filter_map (fun (id, g) -> if g <= 0.0 then Some id else None) gains
  in
  if bad = [] || round >= 3 then
    ( program,
      List.fold_left (fun acc (_, g) -> acc +. Float.max 0.0 g) 0.0 gains,
      t_total )
  else tune_rounds ~threads ~repeat (unmark bad program) (round + 1)

(** The empirical tuning step: disable directive loops whose
    parallelization does not pay. *)
let tune ?(repeat = 1) ~threads program =
  let p, _, _ = tune_rounds ~threads ~repeat program 0 in
  p

(** Projected wall-clock of the tuned program at [threads] ways.  The
    per-loop gains and the total they are subtracted from come from the
    same profiled run; the result is floored at total/threads (Amdahl). *)
let projected_time ?(repeat = 1) ~threads program =
  let _, gain, t_total = tune_rounds ~threads ~repeat program 0 in
  Float.max (t_total /. float_of_int threads) (t_total -. gain)

let have_cores threads = Domain.recommended_domain_count () >= threads

let fig20_row ?par_config ?(threads = 4) ?(repeat = 2)
    ?(measure : measure_mode = `Auto) (b : Bench_def.t) : fig20_row =
  let base, conv, annot = run_modes ?par_config b in
  let original = Bench_def.parse b in
  let t_seq, out_seq = time_run ~repeat ~threads:1 original in
  let measured =
    match measure with
    | `Measured -> true
    | `Projected -> false
    | `Auto -> have_cores threads
  in
  let speedup (r : Pipeline.result) =
    if measured then begin
      let tuned = tune ~repeat ~threads r.res_program in
      let t, out = time_run ~repeat ~threads tuned in
      if not (outputs_equal out out_seq) then
        Diag.fatal Diag.Verify "%s: output mismatch under %s" b.name
          (Pipeline.mode_name r.res_mode);
      t_seq /. t
    end
    else begin
      (* correctness still validated with real domains, timing projected *)
      let out = Runtime.Interp.run_program ~threads r.res_program in
      if not (outputs_equal out out_seq) then
        Diag.fatal Diag.Verify "%s: output mismatch under %s" b.name
          (Pipeline.mode_name r.res_mode);
      (* run-to-run noise can make the baseline slower than the optimized
         sequential run; the model never yields super-linear speedup *)
      Float.min
        (float_of_int threads)
        (t_seq /. projected_time ~repeat ~threads r.res_program)
    end
  in
  {
    f_name = b.name;
    f_seq = t_seq;
    f_no_inline = speedup base;
    f_conventional = speedup conv;
    f_annotation = speedup annot;
  }

(** Sanity harness used by tests: all three optimized programs and the
    original produce identical output, sequentially and in parallel. *)
let outputs_agree ?par_config ?(threads = 4) (b : Bench_def.t) : bool =
  let base, conv, annot = run_modes ?par_config b in
  let original = Bench_def.parse b in
  let reference = Runtime.Interp.run_program ~threads:1 original in
  List.for_all
    (fun (r : Pipeline.result) ->
      let seq = Runtime.Interp.run_program ~threads:1 r.res_program in
      let par = Runtime.Interp.run_program ~threads r.res_program in
      outputs_equal seq reference && outputs_equal par reference)
    [ base; conv; annot ]
