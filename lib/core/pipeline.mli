(** The three compilation pipelines compared in the paper's evaluation. *)

open Frontend

(** Inlining configuration: none, Polaris-default conventional inlining,
    the paper's annotation-based inlining (with reverse inlining), or the
    analysis leg of the demand-driven planner.  [Demand] expects the
    planner to have materialized its callee selection already, so the
    inline phase is a no-op; the reverse phase restores the *selected*
    annotation regions exactly as [Annotation_based] does. *)
type mode = No_inlining | Conventional | Annotation_based | Demand

val mode_name : mode -> string

(** The accepted mode spellings — [none]/[no-inlining], [conventional],
    [annotation]/[annotation-based], [demand]/[demand-driven] — shared
    by the CLI and the daemon; anything else is
    [Error "unknown mode \"x\""]. *)
val mode_of_string : string -> (mode, string) result

type result = {
  res_mode : mode;
  res_program : Ast.program;  (** final optimized source *)
  res_reports : Parallelizer.Parallelize.loop_report list;
      (** one report per analyzed loop (copies share loop ids) *)
  res_marked : int list;
      (** ids of loops carrying a directive in code reachable from MAIN *)
  res_code_size : int;  (** non-comment line count of the output *)
  res_original_loops : int list;  (** loop ids present in the input *)
  res_inline_stats : Inliner.Inline.stats option;  (** [Conventional] only *)
  res_annot_stats : Annot_inline.stats option;  (** [Annotation_based] only *)
  res_reverse_stats : Reverse.stats option;  (** [Annotation_based] only *)
  res_diags : Diag.t list;
      (** diagnostics accumulated by {!run_robust}; [[]] from {!run} *)
  res_validation : Checker.Oracle.verdict option;
      (** validation-oracle verdict (race detection + serial/parallel
          differential) when {!run_robust} ran with [~validate:true];
          [None] otherwise *)
}

(** The normalization sequence applied before dependence analysis (and,
    symmetrically, to reverse-inline templates): constant propagation,
    induction-variable substitution, forward substitution, constant
    propagation. *)
val normalize : Ast.program -> Ast.program

(** Units reachable from MAIN through calls and function references. *)
val reachable_units : Ast.program -> Set.Make(String).t

(** Total statement count of a program — the planner's code-growth
    currency. *)
val stmt_count : Ast.program -> int

(** Representative verdict per analyzed loop id, restricted to units
    reachable from MAIN; a marked copy wins over a serial copy (a loop
    parallel *anywhere live* counts as parallel, matching the Table II
    accounting). *)
val verdict_map : result -> (int * Parallelizer.Verdict.t) list

(** Run one pipeline configuration over a parsed program.  With
    [?prof], the profile is installed (domain-locally) for the duration:
    phase wall times land in pass buckets ("inline", "normalize",
    "parallelize", "reverse") and the analysis counters accumulate.
    Without it the instrumentation is inert — a load and a branch. *)
val run :
  ?prof:Prof.t ->
  ?par_config:Parallelizer.Parallelize.config ->
  ?inline_config:Inliner.Inline.config ->
  ?annot_config:Annot_inline.config ->
  ?annots:Annot_ast.annotation list ->
  mode:mode ->
  Ast.program ->
  result

(** Units analyzed by earlier {!run_robust} calls that shared the table.
    An entry is keyed on the unit's pre-normalization AST (structural
    equality, statement and loop ids included) plus the purity set its
    parallelization saw, and holds the normalized body, the parallelized
    body and the loop reports.  A unit whose normalization or
    parallelization emitted a diagnostic or raised is never stored.  A
    table serves one [par_config]; the demand planner makes one per
    {!Planner.run}. *)
type unit_table

val unit_table : unit -> unit_table

(** Fault-tolerant variant of {!run}: every pass runs behind a per-unit
    fault barrier, degrading locally instead of killing the run.  The
    degradation ladder is annotation-based inlining (per call site) →
    conventional inlining → no inlining; a crashing normalization pass is
    skipped for that unit with the pre-pass AST restored; a crashing
    parallelizer leaves the unit serial; a reverse-inline failure keeps
    the inlined regions.  Salvage events land in [res_diags] as warnings.
    Pass [dg] to accumulate into an existing collector; its
    [Error_limit] is not caught.

    With [~validate:true] the optimized program additionally runs under
    the validation oracle (serial traced replay for clause-aware race
    detection, then a differential parallel run at [validate_threads]
    domains); the verdict lands in [res_validation] and its diagnostics
    join [res_diags].

    With [units], a unit the table already holds skips normalization and
    parallelization, and their fault points, and takes the stored body
    and reports; each unit analyzed clean is added to the table. *)
val run_robust :
  ?prof:Prof.t ->
  ?par_config:Parallelizer.Parallelize.config ->
  ?inline_config:Inliner.Inline.config ->
  ?annot_config:Annot_inline.config ->
  ?annots:Annot_ast.annotation list ->
  ?dg:Diag.collector ->
  ?validate:bool ->
  ?validate_threads:int ->
  ?units:unit_table ->
  mode:mode ->
  Ast.program ->
  result

(** Parse source and annotation text under one error rule for every
    configuration.  Salvaging by default: units that fail to parse are
    dropped with located diagnostics — returned, capped at [max_errors]
    (default {!Diag.default_max_errors}), and kept outside [dg]'s error
    budget — and a rejected annotation file degrades to running without
    annotations, with an error on [dg].  With [~strict:true] the first
    fault raises ({!Diag.Fatal}, {!Annot_parser.Annot_parse_error}) and
    the returned diagnostics are [[]].  The parse is timed in the
    ["parse"] pass bucket. *)
val parse_source :
  ?strict:bool ->
  ?max_errors:int ->
  dg:Diag.collector ->
  annot_source:string ->
  string ->
  Ast.program * Annot_ast.annotation list * Diag.t list

(** Reset every domain-local gensym a compilation draws from (statement,
    loop and tag ids, generated names), so a compilation's output is a
    pure function of its source — independent of task order, domain
    placement and what the domain compiled before. *)
val reset_gensyms : unit -> unit

(** Table II accounting: [(par, loss, extra)] of a configuration against
    the no-inlining baseline, counting only loops of the original program;
    a loop counts as parallelized when any reachable copy is marked. *)
val table2_counts : baseline:result -> result -> int * int * int
