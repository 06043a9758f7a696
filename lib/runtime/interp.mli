(** Interpreter for the Fortran subset with OpenMP-style execution of
    directive-carrying loops across OCaml 5 domains.

    Parallel semantics follow the directives emitted by
    {!Parallelizer.Parallelize}: block-partitioned iterations over a
    persistent {!Pool}, fresh per-worker storage for PRIVATE names (each
    worker runs on its own copy of the directive unit's name slots, and
    callees follow a privatized COMMON variable's storage to the worker's
    copy), identity-seeded per-worker REDUCTION accumulators merged at the
    join, and sequential execution of nested parallel regions.  Every unit
    is compiled before the run starts. *)

exception Stop_program of string option
(** Raised internally by STOP; [run_program] converts it to output. *)

exception Trap of Frontend.Diag.t
(** A runtime guard fired: the step budget ([fuel]) ran out or the
    call-depth limit was exceeded.  Carries a structured diagnostic so
    drivers can report the trap instead of hanging. *)

val default_max_depth : int
(** Default call-depth limit (1000). *)

type prof_cell = {
  mutable pt : float;  (** cumulative seconds *)
  mutable pn : int;  (** executions *)
}

(** [run_program ~threads program] executes the program's MAIN unit and
    returns everything it printed.  [threads] sizes the worker pool
    (default 1 = fully sequential).  [profile], when given, accumulates
    per-loop-id wall time and execution counts for loops that carry a
    directive and execute outside any parallel region — the raw data for
    the empirical tuner.  [fuel] caps total work (in loop iterations plus
    calls) and [max_depth] caps call nesting; exceeding either raises
    {!Trap} with a structured diagnostic. *)
val run_program :
  ?threads:int ->
  ?profile:(int, prof_cell) Hashtbl.t ->
  ?fuel:int ->
  ?max_depth:int ->
  Frontend.Ast.program ->
  string

(** Like {!run_program}, but also returns the final contents of every
    COMMON block member (as floats, keyed ["BLOCK/position"]) -- the
    strongest observable state on which a sequential and a parallel run
    can be compared. *)
val run_program_state :
  ?threads:int ->
  ?profile:(int, prof_cell) Hashtbl.t ->
  ?fuel:int ->
  ?max_depth:int ->
  Frontend.Ast.program ->
  string * (string * float array) list

(** State keys (as in {!run_program_state}) of COMMON members named in
    some PRIVATE clause.  Their post-loop contents are unspecified — a
    parallel run leaves the shared storage untouched while a serial run
    writes it — so differential state comparison must skip them.
    REDUCTION names merge back into shared storage and are not
    included. *)
val private_state_keys : Frontend.Ast.program -> string list
