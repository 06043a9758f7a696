(** Persistent, self-healing worker-domain pool for parallel loop
    execution.

    Spawning a [Domain] per parallel loop costs hundreds of microseconds;
    the pool parks [n-1] workers once per program run and hands them chunk
    indices per loop.  Both sides of that handoff spin briefly before
    they park, so back-to-back short loops skip the futex wake-up.  Use only from one domain at a time and never
    reentrantly (the interpreter runs nested parallel loops sequentially,
    which guarantees both).

    Failure containment: per-chunk capture with backtraces, bounded
    retry-with-backoff for transient failures, lazy respawn of dead
    worker domains, and an optional per-job deadline enforced by the
    calling domain acting as watchdog (see [pool.ml] for the full
    semantics). *)

type t

(** The first exception captured from a dead chunk, annotated with the
    label of the owning parallel loop.  Raised only when [parallel_for]
    was given a [label] and no [~report]; unlabeled calls re-raise the
    exception raw (both with the original backtrace). *)
exception Worker_failure of string * exn

(** Per-chunk outcome delivered to [~report] after the join. *)
type event =
  | Chunk_failed of { chunk : int; error : exn; backtrace : string }
  | Chunk_retried of { chunk : int; attempt : int }
  | Deadline_missed of { chunk : int; waited_s : float }
  | Worker_died of { slot : int; error : exn }

(** Lifetime counters, for tests and post-run reporting. *)
type stats = {
  deaths : int;
  respawns : int;
  retries : int;
  deadline_misses : int;
}

(** [create n] spawns [n-1] worker domains ([n <= 1] gives a pool that
    runs everything on the caller). *)
val create : int -> t

(** [parallel_for p ~chunks f] runs [f c] for each [c] in
    [0 .. chunks-1] across the pool and blocks until all complete (or
    the [deadline_s] watchdog abandons the job).

    - [retries]/[backoff_s]: failures classified [transient] (default:
      injected chaos faults) are re-executed up to [retries] times with
      exponential backoff.  Retries re-run the chunk — enable only for
      idempotent chunk functions.
    - [deadline_s]: per-job wall-clock budget.  Requires a pool with
      workers; the caller then acts as watchdog instead of draining
      chunks.  Unenforced on a single-domain pool.
    - [report]: when present, nothing is raised; per-chunk {!event}s are
      delivered after the join.  When absent, the first failure is
      re-raised with its original backtrace (wrapped in
      {!Worker_failure} when [label] is present), and a missed deadline
      raises [Diag.Fatal] with a [Timeout] diagnostic.

    Raises [Diag.Fatal] (code [Exec]) if the pool was shut down. *)
val parallel_for :
  ?label:string ->
  ?deadline_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?transient:(exn -> bool) ->
  ?report:(event list -> unit) ->
  t ->
  chunks:int ->
  (int -> unit) ->
  unit

(** Lifetime failure/recovery counters. *)
val stats : t -> stats

(** Stop and join all workers.  Idempotent. *)
val shutdown : t -> unit
