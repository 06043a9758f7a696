(** Persistent, self-healing pool of worker domains: the one worker
    runtime.

    Spawning a [Domain] per parallel loop costs hundreds of microseconds;
    the pool spawns [n-1] workers once and they pull tasks off one queue.
    {!parallel_for} forks a loop's chunks across them (the caller drains
    too); {!submit} hands them long-lived items, such as the daemon's
    connections, up to an in-flight bound.  Several domains may call
    either at once.  Both sides of a fork's handoff spin briefly before
    they park, so back-to-back short loops skip the futex wake-up.

    Failure containment: per-chunk capture with backtraces, bounded
    retry-with-backoff for injected (transient) faults, a per-item
    barrier, lazy respawn of dead worker domains, and an optional
    per-job deadline enforced by the calling domain acting as watchdog
    (see [pool.ml] for the full semantics). *)

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

(** {!submit}'s answer. *)
type verdict =
  | Accepted  (** queued (or, without workers, already run) *)
  | Shed  (** at [max_pending] items in flight, or shut down *)

(** Lifetime counters, for tests, the daemon's [stats] op and post-run
    reporting. *)
type stats = {
  accepted : int;  (** items admitted by {!submit} *)
  shed : int;  (** items refused by {!submit} *)
  handler_errors : int;  (** items that raised *)
  inflight : int;  (** items queued or executing *)
  retries : int;  (** chunk re-executions after transient failures *)
  deadline_misses : int;  (** chunks abandoned by the watchdog *)
  deaths : int;  (** worker domains whose loop died *)
  respawns : int;  (** replacement domains spawned *)
  workers : int;  (** live worker domains *)
}

(** [create n] spawns [n-1] worker domains ([n <= 1] gives a pool that
    runs everything on the caller).  [max_pending] (default 64) bounds
    the items {!submit} keeps in flight. *)
val create : ?max_pending:int -> int -> t

(** [parallel_for p ~chunks f] runs [f c] for each [c] in
    [0 .. chunks-1] across the pool and blocks until all complete (or
    the [deadline_s] watchdog abandons the job).

    - [retries]: a chunk that raises an injected chaos fault
      ([Fault.Injected], the transient class) is re-executed up to
      [retries] times with exponential backoff.  Retries re-run the
      chunk — enable only for idempotent chunk functions.
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
  ?report:(event list -> unit) ->
  t ->
  chunks:int ->
  (int -> unit) ->
  unit

(** [submit p run] offers the long-lived item [run] to the pool.
    {!Accepted}: a worker will run it (a pool without workers already
    has, on the caller).  {!Shed}: [max_pending] items are in flight or
    the pool was shut down; [discard] is not called and the caller
    still owns the item.  An accepted item that raises, that a dying
    worker held, or that is still queued at {!shutdown} is passed to
    [discard] (default: nothing), exactly once. *)
val submit : ?discard:(unit -> unit) -> t -> (unit -> unit) -> verdict

(** Lifetime counters. *)
val stats : t -> stats

(** Stop the workers after their current task, discard the items still
    queued and join the domains.  Idempotent. *)
val shutdown : t -> unit
