(** Persistent, self-healing domain pool.

    Spawning a [Domain] per parallel loop execution costs hundreds of
    microseconds -- ruinous for programs that enter small parallel loops
    thousands of times (exactly the PERFECT profile).  The pool parks
    [n-1] worker domains once per program run; a parallel loop hands every
    worker a chunk index and blocks until all chunks complete.  The pool
    is used only from the main domain and only outside parallel regions
    (the interpreter runs nested parallel loops sequentially), so a single
    job slot suffices.

    The handoff spins, then parks, on both sides.  A worker between jobs
    polls the atomic job generation and stop flag for up to
    {!spin_limit} [Domain.cpu_relax] calls before it waits on [cv_job],
    so [shutdown] also stops a spinning worker at once; the caller,
    done with its own chunks, polls the job's atomic finished-chunk count
    as long before it waits on [cv_done].  Emitted programs fork tens of
    thousands of short loops a run, back to back, so the next job (or the
    last chunk) usually arrives inside the spin window and neither side
    pays a futex wake-up.  A side that does park is still woken: the
    generation and the finished count only change under [m], and both
    sides re-check them under [m] before waiting, so no wake-up is lost.

    Failure containment is layered:

    - Every chunk keeps its own failure capture (with the raw backtrace),
      so a dead chunk never prevents the rest of its batch or the job
      from running.  Failures classified transient are retried with
      exponential backoff up to a per-job bound — retries re-execute the
      chunk, so callers enable them only for idempotent chunk functions
      (the suite driver's [out.(i) <- ...] tasks qualify; interpreter
      reductions do not).
    - A worker whose loop itself dies (possible only at the injected
      ["runtime.pool.worker"] fault point — [drain] never lets a chunk
      exception escape) is recorded and lazily respawned at the next
      [parallel_for], so a killed domain degrades one job, not the pool.
    - With a [deadline_s], the calling domain stays out of the chunk work
      and acts as a watchdog: when the job exceeds its budget, unfinished
      chunks are abandoned and reported as {!Deadline_missed} events, and
      any stalled worker finishes its orphaned chunk against the dead
      job's private state, harmless to later jobs.  Per-job bookkeeping
      lives in a fresh {!job} record for exactly this reason.  With a
      single-domain pool there is nobody to preempt the caller, so
      deadlines are not enforced there.

    With [~report], failures and deadline misses are delivered as
    {!event}s after the join instead of being re-raised — the suite
    driver turns each into a degraded benchmark point. *)

exception Worker_failure of string * exn

(** Per-chunk outcome delivered to [~report] after the join. *)
type event =
  | Chunk_failed of { chunk : int; error : exn; backtrace : string }
      (** the chunk's last attempt raised [error] *)
  | Chunk_retried of { chunk : int; attempt : int }
      (** a transient failure; attempt [attempt] follows after backoff *)
  | Deadline_missed of { chunk : int; waited_s : float }
      (** the watchdog abandoned this chunk (running or never started) *)
  | Worker_died of { slot : int; error : exn }
      (** a worker domain's loop died; it is respawned on the next job *)

(** Lifetime counters, for tests and post-run reporting. *)
type stats = {
  deaths : int;  (** worker domains whose loop died *)
  respawns : int;  (** replacement domains spawned by [heal] *)
  retries : int;  (** chunk re-executions after transient failures *)
  deadline_misses : int;  (** chunks abandoned by the watchdog *)
}

(* All per-job bookkeeping lives here, never on the pool: a worker
   stalled in an abandoned job updates its own job's counters, so it can
   never corrupt a later job's progress accounting. *)
type job = {
  j_f : int -> unit;
  j_published_ns : int64;  (** publish time, for the queue-wait histogram *)
  j_total : int;
  j_batch : int;
      (** chunks grabbed per lock acquisition: large enough to cut lock
          traffic on many-small-chunk jobs, small enough
          (total/(4*size)) that stragglers still rebalance *)
  j_retries : int;
  j_backoff : float;
  j_transient : exn -> bool;
  mutable j_next : int;
  j_finished : int Atomic.t;
      (** written under [m]; the caller also polls it without [m] while
          it spins *)
  mutable j_abandoned : bool;
  mutable j_failure : (exn * Printexc.raw_backtrace) option;
  mutable j_events : event list;  (** newest first *)
  j_running : (int, unit) Hashtbl.t option;
      (** chunks currently executing; kept only when a deadline is armed,
          for the watchdog's report *)
}

type t = {
  m : Mutex.t;
  cv_job : Condition.t;  (** signaled when a new job is published *)
  cv_done : Condition.t;  (** signaled when the last chunk finishes *)
  mutable job : job option;
  generation : int Atomic.t;
      (** bumped under [m] with each published job; idle workers poll it
          without [m] while they spin *)
  stop : bool Atomic.t;  (** set under [m]; polled like [generation] *)
  mutable closed : bool;  (** [shutdown] ran; [parallel_for] must refuse *)
  mutable workers : (int * unit Domain.t) list;  (** slot, domain *)
  mutable dead : int list;  (** slots awaiting respawn *)
  mutable n_deaths : int;
  mutable n_respawns : int;
  mutable n_retries : int;
  mutable n_deadline_misses : int;
  size : int;  (** number of workers + 1 (the caller participates) *)
}

let now_s () = Int64.to_float (Frontend.Prof.monotonic_ns ()) /. 1e9

(* Bound of each side's spin before it parks, in [Domain.cpu_relax]
   calls.  On a 2-core Intel Xeon host a relax takes ~29 ns, so 2,000 is
   ~58 us.  Sized by running the emitted programs of the 12 PERFECT
   benchmarks (no inlining and conventional inlining) at 2 domains,
   three rounds per bound: 500, 2,000, 5,000 and 20,000 gave medians
   within the host's noise of each other (460-520 ms without inlining,
   500-550 ms with conventional), while 0 took 650 and 890 ms. *)
let spin_limit = 2_000

(* Relax while [waiting ()] holds, at most [spin_limit] times. *)
let spin waiting =
  let n = ref spin_limit in
  while !n > 0 && waiting () do
    Domain.cpu_relax ();
    decr n
  done

(* Live telemetry: queue wait vs execute time plus the self-healing
   counters, fed to the armed Metrics registry (no-ops otherwise). *)
let m_queue_wait =
  Frontend.Metrics.histogram "parinline_pool_queue_wait_seconds"
    ~help:"time from job publish until a participant starts draining"

let m_chunk_exec =
  Frontend.Metrics.histogram "parinline_pool_chunk_exec_seconds"
    ~help:"per-chunk execute wall time, retries included"

let m_chunks =
  Frontend.Metrics.counter "parinline_pool_chunks_total"
    ~help:"pool chunks executed"

let m_retries =
  Frontend.Metrics.counter "parinline_pool_retries_total"
    ~help:"chunk re-executions after transient failures"

let m_respawns =
  Frontend.Metrics.counter "parinline_pool_respawns_total"
    ~help:"worker domains respawned after a death"

let m_deadline_misses =
  Frontend.Metrics.counter "parinline_pool_deadline_misses_total"
    ~help:"chunks abandoned by the watchdog"

(* Injected faults are the canonical transient failure; everything else
   is assumed real (a logic bug does not get better by rerunning). *)
let default_transient = function
  | Frontend.Fault.Injected _ -> true
  | _ -> false

(* User-supplied classifiers must not take the pool down. *)
let is_transient (j : job) e = try j.j_transient e with _ -> false

(* Drain the job's chunks, [j.j_batch] per lock acquisition.  Called
   (and returns) with [p.m] held; never lets a chunk exception escape. *)
let drain (p : t) (j : job) =
  if Frontend.Metrics.on () then
    Frontend.Metrics.observe_ns m_queue_wait
      (Int64.to_int
         (Int64.sub (Frontend.Prof.monotonic_ns ()) j.j_published_ns));
  let rec go () =
    if (not j.j_abandoned) && j.j_next < j.j_total then begin
      let first = j.j_next in
      let last = min j.j_total (first + j.j_batch) in
      j.j_next <- last;
      (match j.j_running with
      | Some running ->
          for c = first to last - 1 do
            Hashtbl.replace running c ()
          done
      | None -> ());
      Mutex.unlock p.m;
      for c = first to last - 1 do
        (* chaos: simulate a hung worker; the watchdog's deadline is the
           recovery path under test *)
        let s = Frontend.Fault.stall "runtime.pool.stall" in
        if s > 0.0 then Unix.sleepf s;
        let mon = Frontend.Metrics.on () in
        let exec_t0 = if mon then Frontend.Prof.monotonic_ns () else 0L in
        let rec attempt tries =
          match
            Frontend.Fault.point "runtime.pool.chunk";
            j.j_f c
          with
          | () -> ()
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              if is_transient j e && tries < j.j_retries then begin
                Frontend.Metrics.incr m_retries;
                Mutex.lock p.m;
                p.n_retries <- p.n_retries + 1;
                j.j_events <-
                  Chunk_retried { chunk = c; attempt = tries + 1 }
                  :: j.j_events;
                Mutex.unlock p.m;
                Unix.sleepf (j.j_backoff *. float_of_int (1 lsl tries));
                attempt (tries + 1)
              end
              else begin
                Mutex.lock p.m;
                if j.j_failure = None then j.j_failure <- Some (e, bt);
                j.j_events <-
                  Chunk_failed
                    {
                      chunk = c;
                      error = e;
                      backtrace = Printexc.raw_backtrace_to_string bt;
                    }
                  :: j.j_events;
                Mutex.unlock p.m
              end
        in
        attempt 0;
        if mon then begin
          Frontend.Metrics.observe_ns m_chunk_exec
            (Int64.to_int
               (Int64.sub (Frontend.Prof.monotonic_ns ()) exec_t0));
          Frontend.Metrics.incr m_chunks
        end
      done;
      Mutex.lock p.m;
      (match j.j_running with
      | Some running ->
          for c = first to last - 1 do
            Hashtbl.remove running c
          done
      | None -> ());
      let n = last - first in
      if Atomic.fetch_and_add j.j_finished n + n >= j.j_total then
        Condition.broadcast p.cv_done;
      go ()
    end
  in
  go ()

let worker_loop (p : t) (slot : int) () =
  (* the last generation this worker has seen, taken or not; a worker
     respawned after the next job was published still takes it *)
  let seen = ref 0 in
  let idle () = (not (Atomic.get p.stop)) && Atomic.get p.generation = !seen in
  let continue_ = ref true in
  while !continue_ do
    spin idle;
    Mutex.lock p.m;
    while idle () do
      Condition.wait p.cv_job p.m
    done;
    if Atomic.get p.stop then begin
      Mutex.unlock p.m;
      continue_ := false
    end
    else begin
      seen := Atomic.get p.generation;
      (match p.job with
      | None -> () (* the job finished before this worker got to it *)
      | Some j -> (
          (* [drain] never raises, so a death can only come from the
             injected worker fault point — exactly the "worker domain
             dies" scenario.  Record it for lazy respawn; the job
             completes via the remaining participants (or the
             watchdog). *)
          match Frontend.Fault.point "runtime.pool.worker" with
          | () -> drain p j
          | exception e ->
              p.n_deaths <- p.n_deaths + 1;
              p.dead <- slot :: p.dead;
              j.j_events <- Worker_died { slot; error = e } :: j.j_events;
              continue_ := false));
      Mutex.unlock p.m
    end
  done

let create n_threads : t =
  let p =
    {
      m = Mutex.create ();
      cv_job = Condition.create ();
      cv_done = Condition.create ();
      job = None;
      generation = Atomic.make 0;
      stop = Atomic.make false;
      closed = false;
      workers = [];
      dead = [];
      n_deaths = 0;
      n_respawns = 0;
      n_retries = 0;
      n_deadline_misses = 0;
      size = max 1 n_threads;
    }
  in
  p.workers <-
    List.init
      (max 0 (n_threads - 1))
      (fun i -> (i, Domain.spawn (worker_loop p i)));
  p

(* Respawn any workers that died since the last job.  The dead domain's
   loop has exited, so joining it here is immediate; spawning happens
   outside the lock. *)
let heal (p : t) =
  Mutex.lock p.m;
  let dead = p.dead in
  p.dead <- [];
  let gone, kept =
    List.partition (fun (s, _) -> List.mem s dead) p.workers
  in
  p.workers <- kept;
  Mutex.unlock p.m;
  List.iter (fun (_, d) -> Domain.join d) gone;
  List.iter
    (fun slot ->
      let d = Domain.spawn (worker_loop p slot) in
      Frontend.Metrics.incr m_respawns;
      Mutex.lock p.m;
      p.workers <- (slot, d) :: p.workers;
      p.n_respawns <- p.n_respawns + 1;
      Mutex.unlock p.m)
    dead

let stats (p : t) : stats =
  Mutex.lock p.m;
  let s =
    {
      deaths = p.n_deaths;
      respawns = p.n_respawns;
      retries = p.n_retries;
      deadline_misses = p.n_deadline_misses;
    }
  in
  Mutex.unlock p.m;
  s

(** Run [f c] for every chunk [c] in [0 .. chunks-1] across the pool.
    Without [~report], the first failure is re-raised with its original
    backtrace after the join -- raw when [label] is absent, wrapped in
    {!Worker_failure} when present -- and a missed deadline raises
    [Diag.Fatal] with a [Timeout] diagnostic.  With [~report], nothing
    is raised: per-chunk {!event}s are delivered after the join and the
    caller decides how to degrade. *)
let parallel_for ?label ?deadline_s ?(retries = 0) ?(backoff_s = 0.002)
    ?(transient = default_transient) ?report (p : t) ~(chunks : int)
    (f : int -> unit) =
  if p.closed then
    raise
      (Frontend.Diag.Fatal
         (Frontend.Diag.make Frontend.Diag.Exec
            (Printf.sprintf "parallel_for%s called on a shut-down pool"
               (match label with None -> "" | Some l -> " (" ^ l ^ ")"))));
  if chunks <= 0 then ()
  else begin
    heal p;
    (* With a deadline and workers available, the caller stays out of
       the chunk work: a watchdog stalled inside a hung chunk could
       never fire.  Without workers nobody can preempt the caller, so
       the deadline is not enforced (documented). *)
    let watchdog = deadline_s <> None && p.size > 1 in
    let use_workers = p.size > 1 && (chunks > 1 || watchdog) in
    let j =
      {
        j_f = f;
        j_published_ns = Frontend.Prof.monotonic_ns ();
        j_total = chunks;
        j_batch =
          (if use_workers then max 1 (chunks / (4 * p.size)) else chunks);
        j_retries = max 0 retries;
        j_backoff = backoff_s;
        j_transient = transient;
        j_next = 0;
        j_finished = Atomic.make 0;
        j_abandoned = false;
        j_failure = None;
        j_events = [];
        j_running =
          (if deadline_s = None then None else Some (Hashtbl.create 8));
      }
    in
    let pending () = Atomic.get j.j_finished < j.j_total in
    Mutex.lock p.m;
    if use_workers then begin
      p.job <- Some j;
      Atomic.incr p.generation;
      Condition.broadcast p.cv_job
    end;
    let t0 = now_s () in
    if not watchdog then drain p j;
    (match deadline_s with
    | None ->
        if pending () then begin
          Mutex.unlock p.m;
          spin pending;
          Mutex.lock p.m;
          while pending () do
            Condition.wait p.cv_done p.m
          done
        end
    | Some dl ->
        (* Condition has no timed wait; poll at 0.5ms, cheap against any
           realistic deadline and only while a deadline is armed. *)
        while pending () && not j.j_abandoned do
          Mutex.unlock p.m;
          Unix.sleepf 0.0005;
          Mutex.lock p.m;
          if pending () && now_s () -. t0 > dl then begin
            j.j_abandoned <- true;
            let waited = now_s () -. t0 in
            let miss c =
              j.j_events <-
                Deadline_missed { chunk = c; waited_s = waited }
                :: j.j_events;
              Frontend.Metrics.incr m_deadline_misses;
              p.n_deadline_misses <- p.n_deadline_misses + 1
            in
            Option.iter (Hashtbl.iter (fun c () -> miss c)) j.j_running;
            for c = j.j_next to j.j_total - 1 do
              miss c
            done;
            j.j_next <- j.j_total
          end
        done);
    if use_workers then p.job <- None;
    let failure = j.j_failure in
    let abandoned = j.j_abandoned in
    let events = List.rev j.j_events in
    Mutex.unlock p.m;
    match report with
    | Some k -> k events
    | None -> (
        match failure with
        | Some (e, bt) -> (
            match label with
            | None -> Printexc.raise_with_backtrace e bt
            | Some l ->
                Printexc.raise_with_backtrace (Worker_failure (l, e)) bt)
        | None ->
            if abandoned then
              raise
                (Frontend.Diag.Fatal
                   (Frontend.Diag.make Frontend.Diag.Timeout
                      (Printf.sprintf
                         "parallel job%s exceeded its %.0f ms deadline"
                         (match label with
                         | None -> ""
                         | Some l -> " (" ^ l ^ ")")
                         (Option.get deadline_s *. 1000.0)))))
  end

(** Stop and join all workers.  Idempotent: a second call is a no-op.
    [parallel_for] on a shut-down pool raises a structured [Diag.Fatal]
    instead of hanging on [cv_done]. *)
let shutdown (p : t) =
  Mutex.lock p.m;
  if p.closed then Mutex.unlock p.m
  else begin
    p.closed <- true;
    Atomic.set p.stop true;
    Condition.broadcast p.cv_job;
    Mutex.unlock p.m;
    List.iter (fun (_, d) -> Domain.join d) p.workers;
    p.workers <- []
  end
