(** Persistent, self-healing domain pool: the one worker runtime.

    Spawning a [Domain] per parallel loop execution costs hundreds of
    microseconds -- ruinous for programs that enter small parallel loops
    thousands of times (exactly the PERFECT profile).  The pool spawns
    [n-1] worker domains once and keeps them; they pull tasks off one
    queue.  A task is one of two shapes:

    - a {e drain} of a fork-join job.  {!parallel_for} publishes the
      job's chunk range by pushing one drain task per worker, drains the
      range itself too, and blocks until the last chunk lands.  Every
      piece of per-job state lives in the job record, so several domains
      may run [parallel_for] on one pool at once; their tasks interleave
      in the queue and each caller waits only for its own job.
    - a long-lived {e item} (the analysis daemon's connections).
      {!submit} admits up to [max_pending] items in flight (queued plus
      executing) and sheds beyond that, returning {!Shed} so the caller
      can answer with a structured overload error instead of queuing
      forever.  A pool without workers runs the item on the caller.

    The handoff spins, then parks, on both sides.  An idle worker polls
    the atomic queue length and stop flag for up to {!spin_limit}
    [Domain.cpu_relax] calls before it waits on [cv_task], so
    [shutdown] also stops a spinning worker at once; a caller done with
    its own chunks polls its job's atomic finished-chunk count as long
    before it waits on [cv_done].  Emitted programs fork tens of
    thousands of short loops a run, back to back, so the next task (or
    the last chunk) usually arrives inside the spin window and neither
    side pays a futex wake-up.  A side that does park is still woken:
    the queue length and the finished count only change under [m], and
    both sides re-check them under [m] before waiting, so no wake-up is
    lost.

    Failure containment is layered:

    - Every chunk keeps its own failure capture (with the raw backtrace),
      so a dead chunk never prevents the rest of its batch or the job
      from running.  Injected chaos faults, the transient class, are
      retried with exponential backoff up to a per-job bound — retries
      re-execute the chunk, so callers enable them only for idempotent
      chunk functions (the suite driver's [out.(i) <- ...] tasks
      qualify; interpreter reductions do not).
    - An item runs under a barrier: one that raises is passed to its
      [discard] cleanup and counted, and the worker keeps serving.
    - A worker whose loop itself dies (possible only at the injected
      ["runtime.pool.worker"] fault point — [drain] and the item barrier
      never let an exception escape) discards the item it held, is
      recorded, and is lazily respawned by the next [parallel_for] or
      [submit], so a killed domain degrades one task, not the pool.
      Respawning costs nothing until a death is recorded, and never
      happens once [shutdown] has begun.
    - With a [deadline_s], the calling domain stays out of the chunk work
      and acts as a watchdog: when the job exceeds its budget, unfinished
      chunks are abandoned and reported as {!Deadline_missed} events, and
      any stalled worker finishes its orphaned chunk against the dead
      job's private state, harmless to later jobs.  With a single-domain
      pool there is nobody to preempt the caller, so deadlines are not
      enforced there.

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
  respawns : int;  (** replacement domains spawned by [heal] *)
  workers : int;  (** live worker domains *)
}

(* All per-job bookkeeping lives here, never on the pool: concurrent
   callers each own theirs, and a worker stalled in an abandoned job
   updates its own job's counters, so it can never corrupt a later
   job's progress accounting. *)
type job = {
  j_f : int -> unit;
  j_published_ns : int64;  (** publish time, for the queue-wait histogram *)
  j_total : int;
  j_batch : int;
      (** chunks grabbed per lock acquisition: large enough to cut lock
          traffic on many-small-chunk jobs, small enough
          (total/(4*size)) that stragglers still rebalance *)
  j_retries : int;
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

type item = { run : unit -> unit; discard : unit -> unit }
type task = Drain of job | Item of item

type t = {
  m : Mutex.t;
  cv_task : Condition.t;  (** signaled when a task is queued *)
  cv_done : Condition.t;  (** broadcast when a job's last chunk finishes *)
  queue : task Queue.t;
  queued : int Atomic.t;
      (** the queue's length, written under [m]; idle workers poll it
          without [m] while they spin *)
  stop : bool Atomic.t;  (** [shutdown] began; set under [m] *)
  dead : int list Atomic.t;
      (** slots awaiting respawn, written under [m]; [heal] reads it
          without [m] *)
  mutable workers : (int * unit Domain.t) list;  (** slot, domain *)
  mutable st : stats;  (** [workers] is filled in by {!stats} *)
  max_pending : int;
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

(* The first retry of a transient failure waits this long; each further
   one doubles it. *)
let retry_backoff_s = 0.002

(* Injected faults are the transient class: only the chaos layer raises
   them, and a real failure does not get better by rerunning. *)
let transient = function Frontend.Fault.Injected _ -> true | _ -> false

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

let m_deaths =
  Frontend.Metrics.counter "parinline_pool_deaths_total"
    ~help:"worker domains whose loop died"

let m_respawns =
  Frontend.Metrics.counter "parinline_pool_respawns_total"
    ~help:"worker domains respawned after a death"

let m_deadline_misses =
  Frontend.Metrics.counter "parinline_pool_deadline_misses_total"
    ~help:"chunks abandoned by the watchdog"

(* Drain the job's chunks, [j.j_batch] per lock acquisition.  Called
   (and returns) with [p.m] held; never lets a chunk exception escape.
   A drain task popped after its job finished finds nothing left. *)
let drain (p : t) (j : job) =
  if Frontend.Metrics.on () && j.j_next < j.j_total then
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
              if transient e && tries < j.j_retries then begin
                Frontend.Metrics.incr m_retries;
                Mutex.lock p.m;
                p.st <- { p.st with retries = p.st.retries + 1 };
                j.j_events <-
                  Chunk_retried { chunk = c; attempt = tries + 1 }
                  :: j.j_events;
                Mutex.unlock p.m;
                Unix.sleepf (retry_backoff_s *. float_of_int (1 lsl tries));
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

(* Never let an item's cleanup take the pool down. *)
let discard_quiet (it : item) = try it.discard () with _ -> ()

(* The per-item barrier: an item that raises is discarded and counted,
   and whoever ran it carries on.  Called without [p.m]; returns
   holding it. *)
let run_item (p : t) (it : item) =
  let failed =
    match it.run () with
    | () -> 0
    | exception _ ->
        discard_quiet it;
        1
  in
  Mutex.lock p.m;
  p.st <-
    {
      p.st with
      inflight = p.st.inflight - 1;
      handler_errors = p.st.handler_errors + failed;
    }

(* Pop tasks until [shutdown].  The death site is checked outside the
   drain and item barriers, so a fault injected inside a task (e.g.
   server.conn) degrades that task, not the domain.  A death discards
   the item the worker held (a drain task's job finishes through the
   other participants) and leaves the slot to [heal]. *)
let worker_loop (p : t) (slot : int) () =
  let idle () = Atomic.get p.queued = 0 && not (Atomic.get p.stop) in
  let rec next () =
    (* [p.m] is held here *)
    if idle () then begin
      Mutex.unlock p.m;
      spin idle;
      Mutex.lock p.m;
      while idle () do
        Condition.wait p.cv_task p.m
      done
    end;
    if Atomic.get p.stop then Mutex.unlock p.m
    else begin
      let task = Queue.pop p.queue in
      Atomic.decr p.queued;
      match (Frontend.Fault.point "runtime.pool.worker", task) with
      | (), Drain j ->
          drain p j;
          next ()
      | (), Item it ->
          Mutex.unlock p.m;
          run_item p it;
          next ()
      | exception _ ->
          Mutex.unlock p.m;
          let held =
            match task with
            | Item it ->
                discard_quiet it;
                1
            | Drain _ -> 0
          in
          Frontend.Metrics.incr m_deaths;
          Mutex.lock p.m;
          p.st <-
            {
              p.st with
              deaths = p.st.deaths + 1;
              inflight = p.st.inflight - held;
            };
          Atomic.set p.dead (slot :: Atomic.get p.dead);
          Mutex.unlock p.m
    end
  in
  Mutex.lock p.m;
  next ()

(* Respawn the workers that died since the last call.  Free until a
   death is recorded, and a no-op once [shutdown] has begun, so every
   domain the pool spawns is one [shutdown] joins.  A dead domain's
   loop has exited, so joining it is immediate. *)
let heal (p : t) =
  if Atomic.get p.dead <> [] then
    Mutex.protect p.m (fun () ->
        if not (Atomic.get p.stop) then begin
          let dead = Atomic.exchange p.dead [] in
          let gone, kept =
            List.partition (fun (s, _) -> List.mem s dead) p.workers
          in
          List.iter (fun (_, d) -> Domain.join d) gone;
          p.workers <-
            List.map
              (fun s ->
                Frontend.Metrics.incr m_respawns;
                (s, Domain.spawn (worker_loop p s)))
              dead
            @ kept;
          p.st <- { p.st with respawns = p.st.respawns + List.length dead }
        end)

let create ?(max_pending = 64) n_threads : t =
  let p =
    {
      m = Mutex.create ();
      cv_task = Condition.create ();
      cv_done = Condition.create ();
      queue = Queue.create ();
      queued = Atomic.make 0;
      stop = Atomic.make false;
      dead = Atomic.make [];
      workers = [];
      st =
        {
          accepted = 0;
          shed = 0;
          handler_errors = 0;
          inflight = 0;
          retries = 0;
          deadline_misses = 0;
          deaths = 0;
          respawns = 0;
          workers = 0;
        };
      max_pending = max 1 max_pending;
      size = max 1 n_threads;
    }
  in
  p.workers <-
    List.init (p.size - 1) (fun i -> (i, Domain.spawn (worker_loop p i)));
  p

let stats (p : t) : stats =
  Mutex.protect p.m (fun () ->
      { p.st with workers = List.length p.workers })

(** Run [f c] for every chunk [c] in [0 .. chunks-1] across the pool.
    Without [~report], the first failure is re-raised with its original
    backtrace after the join -- raw when [label] is absent, wrapped in
    {!Worker_failure} when present -- and a missed deadline raises
    [Diag.Fatal] with a [Timeout] diagnostic.  With [~report], nothing
    is raised: per-chunk {!event}s are delivered after the join and the
    caller decides how to degrade. *)
let parallel_for ?label ?deadline_s ?(retries = 0) ?report (p : t)
    ~(chunks : int) (f : int -> unit) =
  if Atomic.get p.stop then
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
      let task = Drain j in
      for _ = 2 to p.size do
        Queue.push task p.queue
      done;
      Atomic.set p.queued (Queue.length p.queue);
      Condition.broadcast p.cv_task
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
              p.st <-
                { p.st with deadline_misses = p.st.deadline_misses + 1 }
            in
            Option.iter (Hashtbl.iter (fun c () -> miss c)) j.j_running;
            for c = j.j_next to j.j_total - 1 do
              miss c
            done;
            j.j_next <- j.j_total
          end
        done);
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

(** Offer the item [run] to the pool.  {!Accepted} means a worker will
    run it (the caller already has, on a pool without workers); {!Shed}
    means the in-flight bound or shutdown refused it — [discard] is NOT
    called, the caller still owns the item and answers the overload.
    An accepted item that raises, or that a dying worker held, or that
    is still queued at {!shutdown}, is passed to [discard]. *)
let submit ?(discard = ignore) (p : t) (run : unit -> unit) : verdict =
  heal p;
  Mutex.lock p.m;
  if Atomic.get p.stop || p.st.inflight >= p.max_pending then begin
    p.st <- { p.st with shed = p.st.shed + 1 };
    Mutex.unlock p.m;
    Shed
  end
  else begin
    p.st <-
      { p.st with accepted = p.st.accepted + 1; inflight = p.st.inflight + 1 };
    let it = { run; discard } in
    if p.size = 1 then begin
      Mutex.unlock p.m;
      run_item p it
    end
    else begin
      Queue.push (Item it) p.queue;
      Atomic.incr p.queued;
      Condition.signal p.cv_task
    end;
    Mutex.unlock p.m;
    Accepted
  end

(** Stop the workers after their current task, discard the items still
    queued, and join the domains.  Idempotent: a second call is a no-op.
    [parallel_for] on a shut-down pool raises a structured [Diag.Fatal]
    instead of hanging on [cv_done]; [submit] sheds. *)
let shutdown (p : t) =
  Mutex.lock p.m;
  if Atomic.get p.stop then Mutex.unlock p.m
  else begin
    Atomic.set p.stop true;
    let items =
      Queue.fold
        (fun acc -> function Item it -> it :: acc | Drain _ -> acc)
        [] p.queue
    in
    Queue.clear p.queue;
    Atomic.set p.queued 0;
    p.st <- { p.st with inflight = p.st.inflight - List.length items };
    let workers = p.workers in
    p.workers <- [];
    Condition.broadcast p.cv_task;
    Mutex.unlock p.m;
    List.iter discard_quiet (List.rev items);
    List.iter (fun (_, d) -> Domain.join d) workers
  end
