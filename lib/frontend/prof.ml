(** Pass-level profiling: monotonic-clock pass timers plus work counters
    for the analyses that dominate compile time (dependence tests,
    annotation instantiation, reverse matching, normalization).

    Like {!Diag}, the representation lives in [frontend] — the lowest
    layer every library depends on — so the dependence tester and the
    inliners can tick counters without a dependency cycle, and the
    pipeline, the suite driver and the daemon name it [Frontend.Prof].

    The interface is zero-cost when off: a profile is installed with
    {!with_profiling} into domain-local storage, and every tick or timer
    first checks the domain-local slot — when no profile is installed the
    instrumentation is a load and a branch.  Domain-local installation
    means the parallel suite driver can profile concurrent compilations
    independently: each worker domain sees only the profile of the task
    it is running. *)

external monotonic_ns : unit -> int64 = "parinline_monotonic_ns"

(** Seconds elapsed since [t0], a {!monotonic_ns} reading: the one
    duration-safe stopwatch (wall-clock time can step). *)
let seconds_since t0 = Int64.to_float (Int64.sub (monotonic_ns ()) t0) /. 1e9

(** Work counters.  Mutable fields, read directly by reporters. *)
type counters = {
  mutable dep_tests_run : int;
      (** dependence pair tests attempted ([Ddtest.may_carry]) *)
  mutable dep_tests_independent : int;
      (** of those, pairs proven independent (the test decided) *)
  mutable dep_cache_hits : int;
      (** dependence tests answered from the memo table ([Dependence.Memo]) *)
  mutable dep_cache_misses : int;
      (** dependence tests actually computed (hits + misses = run) *)
  mutable annot_sites_inlined : int;
      (** annotation call sites successfully instantiated *)
  mutable reverse_sites_matched : int;
      (** tagged regions pattern-matched back into CALLs *)
  mutable stmts_normalized : int;
      (** statements swept by the normalization passes (units reused
          from a plan's unit table are not swept) *)
  mutable iterations_traced : int;
      (** directive-loop iterations replayed under the access tracer *)
  mutable race_conflicts : int;
      (** cross-iteration conflicts the race detector witnessed *)
  mutable race_excused : int;
      (** of those, conflicts excused by PRIVATE/REDUCTION clauses *)
  mutable faults_injected : int;
      (** chaos faults fired ([Fault]); 0 whenever no plan is armed *)
  mutable requests_served : int;
      (** protocol requests answered by the analysis daemon ([Server]) *)
  mutable unit_cache_hits : int;
      (** of those, answered end-to-end from the content-hashed unit
          cache — no re-parse, no re-analysis *)
  mutable snapshot_restores : int;
      (** on-disk warm-cache snapshots successfully restored at startup *)
}

type t = {
  c : counters;
  mutable passes : (string * float) list;
      (** accumulated milliseconds per pass, insertion-ordered *)
}

let create () =
  {
    c =
      {
        dep_tests_run = 0;
        dep_tests_independent = 0;
        dep_cache_hits = 0;
        dep_cache_misses = 0;
        annot_sites_inlined = 0;
        reverse_sites_matched = 0;
        stmts_normalized = 0;
        iterations_traced = 0;
        race_conflicts = 0;
        race_excused = 0;
        faults_injected = 0;
        requests_served = 0;
        unit_cache_hits = 0;
        snapshot_restores = 0;
      };
    passes = [];
  }

(* The installed profile of the current domain, if any. *)
let slot : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get slot
let enabled () = current () <> None

(** Install [p] as the current domain's profile for the duration of [f],
    restoring the previous profile afterwards (exceptions included). *)
let with_profiling (p : t) (f : unit -> 'a) : 'a =
  let prev = Domain.DLS.get slot in
  Domain.DLS.set slot (Some p);
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f

(** [with_opt prof f]: profile under [Some p], plain call under [None] —
    the shape of the pipeline's optional [?prof] argument. *)
let with_opt (prof : t option) (f : unit -> 'a) : 'a =
  match prof with None -> f () | Some p -> with_profiling p f

(* Accumulate [ms] into the pass entry [name], keeping first-insertion
   order so reports read in pipeline order. *)
let add_pass (p : t) name ms =
  let rec go = function
    | [] -> [ (name, ms) ]
    | (n, v) :: tl when String.equal n name -> (n, v +. ms) :: tl
    | hd :: tl -> hd :: go tl
  in
  p.passes <- go p.passes

(* ---- telemetry bridge ----
   When a Metrics registry is armed, pass timings and the hot work
   counters also feed the live registry, independent of whether a
   per-run profile is installed — the daemon keeps per-request profiles
   short-lived but wants service-lifetime distributions.  All bridges
   are behind Metrics' own armed check (a load and a branch when off). *)

let m_dep_hits =
  Metrics.counter "parinline_dep_tests_total"
    ~help:"dependence pair tests by memo outcome"
    ~labels:[ ("memo", "hit") ]

let m_dep_misses =
  Metrics.counter "parinline_dep_tests_total" ~labels:[ ("memo", "miss") ]

let m_annot_sites =
  Metrics.counter "parinline_inline_sites_total"
    ~help:"call sites inlined, by inliner"
    ~labels:[ ("inliner", "annotation") ]

let m_reverse_matches =
  Metrics.counter "parinline_reverse_matches_total"
    ~help:"tagged regions pattern-matched back into CALLs"

let m_faults =
  Metrics.counter "parinline_faults_injected_total"
    ~help:"chaos faults fired by the armed plan"

(** Time [f] under the pass name [name] when a profile is installed;
    otherwise just run it.  Faulting passes still record their time (the
    robust pipeline salvages them, and the time was genuinely spent).
    When a Metrics registry is armed the duration also lands in the
    per-pass latency histogram, profile or no profile. *)
let time (name : string) (f : unit -> 'a) : 'a =
  let prof = current () in
  if prof = None && not (Metrics.on ()) then f ()
  else
    let t0 = monotonic_ns () in
    Fun.protect
      ~finally:(fun () ->
        let ns = Int64.sub (monotonic_ns ()) t0 in
        (match prof with
        | Some p -> add_pass p name (Int64.to_float ns /. 1e6)
        | None -> ());
        if Metrics.on () then
          Metrics.observe_ns
            (Metrics.histogram "parinline_pass_duration_seconds"
               ~help:"pipeline pass wall time" ~labels:[ ("pass", name) ])
            (Int64.to_int ns))
      f

(* ---- ticks (no-ops when no profile is installed) ---- *)

(** One dependence-pair request.  [cached] distinguishes memo-table hits
    from tests actually computed, so [hits + misses = run] always holds
    and the deterministic perf gate can bound the expensive half. *)
let tick_dep_test ~independent ~cached =
  Metrics.incr (if cached then m_dep_hits else m_dep_misses);
  match current () with
  | None -> ()
  | Some p ->
      p.c.dep_tests_run <- p.c.dep_tests_run + 1;
      if cached then p.c.dep_cache_hits <- p.c.dep_cache_hits + 1
      else p.c.dep_cache_misses <- p.c.dep_cache_misses + 1;
      if independent then
        p.c.dep_tests_independent <- p.c.dep_tests_independent + 1

let tick_annot_site () =
  Metrics.incr m_annot_sites;
  match current () with
  | None -> ()
  | Some p -> p.c.annot_sites_inlined <- p.c.annot_sites_inlined + 1

let tick_reverse_match () =
  Metrics.incr m_reverse_matches;
  match current () with
  | None -> ()
  | Some p -> p.c.reverse_sites_matched <- p.c.reverse_sites_matched + 1

let add_stmts_normalized n =
  match current () with
  | None -> ()
  | Some p -> p.c.stmts_normalized <- p.c.stmts_normalized + n

let add_iterations_traced n =
  match current () with
  | None -> ()
  | Some p -> p.c.iterations_traced <- p.c.iterations_traced + n

(** One conflict witnessed by the race detector; [excused] when a
    PRIVATE/REDUCTION clause exempts it. *)
let tick_race_conflict ~excused =
  match current () with
  | None -> ()
  | Some p ->
      p.c.race_conflicts <- p.c.race_conflicts + 1;
      if excused then p.c.race_excused <- p.c.race_excused + 1

(** One chaos fault fired by [Fault] under the calling domain's profile.
    Also visible through the live registry ([parinline_faults_injected_total])
    even when no profile is installed. *)
let tick_fault_injected () =
  Metrics.incr m_faults;
  match current () with
  | None -> ()
  | Some p -> p.c.faults_injected <- p.c.faults_injected + 1

(** Add a detached counter snapshot into [p], field by field.  The
    analysis daemon runs every request under its own short-lived profile
    (domain-locally, possibly on a pool worker) and folds the result into
    one server-lifetime aggregate; like {!snapshot}, the explicit
    field list fails to compile when the record grows. *)
let absorb (p : t) (c : counters) =
  p.c.dep_tests_run <- p.c.dep_tests_run + c.dep_tests_run;
  p.c.dep_tests_independent <-
    p.c.dep_tests_independent + c.dep_tests_independent;
  p.c.dep_cache_hits <- p.c.dep_cache_hits + c.dep_cache_hits;
  p.c.dep_cache_misses <- p.c.dep_cache_misses + c.dep_cache_misses;
  p.c.annot_sites_inlined <- p.c.annot_sites_inlined + c.annot_sites_inlined;
  p.c.reverse_sites_matched <-
    p.c.reverse_sites_matched + c.reverse_sites_matched;
  p.c.stmts_normalized <- p.c.stmts_normalized + c.stmts_normalized;
  p.c.iterations_traced <- p.c.iterations_traced + c.iterations_traced;
  p.c.race_conflicts <- p.c.race_conflicts + c.race_conflicts;
  p.c.race_excused <- p.c.race_excused + c.race_excused;
  p.c.faults_injected <- p.c.faults_injected + c.faults_injected;
  p.c.requests_served <- p.c.requests_served + c.requests_served;
  p.c.unit_cache_hits <- p.c.unit_cache_hits + c.unit_cache_hits;
  p.c.snapshot_restores <- p.c.snapshot_restores + c.snapshot_restores

(* ---- readers ---- *)

(** Accumulated pass timings in milliseconds, pipeline order. *)
let pass_ms (p : t) = p.passes

let total_ms (p : t) = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 p.passes

(** Copy of the counters, detached from further mutation.  Every field is
    copied explicitly: the previous [{ p.c with f = p.c.f }] spelling read
    as an update but relied on record-copy syntax for the freshness of the
    other seven fields, and silently kept "copying" if a field was added
    — this shape fails to compile instead when the record grows. *)
let snapshot (p : t) : counters =
  {
    dep_tests_run = p.c.dep_tests_run;
    dep_tests_independent = p.c.dep_tests_independent;
    dep_cache_hits = p.c.dep_cache_hits;
    dep_cache_misses = p.c.dep_cache_misses;
    annot_sites_inlined = p.c.annot_sites_inlined;
    reverse_sites_matched = p.c.reverse_sites_matched;
    stmts_normalized = p.c.stmts_normalized;
    iterations_traced = p.c.iterations_traced;
    race_conflicts = p.c.race_conflicts;
    race_excused = p.c.race_excused;
    faults_injected = p.c.faults_injected;
    requests_served = p.c.requests_served;
    unit_cache_hits = p.c.unit_cache_hits;
    snapshot_restores = p.c.snapshot_restores;
  }

(** The counters as the one JSON object both the bench document and the
    daemon's [stats] op carry: one integer per field, in declaration
    order.  Like {!snapshot}, the explicit field list is the one place a
    new counter gets its key. *)
let counters_json (c : counters) : Json.t =
  Json.Obj
    [
      ("dep_tests_run", Json.Int c.dep_tests_run);
      ("dep_tests_independent", Json.Int c.dep_tests_independent);
      ("dep_cache_hits", Json.Int c.dep_cache_hits);
      ("dep_cache_misses", Json.Int c.dep_cache_misses);
      ("annot_sites_inlined", Json.Int c.annot_sites_inlined);
      ("reverse_sites_matched", Json.Int c.reverse_sites_matched);
      ("stmts_normalized", Json.Int c.stmts_normalized);
      ("iterations_traced", Json.Int c.iterations_traced);
      ("race_conflicts", Json.Int c.race_conflicts);
      ("race_excused", Json.Int c.race_excused);
      ("faults_injected", Json.Int c.faults_injected);
      ("requests_served", Json.Int c.requests_served);
      ("unit_cache_hits", Json.Int c.unit_cache_hits);
      ("snapshot_restores", Json.Int c.snapshot_restores);
    ]

(** Multi-line report: pass timings in pipeline order plus the work
    counters, e.g. for [parinline --profile]. *)
let render (p : t) =
  let b = Buffer.create 256 in
  Buffer.add_string b "profile: pass timings (ms)\n";
  List.iter
    (fun (name, ms) ->
      Buffer.add_string b (Printf.sprintf "  %-14s %9.3f\n" name ms))
    (pass_ms p);
  Buffer.add_string b (Printf.sprintf "  %-14s %9.3f\n" "total" (total_ms p));
  let c = snapshot p in
  Buffer.add_string b
    (Printf.sprintf
       "counters: dep-tests %d run / %d independent (%d cached, %d \
        computed); annot-sites %d inlined; reverse %d matched; stmts %d \
        normalized\n"
       c.dep_tests_run c.dep_tests_independent c.dep_cache_hits
       c.dep_cache_misses c.annot_sites_inlined c.reverse_sites_matched
       c.stmts_normalized);
  if c.iterations_traced > 0 || c.race_conflicts > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "oracle: %d iterations traced; %d conflicts (%d excused by clause)\n"
         c.iterations_traced c.race_conflicts c.race_excused);
  if c.faults_injected > 0 then
    Buffer.add_string b
      (Printf.sprintf "chaos: %d fault%s injected\n" c.faults_injected
         (if c.faults_injected = 1 then "" else "s"));
  if c.requests_served > 0 || c.snapshot_restores > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "serve: %d request%s served (%d unit-cache hit%s); %d snapshot \
          restore%s\n"
         c.requests_served
         (if c.requests_served = 1 then "" else "s")
         c.unit_cache_hits
         (if c.unit_cache_hits = 1 then "" else "s")
         c.snapshot_restores
         (if c.snapshot_restores = 1 then "" else "s"));
  Buffer.contents b
