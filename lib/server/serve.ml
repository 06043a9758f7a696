(** The analysis daemon behind [parinline serve].

    A long-lived server that accepts batched analysis / parallelization
    / plan requests over a newline-delimited-JSON protocol (stdin/stdout
    or a Unix-domain socket — the framing is identical) and keeps two
    caches warm across requests:

    - the {b unit cache}: every work request is content-hashed (source
      digest + annotation digest + mode + options + protocol schema);
      an unchanged unit is a pure end-to-end hit that returns the stored
      response body without re-parsing, and

    - the {b dependence memo store} ({!Dependence.Memo}): PR 5 made its
      entries unit-independent, so they legally persist across requests,
      units, and all four inlining configurations.

    Both survive restarts through {!Store} snapshots ([--cache-dir]),
    and both are shared across the daemon's connection workers: the
    unit cache is an LRU-bounded {!Lru} store with its own lock
    ([--max-cache-units] / [--max-cache-bytes]), and each worker
    domain's memo store exchanges entries with a process-wide hub via
    {!Dependence.Memo.sync} around every cache miss.  Socket serving is
    concurrent ([--conn-jobs] worker domains, [--backlog] listen depth,
    [--max-inflight] admission bound — excess connections get a
    structured overload envelope, never a silent close).

    Protocol: one JSON object per line in, one per line out.

    {v
    REQUEST  := { "op": OP, "id": INT, ... }
    OP       := "ping" | "stats" | "metrics" | "analyze" | "compile"
              | "plan" | "batch" | "snapshot" | "shutdown"
    work ops (analyze/compile/plan) add:
                "source": STR   Fortran source text (required)
                "annot":  STR   annotation text (default "")
                "mode":   STR   none|conventional|annotation|demand
                "growth_budget": FLOAT, "max_rounds": INT   (plan/demand)
    batch adds: "requests": [ WORK-REQUEST... ]  — sharded across the
                {!Runtime.Pool} domains, responses in request order
    v}

    Responses are [{"id":N,"ok":true,"cached":BOOL,"hash":STR,
    "request_id":STR,"result":BODY}] for work, [{"id":N,"ok":false,
    "request_id":STR,"error":STR,"diags":[STR...]}] on failure.  Every
    response (and every Diag and request-log line the daemon emits)
    carries a daemon-unique [request_id] ([r1], [r2], ...) so failures
    are correlatable across channels; the [request_id] lives in the
    envelope, never in the cached [result] body, which stays a pure
    function of the input.  The failure contract matches the
    pipeline's degradation ladder: a poisoned request — bad JSON, an
    unknown op, a source that defeats even the salvaging parser, or an
    injected [server.request] chaos fault — degrades to a per-request
    error response carrying structured {!Core.Diag} records; the daemon
    itself never crashes.

    Determinism: every cache miss resets the domain-local gensyms before
    compiling (exactly like the bench driver), so response bodies are a
    pure function of (source, annot, mode, options) — byte-identical
    across request order, domain placement, and daemon restarts, and
    equal to what a one-shot [parinline] run prints for the same unit. *)

open Core
module Json = Frontend.Json
module Verdict = Parallelizer.Verdict

(** Version of the protocol and of the response-body shapes.  Bumped
    whenever a body would change for the same input; snapshots carry it
    so a stale cache can never replay an old shape (see {!Store}). *)
let protocol_version = 1

(* ------------------------------------------------------------------ *)
(* Request log                                                         *)
(* ------------------------------------------------------------------ *)

(** Severity of one request-log line; [--log-level] filters below. *)
type log_level = L_debug | L_info | L_warn | L_error

let level_rank = function L_debug -> 0 | L_info -> 1 | L_warn -> 2 | L_error -> 3

let level_name = function
  | L_debug -> "debug"
  | L_info -> "info"
  | L_warn -> "warn"
  | L_error -> "error"

let log_level_of_string = function
  | "debug" -> Ok L_debug
  | "info" -> Ok L_info
  | "warn" | "warning" -> Ok L_warn
  | "error" -> Ok L_error
  | s ->
      Error
        (Printf.sprintf "unknown log level %S (want debug|info|warn|error)" s)

type logger = {
  lg_oc : out_channel;
  lg_min : log_level;
  lg_m : Mutex.t;  (** one NDJSON line per write, never interleaved *)
}

type t = {
  srv_jobs : int;
  srv_pool : Runtime.Pool.t;  (** shards batch requests *)
  srv_cache_dir : string option;
  srv_max_errors : int;
  srv_m : Mutex.t;  (** guards [srv_prof] *)
  srv_units : Lru.t;
      (** content hash (hex) → serialized response body, LRU-bounded;
          has its own lock — shared by all connection workers *)
  srv_prof : Prof.t;  (** server-lifetime counter aggregate *)
  srv_metrics : Metrics.t;  (** live registry, armed for the daemon's life *)
  srv_log : logger option;
  srv_t0_ns : int64;  (** startup, for the uptime gauge *)
  srv_inflight : int Atomic.t;  (** requests being handled right now *)
  srv_rid : int Atomic.t;  (** next request id *)
  srv_cid : int Atomic.t;  (** next connection id *)
  srv_backlog : int;  (** [Unix.listen] queue depth *)
  srv_max_inflight : int;  (** connection admission bound *)
  srv_conn_jobs : int;  (** connection-worker domains (0 = sequential) *)
  mutable srv_conns : Runtime.Pool.t;
      (** the connection pool of the latest {!serve_socket}; its stats
          feed the stats op *)
  mutable srv_stop : bool;
}

(* Live telemetry handles.  The per-op request families are interned on
   demand (op and cache outcome are only known per request); interning
   is a mutex + hashtable probe, and only happens with a registry armed. *)
let g_uptime =
  Metrics.gauge "parinline_uptime_seconds" ~help:"daemon uptime at scrape time"

let g_inflight =
  Metrics.gauge "parinline_requests_in_flight"
    ~help:"requests currently being handled"

let g_units_cached =
  Metrics.gauge "parinline_units_cached" ~help:"entries in the unit cache"

let g_cache_bytes =
  Metrics.gauge "parinline_unit_cache_bytes"
    ~help:"resident key+body bytes in the unit cache"

let g_connections =
  Metrics.gauge "parinline_connections_active"
    ~help:"socket connections currently open"

let m_connections ~outcome =
  Metrics.counter "parinline_connections_total"
    ~help:"socket connections by outcome"
    ~labels:[ ("outcome", outcome) ]

let m_request_hist ~op ~cache =
  Metrics.histogram "parinline_request_duration_seconds"
    ~help:"request wall time by op and cache outcome"
    ~labels:[ ("op", op); ("cache", cache) ]

let m_requests ~op ~status =
  Metrics.counter "parinline_requests_total"
    ~help:"protocol requests answered, by op and status"
    ~labels:[ ("op", op); ("status", status) ]

(* Request/connection ids are fetch-and-add so concurrent workers never
   mint the same id (and never contend on a lock to avoid it). *)
let next_rid t = Printf.sprintf "r%d" (Atomic.fetch_and_add t.srv_rid 1)
let next_cid t = Printf.sprintf "c%d" (Atomic.fetch_and_add t.srv_cid 1)

(* One NDJSON request-log line.  A poisoned write — the [server.log]
   chaos site or a real I/O error — degrades to a Diag warning on
   stderr; the response already on its way is never affected. *)
let log_line t ~(level : log_level) (fields : (string * Json.t) list) : unit =
  match t.srv_log with
  | None -> ()
  | Some lg when level_rank level < level_rank lg.lg_min -> ()
  | Some lg -> (
      let line =
        Json.to_string
          (Json.Obj
             (("ts", Json.Float (Unix.gettimeofday ()))
             :: ("level", Json.Str (level_name level))
             :: fields))
      in
      Mutex.lock lg.lg_m;
      match
        Fault.point "server.log";
        output_string lg.lg_oc line;
        output_char lg.lg_oc '\n';
        flush lg.lg_oc
      with
      | () -> Mutex.unlock lg.lg_m
      | exception e ->
          Mutex.unlock lg.lg_m;
          prerr_endline
            (Diag.render
               (Diag.make ~severity:Diag.Warning Diag.Io
                  (Printf.sprintf "request log write failed (%s); line dropped"
                     (Printexc.to_string e)))))

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let mode_of_string = function
  | "none" | "no-inlining" -> Ok Pipeline.No_inlining
  | "conventional" -> Ok Pipeline.Conventional
  | "" | "annotation" | "annotation-based" -> Ok Pipeline.Annotation_based
  | "demand" | "demand-driven" -> Ok Pipeline.Demand
  | m -> Error (Printf.sprintf "unknown mode %S" m)

(** Build a work/control request object — the one true spelling, shared
    by the CLI client and the serve-bench harness. *)
let request ?(id = 0) ~op ?(mode = "annotation") ?(source = "")
    ?(annot = "") ?growth_budget ?max_rounds () : Json.t =
  Json.Obj
    ([ ("op", Json.Str op); ("id", Json.Int id) ]
    @ (if source = "" then [] else [ ("source", Json.Str source) ])
    @ (if annot = "" then [] else [ ("annot", Json.Str annot) ])
    @ (if mode = "" then [] else [ ("mode", Json.Str mode) ])
    @ (match growth_budget with
      | None -> []
      | Some f -> [ ("growth_budget", Json.Float f) ])
    @
    match max_rounds with
    | None -> []
    | Some n -> [ ("max_rounds", Json.Int n) ])

(** The content-hash key of a work request: an unchanged unit under the
    same options is a pure cache hit, and any change to source text,
    annotations, mode, planner options, or the protocol schema lands in
    a different slot. *)
let unit_hash ~op ~mode ~growth_budget ~max_rounds ~source ~annot =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            string_of_int protocol_version;
            op;
            mode;
            Printf.sprintf "%.6f" growth_budget;
            string_of_int max_rounds;
            source;
            annot;
          ]))

(* Responses.  The envelope around a cached body is assembled by string
   concatenation so a hit replays the stored bytes verbatim; the
   request_id lives only in the envelope, so the cached [result] stays
   byte-identical across requests. *)
let ok_envelope ~rid ~id ~cached ~hash body =
  Printf.sprintf
    "{\"id\":%d,\"ok\":true,\"cached\":%b,\"hash\":\"%s\",\"request_id\":\"%s\",\"result\":%s}"
    id cached hash rid body

(* Error responses thread the request id through every rendered Diag so
   a stderr line, a log line and a response are correlatable. *)
let error_response ?rid ~id (ds : Diag.t list) =
  let tag r = match rid with None -> r | Some rid -> "req " ^ rid ^ ": " ^ r in
  let rendered = List.map (fun d -> tag (Diag.render d)) ds in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int id); ("ok", Json.Bool false) ]
       @ (match rid with
         | None -> []
         | Some rid -> [ ("request_id", Json.Str rid) ])
       @ [
           ( "error",
             Json.Str
               (match rendered with [] -> "request failed" | r :: _ -> r) );
           ("diags", Json.List (List.map (fun r -> Json.Str r) rendered));
         ]))

let counters_json (c : Prof.counters) : Json.t =
  Json.Obj
    [
      ("dep_tests_run", Json.Int c.Prof.dep_tests_run);
      ("dep_tests_independent", Json.Int c.Prof.dep_tests_independent);
      ("dep_cache_hits", Json.Int c.Prof.dep_cache_hits);
      ("dep_cache_misses", Json.Int c.Prof.dep_cache_misses);
      ("annot_sites_inlined", Json.Int c.Prof.annot_sites_inlined);
      ("reverse_sites_matched", Json.Int c.Prof.reverse_sites_matched);
      ("stmts_normalized", Json.Int c.Prof.stmts_normalized);
      ("iterations_traced", Json.Int c.Prof.iterations_traced);
      ("race_conflicts", Json.Int c.Prof.race_conflicts);
      ("race_excused", Json.Int c.Prof.race_excused);
      ("faults_injected", Json.Int c.Prof.faults_injected);
      ("requests_served", Json.Int c.Prof.requests_served);
      ("unit_cache_hits", Json.Int c.Prof.unit_cache_hits);
      ("snapshot_restores", Json.Int c.Prof.snapshot_restores);
    ]

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let units_cached t = Lru.length t.srv_units

(** Resident size / byte / eviction stats of the unit cache. *)
let cache_stats t = Lru.stats t.srv_units

(** Connection-pool stats of the latest {!serve_socket} (zeros before). *)
let conn_stats t = Runtime.Pool.stats t.srv_conns

(** Counter snapshot of the server-lifetime aggregate. *)
let counters t =
  Mutex.lock t.srv_m;
  let c = Prof.snapshot t.srv_prof in
  Mutex.unlock t.srv_m;
  c

(** Ask the serve loops to wind down after the in-flight message (also
    flipped by the [shutdown] op; signal handlers call this). *)
let stop t = t.srv_stop <- true
let stopping t = t.srv_stop

(** Create a server.  [jobs] sizes the {!Runtime.Pool} batch sharding
    ([<= 1] runs everything on the caller); [conn_jobs] sizes the
    socket loop's connection {!Runtime.Pool} ([0] serves connections
    sequentially on the acceptor); [backlog] is the [Unix.listen] queue
    depth and [max_inflight] the admission bound beyond which new
    connections are shed with an overload envelope.  [max_cache_units]
    / [max_cache_bytes] bound the unit cache (0 = unbounded) with LRU
    eviction.  With [cache_dir] the warm caches are restored from the
    snapshot on disk (if any) and saved back on {!drain}; restore
    replays the snapshot's recency order, so the hot tail survives into
    a smaller cap.  With [log_file] an NDJSON request log is opened
    (truncating; [log_level] filters, default info).  Creation arms the
    server's live {!Metrics} registry for the daemon's lifetime —
    {!drain} disarms it.  Returns the startup diagnostics — a rejected
    snapshot or an unopenable log file degrades to a warning here. *)
let create ?(jobs = 1) ?(conn_jobs = 0) ?(backlog = 16) ?(max_inflight = 64)
    ?(max_cache_units = 0) ?(max_cache_bytes = 0) ?cache_dir
    ?(max_errors = Diag.default_max_errors) ?log_file ?(log_level = L_info) ()
    : t * Diag.t list =
  let log, log_diags =
    match log_file with
    | None -> (None, [])
    | Some path -> (
        match open_out path with
        | oc ->
            (Some { lg_oc = oc; lg_min = log_level; lg_m = Mutex.create () }, [])
        | exception Sys_error m ->
            ( None,
              [
                Diag.make ~severity:Diag.Warning Diag.Io
                  (Printf.sprintf
                     "cannot open request log %s (%s); logging disabled" path m);
              ] ))
  in
  let t =
    {
      srv_jobs = max 1 jobs;
      srv_pool = Runtime.Pool.create (max 1 jobs);
      srv_cache_dir = cache_dir;
      srv_max_errors = max_errors;
      srv_m = Mutex.create ();
      srv_units = Lru.create ~max_units:max_cache_units
          ~max_bytes:max_cache_bytes ();
      srv_prof = Prof.create ();
      srv_metrics = Metrics.create ();
      srv_log = log;
      srv_t0_ns = Prof.monotonic_ns ();
      srv_inflight = Atomic.make 0;
      srv_rid = Atomic.make 1;
      srv_cid = Atomic.make 1;
      srv_backlog = max 1 backlog;
      srv_max_inflight = max 1 max_inflight;
      srv_conn_jobs = max 0 conn_jobs;
      srv_conns = Runtime.Pool.create 1;
      srv_stop = false;
    }
  in
  Metrics.install t.srv_metrics;
  (* seed the event-driven gauges so a scrape before any traffic still
     exposes the families *)
  Metrics.set_gauge g_inflight 0.0;
  Metrics.set_gauge g_connections 0.0;
  let diags =
    match cache_dir with
    | None -> []
    | Some dir -> (
        match Store.load ~dir ~schema:protocol_version with
        | Store.Absent -> []
        | Store.Rejected d -> [ d ]
        | Store.Restored p ->
            let (_ : int) = Dependence.Memo.import p.Store.pay_memo in
            (* publish the restored memo to the hub so every connection
               worker starts warm, not just the control domain *)
            let (_ : int * int) = Dependence.Memo.sync () in
            (* pay_units is in cold→hot recency order: in-order adds
               replay it, so under a smaller cap the hot tail wins *)
            List.iter
              (fun (h, body) -> Lru.add t.srv_units h body)
              p.Store.pay_units;
            t.srv_prof.Prof.c.Prof.snapshot_restores <-
              t.srv_prof.Prof.c.Prof.snapshot_restores + 1;
            [])
  in
  log_line t ~level:L_info
    [
      ("event", Json.Str "start");
      ("protocol", Json.Int protocol_version);
      ("jobs", Json.Int t.srv_jobs);
      ("conn_jobs", Json.Int t.srv_conn_jobs);
      ("units_restored", Json.Int (units_cached t));
    ];
  (t, log_diags @ diags)

(* Snapshot the warm state: the merged memo store (hub + this domain)
   plus the unit cache in cold→hot recency order, so a restart re-warms
   hot entries first.  The payload is deterministic given the request
   history: recency order is a pure function of the (deterministic)
   request order. *)
let save_snapshot t : (string, Diag.t) result =
  match t.srv_cache_dir with
  | None -> Error (Diag.make ~severity:Diag.Warning Diag.Io "no --cache-dir")
  | Some dir ->
      (* fold every domain's discoveries into the calling domain before
         exporting — the snapshot must not depend on which domain saves *)
      let (_ : int * int) = Dependence.Memo.sync () in
      Store.save ~dir ~schema:protocol_version
        {
          Store.pay_memo = Dependence.Memo.export ();
          pay_units = Lru.to_alist t.srv_units;
        }

(** Graceful drain: persist the warm caches (when [--cache-dir] was
    given), then stop and join the pool.  Returns the snapshot
    diagnostics; a failed write is a warning, never a crash. *)
let drain t : Diag.t list =
  t.srv_stop <- true;
  let ds =
    match t.srv_cache_dir with
    | None -> []
    | Some _ -> ( match save_snapshot t with Ok _ -> [] | Error d -> [ d ])
  in
  Runtime.Pool.shutdown t.srv_pool;
  log_line t ~level:L_info
    [
      ("event", Json.Str "drain");
      ("requests_served", Json.Int (counters t).Prof.requests_served);
    ];
  (match t.srv_log with Some lg -> close_out_noerr lg.lg_oc | None -> ());
  Metrics.uninstall t.srv_metrics;
  ds

(* ------------------------------------------------------------------ *)
(* Unit work                                                           *)
(* ------------------------------------------------------------------ *)

(* Same reset as the bench driver: ids and generated names become a pure
   function of the unit source, independent of what this domain compiled
   before — the cache-miss path must produce the bytes a fresh one-shot
   process would. *)
let reset_gensyms () =
  Frontend.Ast.reset_ids ();
  Analysis.Sections.reset_gensym ();
  Inliner.Inline.reset_gensym ();
  Annot_inline.reset_gensym ()

let render_diags ds = Json.List (List.map (fun d -> Json.Str (Diag.render d)) ds)

(* Salvaging parse of source + annotations, demand/plan flavor: the
   planner needs the pristine AST before any inlining touches it. *)
let parse_program ~max_errors source annot_source =
  let p, ds = Frontend.Resolve.parse_robust ~max_errors source in
  let annots, ads =
    if String.trim annot_source = "" then ([], [])
    else
      match Annot_parser.parse_annotations annot_source with
      | a -> (a, [])
      | exception Annot_parser.Annot_parse_error m ->
          ( [],
            [
              Diag.make Diag.Annot
                ("annotation file rejected (" ^ m
               ^ "); continuing without annotations");
            ] )
  in
  (p, annots, ds @ ads)

(* One work request body, computed (the cache-miss path).  Runs under
   the caller's per-request profile; raises only through the barrier in
   [handle_work]. *)
let compute_body ~max_errors ~op ~mode ~growth_budget ~max_rounds ~source
    ~annot : Json.t =
  let run_result () =
    match mode with
    | Pipeline.Demand ->
        let program, annots, parse_diags =
          parse_program ~max_errors source annot
        in
        let dg = Diag.collector ~max_errors () in
        List.iter (Diag.emit dg) parse_diags;
        let r, pl = Planner.run ~growth_budget ~max_rounds ~annots ~dg program in
        (r, Some pl)
    | _ ->
        ( Pipeline.run_source_robust ~max_errors ~mode ~annot_source:annot
            source,
          None )
  in
  match op with
  | "analyze" ->
      let r, _ = run_result () in
      let verdicts =
        List.map
          (fun (rep : Parallelizer.Parallelize.loop_report) -> rep.rep_verdict)
          r.Pipeline.res_reports
      in
      let parallel = List.filter Verdict.is_parallel verdicts in
      Json.Obj
        [
          ("op", Json.Str "analyze");
          ("mode", Json.Str (Pipeline.mode_name mode));
          ("verdicts", Json.List (List.map Verdict.to_json verdicts));
          ("parallel", Json.Int (List.length parallel));
          ("marked", Json.Int (List.length r.Pipeline.res_marked));
          ( "serial",
            Json.Int (List.length verdicts - List.length parallel) );
          ("code_size", Json.Int r.Pipeline.res_code_size);
          ("diags", render_diags r.Pipeline.res_diags);
        ]
  | "compile" ->
      let r, _ = run_result () in
      Json.Obj
        [
          ("op", Json.Str "compile");
          ("mode", Json.Str (Pipeline.mode_name mode));
          ( "program",
            Json.Str (Frontend.Pretty.program_to_string r.Pipeline.res_program)
          );
          ("marked", Json.Int (List.length r.Pipeline.res_marked));
          ("code_size", Json.Int r.Pipeline.res_code_size);
          ("diags", render_diags r.Pipeline.res_diags);
        ]
  | "plan" ->
      let program, annots, parse_diags =
        parse_program ~max_errors source annot
      in
      let dg = Diag.collector ~max_errors () in
      List.iter (Diag.emit dg) parse_diags;
      let r, pl = Planner.run ~growth_budget ~max_rounds ~annots ~dg program in
      Json.Obj
        [
          ("op", Json.Str "plan");
          ("plan", Planner.to_json pl);
          ("diags", render_diags r.Pipeline.res_diags);
        ]
  | op -> Diag.fatal Diag.Cli "unknown op %S" op

(* The per-request fault barrier around one work request.  Everything —
   a tripped [server.request] chaos fault, a fatal diagnostic, the
   error-budget overflow, an unknown mode — degrades to an error
   response for this request; the daemon and its caches are untouched
   (failed results are never cached). *)
let handle_work t (j : Json.t) : string =
  let id = Json.to_int (Json.member "id" j) in
  let rid = next_rid t in
  let op_s =
    match Json.member "op" j with Json.Null -> "analyze" | v -> Json.to_str v
  in
  let t0 = Prof.monotonic_ns () in
  let faults0 = Fault.armed_fired_count () in
  (* event-driven in-flight accounting: refresh-at-scrape was racy once
     workers run in parallel — inc here, dec after the barrier, so a
     scrape from another connection observes the true concurrent count *)
  Atomic.incr t.srv_inflight;
  Metrics.add_gauge g_inflight 1.0;
  (* (response, ok, unit hash) plus the cache-outcome label for the
     per-op latency histogram: "hit" | "miss" | "error". *)
  let (response, ok, hash), cache =
    match
      Fault.point "server.request";
      let mode_s = Json.to_str (Json.member "mode" j) in
      let source = Json.to_str (Json.member "source" j) in
      let annot = Json.to_str (Json.member "annot" j) in
      let growth_budget =
        match Json.member "growth_budget" j with
        | Json.Null -> Planner.default_growth_budget
        | v -> Json.to_float v
      in
      let max_rounds =
        match Json.member "max_rounds" j with
        | Json.Null -> Planner.default_max_rounds
        | v -> Json.to_int v
      in
      if source = "" then Diag.fatal Diag.Cli "work request without source";
      if growth_budget <= 0.0 then
        Diag.fatal Diag.Cli "growth_budget must be positive";
      if max_rounds < 1 then
        Diag.fatal Diag.Cli "max_rounds must be at least 1";
      match mode_of_string mode_s with
      | Error m -> Diag.fatal Diag.Cli "%s" m
      | Ok mode -> (
          let hash =
            unit_hash ~op:op_s ~mode:(Pipeline.mode_name mode) ~growth_budget
              ~max_rounds ~source ~annot
          in
          match Lru.find t.srv_units hash with
          | Some body ->
              Mutex.lock t.srv_m;
              t.srv_prof.Prof.c.Prof.requests_served <-
                t.srv_prof.Prof.c.Prof.requests_served + 1;
              t.srv_prof.Prof.c.Prof.unit_cache_hits <-
                t.srv_prof.Prof.c.Prof.unit_cache_hits + 1;
              Mutex.unlock t.srv_m;
              ((ok_envelope ~rid ~id ~cached:true ~hash body, true, Some hash),
               "hit")
          | None ->
              (* warm this domain's memo store from the hub before the
                 compute, publish what the compute learned after: domain
                 A's cold miss becomes domain B's warm hit.  Both are
                 no-ops for the stdio/sequential daemon beyond one
                 mutex round-trip. *)
              let (_ : int * int) = Dependence.Memo.sync () in
              let prof = Prof.create () in
              let body =
                Prof.with_profiling prof (fun () ->
                    reset_gensyms ();
                    compute_body ~max_errors:t.srv_max_errors ~op:op_s ~mode
                      ~growth_budget ~max_rounds ~source ~annot)
              in
              let body = Json.to_string body in
              let (_ : int * int) = Dependence.Memo.sync () in
              Lru.add t.srv_units hash body;
              Mutex.lock t.srv_m;
              Prof.absorb t.srv_prof (Prof.snapshot prof);
              t.srv_prof.Prof.c.Prof.requests_served <-
                t.srv_prof.Prof.c.Prof.requests_served + 1;
              Mutex.unlock t.srv_m;
              ((ok_envelope ~rid ~id ~cached:false ~hash body, true, Some hash),
               "miss"))
    with
    | result -> result
    | exception Fault.Injected (site, n) ->
        ( ( error_response ~rid ~id
              [
                Diag.make Diag.Exec
                  (Printf.sprintf
                     "request hit injected fault at %s (arrival %d)" site n);
              ],
            false,
            None ),
          "error" )
    | exception Diag.Error_limit n ->
        ( ( error_response ~rid ~id
              [
                Diag.make Diag.Cli (Printf.sprintf "error limit (%d) reached" n);
              ],
            false,
            None ),
          "error" )
    | exception e ->
        ( ( error_response ~rid ~id
              [ Diag.of_exn ~backtrace:(Printexc.get_backtrace ()) Diag.Exec e ],
            false,
            None ),
          "error" )
  in
  Atomic.decr t.srv_inflight;
  Metrics.add_gauge g_inflight (-1.0);
  let dur_ns = Int64.to_int (Int64.sub (Prof.monotonic_ns ()) t0) in
  if Metrics.on () then begin
    Metrics.observe_ns (m_request_hist ~op:op_s ~cache) dur_ns;
    Metrics.incr (m_requests ~op:op_s ~status:(if ok then "ok" else "error"))
  end;
  let fault_sites = Fault.armed_fired_since faults0 in
  log_line t
    ~level:(if ok && fault_sites = [] then L_info else L_warn)
    ([
       ("request_id", Json.Str rid);
       ("op", Json.Str op_s);
       ("id", Json.Int id);
     ]
    @ (match hash with None -> [] | Some h -> [ ("hash", Json.Str h) ])
    @ [
        ("cache", Json.Str cache);
        ("ok", Json.Bool ok);
        ("latency_ms", Json.Float (float_of_int dur_ns /. 1e6));
        ("faults", Json.List (List.map (fun s -> Json.Str s) fault_sites));
      ]);
  response

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* A batch shards its work requests across the pool domains.  Chunk
   functions are idempotent pure writes into distinct slots, and
   [handle_work] already owns all failure modes, so a pool-level report
   only matters for a chunk that escaped it.  Connection workers may
   shard batches on the pool at the same time: each job keeps its own
   state. *)
let handle_batch t ~rid ~id (reqs : Json.t list) : string =
  let reqs = Array.of_list reqs in
  let out = Array.make (Array.length reqs) "" in
  let events = ref [] in
  Runtime.Pool.parallel_for ~label:"server-batch"
    ~report:(fun evs -> events := evs)
    t.srv_pool ~chunks:(Array.length reqs)
    (fun i -> out.(i) <- handle_work t reqs.(i));
  List.iter
    (fun (ev : Runtime.Pool.event) ->
      match ev with
      | Runtime.Pool.Chunk_failed { chunk; error; backtrace } ->
          out.(chunk) <-
            error_response ~rid
              ~id:(Json.to_int (Json.member "id" reqs.(chunk)))
              [ Diag.of_exn ~backtrace Diag.Exec error ]
      | _ -> ())
    !events;
  Printf.sprintf
    "{\"id\":%d,\"ok\":true,\"request_id\":\"%s\",\"responses\":[%s]}" id rid
    (String.concat "," (Array.to_list out))

let uptime_s t =
  Int64.to_float (Int64.sub (Prof.monotonic_ns ()) t.srv_t0_ns) /. 1e9

(* Refresh the sampled gauges just before a scrape.  The in-flight
   gauge is NOT here: it is event-driven (inc/dec around each request),
   because a refresh-at-scrape value is stale the instant a concurrent
   worker starts or finishes a request. *)
let refresh_gauges t =
  let cs = cache_stats t in
  Metrics.set_gauge g_uptime (uptime_s t);
  Metrics.set_gauge g_units_cached (float_of_int cs.Lru.units);
  Metrics.set_gauge g_cache_bytes (float_of_int cs.Lru.bytes)

(* Histogram snapshots as a JSON object keyed by family{labels}, for the
   extended [stats] op. *)
let histograms_json (snap : Metrics.snapshot) : Json.t =
  match Metrics.to_json snap with
  | Json.Obj kvs -> (
      match List.assoc_opt "histograms" kvs with Some h -> h | None -> Json.Obj [])
  | _ -> Json.Obj []

let log_control t ~level ~rid ~op ~id ~ok =
  if Metrics.on () then
    Metrics.incr (m_requests ~op ~status:(if ok then "ok" else "error"));
  log_line t ~level
    [
      ("request_id", Json.Str rid);
      ("op", Json.Str op);
      ("id", Json.Int id);
      ("ok", Json.Bool ok);
    ]

(** Handle one protocol message (a parsed JSON line) and return the
    response line. *)
let handle_request t (j : Json.t) : string =
  let id = Json.to_int (Json.member "id" j) in
  let op =
    match Json.member "op" j with Json.Null -> "analyze" | v -> Json.to_str v
  in
  match op with
  | "ping" ->
      let rid = next_rid t in
      log_control t ~level:L_debug ~rid ~op ~id ~ok:true;
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("ok", Json.Bool true);
             ("op", Json.Str "ping");
             ("request_id", Json.Str rid);
             ("protocol", Json.Int protocol_version);
           ])
  | "stats" ->
      let rid = next_rid t in
      log_control t ~level:L_debug ~rid ~op ~id ~ok:true;
      refresh_gauges t;
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("ok", Json.Bool true);
             ("op", Json.Str "stats");
             ("request_id", Json.Str rid);
             ("protocol", Json.Int protocol_version);
             ("jobs", Json.Int t.srv_jobs);
             ("conn_jobs", Json.Int t.srv_conn_jobs);
             ("backlog", Json.Int t.srv_backlog);
             ("max_inflight", Json.Int t.srv_max_inflight);
             ("units_cached", Json.Int (units_cached t));
             ("uptime_s", Json.Float (uptime_s t));
             ("requests_in_flight", Json.Int (Atomic.get t.srv_inflight));
             ( "cache",
               let cs = cache_stats t in
               Json.Obj
                 [
                   ("units", Json.Int cs.Lru.units);
                   ("bytes", Json.Int cs.Lru.bytes);
                   ("evictions", Json.Int cs.Lru.evictions);
                   ("max_units", Json.Int cs.Lru.max_units);
                   ("max_bytes", Json.Int cs.Lru.max_bytes);
                 ] );
             ( "connections",
               let ws = conn_stats t in
               Json.Obj
                 [
                   ("accepted", Json.Int ws.Runtime.Pool.accepted);
                   ("shed", Json.Int ws.Runtime.Pool.shed);
                   ("handler_errors", Json.Int ws.Runtime.Pool.handler_errors);
                   ("worker_deaths", Json.Int ws.Runtime.Pool.deaths);
                   ("worker_respawns", Json.Int ws.Runtime.Pool.respawns);
                   ("inflight", Json.Int ws.Runtime.Pool.inflight);
                   ("workers", Json.Int ws.Runtime.Pool.workers);
                 ] );
             ("counters", counters_json (counters t));
             ("histograms", histograms_json (Metrics.snapshot t.srv_metrics));
           ])
  | "metrics" ->
      let rid = next_rid t in
      log_control t ~level:L_debug ~rid ~op ~id ~ok:true;
      refresh_gauges t;
      let snap = Metrics.snapshot t.srv_metrics in
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("ok", Json.Bool true);
             ("op", Json.Str "metrics");
             ("request_id", Json.Str rid);
             ("exposition", Json.Str (Metrics.to_prometheus snap));
             ("metrics", Metrics.to_json snap);
           ])
  | "snapshot" -> (
      let rid = next_rid t in
      match save_snapshot t with
      | Ok path ->
          log_control t ~level:L_info ~rid ~op ~id ~ok:true;
          Json.to_string
            (Json.Obj
               [
                 ("id", Json.Int id);
                 ("ok", Json.Bool true);
                 ("op", Json.Str "snapshot");
                 ("request_id", Json.Str rid);
                 ("path", Json.Str path);
               ])
      | Error d ->
          log_control t ~level:L_warn ~rid ~op ~id ~ok:false;
          error_response ~rid ~id [ d ])
  | "shutdown" ->
      let rid = next_rid t in
      t.srv_stop <- true;
      log_control t ~level:L_info ~rid ~op ~id ~ok:true;
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("ok", Json.Bool true);
             ("op", Json.Str "shutdown");
             ("request_id", Json.Str rid);
           ])
  | "batch" ->
      let rid = next_rid t in
      let reqs = Json.to_list (Json.member "requests" j) in
      let response = handle_batch t ~rid ~id reqs in
      log_control t ~level:L_info ~rid ~op ~id ~ok:true;
      response
  | "analyze" | "compile" | "plan" -> handle_work t j
  | op ->
      let rid = next_rid t in
      log_control t ~level:L_warn ~rid ~op ~id ~ok:false;
      error_response ~rid ~id
        [ Diag.make Diag.Cli (Printf.sprintf "unknown op %S" op) ]

(** Handle one raw protocol line.  Unparseable JSON degrades to an
    error response (id 0 — the id was unreadable), per the
    never-crash-the-daemon contract. *)
let handle_line t (line : string) : string =
  match Json.parse line with
  | Error m ->
      let rid = next_rid t in
      log_control t ~level:L_warn ~rid ~op:"parse" ~id:0 ~ok:false;
      error_response ~rid ~id:0
        [ Diag.make Diag.Cli (Printf.sprintf "bad request JSON: %s" m) ]
  | Ok j -> handle_request t j

(* ------------------------------------------------------------------ *)
(* Serve loops                                                         *)
(* ------------------------------------------------------------------ *)

(** Newline-delimited-JSON loop over a channel pair; returns on EOF or
    once a [shutdown] op has been answered.  The [server.accept] chaos
    point guards message receipt: a tripped arrival degrades to an
    error response for that line and the loop continues. *)
let serve_channels t (ic : in_channel) (oc : out_channel) : unit =
  let rec loop () =
    if t.srv_stop then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line when String.trim line = "" -> loop ()
      | line ->
          let response =
            match Fault.point "server.accept" with
            | () -> handle_line t line
            | exception Fault.Injected (site, n) ->
                let rid = next_rid t in
                log_control t ~level:L_error ~rid ~op:"accept" ~id:0 ~ok:false;
                error_response ~rid ~id:0
                  [
                    Diag.make Diag.Exec
                      (Printf.sprintf
                         "request dropped by injected fault at %s (arrival %d)"
                         site n);
                  ]
          in
          output_string oc response;
          output_char oc '\n';
          flush oc;
          loop ()
  in
  loop ()

(* The structured overload envelope an admission-shed connection gets
   before being closed: machine-readable ([overloaded]:true) so a
   client can back off and retry, never a silent close. *)
let overload_response t ~rid : string =
  let msg =
    Printf.sprintf "server overloaded: %d connections in flight (max %d)"
      (conn_stats t).Runtime.Pool.inflight t.srv_max_inflight
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int 0);
         ("ok", Json.Bool false);
         ("overloaded", Json.Bool true);
         ("request_id", Json.Str rid);
         ("error", Json.Str msg);
         ("diags", Json.List [ Json.Str (Diag.render (Diag.make Diag.Exec msg)) ]);
       ])

(** Serve one accepted connection to completion — the connection-pool
    handler.  Every exit path closes [fd].  The [server.conn] chaos
    site guards the whole connection: a tripped arrival (or any
    per-connection I/O error) drops {e this} connection with a warning,
    never the acceptor or a sibling worker. *)
let handle_conn t (fd : Unix.file_descr) : unit =
  let cid = next_cid t in
  Metrics.add_gauge g_connections 1.0;
  let finish outcome =
    Metrics.add_gauge g_connections (-1.0);
    Metrics.incr (m_connections ~outcome)
  in
  match Fault.point "server.conn" with
  | exception Fault.Injected (site, n) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      finish "dropped";
      log_line t ~level:L_error
        [
          ("conn_id", Json.Str cid);
          ("event", Json.Str "conn_dropped");
          ("fault", Json.Str site);
        ];
      prerr_endline
        (Diag.render
           (Diag.make ~severity:Diag.Warning Diag.Exec
              (Printf.sprintf
                 "conn %s: connection dropped by injected fault at %s \
                  (arrival %d)"
                 cid site n)))
  | () -> (
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      match serve_channels t ic oc with
      | () ->
          close_out_noerr oc;
          finish "served";
          log_line t ~level:L_debug
            [ ("conn_id", Json.Str cid); ("event", Json.Str "conn_closed") ]
      | exception e ->
          close_out_noerr oc;
          finish "dropped";
          log_line t ~level:L_error
            [
              ("conn_id", Json.Str cid);
              ("event", Json.Str "conn_dropped");
              ("error", Json.Str (Printexc.to_string e));
            ];
          prerr_endline
            (Diag.render
               (Diag.make ~severity:Diag.Warning Diag.Exec
                  (Printf.sprintf "conn %s: connection dropped: %s" cid
                     (Printexc.to_string e)))))

(* Admission refusal: answer with the overload envelope, then close.
   Best-effort — a client that already went away loses nothing. *)
let shed_conn t (fd : Unix.file_descr) : unit =
  let rid = next_rid t in
  (try
     let oc = Unix.out_channel_of_descr fd in
     output_string oc (overload_response t ~rid);
     output_char oc '\n';
     flush oc
   with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Metrics.incr (m_connections ~outcome:"shed");
  log_line t ~level:L_warn
    [ ("request_id", Json.Str rid); ("event", Json.Str "conn_shed") ]

(** Accept loop on a Unix-domain socket at [path] (an existing file
    there is replaced).  Accepted connections are submitted to a
    {!Runtime.Pool} with [conn_jobs] worker domains ([conn_jobs = 0]
    serves them sequentially on the acceptor, the pre-concurrency
    behavior); admission is bounded by the [backlog] passed to
    [Unix.listen] plus the [max_inflight] shed, which answers a
    structured overload envelope instead of queuing forever.  The
    loop returns once a [shutdown] op was answered or {!stop} was
    called (the acceptor polls the flag, so a shutdown handled on a
    worker domain is noticed promptly).  A tripped [server.accept]
    fault drops the connection before admission; [server.conn] and
    per-connection I/O errors drop only their own connection — the
    acceptor and the other workers keep going. *)
let serve_socket t ~(path : string) : unit =
  (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns =
    Runtime.Pool.create ~max_pending:t.srv_max_inflight (t.srv_conn_jobs + 1)
  in
  t.srv_conns <- conns;
  Fun.protect
    ~finally:(fun () ->
      Runtime.Pool.shutdown conns;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock t.srv_backlog;
      let rec accept_loop () =
        if t.srv_stop then ()
        else
          (* poll-accept so a stop flag flipped on a worker domain (the
             shutdown op) stops the acceptor within one tick *)
          match Unix.select [ sock ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | [], _, _ -> accept_loop ()
          | _ ->
              (match Unix.accept sock with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | fd, _ -> (
                  match Fault.point "server.accept" with
                  | () -> (
                      match
                        Runtime.Pool.submit conns
                          ~discard:(fun () ->
                            try Unix.close fd with Unix.Unix_error _ -> ())
                          (fun () -> handle_conn t fd)
                      with
                      | Runtime.Pool.Accepted -> ()
                      | Runtime.Pool.Shed -> shed_conn t fd)
                  | exception Fault.Injected (site, n) ->
                      (try Unix.close fd with Unix.Unix_error _ -> ());
                      Metrics.incr (m_connections ~outcome:"dropped");
                      let rid = next_rid t in
                      log_control t ~level:L_error ~rid ~op:"connection" ~id:0
                        ~ok:false;
                      prerr_endline
                        (Diag.render
                           (Diag.make ~severity:Diag.Warning Diag.Exec
                              (Printf.sprintf
                                 "req %s: connection dropped by injected \
                                  fault at %s (arrival %d)"
                                 rid site n)))));
              accept_loop ()
      in
      accept_loop ())
