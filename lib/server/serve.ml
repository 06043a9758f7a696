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

(** Severity of one request-log line, least severe first; [--log-level]
    filters below. *)
type log_level = L_debug | L_info | L_warn | L_error

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
  srv_prof : Frontend.Prof.t;  (** server-lifetime counter aggregate *)
  srv_metrics : Frontend.Metrics.t;
      (** live registry, armed for the daemon's life *)
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
   demand (op and cache outcome are only known per request) under the
   closed label set of {!op_label}; interning is a mutex + hashtable
   probe, and only happens with a registry armed. *)
let g_uptime =
  Frontend.Metrics.gauge "parinline_uptime_seconds"
    ~help:"daemon uptime at scrape time"

let g_inflight =
  Frontend.Metrics.gauge "parinline_requests_in_flight"
    ~help:"requests currently being handled"

let g_units_cached =
  Frontend.Metrics.gauge "parinline_units_cached"
    ~help:"entries in the unit cache"

let g_cache_bytes =
  Frontend.Metrics.gauge "parinline_unit_cache_bytes"
    ~help:"resident key+body bytes in the unit cache"

let g_connections =
  Frontend.Metrics.gauge "parinline_connections_active"
    ~help:"socket connections currently open"

let m_connections ~outcome =
  Frontend.Metrics.counter "parinline_connections_total"
    ~help:"socket connections by outcome"
    ~labels:[ ("outcome", outcome) ]

let m_request_hist ~op ~cache =
  Frontend.Metrics.histogram "parinline_request_duration_seconds"
    ~help:"request wall time by op and cache outcome"
    ~labels:[ ("op", op); ("cache", cache) ]

let m_requests ~op ~status =
  Frontend.Metrics.counter "parinline_requests_total"
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
  | Some lg when level < lg.lg_min -> ()
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
        Frontend.Fault.point "server.log";
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

(* A request without a mode runs the annotation-based configuration. *)
let mode_of_string = function
  | "" -> Ok Pipeline.Annotation_based
  | m -> Pipeline.mode_of_string m

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
  let c = Frontend.Prof.snapshot t.srv_prof in
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
      srv_prof = Frontend.Prof.create ();
      srv_metrics = Frontend.Metrics.create ();
      srv_log = log;
      srv_t0_ns = Frontend.Prof.monotonic_ns ();
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
  Frontend.Metrics.install t.srv_metrics;
  (* seed the event-driven gauge so a scrape before any traffic still
     exposes the family *)
  Frontend.Metrics.set_gauge g_connections 0.0;
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
            t.srv_prof.Frontend.Prof.c.Frontend.Prof.snapshot_restores <-
              t.srv_prof.Frontend.Prof.c.Frontend.Prof.snapshot_restores + 1;
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
      ("requests_served", Json.Int (counters t).Frontend.Prof.requests_served);
    ];
  (match t.srv_log with Some lg -> close_out_noerr lg.lg_oc | None -> ());
  Frontend.Metrics.uninstall t.srv_metrics;
  ds

(* ------------------------------------------------------------------ *)
(* The reply path                                                      *)
(* ------------------------------------------------------------------ *)

(* The per-op request families carry a closed label set: the nine
   protocol ops plus the three transport-level failures.  Any other op
   string a client sends is counted as "unknown" (and never timed), so
   no request can mint a new series. *)
let op_label = function
  | ( "ping" | "stats" | "metrics" | "analyze" | "compile" | "plan" | "batch"
    | "snapshot" | "shutdown" | "parse" | "accept" | "connection" ) as op ->
      op
  | _ -> "unknown"

(* A request's op; an absent op means analyze. *)
let op_of (j : Json.t) =
  match Json.member "op" j with Json.Null -> "analyze" | v -> Json.to_str v

(** What one request produced; {!reply} renders every shape. *)
type outcome =
  | Done of (unit -> (string * Json.t) list)
      (** control-op success: the envelope fields after [request_id],
          computed once the request is counted (a scrape sees itself) *)
  | Served of { cached : bool; hash : string; body : string }
      (** a work result; the stored body is spliced in verbatim, so a
          hit replays the cached bytes and [request_id] stays out of it *)
  | Batch of string list  (** sub-responses, in request order *)
  | Failed of Diag.t list
  | Overloaded of string  (** admission refusal, with its message *)

(* The one reply path of the daemon.  Mint the request id (a batch's
   chunk failures reuse the batch's), run the op, count it under
   {!op_label}, write its log line (raw op kept), then render the
   envelope.  Work requests ([~timed]) also land in the latency
   histogram and log their unit hash, cache outcome, latency and the
   chaos sites that fired; a failure or a fault lifts the line to
   warn.  Error envelopes thread the request id through every rendered
   Diag, so a stderr line, a log line and a response correlate. *)
let reply t ?rid ?(timed = false) ~level ~op ~id (f : string -> outcome) :
    string =
  let rid = match rid with Some r -> r | None -> next_rid t in
  let t0 = Frontend.Prof.monotonic_ns () in
  let faults0 = Frontend.Fault.armed_fired_count () in
  let o = f rid in
  let ok = match o with Failed _ | Overloaded _ -> false | _ -> true in
  let label = op_label op in
  let extra, faulted =
    match o with
    | _ when timed ->
        let dur_ns =
          Int64.to_int (Int64.sub (Frontend.Prof.monotonic_ns ()) t0)
        in
        let cache, hash =
          match o with
          | Served s ->
              ((if s.cached then "hit" else "miss"), [ ("hash", Json.Str s.hash) ])
          | _ -> ("error", [])
        in
        if Frontend.Metrics.on () && label <> "unknown" then
          Frontend.Metrics.observe_ns (m_request_hist ~op:label ~cache) dur_ns;
        let sites = Frontend.Fault.armed_fired_since faults0 in
        ( hash
          @ [
              ("cache", Json.Str cache);
              ("latency_ms", Json.Float (float_of_int dur_ns /. 1e6));
              ("faults", Json.List (List.map (fun s -> Json.Str s) sites));
            ],
          sites <> [] )
    | Overloaded _ -> ([ ("event", Json.Str "conn_shed") ], false)
    | _ -> ([], false)
  in
  if Frontend.Metrics.on () then
    Frontend.Metrics.incr
      (m_requests ~op:label ~status:(if ok then "ok" else "error"));
  log_line t
    ~level:(if ok && not faulted then level else max level L_warn)
    ([
       ("request_id", Json.Str rid);
       ("op", Json.Str op);
       ("id", Json.Int id);
       ("ok", Json.Bool ok);
     ]
    @ extra);
  let failure ?(flags = []) msg rendered =
    Json.to_string
      (Json.Obj
         ([ ("id", Json.Int id); ("ok", Json.Bool false) ]
         @ flags
         @ [
             ("request_id", Json.Str rid);
             ("error", Json.Str msg);
             ("diags", Json.List (List.map (fun r -> Json.Str r) rendered));
           ]))
  in
  match o with
  | Done fields ->
      Json.to_string
        (Json.Obj
           ([
              ("id", Json.Int id);
              ("ok", Json.Bool true);
              ("op", Json.Str op);
              ("request_id", Json.Str rid);
            ]
           @ fields ()))
  | Served { cached; hash; body } ->
      Printf.sprintf
        "{\"id\":%d,\"ok\":true,\"cached\":%b,\"hash\":\"%s\",\"request_id\":\"%s\",\"result\":%s}"
        id cached hash rid body
  | Batch rs ->
      Printf.sprintf
        "{\"id\":%d,\"ok\":true,\"request_id\":\"%s\",\"responses\":[%s]}" id
        rid (String.concat "," rs)
  | Failed ds ->
      let rendered =
        List.map (fun d -> "req " ^ rid ^ ": " ^ Diag.render d) ds
      in
      failure
        (match rendered with [] -> "request failed" | r :: _ -> r)
        rendered
  | Overloaded msg ->
      failure ~flags:[ ("overloaded", Json.Bool true) ] msg
        [ Diag.render (Diag.make Diag.Exec msg) ]

(* ------------------------------------------------------------------ *)
(* Unit work                                                           *)
(* ------------------------------------------------------------------ *)

(** {!Pipeline.reset_gensyms}: every cache miss compiles from the state
    a fresh one-shot process starts in. *)
let reset_gensyms = Pipeline.reset_gensyms

let render_diags ds = Json.List (List.map (fun d -> Json.Str (Diag.render d)) ds)

(* One work request body, computed (the cache-miss path): the same
   four-configuration entry the one-shot CLI runs; [plan] is the demand
   configuration.  Runs under the caller's per-request profile; raises
   only through the barrier in [handle_work]. *)
let compute_body ~max_errors ~op ~mode ~growth_budget ~max_rounds ~source
    ~annot : Json.t =
  let mode =
    match op with
    | "plan" -> Pipeline.Demand
    | "analyze" | "compile" -> mode
    | op -> Diag.fatal Diag.Cli "unknown op %S" op
  in
  let r, plan =
    Planner.compile_source ~max_errors ~growth_budget ~max_rounds ~mode
      ~annot_source:annot source
  in
  let diags = ("diags", render_diags r.Pipeline.res_diags) in
  match op with
  | "analyze" ->
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
          diags;
        ]
  | "compile" ->
      Json.Obj
        [
          ("op", Json.Str "compile");
          ("mode", Json.Str (Pipeline.mode_name mode));
          ( "program",
            Json.Str (Frontend.Pretty.program_to_string r.Pipeline.res_program)
          );
          ("marked", Json.Int (List.length r.Pipeline.res_marked));
          ("code_size", Json.Int r.Pipeline.res_code_size);
          diags;
        ]
  | _ ->
      Json.Obj
        [
          ("op", Json.Str "plan");
          ("plan", Option.fold ~none:Json.Null ~some:Planner.to_json plan);
          diags;
        ]

(* Why a work request failed, as the one Diag its error envelope
   carries. *)
let diag_of_exn = function
  | Frontend.Fault.Injected (site, n) ->
      Diag.make Diag.Exec
        (Printf.sprintf "request hit injected fault at %s (arrival %d)" site n)
  | Diag.Error_limit n ->
      Diag.make Diag.Cli (Printf.sprintf "error limit (%d) reached" n)
  | e -> Diag.of_exn ~backtrace:(Printexc.get_backtrace ()) Diag.Exec e

(* One work request: validate, look the unit up, compute on a miss. *)
let work t ~op (j : Json.t) : outcome =
  Frontend.Fault.point "server.request";
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
  if max_rounds < 1 then Diag.fatal Diag.Cli "max_rounds must be at least 1";
  match mode_of_string mode_s with
  | Error m -> Diag.fatal Diag.Cli "%s" m
  | Ok mode -> (
      let hash =
        unit_hash ~op ~mode:(Pipeline.mode_name mode) ~growth_budget
          ~max_rounds ~source ~annot
      in
      match Lru.find t.srv_units hash with
      | Some body ->
          Mutex.lock t.srv_m;
          t.srv_prof.Frontend.Prof.c.Frontend.Prof.requests_served <-
            t.srv_prof.Frontend.Prof.c.Frontend.Prof.requests_served + 1;
          t.srv_prof.Frontend.Prof.c.Frontend.Prof.unit_cache_hits <-
            t.srv_prof.Frontend.Prof.c.Frontend.Prof.unit_cache_hits + 1;
          Mutex.unlock t.srv_m;
          Served { cached = true; hash; body }
      | None ->
          (* warm this domain's memo store from the hub before the
             compute, publish what the compute learned after: domain
             A's cold miss becomes domain B's warm hit.  Neither call
             is cheap, even for the stdio/sequential daemon: each
             exports this domain's whole memo store and re-interns it
             into the hub under the hub mutex (and re-imports the
             whole hub when another domain published since), about
             3.4 ms per call at ~1,800 memo entries on a 2-core VM.
             See ROADMAP.md, "Memo hub: sync the delta, bound the
             store". *)
          let (_ : int * int) = Dependence.Memo.sync () in
          let prof = Frontend.Prof.create () in
          let body =
            Frontend.Prof.with_profiling prof (fun () ->
                reset_gensyms ();
                compute_body ~max_errors:t.srv_max_errors ~op ~mode
                  ~growth_budget ~max_rounds ~source ~annot)
          in
          let body = Json.to_string body in
          let (_ : int * int) = Dependence.Memo.sync () in
          Lru.add t.srv_units hash body;
          Mutex.lock t.srv_m;
          Frontend.Prof.absorb t.srv_prof (Frontend.Prof.snapshot prof);
          t.srv_prof.Frontend.Prof.c.Frontend.Prof.requests_served <-
            t.srv_prof.Frontend.Prof.c.Frontend.Prof.requests_served + 1;
          Mutex.unlock t.srv_m;
          Served { cached = false; hash; body })

(* The per-request fault barrier around one work request.  Everything —
   a tripped [server.request] chaos fault, a fatal diagnostic, the
   error-budget overflow, an unknown mode — degrades to an error
   response for this request; the daemon and its caches are untouched
   (failed results are never cached). *)
let handle_work t (j : Json.t) : string =
  let op = op_of j in
  reply t ~timed:true ~level:L_info ~op ~id:(Json.to_int (Json.member "id" j))
  @@ fun _ ->
  Atomic.incr t.srv_inflight;
  let o = try work t ~op j with e -> Failed [ diag_of_exn e ] in
  Atomic.decr t.srv_inflight;
  o

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* A batch shards its work requests across the pool domains.  Chunk
   functions are idempotent pure writes into distinct slots, and
   [handle_work] already owns all failure modes, so a pool-level report
   only matters for a chunk that escaped it.  Connection workers may
   shard batches on the pool at the same time: each job keeps its own
   state. *)
let handle_batch t ~rid (reqs : Json.t list) : string list =
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
          let j = reqs.(chunk) in
          out.(chunk) <-
            reply t ~rid ~level:L_warn ~op:(op_of j)
              ~id:(Json.to_int (Json.member "id" j))
              (fun _ -> Failed [ Diag.of_exn ~backtrace Diag.Exec error ])
      | _ -> ())
    !events;
  Array.to_list out

let uptime_s t = Frontend.Prof.seconds_since t.srv_t0_ns

(* Refresh the sampled gauges just before a scrape. *)
let refresh_gauges t =
  let cs = cache_stats t in
  Frontend.Metrics.set_gauge g_uptime (uptime_s t);
  Frontend.Metrics.set_gauge g_inflight
    (float_of_int (Atomic.get t.srv_inflight));
  Frontend.Metrics.set_gauge g_units_cached (float_of_int cs.Lru.units);
  Frontend.Metrics.set_gauge g_cache_bytes (float_of_int cs.Lru.bytes)

(* Histogram snapshots as a JSON object keyed by family{labels}, for the
   extended [stats] op. *)
let histograms_json (snap : Frontend.Metrics.snapshot) : Json.t =
  match Frontend.Metrics.to_json snap with
  | Json.Obj kvs -> (
      match List.assoc_opt "histograms" kvs with Some h -> h | None -> Json.Obj [])
  | _ -> Json.Obj []

(** Handle one protocol message (a parsed JSON line) and return the
    response line. *)
let handle_request t (j : Json.t) : string =
  let op = op_of j in
  let control level f = reply t ~level ~op ~id:(Json.to_int (Json.member "id" j)) f in
  match op with
  | "ping" ->
      control L_debug (fun _ ->
          Done (fun () -> [ ("protocol", Json.Int protocol_version) ]))
  | "stats" ->
      control L_debug @@ fun _ ->
      Done
        (fun () ->
          refresh_gauges t;
          [
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
            ("counters", Frontend.Prof.counters_json (counters t));
            ( "histograms",
              histograms_json (Frontend.Metrics.snapshot t.srv_metrics) );
          ])
  | "metrics" ->
      control L_debug @@ fun _ ->
      Done
        (fun () ->
          refresh_gauges t;
          let snap = Frontend.Metrics.snapshot t.srv_metrics in
          [
            ("exposition", Json.Str (Frontend.Metrics.to_prometheus snap));
            ("metrics", Frontend.Metrics.to_json snap);
          ])
  | "snapshot" -> (
      control L_info @@ fun _ ->
      match save_snapshot t with
      | Ok path -> Done (fun () -> [ ("path", Json.Str path) ])
      | Error d -> Failed [ d ])
  | "shutdown" ->
      control L_info (fun _ ->
          t.srv_stop <- true;
          Done (fun () -> []))
  | "batch" ->
      control L_info (fun rid ->
          Batch (handle_batch t ~rid (Json.to_list (Json.member "requests" j))))
  | "analyze" | "compile" | "plan" -> handle_work t j
  | op ->
      control L_warn (fun _ ->
          Failed [ Diag.make Diag.Cli (Printf.sprintf "unknown op %S" op) ])

(** Handle one raw protocol line.  Unparseable JSON degrades to an
    error response (id 0 — the id was unreadable), per the
    never-crash-the-daemon contract. *)
let handle_line t (line : string) : string =
  match Json.parse line with
  | Error m ->
      reply t ~level:L_warn ~op:"parse" ~id:0 (fun _ ->
          Failed [ Diag.make Diag.Cli (Printf.sprintf "bad request JSON: %s" m) ])
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
            match Frontend.Fault.point "server.accept" with
            | () -> handle_line t line
            | exception Frontend.Fault.Injected (site, n) ->
                reply t ~level:L_error ~op:"accept" ~id:0 (fun _ ->
                    Failed
                      [
                        Diag.make Diag.Exec
                          (Printf.sprintf
                             "request dropped by injected fault at %s \
                              (arrival %d)"
                             site n);
                      ])
          in
          output_string oc response;
          output_char oc '\n';
          flush oc;
          loop ()
  in
  loop ()

(** Serve one accepted connection to completion — the connection-pool
    handler.  Every exit path closes [fd].  The [server.conn] chaos
    site guards the whole connection: a tripped arrival (or any
    per-connection I/O error) drops {e this} connection with a warning,
    never the acceptor or a sibling worker. *)
let handle_conn t (fd : Unix.file_descr) : unit =
  let cid = next_cid t in
  Frontend.Metrics.add_gauge g_connections 1.0;
  let finish outcome =
    Frontend.Metrics.add_gauge g_connections (-1.0);
    Frontend.Metrics.incr (m_connections ~outcome)
  in
  match Frontend.Fault.point "server.conn" with
  | exception Frontend.Fault.Injected (site, n) ->
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

(* Admission refusal: answer with the structured overload envelope —
   machine-readable ([overloaded]:true) so a client can back off and
   retry, never a silent close — then close.  Best-effort: a client
   that already went away loses nothing. *)
let shed_conn t (fd : Unix.file_descr) : unit =
  let envelope =
    reply t ~level:L_warn ~op:"connection" ~id:0 (fun _ ->
        Overloaded
          (Printf.sprintf
             "server overloaded: %d connections in flight (max %d)"
             (conn_stats t).Runtime.Pool.inflight t.srv_max_inflight))
  in
  (try
     let oc = Unix.out_channel_of_descr fd in
     output_string oc envelope;
     output_char oc '\n';
     flush oc
   with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Frontend.Metrics.incr (m_connections ~outcome:"shed")

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
                  match Frontend.Fault.point "server.accept" with
                  | () -> (
                      match
                        Runtime.Pool.submit conns
                          ~discard:(fun () ->
                            try Unix.close fd with Unix.Unix_error _ -> ())
                          (fun () -> handle_conn t fd)
                      with
                      | Runtime.Pool.Accepted -> ()
                      | Runtime.Pool.Shed -> shed_conn t fd)
                  | exception Frontend.Fault.Injected (site, n) ->
                      (try Unix.close fd with Unix.Unix_error _ -> ());
                      Frontend.Metrics.incr (m_connections ~outcome:"dropped");
                      (* nothing is sent: the reply only logs and counts *)
                      ignore
                        (reply t ~level:L_error ~op:"connection" ~id:0
                           (fun rid ->
                             prerr_endline
                               (Diag.render
                                  (Diag.make ~severity:Diag.Warning Diag.Exec
                                     (Printf.sprintf
                                        "req %s: connection dropped by \
                                         injected fault at %s (arrival %d)"
                                        rid site n)));
                             Failed []))));
              accept_loop ()
      in
      accept_loop ())
