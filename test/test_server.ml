(** Tests for the analysis daemon: protocol round-trips and their
    byte-identity with the one-shot pipeline, unit-cache hits, batch
    sharding, snapshot save/restore (including corrupted and
    version-mismatched snapshots degrading to a warned cold start), the
    memo-store export/import round-trip, and the per-request chaos
    barrier ([server.request] faults poison one response, never the
    daemon).

    Concurrency and eviction (PR 10): the bounded LRU unit cache
    (recency-ordered eviction, byte cap, capped servers recomputing
    evicted units byte-identically, snapshots preserving recency across
    a restart into a smaller cap), {!Runtime.Pool}'s item queue as the
    connection pool (admission shed, handler-error containment, worker
    death/respawn, shutdown discards and never respawns), parallel
    clients observing byte-identical responses with exactly-summing
    hit counters, the cross-domain memo hub, and
    the [server.conn] chaos site killing one connection, never the
    daemon. *)

module Json = Frontend.Json
module Serve = Server.Serve
module Store = Server.Store
module Lru = Server.Lru
module Pool = Runtime.Pool

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

let src =
  "      PROGRAM MAIN\n\
  \      DIMENSION A(100), B(100)\n\
  \      DO I = 1, 100\n\
  \        A(I) = I\n\
  \      ENDDO\n\
  \      DO K = 1, 10\n\
  \        DO J = 1, 10\n\
  \          B(J + 10*K - 10) = A(J)\n\
  \        ENDDO\n\
  \      ENDDO\n\
  \      WRITE(6,*) B(5)\n\
  \      END\n"

(* a second unit, distinct content hash from [src] *)
let src2 =
  "      PROGRAM OTHER\n\
  \      DIMENSION C(50)\n\
  \      DO I = 1, 50\n\
  \        C(I) = 2*I\n\
  \      ENDDO\n\
  \      WRITE(6,*) C(7)\n\
  \      END\n"

(* a throwaway server: no pool parallelism, no cache dir *)
let with_server ?cache_dir ?(max_cache_units = 0) f =
  let t, diags = Serve.create ?cache_dir ~max_cache_units () in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.drain t))
    (fun () -> f t diags)

let send t (j : Json.t) : Json.t =
  match Json.parse (Serve.handle_line t (Json.to_string j)) with
  | Ok r -> r
  | Error e -> Alcotest.failf "unparseable response: %s" e

let ok r = Json.to_bool (Json.member "ok" r)
let result r = Json.member "result" r
let cached r = Json.to_bool (Json.member "cached" r)

let analyze ?(mode = "annotation") ?(id = 0) t source =
  send t (Serve.request ~id ~op:"analyze" ~mode ~source ())

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "parinline-test-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

(* ---------------- protocol basics ---------------- *)

let test_protocol_basics () =
  with_server @@ fun t _ ->
  let r = send t (Serve.request ~id:7 ~op:"ping" ()) in
  cb "ping ok" true (ok r);
  ci "id echoed" 7 (Json.to_int (Json.member "id" r));
  ci "protocol version" Serve.protocol_version
    (Json.to_int (Json.member "protocol" r));
  (* a poisoned line degrades to a structured error response... *)
  let r = send t (Json.Obj [ ("op", Json.Str "frobnicate") ]) in
  cb "unknown op refused" false (ok r);
  (match Json.parse (Serve.handle_line t "this is not json") with
  | Ok r -> cb "bad JSON refused" false (ok r)
  | Error e -> Alcotest.failf "error response unparseable: %s" e);
  let r = send t (Serve.request ~op:"analyze" ~source:"" ()) in
  cb "missing source refused" false (ok r);
  let r = send t (Serve.request ~op:"analyze" ~mode:"bogus" ~source:src ()) in
  cb "unknown mode refused" false (ok r);
  (* ...and the daemon keeps serving afterwards *)
  let r = analyze t src in
  cb "daemon survives poisoned requests" true (ok r)

(* ---------------- byte-identity with the one-shot pipeline ---------- *)

(* What [parinline explain --json] prints for the same source: the
   server must return the same bytes in its ["verdicts"] field, for all
   four configurations. *)
let oneshot_verdicts ~mode source =
  Perfect.Driver.reset_gensyms ();
  let r, _ = Planner.compile_source ~mode ~annot_source:"" source in
  Json.to_string
    (Json.List
       (List.map
          (fun (rep : Parallelizer.Parallelize.loop_report) ->
            Parallelizer.Verdict.to_json rep.rep_verdict)
          r.Core.Pipeline.res_reports))

let test_analyze_matches_oneshot () =
  with_server @@ fun t _ ->
  List.iter
    (fun (name, mode) ->
      let r = analyze ~mode:name t src in
      cb (name ^ " ok") true (ok r);
      cs
        (name ^ " verdicts byte-identical to one-shot")
        (oneshot_verdicts ~mode src)
        (Json.to_string (Json.member "verdicts" (result r))))
    [
      ("none", Core.Pipeline.No_inlining);
      ("conventional", Core.Pipeline.Conventional);
      ("annotation", Core.Pipeline.Annotation_based);
      ("demand", Core.Pipeline.Demand);
    ]

(* ---------------- unit cache ---------------- *)

let test_unit_cache_hit () =
  with_server @@ fun t _ ->
  let r1 = analyze t src in
  let r2 = analyze t src in
  cb "first computed" false (cached r1);
  cb "second cached" true (cached r2);
  cs "hit replays the stored bytes"
    (Json.to_string (result r1))
    (Json.to_string (result r2));
  let c = Serve.counters t in
  ci "two served" 2 c.Frontend.Prof.requests_served;
  ci "one hit" 1 c.Frontend.Prof.unit_cache_hits;
  (* a different mode is a different content hash *)
  let r3 = analyze ~mode:"none" t src in
  cb "mode is part of the key" false (cached r3);
  (* control ops never count as unit work *)
  ignore (send t (Serve.request ~op:"stats" ()));
  ci "stats not counted" 3 (Serve.counters t).Frontend.Prof.requests_served

let test_batch_order_and_ids () =
  with_server @@ fun t _ ->
  let reqs =
    [
      Serve.request ~id:1 ~op:"analyze" ~mode:"none" ~source:src ();
      Serve.request ~id:2 ~op:"analyze" ~mode:"bogus" ~source:src ();
      Serve.request ~id:3 ~op:"analyze" ~mode:"annotation" ~source:src ();
    ]
  in
  let r =
    send t (Json.Obj [ ("op", Json.Str "batch"); ("id", Json.Int 9);
                       ("requests", Json.List reqs) ])
  in
  cb "batch ok" true (ok r);
  ci "batch id echoed" 9 (Json.to_int (Json.member "id" r));
  match Json.to_list (Json.member "responses" r) with
  | [ a; b; c ] ->
      ci "order preserved" 1 (Json.to_int (Json.member "id" a));
      ci "order preserved" 2 (Json.to_int (Json.member "id" b));
      ci "order preserved" 3 (Json.to_int (Json.member "id" c));
      cb "good unit ok" true (ok a && ok c);
      cb "poisoned unit degraded alone" false (ok b)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

(* ---------------- snapshot persistence ---------------- *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir () in
  (* warm run: compute, drain (which saves the snapshot) *)
  let warm_body =
    with_server ~cache_dir:dir @@ fun t diags ->
    ci "no startup diags on first run" 0 (List.length diags);
    let r = analyze t src in
    cb "computed" false (cached r);
    Json.to_string (result r)
  in
  cb "snapshot written" true
    (Sys.file_exists (Filename.concat dir Store.snapshot_file));
  (* cold start from the snapshot: same request is a pure end-to-end hit
     with zero dependence tests *)
  with_server ~cache_dir:dir @@ fun t diags ->
  ci "clean restore" 0 (List.length diags);
  ci "restore counted" 1 (Serve.counters t).Frontend.Prof.snapshot_restores;
  let r = analyze t src in
  cb "restored unit cache answers" true (cached r);
  cs "byte-identical across restart" warm_body (Json.to_string (result r));
  let c = Serve.counters t in
  ci "no dependence tests computed" 0 c.Frontend.Prof.dep_cache_misses;
  ci "no dependence tests at all" 0 c.Frontend.Prof.dep_tests_run

let clobber path ~f =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (f contents))

let test_snapshot_rejection () =
  let dir = fresh_dir () in
  (with_server ~cache_dir:dir @@ fun t _ -> ignore (analyze t src));
  let path = Filename.concat dir Store.snapshot_file in
  (* bit-flip the body: integrity hash must catch it *)
  clobber path ~f:(fun s ->
      let b = Bytes.of_string s in
      let i = Bytes.length b - 10 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b);
  (with_server ~cache_dir:dir @@ fun t diags ->
   ci "corruption warned" 1 (List.length diags);
   cb "as a warning, not an error" true
     (match diags with
     | [ d ] -> d.Core.Diag.d_severity = Core.Diag.Warning
     | _ -> false);
   ci "no restore" 0 (Serve.counters t).Frontend.Prof.snapshot_restores;
   (* clean cold start: the daemon still works *)
   let r = analyze t src in
   cb "cold start computes" true (ok r && not (cached r)));
  (* schema mismatch: rewrite the header's schema field *)
  (with_server ~cache_dir:dir @@ fun t _ -> ignore (analyze t src));
  clobber path ~f:(fun s ->
      let nl = String.index s '\n' in
      let header = String.sub s 0 nl in
      let body = String.sub s nl (String.length s - nl) in
      match String.split_on_char ' ' header with
      | [ magic; fmt; _schema; ocaml; digest; len ] ->
          String.concat " " [ magic; fmt; "9999"; ocaml; digest; len ] ^ body
      | _ -> Alcotest.fail "unexpected snapshot header shape");
  with_server ~cache_dir:dir @@ fun t diags ->
  ci "mismatch warned" 1 (List.length diags);
  ci "no restore from wrong schema" 0
    (Serve.counters t).Frontend.Prof.snapshot_restores;
  cb "daemon cold-starts fine" true (ok (analyze t src))

let test_store_absent_is_silent () =
  match Store.load ~dir:(fresh_dir ()) ~schema:Serve.protocol_version with
  | Store.Absent -> ()
  | Store.Restored _ -> Alcotest.fail "restored from an empty dir"
  | Store.Rejected d -> Alcotest.failf "rejected: %s" (Core.Diag.render d)

(* ---------------- memo export/import ---------------- *)

let test_memo_export_import () =
  (* analyze something so the domain's memo store has content *)
  Dependence.Memo.reset ();
  Perfect.Driver.reset_gensyms ();
  ignore
    (Planner.compile_source ~mode:Core.Pipeline.Annotation_based
       ~annot_source:"" src);
  let _, _, pairs = Dependence.Memo.sizes () in
  cb "memo has pairs to export" true (pairs > 0);
  let sn = Dependence.Memo.export () in
  (* import into a warm table is a no-op: every question already there *)
  ci "idempotent import" 0 (Dependence.Memo.import sn);
  (* import into a cold table restores every pair *)
  Dependence.Memo.reset ();
  ci "cold import restores all pairs" pairs (Dependence.Memo.import sn);
  let _, _, pairs' = Dependence.Memo.sizes () in
  ci "sizes agree" pairs pairs'

(* ---------------- chaos barrier ---------------- *)

let test_request_fault_degrades () =
  match Frontend.Fault.parse_spec "42:server.request=1" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
      Frontend.Fault.with_plan plan (fun () ->
          with_server @@ fun t _ ->
          let r1 = analyze t src in
          cb "first request poisoned" false (ok r1);
          cb "error carries diagnostics" true
            (Json.to_list (Json.member "diags" r1) <> []);
          let r2 = analyze t src in
          cb "daemon survives, next request computes" true (ok r2);
          cb "failed request was never cached" false (cached r2))

(* ---------------- bounded LRU unit cache ---------------- *)

let test_lru_eviction_order () =
  let c = Lru.create ~max_units:2 () in
  Lru.add c "a" "body-a";
  Lru.add c "b" "body-b";
  (* touching [a] leaves [b] as the coldest entry *)
  cb "a resident" true (Lru.find c "a" <> None);
  Lru.add c "c" "body-c";
  cb "LRU victim is the cold entry b" true (Lru.find c "b" = None);
  cb "promoted a survives" true (Lru.find c "a" <> None);
  cb "newest c resident" true (Lru.find c "c" <> None);
  ci "one eviction counted" 1 (Lru.stats c).Lru.evictions;
  ci "two resident" 2 (Lru.length c);
  (* to_alist is cold->hot: the find of c above promoted it past a *)
  (match Lru.to_alist c with
  | [ ("a", _); ("c", _) ] -> ()
  | l ->
      Alcotest.failf "unexpected recency order: %s"
        (String.concat ", " (List.map fst l)))

let test_lru_byte_cap () =
  let c = Lru.create ~max_bytes:20 () in
  Lru.add c "k1" (String.make 8 'x');
  Lru.add c "k2" (String.make 8 'y');
  ci "20 resident bytes fit the 20-byte cap" 20 (Lru.stats c).Lru.bytes;
  Lru.add c "k3" (String.make 8 'z');
  cb "overflow evicted the cold entry" true (Lru.find c "k1" = None);
  let s = Lru.stats c in
  ci "one eviction" 1 s.Lru.evictions;
  ci "bytes back under the cap" 20 s.Lru.bytes;
  (* an entry that cannot fit at all evicts through itself: nothing
     resident, rather than a cache permanently over budget *)
  Lru.add c "huge" (String.make 64 'w');
  ci "oversized body is not cached" 0
    (match Lru.find c "huge" with Some _ -> 1 | None -> 0)

let test_capped_server_recomputes () =
  with_server ~max_cache_units:1 @@ fun t _ ->
  let r1 = analyze t src in
  let b1 = Json.to_string (result r1) in
  let r2 = analyze t src2 in
  cb "second unit computed" false (cached r2);
  ci "cap holds one resident unit" 1 (Serve.cache_stats t).Lru.units;
  cb "eviction counted" true ((Serve.cache_stats t).Lru.evictions >= 1);
  (* the evicted unit recomputes — byte-identical, eviction is never
     observable in the payload *)
  let r3 = analyze t src in
  cb "evicted unit is a miss again" false (cached r3);
  cs "recompute is byte-identical" b1 (Json.to_string (result r3));
  (* and having just been recomputed it is resident (and hot) again *)
  cb "recomputed unit cached anew" true (cached (analyze t src))

let test_snapshot_preserves_recency () =
  let dir = fresh_dir () in
  let body_a =
    with_server ~cache_dir:dir @@ fun t _ ->
    let ra = analyze t src in
    ignore (analyze t src2);
    (* promote the first unit: recency order is now [src2; src] *)
    ignore (analyze t src);
    Json.to_string (result ra)
  in
  (* restart into a cap of 1: restore replays the snapshot cold->hot,
     so the promoted unit survives and the cold one is evicted *)
  with_server ~cache_dir:dir ~max_cache_units:1 @@ fun t diags ->
  ci "clean restore" 0 (List.length diags);
  ci "capped restore keeps one unit" 1 (Serve.cache_stats t).Lru.units;
  cb "restore evicted the cold entry" true
    ((Serve.cache_stats t).Lru.evictions >= 1);
  let ra = analyze t src in
  cb "hot unit survived the capped restore" true (cached ra);
  cs "and replays identical bytes" body_a (Json.to_string (result ra));
  cb "cold unit was the eviction victim" false (cached (analyze t src2))

(* ---------------- the connection-worker pool ---------------- *)

let spin_until ?(tries = 1000) ~what pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go (n - 1)
    end
  in
  go tries

let test_workers_shed_at_bound () =
  let gate_m = Mutex.create () in
  let gate_cv = Condition.create () in
  let gate_open = ref false in
  let handled = Atomic.make 0 in
  let item () =
    Mutex.lock gate_m;
    while not !gate_open do
      Condition.wait gate_cv gate_m
    done;
    Mutex.unlock gate_m;
    Atomic.incr handled
  in
  let p = Pool.create ~max_pending:2 2 in
  (* the single worker blocks on the gate, so admission is deterministic:
     two in-flight items fill the bound, the third sheds *)
  cb "first admitted" true (Pool.submit p item = Pool.Accepted);
  cb "second admitted" true (Pool.submit p item = Pool.Accepted);
  cb "third shed at the bound" true (Pool.submit p item = Pool.Shed);
  let s = Pool.stats p in
  ci "accepted" 2 s.Pool.accepted;
  ci "shed" 1 s.Pool.shed;
  ci "inflight" 2 s.Pool.inflight;
  Mutex.lock gate_m;
  gate_open := true;
  Condition.broadcast gate_cv;
  Mutex.unlock gate_m;
  spin_until ~what:"the pool to drain" (fun () -> Atomic.get handled >= 2);
  Pool.shutdown p;
  cb "post-shutdown submits shed" true (Pool.submit p item = Pool.Shed)

let test_workers_error_containment_and_sync_mode () =
  (* no workers: the caller runs the item *)
  let ran = ref 0 in
  let p0 = Pool.create 1 in
  cb "sync submit accepted" true
    (Pool.submit p0 (fun () -> incr ran) = Pool.Accepted);
  ci "handler ran synchronously on the caller" 1 !ran;
  Pool.shutdown p0;
  (* a raising item is discarded; the worker survives *)
  let discarded = Atomic.make 0 in
  let served = Atomic.make 0 in
  let discard () = Atomic.incr discarded in
  let p = Pool.create 2 in
  ignore (Pool.submit p ~discard (fun () -> failwith "boom"));
  spin_until ~what:"the handler error" (fun () ->
      (Pool.stats p).Pool.handler_errors >= 1);
  ci "poisoned item discarded" 1 (Atomic.get discarded);
  cb "pool still accepts" true
    (Pool.submit p ~discard (fun () -> Atomic.incr served) = Pool.Accepted);
  spin_until ~what:"the good item" (fun () -> Atomic.get served >= 1);
  let s = Pool.stats p in
  ci "one handler error" 1 s.Pool.handler_errors;
  ci "no worker deaths" 0 s.Pool.deaths;
  ci "worker still alive" 1 s.Pool.workers;
  Pool.shutdown p

(* Arrival 1 at the worker fault site kills the only worker's loop. *)
let with_first_worker_killed f =
  match Frontend.Fault.parse_spec "3:runtime.pool.worker=1" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan -> Frontend.Fault.with_plan plan f

let test_workers_death_respawn () =
  with_first_worker_killed @@ fun () ->
  let discarded = Atomic.make 0 in
  let served = Atomic.make 0 in
  let discard () = Atomic.incr discarded in
  let serve () = Atomic.incr served in
  let p = Pool.create 2 in
  (* the item the dying worker held is discarded, not half-handled *)
  ignore (Pool.submit p ~discard serve);
  spin_until ~what:"the worker death" (fun () ->
      (Pool.stats p).Pool.deaths >= 1);
  ci "victim item discarded" 1 (Atomic.get discarded);
  ci "nothing served yet" 0 (Atomic.get served);
  (* the next submit heals the pool: a fresh domain takes the slot *)
  cb "submit after death accepted" true
    (Pool.submit p ~discard serve = Pool.Accepted);
  spin_until ~what:"the respawned worker" (fun () -> Atomic.get served >= 1);
  let s = Pool.stats p in
  ci "one death" 1 s.Pool.deaths;
  ci "one respawn" 1 s.Pool.respawns;
  ci "pool back to size" 1 s.Pool.workers;
  Pool.shutdown p

(* A dead worker must stay dead once shutdown began: a respawn then
   would spawn a domain that nothing joins. *)
let test_submit_after_shutdown_never_respawns () =
  with_first_worker_killed @@ fun () ->
  let p = Pool.create 2 in
  ignore (Pool.submit p ignore);
  spin_until ~what:"the worker death" (fun () ->
      (Pool.stats p).Pool.deaths >= 1);
  Pool.shutdown p;
  cb "submit after shutdown sheds" true (Pool.submit p ignore = Pool.Shed);
  let s = Pool.stats p in
  ci "no respawn" 0 s.Pool.respawns;
  ci "no workers" 0 s.Pool.workers

let test_shutdown_discards_queued_items () =
  let started = Atomic.make false in
  let release = Atomic.make false in
  let p = Pool.create 2 in
  let blocker () =
    Atomic.set started true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  let blocker_discards = Atomic.make 0 in
  ignore
    (Pool.submit p ~discard:(fun () -> Atomic.incr blocker_discards) blocker);
  spin_until ~what:"the blocking item" (fun () -> Atomic.get started);
  (* the only worker is busy, so these five stay queued *)
  let ran = Array.init 5 (fun _ -> Atomic.make 0) in
  let discards = Array.init 5 (fun _ -> Atomic.make 0) in
  Array.iteri
    (fun i d ->
      cb "queued item accepted" true
        (Pool.submit p
           ~discard:(fun () -> Atomic.incr d)
           (fun () -> Atomic.incr ran.(i))
        = Pool.Accepted))
    discards;
  ci "five queued plus one running" 6 (Pool.stats p).Pool.inflight;
  (* shutdown discards the queue, then joins the busy worker *)
  let closer = Domain.spawn (fun () -> Pool.shutdown p) in
  spin_until ~what:"the queued discards" (fun () ->
      Array.for_all (fun d -> Atomic.get d >= 1) discards);
  Atomic.set release true;
  Domain.join closer;
  Pool.shutdown p;
  Array.iteri
    (fun i d ->
      ci (Printf.sprintf "item %d discarded exactly once" i) 1 (Atomic.get d);
      ci (Printf.sprintf "item %d never ran" i) 0 (Atomic.get ran.(i)))
    discards;
  ci "the running item finished, not discarded" 0 (Atomic.get blocker_discards);
  ci "nothing in flight" 0 (Pool.stats p).Pool.inflight

(* ---------------- concurrent clients ---------------- *)

let all_modes = [ "none"; "conventional"; "annotation"; "demand" ]

let test_concurrent_clients_byte_identical () =
  with_server @@ fun t _ ->
  (* pre-warm sequentially and record the expected bytes per mode *)
  let expected =
    List.map
      (fun m -> (m, Json.to_string (result (analyze ~mode:m t src))))
      all_modes
  in
  let c0 = Serve.counters t in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.map
              (fun m ->
                let r = analyze ~mode:m t src in
                (m, ok r, cached r, Json.to_string (result r)))
              all_modes))
  in
  let results = List.concat_map Domain.join doms in
  ci "16 responses collected" 16 (List.length results);
  List.iter
    (fun (m, okd, hit, body) ->
      cb (m ^ " ok under concurrency") true okd;
      cb (m ^ " served from the warm cache") true hit;
      cs (m ^ " byte-identical to sequential") (List.assoc m expected) body)
    results;
  (* the shared counters sum exactly: no lost or double-counted hits *)
  let c1 = Serve.counters t in
  ci "exactly 16 more served" 16
    (c1.Frontend.Prof.requests_served - c0.Frontend.Prof.requests_served);
  ci "all 16 were unit-cache hits" 16
    (c1.Frontend.Prof.unit_cache_hits - c0.Frontend.Prof.unit_cache_hits)

let test_concurrent_miss_race () =
  with_server @@ fun t _ ->
  (* two domains race on the same cold unit: whoever computes, the
     bytes agree — bodies are pure functions of the content hash *)
  let doms =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let r = analyze t src in
            (ok r, Json.to_string (result r))))
  in
  let rs = List.map Domain.join doms in
  (match rs with
  | [ (ok_a, body_a); (ok_b, body_b) ] ->
      cb "both racers ok" true (ok_a && ok_b);
      cs "racing computes agree byte-for-byte" body_a body_b;
      (* and the resident entry replays those same bytes *)
      let r = analyze t src in
      cb "unit resident after the race" true (cached r);
      cs "cached bytes match the race winners" body_a
        (Json.to_string (result r))
  | _ -> Alcotest.fail "expected 2 results");
  let c = Serve.counters t in
  ci "three requests served" 3 c.Frontend.Prof.requests_served;
  cb "at most one racer hit, the final request always did" true
    (c.Frontend.Prof.unit_cache_hits >= 1
    && c.Frontend.Prof.unit_cache_hits <= 2)

(* ---------------- the memo hub ---------------- *)

let test_memo_hub_sync () =
  (* domain A discovers dependence pairs and publishes them *)
  let pairs_a =
    Domain.join
      (Domain.spawn (fun () ->
           Perfect.Driver.reset_gensyms ();
           ignore
             (Planner.compile_source ~mode:Core.Pipeline.Annotation_based
                ~annot_source:"" src);
           let _, _, pairs = Dependence.Memo.sizes () in
           let (_ : int * int) = Dependence.Memo.sync () in
           pairs))
  in
  cb "domain A discovered pairs" true (pairs_a > 0);
  let _, _, hub_pairs = Dependence.Memo.hub_sizes () in
  cb "hub holds at least A's pairs" true (hub_pairs >= pairs_a);
  (* a fresh domain starts cold and the hub warms it in one sync *)
  let before, imported, after, imported_again =
    Domain.join
      (Domain.spawn (fun () ->
           let _, _, before = Dependence.Memo.sizes () in
           let _, imported = Dependence.Memo.sync () in
           let _, _, after = Dependence.Memo.sizes () in
           let _, imported_again = Dependence.Memo.sync () in
           (before, imported, after, imported_again)))
  in
  ci "fresh domain starts cold" 0 before;
  cb "hub warmed the fresh domain" true (imported >= pairs_a);
  cb "local store now covers the hub" true (after >= pairs_a);
  ci "steady-state sync imports nothing" 0 imported_again

(* ---------------- connection chaos and the live socket ---------------- *)

let test_conn_fault_drops_one_connection () =
  match Frontend.Fault.parse_spec "9:server.conn=1" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
      Frontend.Fault.with_plan plan @@ fun () ->
      with_server @@ fun t _ ->
      (* connection 1: the fault trips pre-protocol — the peer sees a
         bare EOF, no bytes, and only this connection dies *)
      let c1, s1 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Serve.handle_conn t s1;
      ci "dropped connection sees EOF" 0 (Unix.read c1 (Bytes.create 1) 0 1);
      Unix.close c1;
      (* connection 2 (arrival 2, fault quiet): same server still serves *)
      let c2, s2 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let oc = Unix.out_channel_of_descr c2 in
      output_string oc (Json.to_string (Serve.request ~op:"ping" ()));
      output_char oc '\n';
      flush oc;
      Unix.shutdown c2 Unix.SHUTDOWN_SEND;
      Serve.handle_conn t s2;
      let ic = Unix.in_channel_of_descr c2 in
      (match Json.parse (input_line ic) with
      | Ok r -> cb "daemon survives the dropped connection" true (ok r)
      | Error e -> Alcotest.failf "bad post-chaos response: %s" e);
      close_in_noerr ic

let test_serve_socket_concurrent_clients () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "parinline-test-%d.sock" (Unix.getpid ()))
  in
  let t, _ = Serve.create ~conn_jobs:2 () in
  Fun.protect ~finally:(fun () -> ignore (Serve.drain t)) @@ fun () ->
  (* the expected bytes, via the in-process path *)
  let expected = Json.to_string (result (analyze t src)) in
  let server = Domain.spawn (fun () -> Serve.serve_socket t ~path) in
  spin_until ~what:"the socket" (fun () -> Sys.file_exists path);
  let roundtrip req =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc (Json.to_string req);
    output_char oc '\n';
    flush oc;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let line = input_line ic in
    close_in_noerr ic;
    match Json.parse line with
    | Ok r -> r
    | Error e -> Alcotest.failf "unparseable response: %s" e
  in
  let clients =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let r =
              roundtrip
                (Serve.request ~op:"analyze" ~mode:"annotation" ~source:src ())
            in
            (ok r, Json.to_string (result r))))
  in
  let rs = List.map Domain.join clients in
  List.iter
    (fun (okd, body) ->
      cb "socket client ok" true okd;
      cs "socket bytes identical to in-process" expected body)
    rs;
  (* the shutdown op stops the acceptor even when a worker handled it *)
  cb "shutdown acknowledged" true
    (ok (roundtrip (Serve.request ~op:"shutdown" ())));
  Domain.join server;
  cb "socket file removed on the way out" false (Sys.file_exists path);
  ci "all five work requests served" 5
    (Serve.counters t).Frontend.Prof.requests_served

(* ---------------- one error budget in every mode ---------------- *)

(* MAIN holds one parallel loop; BAD carries three malformed statements,
   enough to exhaust a max_errors 3 parse budget.  Parse errors and
   analysis errors are budgeted separately in every configuration, so
   demand and the plan op salvage MAIN exactly like the three pipeline
   modes do.  (The same program is examples/cli/parse_errors.f.) *)
let budget_src =
  "      PROGRAM MAIN\n\
  \      DIMENSION A(100)\n\
  \      DO I = 1, 100\n\
  \        A(I) = 2.0 * I\n\
  \      ENDDO\n\
  \      WRITE(6,*) A(10)\n\
  \      END\n\
  \      SUBROUTINE BAD(X)\n\
  \      X = ((1 *\n\
  \      X = ((2 *\n\
  \      X = ((3 *\n\
  \      END\n"

let test_one_error_budget () =
  let t, _ = Serve.create ~max_errors:3 () in
  Fun.protect ~finally:(fun () -> ignore (Serve.drain t)) @@ fun () ->
  let leading_parse_errors r =
    let ds = Json.to_list (Json.member "diags" (result r)) in
    let is_parse d =
      let d = Json.to_str d and p = "error[parse] " in
      String.length d >= String.length p
      && String.sub d 0 (String.length p) = p
    in
    List.length ds >= 3
    && List.for_all is_parse (List.filteri (fun i _ -> i < 3) ds)
  in
  let main_verdict r =
    match
      List.filter
        (fun v ->
          Json.to_str (Json.member "unit" (Json.member "loop_id" v)) = "MAIN")
        (Json.to_list (Json.member "verdicts" (result r)))
    with
    | [ v ] -> v
    | vs -> Alcotest.failf "want one MAIN verdict, got %d" (List.length vs)
  in
  let replies =
    List.map
      (fun mode ->
        ( mode,
          send t (Serve.request ~op:"analyze" ~mode ~source:budget_src ()) ))
      [ "none"; "conventional"; "annotation"; "demand" ]
  in
  let plan = send t (Serve.request ~op:"plan" ~source:budget_src ()) in
  List.iter
    (fun (name, r) ->
      cb (name ^ " answers ok") true (ok r);
      cb (name ^ ": the three parse errors lead diags") true
        (leading_parse_errors r))
    (replies @ [ ("plan", plan) ]);
  let verdicts = List.map (fun (_, r) -> main_verdict r) replies in
  cs "MAIN's loop is parallel" "parallel"
    (Json.to_str (Json.member "outcome" (List.hd verdicts)));
  List.iter
    (fun v ->
      cs "MAIN's verdict agrees across the four modes"
        (Json.to_string (List.hd verdicts))
        (Json.to_string v))
    verdicts

let suite =
  [
    Alcotest.test_case "protocol basics and poisoned requests" `Quick
      test_protocol_basics;
    Alcotest.test_case "analyze byte-identical to one-shot (4 modes)" `Quick
      test_analyze_matches_oneshot;
    Alcotest.test_case "unit cache: hit, key scope, counters" `Quick
      test_unit_cache_hit;
    Alcotest.test_case "batch preserves order and isolates failures" `Quick
      test_batch_order_and_ids;
    Alcotest.test_case "snapshot save/restore round-trip" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "corrupt/mismatched snapshot -> warned cold start"
      `Quick test_snapshot_rejection;
    Alcotest.test_case "absent snapshot is a silent cold start" `Quick
      test_store_absent_is_silent;
    Alcotest.test_case "memo export/import round-trip" `Quick
      test_memo_export_import;
    Alcotest.test_case "server.request fault poisons one response only"
      `Quick test_request_fault_degrades;
    Alcotest.test_case "LRU evicts in recency order" `Quick
      test_lru_eviction_order;
    Alcotest.test_case "LRU byte cap evicts cold entries" `Quick
      test_lru_byte_cap;
    Alcotest.test_case "capped server recomputes evicted units identically"
      `Quick test_capped_server_recomputes;
    Alcotest.test_case "snapshot preserves recency into a smaller cap"
      `Quick test_snapshot_preserves_recency;
    Alcotest.test_case "workers shed deterministically at the bound" `Quick
      test_workers_shed_at_bound;
    Alcotest.test_case "workers contain handler errors; size 1 is synchronous"
      `Quick test_workers_error_containment_and_sync_mode;
    Alcotest.test_case "worker death discards one item, pool respawns" `Quick
      test_workers_death_respawn;
    Alcotest.test_case "4 concurrent clients: byte-identity + exact counters"
      `Quick test_concurrent_clients_byte_identical;
    Alcotest.test_case "concurrent misses on one unit agree byte-for-byte"
      `Quick test_concurrent_miss_race;
    Alcotest.test_case "memo hub warms a fresh domain in one sync" `Quick
      test_memo_hub_sync;
    Alcotest.test_case "server.conn fault kills one connection, not the daemon"
      `Quick test_conn_fault_drops_one_connection;
    Alcotest.test_case "live socket serves concurrent clients identically"
      `Quick test_serve_socket_concurrent_clients;
    (* appended last so the earlier cases keep their Alcotest indices *)
    Alcotest.test_case "submit after shutdown sheds and never respawns" `Quick
      test_submit_after_shutdown_never_respawns;
    Alcotest.test_case "shutdown discards each queued item exactly once"
      `Quick test_shutdown_discards_queued_items;
    Alcotest.test_case "one error budget in every mode" `Quick
      test_one_error_budget;
  ]
