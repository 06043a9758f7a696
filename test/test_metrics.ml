(** Tests for the telemetry registry: histogram merge associativity
    (including across real domain shards), quantile monotonicity, the
    zero-cost-when-off contract (an uninstalled registry leaves
    pipeline output byte-identical), the [metrics] serve op's NDJSON
    round-trip, and fault injections surfacing as registry counters. *)

module Json = Frontend.Json
module Metrics = Frontend.Metrics
module Serve = Server.Serve

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)

let contains_sub (hay : string) (needle : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Run [f] with a fresh registry armed, then disarm it no matter what. *)
let with_registry (f : Metrics.t -> 'a) : 'a =
  let r = Metrics.create () in
  Metrics.install r;
  Fun.protect ~finally:(fun () -> Metrics.uninstall r) (fun () -> f r)

(* Pull the merged histogram snapshot for [family] out of a registry
   snapshot; fails the test when the family is absent. *)
let hist_of ?(labels = []) family (snap : Metrics.snapshot) : Metrics.hsnap =
  let rec find = function
    | [] -> Alcotest.failf "histogram %s not in snapshot" family
    | ((m : Metrics.meta), Metrics.S_hist h) :: _
      when m.m_family = family && m.m_labels = labels ->
        h
    | _ :: tl -> find tl
  in
  find snap

let counter_of ?(labels = []) family (snap : Metrics.snapshot) : int =
  let rec find = function
    | [] -> Alcotest.failf "counter %s not in snapshot" family
    | ((m : Metrics.meta), Metrics.S_counter n) :: _
      when m.m_family = family && m.m_labels = labels ->
        n
    | _ :: tl -> find tl
  in
  find snap

(* An hsnap built by observing [values] into a throwaway registry —
   the only public way to construct one, which is the point: tests go
   through the same shard/merge machinery production does. *)
let hsnap_of_values values : Metrics.hsnap =
  with_registry @@ fun r ->
  let h = Metrics.histogram "parinline_test_assoc_seconds" in
  List.iter (Metrics.observe_ns h) values;
  hist_of "parinline_test_assoc_seconds" (Metrics.snapshot r)

(* ---------------- merge algebra ---------------- *)

let test_merge_associativity () =
  let a = hsnap_of_values [ 3; 17; 950; 12_000 ] in
  let b = hsnap_of_values [ 1; 1; 2_000_000; 40 ] in
  let c = hsnap_of_values [ 7; 999_999_999; 64; 64; 64 ] in
  let open Metrics in
  cb "associative" true
    (merge_hist (merge_hist a b) c = merge_hist a (merge_hist b c));
  cb "commutative" true (merge_hist a b = merge_hist b a);
  cb "empty is left identity" true (merge_hist empty_hsnap a = a);
  cb "empty is right identity" true (merge_hist a empty_hsnap = a);
  let ab = merge_hist a b in
  ci "counts add" (a.hs_count + b.hs_count) ab.hs_count;
  ci "sums add exactly" (a.hs_sum_ns + b.hs_sum_ns) ab.hs_sum_ns;
  ci "min unions" 1 ab.hs_min_ns;
  ci "max unions" 2_000_000 ab.hs_max_ns

(* The same observations spread across three real domains must
   snapshot to exactly what a single domain records: the per-domain
   shards merge without loss or double counting. *)
let test_merge_across_domain_shards () =
  let chunks =
    [ [ 5; 80; 3_000 ]; [ 1_000_000; 12; 12 ]; [ 700; 700; 99_000_000 ] ]
  in
  let sharded =
    with_registry @@ fun r ->
    let h = Metrics.histogram "parinline_test_shard_seconds" in
    let ds =
      List.map
        (fun vs -> Domain.spawn (fun () -> List.iter (Metrics.observe_ns h) vs))
        chunks
    in
    List.iter Domain.join ds;
    hist_of "parinline_test_shard_seconds" (Metrics.snapshot r)
  in
  let single = hsnap_of_values (List.concat chunks) in
  (* families differ but the payloads must not *)
  cb "sharded = single-domain" true (sharded = single);
  ci "all nine observations kept" 9 sharded.Metrics.hs_count

(* ---------------- quantiles ---------------- *)

let test_quantile_monotone () =
  (* deterministic LCG spread over six orders of magnitude *)
  let values =
    let x = ref 12345 in
    List.init 500 (fun _ ->
        x := ((!x * 1103515245) + 12121) land 0x3FFFFFFF;
        1 + (!x mod 50_000_000))
  in
  let h = hsnap_of_values values in
  let qs = List.init 101 (fun i -> float_of_int i /. 100.0) in
  let ests = List.map (Metrics.quantile h) qs in
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  cb "monotone in q" true (monotone ests);
  let lo = float_of_int h.Metrics.hs_min_ns
  and hi = float_of_int h.Metrics.hs_max_ns in
  cb "clamped to observed range" true
    (List.for_all (fun e -> e >= lo && e <= hi) ests);
  cb "p0 is the min" true (Metrics.quantile h 0.0 = lo);
  cb "p100 is the max" true (Metrics.quantile h 1.0 = hi);
  (* the estimate must land within one log-bucket (<= 12.5% relative
     error) of the true median of a known distribution *)
  let exact = hsnap_of_values (List.init 101 (fun i -> 1000 + (i * 10))) in
  let est = Metrics.quantile exact 0.5 in
  cb "median within bucket resolution" true
    (abs_float (est -. 1500.0) /. 1500.0 < 0.125);
  cs "empty quantile is 0" "0."
    (string_of_float (Metrics.quantile Metrics.empty_hsnap 0.99))

(* ---------------- zero-cost when off ---------------- *)

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

let oneshot () =
  Perfect.Driver.reset_gensyms ();
  let r =
    fst
      (Planner.compile_source ~mode:Core.Pipeline.Annotation_based
         ~annot_source:"" src)
  in
  Json.to_string
    (Json.List
       (List.map
          (fun (rep : Parallelizer.Parallelize.loop_report) ->
            Parallelizer.Verdict.to_json rep.rep_verdict)
          r.Core.Pipeline.res_reports))

let test_off_is_byte_identical () =
  cb "registry starts disarmed" false (Metrics.on ());
  let off = oneshot () in
  let on_ =
    with_registry @@ fun r ->
    cb "registry armed" true (Metrics.on ());
    let out = oneshot () in
    (* the run was actually observed, not silently skipped *)
    cb "armed run recorded pass timings" true
      (List.exists
         (fun ((m : Metrics.meta), _) ->
           m.m_family = "parinline_pass_duration_seconds")
         (Metrics.snapshot r));
    out
  in
  cs "verdict bytes identical with metrics on and off" off on_;
  cb "registry disarmed again" false (Metrics.on ());
  cs "and a second off run still agrees" off (oneshot ())

(* ---------------- the metrics serve op ---------------- *)

let test_metrics_op_roundtrip () =
  let t, _ = Serve.create () in
  Fun.protect ~finally:(fun () -> ignore (Serve.drain t))
  @@ fun () ->
  let send j =
    match Json.parse (Serve.handle_line t (Json.to_string j)) with
    | Ok r -> r
    | Error e -> Alcotest.failf "unparseable response: %s" e
  in
  let r =
    send (Serve.request ~op:"analyze" ~mode:"annotation" ~source:src ())
  in
  cb "analyze ok" true (Json.to_bool (Json.member "ok" r));
  let r = send (Serve.request ~id:42 ~op:"metrics" ()) in
  cb "metrics ok" true (Json.to_bool (Json.member "ok" r));
  ci "id echoed" 42 (Json.to_int (Json.member "id" r));
  cb "request_id stamped" true
    (match Json.member "request_id" r with
    | Json.Str s -> String.length s > 1 && s.[0] = 'r'
    | _ -> false);
  let expo = Json.to_str (Json.member "exposition" r) in
  cb "exposition has TYPE lines" true
    (contains_sub expo "# TYPE parinline_requests_total counter");
  cb "exposition has request histogram buckets" true
    (contains_sub expo "parinline_request_duration_seconds_bucket{");
  let m = Json.member "metrics" r in
  cb "counters object present" true (Json.member "counters" m <> Json.Null);
  cb "histograms carry the request family" true
    (match Json.member "histograms" m with
    | Json.Obj kvs ->
        List.exists
          (fun (k, v) ->
            let prefix = "parinline_request_duration_seconds{" in
            String.length k >= String.length prefix
            && String.sub k 0 (String.length prefix) = prefix
            && Json.to_int (Json.member "count" v) >= 1
            && Json.member "p99_ms" v <> Json.Null)
          kvs
    | _ -> false);
  (* the scrape itself must round-trip through one NDJSON line *)
  let line = Json.to_string (Serve.request ~id:43 ~op:"metrics" ()) in
  cb "one-line request" true (not (String.contains line '\n'));
  cb "one-line response" true
    (not (String.contains (Serve.handle_line t line) '\n'))

(* ---------------- the server.log chaos site ---------------- *)

(* A poisoned request-log write costs that one log line, never the
   response: the daemon degrades to a Diag warning on stderr and keeps
   both serving and logging. *)
let test_log_fault_degrades () =
  let log = Filename.temp_file "parinline-log-fault" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
  @@ fun () ->
  (match Frontend.Fault.parse_spec "7:server.log=2" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
      Frontend.Fault.with_plan plan (fun () ->
          (* arrival 1 is the start event; arrival 2 — the first
             analyze's log line — trips the fault *)
          let t, _ = Serve.create ~log_file:log () in
          Fun.protect ~finally:(fun () -> ignore (Serve.drain t))
          @@ fun () ->
          let send j =
            match Json.parse (Serve.handle_line t (Json.to_string j)) with
            | Ok r -> r
            | Error e -> Alcotest.failf "unparseable response: %s" e
          in
          let r1 =
            send (Serve.request ~op:"analyze" ~mode:"annotation" ~source:src ())
          in
          cb "response survives the poisoned log write" true
            (Json.to_bool (Json.member "ok" r1));
          let r2 =
            send (Serve.request ~op:"analyze" ~mode:"annotation" ~source:src ())
          in
          cb "daemon keeps serving" true (Json.to_bool (Json.member "ok" r2));
          cb "warm hit after the drop" true
            (Json.to_bool (Json.member "cached" r2))));
  let lines =
    In_channel.with_open_bin log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  cb "start event logged before the fault" true
    (List.exists (fun l -> contains_sub l "\"event\":\"start\"") lines);
  ci "exactly one analyze line survives (the poisoned one dropped)" 1
    (List.length (List.filter (fun l -> contains_sub l "\"op\":\"analyze\"") lines));
  cb "the surviving analyze line is the warm hit" true
    (List.exists
       (fun l ->
         contains_sub l "\"op\":\"analyze\"" && contains_sub l "\"cache\":\"hit\"")
       lines)

(* ---------------- faults surface as counters ---------------- *)

let test_faults_visible_in_registry () =
  with_registry @@ fun r ->
  Frontend.Prof.tick_fault_injected ();
  Frontend.Prof.tick_fault_injected ();
  let n = counter_of "parinline_faults_injected_total" (Metrics.snapshot r) in
  ci "two injections counted" 2 n;
  (* and the exposition renders them as a counter family *)
  let expo = Metrics.to_prometheus (Metrics.snapshot r) in
  cb "rendered" true
    (contains_sub expo
       "# TYPE parinline_faults_injected_total counter\n\
        parinline_faults_injected_total 2")

(* ---------------- bounded op labels ---------------- *)

(* Client-chosen op strings never mint metric series: outside the closed
   label set (the nine ops plus parse/accept/connection) every op counts
   as "unknown" and is never timed.  The baseline is taken once the ops
   this test itself sends (batch, metrics) and the pool series a batch
   feeds exist; after that the exposition keeps its sample count.
   Bucket lines are left out of the count: which latency buckets are
   occupied depends on timing, not on labels. *)
let test_bounded_op_labels () =
  let t, _ = Serve.create () in
  Fun.protect ~finally:(fun () -> ignore (Serve.drain t)) @@ fun () ->
  let send j =
    match Json.parse (Serve.handle_line t (Json.to_string j)) with
    | Ok r -> r
    | Error e -> Alcotest.failf "unparseable response: %s" e
  in
  let bogus i =
    Json.Obj [ ("op", Json.Str (Printf.sprintf "bogus-%d" i)); ("id", Json.Int i) ]
  in
  let batch reqs = Json.Obj [ ("op", Json.Str "batch"); ("requests", Json.List reqs) ] in
  let error_envelope r =
    (not (Json.to_bool (Json.member "ok" r)))
    && (match Json.member "request_id" r with
       | Json.Str s -> String.length s > 1 && s.[0] = 'r'
       | _ -> false)
    && Json.member "error" r <> Json.Null
  in
  let samples () =
    Json.to_str (Json.member "exposition" (send (Serve.request ~op:"metrics" ())))
    |> String.split_on_char '\n'
    |> List.filter (fun l ->
           l <> "" && l.[0] <> '#' && not (contains_sub l "_bucket{"))
    |> List.length
  in
  cb "first unknown op answers an error envelope" true
    (error_envelope (send (bogus 0)));
  ignore (send (batch [ bogus 1 ]));
  let base = samples () in
  let answered = ref 0 in
  for i = 2 to 1001 do
    if error_envelope (send (bogus i)) then incr answered
  done;
  ci "1000 top-level unknown ops: 1000 error envelopes" 1000 !answered;
  ci "top-level unknown ops mint no series" base (samples ());
  let r = send (batch (List.init 1000 (fun i -> bogus (1002 + i)))) in
  cb "batch answered" true (Json.to_bool (Json.member "ok" r));
  ci "1000 batched unknown ops: 1000 error envelopes" 1000
    (List.length
       (List.filter error_envelope (Json.to_list (Json.member "responses" r))));
  ci "batched unknown ops mint no series" base (samples ())

let suite =
  [
    Alcotest.test_case "merge: associative, commutative, identity" `Quick
      test_merge_associativity;
    Alcotest.test_case "merge: domain shards = single domain" `Quick
      test_merge_across_domain_shards;
    Alcotest.test_case "quantile: monotone and clamped" `Quick
      test_quantile_monotone;
    Alcotest.test_case "off: pipeline output byte-identical" `Quick
      test_off_is_byte_identical;
    Alcotest.test_case "serve: metrics op round-trips" `Quick
      test_metrics_op_roundtrip;
    Alcotest.test_case "server.log fault drops the line, not the response"
      `Quick test_log_fault_degrades;
    Alcotest.test_case "faults: injections visible as counters" `Quick
      test_faults_visible_in_registry;
    Alcotest.test_case "serve: unknown ops mint no series" `Quick
      test_bounded_op_labels;
  ]
