(** Tests for the profiled parallel suite driver and the pass profiler:
    parallel/sequential agreement on the full matrix, per-benchmark fault
    isolation, Prof counter semantics, and JSON schema sanity. *)

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)

(* Comparable fingerprint of a point: everything deterministic (timings
   excluded).  Order-insensitivity comes from sorting the fingerprints. *)
let fingerprint (p : Perfect.Driver.point) =
  let c = p.pt_counters in
  ( (p.pt_bench, Core.Pipeline.mode_name p.pt_config),
    (p.pt_par, p.pt_loss, p.pt_extra, p.pt_size, p.pt_crashed),
    ( c.Frontend.Prof.dep_tests_run,
      c.Frontend.Prof.dep_tests_independent,
      c.Frontend.Prof.annot_sites_inlined,
      c.Frontend.Prof.reverse_sites_matched,
      c.Frontend.Prof.stmts_normalized ) )

let fingerprints points = List.sort compare (List.map fingerprint points)

(* ---------------- parallel = sequential ---------------- *)

let test_parallel_matches_sequential () =
  let seq = Perfect.Driver.run_suite ~jobs:1 () in
  let par = Perfect.Driver.run_suite ~jobs:4 () in
  ci "12 benchmarks x 4 configs" 48 (List.length seq);
  ci "same cardinality" (List.length seq) (List.length par);
  cb "identical results (counts, sizes, counters)" true
    (fingerprints seq = fingerprints par)

(* ---------------- fault isolation ---------------- *)

let poison : Perfect.Bench_def.t =
  {
    name = "POISON";
    description = "deliberately unparseable benchmark";
    source = "THIS IS NOT (( FORTRAN\n";
    annotations = "";
  }

let test_poisoned_bench_is_salvaged () =
  let clean = Perfect.Driver.run_suite ~jobs:4 () in
  let dirty =
    Perfect.Driver.run_suite ~jobs:4
      ~benches:(poison :: Perfect.Suite.all) ()
  in
  ci "13 benchmarks x 4 configs" 52 (List.length dirty);
  let poisoned, rest =
    List.partition
      (fun (p : Perfect.Driver.point) -> p.pt_bench = "POISON")
      dirty
  in
  ci "four poisoned points" 4 (List.length poisoned);
  List.iter
    (fun (p : Perfect.Driver.point) ->
      cb "poisoned point crashed" true p.pt_crashed;
      cb "poisoned point carries diagnostics" true
        (Core.Diag.errors_in p.pt_diags > 0))
    poisoned;
  cb "the other 12 benchmarks are untouched" true
    (fingerprints rest = fingerprints clean);
  ci "suite exit degrades to 1" 1 (Perfect.Driver.exit_status dirty);
  ci "clean suite exits 0" 0 (Perfect.Driver.exit_status clean)

(* ---------------- Prof counters ---------------- *)

let counters_tuple (c : Frontend.Prof.counters) =
  ( c.Frontend.Prof.dep_tests_run,
    c.Frontend.Prof.dep_tests_independent,
    c.Frontend.Prof.annot_sites_inlined,
    c.Frontend.Prof.reverse_sites_matched,
    c.Frontend.Prof.stmts_normalized )

let run_mdg ?prof () =
  let b = Perfect.Mdg.bench in
  ignore
    (Core.Pipeline.run ?prof
       ~annots:(Perfect.Bench_def.annots b)
       ~mode:Core.Pipeline.Annotation_based
       (Perfect.Bench_def.parse b))

let test_prof_counters_zero_when_disabled () =
  let prof = Frontend.Prof.create () in
  (* pipeline runs without the profile installed: nothing may leak in *)
  run_mdg ();
  cb "all counters zero" true
    (counters_tuple (Frontend.Prof.snapshot prof) = (0, 0, 0, 0, 0));
  ci "no pass timings" 0 (List.length (Frontend.Prof.pass_ms prof));
  (* ticks outside any installed profile are inert no-ops *)
  Frontend.Prof.tick_dep_test ~independent:true ~cached:false;
  Frontend.Prof.tick_annot_site ();
  Frontend.Prof.tick_reverse_match ();
  Frontend.Prof.add_stmts_normalized 7;
  cb "still zero" true
    (counters_tuple (Frontend.Prof.snapshot prof) = (0, 0, 0, 0, 0))

let test_prof_counters_monotone () =
  let prof = Frontend.Prof.create () in
  run_mdg ~prof ();
  let (r1, i1, a1, m1, s1) = counters_tuple (Frontend.Prof.snapshot prof) in
  cb "dep tests ran" true (r1 > 0);
  cb "independence decided" true (i1 > 0 && i1 <= r1);
  cb "annotation sites inlined" true (a1 > 0);
  (* matched can exceed inlined sites: tagged regions may be duplicated
     by later passes before the matcher runs *)
  cb "reverse sites matched" true (m1 > 0);
  cb "statements normalized" true (s1 > 0);
  (* a second profiled run only accumulates: counters are monotone *)
  run_mdg ~prof ();
  let (r2, i2, a2, m2, s2) = counters_tuple (Frontend.Prof.snapshot prof) in
  cb "monotone" true (r2 > r1 && i2 >= i1 && a2 > a1 && m2 >= m1 && s2 > s1)

let test_prof_pass_timings () =
  let prof = Frontend.Prof.create () in
  run_mdg ~prof ();
  let passes = Frontend.Prof.pass_ms prof in
  List.iter
    (fun key ->
      cb (key ^ " pass recorded") true (List.mem_assoc key passes);
      cb (key ^ " non-negative") true (List.assoc key passes >= 0.0))
    [ "inline"; "normalize"; "parallelize"; "reverse" ];
  cb "total covers the passes" true
    (Frontend.Prof.total_ms prof
    >= List.fold_left (fun a (_, ms) -> a +. ms) 0.0 passes -. 1e-9)

(* ---------------- JSON output ---------------- *)

(* Minimal structural checks without a JSON library: balanced braces,
   every benchmark and config mentioned, the schema fields present. *)
let test_json_schema () =
  let points = Perfect.Driver.run_suite ~jobs:2 () in
  let json = Perfect.Driver.to_json points in
  let count_char c =
    String.fold_left (fun n x -> if x = c then n + 1 else n) 0 json
  in
  ci "balanced braces" (count_char '{') (count_char '}');
  ci "balanced brackets" (count_char '[') (count_char ']');
  let mentions sub =
    let n = String.length json and m = String.length sub in
    let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (b : Perfect.Bench_def.t) ->
      cb (b.name ^ " present") true (mentions ("\"" ^ b.name ^ "\"")))
    Perfect.Suite.all;
  List.iter
    (fun key -> cb (key ^ " present") true (mentions ("\"" ^ key ^ "\"")))
    [
      "schema_version"; "points"; "bench"; "config"; "par_loops"; "loss";
      "extra"; "code_size"; "wall_ms"; "pass_ms"; "counters"; "salvage";
      "validation"; "iterations_traced"; "race_conflicts"; "race_excused";
      "no-inlining"; "conventional"; "annotation-based"; "demand"; "planner";
      "sites_inlined"; "growth_ratio"; "blockers_resolved";
      "requests_served"; "unit_cache_hits"; "snapshot_restores";
    ]

(* The document's values, not only its keys: parse it back and hold
   every point's fields against the record it was printed from. *)
let test_json_round_trip () =
  let points =
    Perfect.Driver.run_suite ~jobs:1 ~benches:[ Perfect.Mdg.bench ] ()
  in
  let doc =
    match Frontend.Json.parse (Perfect.Driver.to_json points) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("bench JSON does not parse: " ^ e)
  in
  let member = Frontend.Json.member and to_int = Frontend.Json.to_int in
  ci "schema_version" 9 (to_int (member "schema_version" doc));
  let read = Frontend.Json.to_list (member "points" doc) in
  ci "one object per point" (List.length points) (List.length read);
  List.iter2
    (fun (p : Perfect.Driver.point) j ->
      let name = Core.Pipeline.mode_name p.pt_config in
      let field key want = ci (name ^ " " ^ key) want (to_int (member key j)) in
      field "par_loops" p.pt_par;
      field "loss" p.pt_loss;
      field "extra" p.pt_extra;
      field "code_size" p.pt_size;
      cb (name ^ " counters") true
        (member "counters" j = Frontend.Prof.counters_json p.pt_counters);
      cb (name ^ " planner on demand only") true
        ((member "planner" j <> Frontend.Json.Null)
        = (p.pt_config = Core.Pipeline.Demand));
      let v = member "verdicts" j in
      ci (name ^ " verdicts parallel + serial")
        (List.length p.pt_verdicts)
        (to_int (member "parallel" v) + to_int (member "serial" v)))
    points read

let suite =
  [
    Alcotest.test_case "parallel driver = sequential driver" `Slow
      test_parallel_matches_sequential;
    Alcotest.test_case "poisoned benchmark salvaged, others intact" `Slow
      test_poisoned_bench_is_salvaged;
    Alcotest.test_case "prof counters zero when disabled" `Quick
      test_prof_counters_zero_when_disabled;
    Alcotest.test_case "prof counters monotone" `Quick
      test_prof_counters_monotone;
    Alcotest.test_case "prof pass timings recorded" `Quick
      test_prof_pass_timings;
    Alcotest.test_case "bench JSON schema" `Slow test_json_schema;
    Alcotest.test_case "bench JSON values round-trip" `Slow
      test_json_round_trip;
  ]
