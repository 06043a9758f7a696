(** Fuzz-gate tests: generator determinism and the corpus invariants
    (no bare escapes; every directive oracle-validated; a valid program's
    emitted form prints what the original prints). *)

let test_generator_deterministic () =
  Alcotest.(check string) "same seed, same program" (Fuzz.Gen.source ~seed:11)
    (Fuzz.Gen.source ~seed:11);
  Alcotest.(check bool) "different seeds differ" true
    (Fuzz.Gen.source ~seed:11 <> Fuzz.Gen.source ~seed:12);
  Alcotest.(check string) "mutation is deterministic too"
    (Fuzz.Gen.source_mutated ~seed:11)
    (Fuzz.Gen.source_mutated ~seed:11)

let test_generated_programs_parse () =
  for seed = 0 to 19 do
    let src = Fuzz.Gen.source ~seed in
    match Frontend.Resolve.parse src with
    | _ -> ()
    | exception e ->
        Alcotest.failf "seed %d does not parse (%s):\n%s" seed
          (Printexc.to_string e) src
  done

let test_corpus_reproducible () =
  let a = Fuzz.Harness.run_corpus ~seed:5 ~count:12 () in
  let b = Fuzz.Harness.run_corpus ~seed:5 ~count:12 () in
  Alcotest.(check string) "same digest" a.s_digest b.s_digest;
  let c = Fuzz.Harness.run_corpus ~seed:6 ~count:12 () in
  Alcotest.(check bool) "shifted seed, different corpus" true
    (a.s_digest <> c.s_digest)

let test_valid_corpus_clean () =
  (* 60 seeds cover all three pipeline modes; a valid program must never
     escape, never race, never diverge, never crash *)
  let s = Fuzz.Harness.run_corpus ~seed:100 ~count:60 () in
  (match s.s_violations with
  | [] -> ()
  | (seed, why) :: _ -> Alcotest.failf "seed %d: %s" seed why);
  Alcotest.(check bool) "corpus emitted directives" true (s.s_marked_total > 0)

let test_mutated_corpus_crash_free () =
  (* mutated programs may be salvaged into something that traps, but the
     pipeline must stay on the Diag channel and directives must stay
     race-free *)
  let s = Fuzz.Harness.run_corpus ~mutate:true ~seed:100 ~count:40 () in
  match s.s_violations with
  | [] -> ()
  | (seed, why) :: _ -> Alcotest.failf "mutated seed %d: %s" seed why

let test_outcome_shape () =
  let o = Fuzz.Harness.run_one ~seed:0 () in
  Alcotest.(check bool) "no escape" true (o.o_escaped = None);
  Alcotest.(check bool) "verdict present" true (o.o_verdict <> None);
  match o.o_verdict with
  | Some v -> Alcotest.(check bool) "oracle ok" true v.Checker.Oracle.v_ok
  | None -> ()

let suite =
  [
    Alcotest.test_case "generator is seed-deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "generated programs parse" `Quick
      test_generated_programs_parse;
    Alcotest.test_case "corpus digest reproduces" `Quick
      test_corpus_reproducible;
    Alcotest.test_case "valid corpus passes the gate" `Slow
      test_valid_corpus_clean;
    Alcotest.test_case "mutated corpus stays structured" `Slow
      test_mutated_corpus_crash_free;
    Alcotest.test_case "single outcome shape" `Quick test_outcome_shape;
  ]
