(** Frontend tests: lexer, parser, pretty-printer, resolution, validator. *)

open Frontend
open Helpers

let check = Alcotest.check
let ci = Alcotest.(check int)
let cs = Alcotest.(check string)
let cb = Alcotest.(check bool)

(* ---------------- lexer ---------------- *)

let toks s = (List.hd (Lexer.logical_lines s)).Lexer.tokens

let test_lex_numbers () =
  (* a leading integer would lex as a statement label, so anchor with X *)
  check (Alcotest.list (Alcotest.testable Lexer.pp_token Lexer.equal_token))
    "ints and reals"
    [ Lexer.TID "X"; Lexer.TINT 42; Lexer.TREAL 3.5; Lexer.TREAL 2.0;
      Lexer.TREAL 1e-3 ]
    (toks "X 42 3.5 2.D0 1.0E-3")

let test_lex_dot_ops () =
  ci "dot ops count" 7 (List.length (toks "A .EQ. B .AND. C .LT. 1"));
  cb "eq token" true (List.mem Lexer.TEQ (toks "A .EQ. B"));
  cb "and token" true (List.mem Lexer.TAND (toks "A .AND. B"));
  cb "true literal" true (List.mem Lexer.TTRUE (toks "X = .TRUE."))

let test_lex_int_vs_real_dot () =
  (* 1 .EQ. 2 must not lex "1." as a real *)
  match toks "(1 .EQ. 2)" with
  | [ Lexer.TLP; Lexer.TINT 1; Lexer.TEQ; Lexer.TINT 2; Lexer.TRP ] -> ()
  | _ -> Alcotest.fail "1 .EQ. 2 mis-lexed"

let test_lex_strings () =
  match toks "'HELLO ''WORLD'''" with
  | [ Lexer.TSTR s ] -> cs "escaped quotes" "HELLO 'WORLD'" s
  | _ -> Alcotest.fail "string mis-lexed"

let test_lex_continuation_trailing () =
  let lines = Lexer.logical_lines "      X = 1 +&\n     2\n" in
  ci "one logical line" 1 (List.length lines)

let test_lex_continuation_leading () =
  let lines = Lexer.logical_lines "      X = 1 +\n     & 2\n      Y = 3\n" in
  ci "two logical lines" 2 (List.length lines);
  ci "merged token count" 5 (List.length (List.hd lines).Lexer.tokens)

let test_lex_labels () =
  let lines = Lexer.logical_lines " 200  CONTINUE\n" in
  check Alcotest.(option int) "label" (Some 200) (List.hd lines).Lexer.label

let test_lex_comments () =
  let lines = Lexer.logical_lines "* full comment\n      X = 1 ! trailing\n" in
  ci "comment stripped" 1 (List.length lines);
  ci "trailing comment stripped" 3 (List.length (List.hd lines).Lexer.tokens)

let test_lex_error () =
  try
    ignore (Lexer.logical_lines "X # Y");
    Alcotest.fail "bad char accepted"
  with Diag.Fatal d ->
    check Alcotest.string "message" "unexpected character '#'" d.Diag.d_message;
    (match d.Diag.d_loc with
    | Some { Diag.l_line; l_col } ->
        ci "line" 1 l_line;
        ci "col" 3 l_col
    | None -> Alcotest.fail "lex diagnostic carries no location")

(* ---------------- parser ---------------- *)

let test_parse_program_units () =
  let p = parse "      PROGRAM A\n      X = 1\n      END\n      SUBROUTINE B(Y)\n      Y = 2\n      END\n" in
  ci "two units" 2 (List.length p.Ast.p_units);
  let b = Ast.find_unit_exn p "B" in
  check Alcotest.(list string) "params" [ "Y" ] b.u_params

let test_parse_function () =
  let p = parse "      DOUBLE PRECISION FUNCTION F(X)\n      F = X * 2.0\n      END\n" in
  match (List.hd p.Ast.p_units).u_kind with
  | Ast.Function Ast.Double -> ()
  | _ -> Alcotest.fail "function kind"

let test_parse_decls () =
  let u =
    Ast.find_unit_exn
      (parse
         "      SUBROUTINE S\n      INTEGER A, B(10)\n      DOUBLE PRECISION C(5,6)\n      DIMENSION D(7)\n      END\n")
      "S"
  in
  cb "A scalar int" true (Ast.type_of_var u "A" = Ast.Integer);
  ci "B rank" 1 (List.length (Option.get (Ast.find_decl u "B")).d_dims);
  ci "C rank" 2 (List.length (Option.get (Ast.find_decl u "C")).d_dims);
  cb "D implicitly real" true (Ast.type_of_var u "D" = Ast.Real)

let test_parse_implicit_typing () =
  let u = parse_unit "      X = 1" in
  cb "I..N integer" true (Ast.type_of_var u "NSPEC" = Ast.Integer);
  cb "other real" true (Ast.type_of_var u "X2" = Ast.Real)

let test_parse_common () =
  let u =
    Ast.find_unit_exn
      (parse "      SUBROUTINE S\n      COMMON /BLK/ A, B(4)\n      A = 1\n      END\n")
      "S"
  in
  check Alcotest.(list (pair string (list string))) "commons"
    [ ("BLK", [ "A"; "B" ]) ]
    u.u_commons

let test_parse_parameter () =
  let u =
    Ast.find_unit_exn
      (parse "      SUBROUTINE S\n      PARAMETER (N = 10, M = N + 1)\n      X = N\n      END\n")
      "S"
  in
  ci "two parameter constants" 2 (List.length u.u_params_const)

let test_parse_do_block () =
  let u = parse_unit "      DO I = 1, 10\n        X = I\n      ENDDO" in
  match u.u_body with
  | [ { Ast.node = Ast.Do_loop l; _ } ] ->
      cs "index" "I" l.index;
      ci "body size" 1 (List.length l.body)
  | _ -> Alcotest.fail "do block"

let test_parse_do_labeled_shared () =
  (* Fig. 2 of the paper: two nested loops terminated by one CONTINUE *)
  let u =
    parse_unit
      "      DO 200 N = 1, 4\n        DO 200 J = 1, 5\n          X = N + J\n 200  CONTINUE"
  in
  match u.u_body with
  | [ { Ast.node = Ast.Do_loop outer; _ } ] -> (
      cs "outer" "N" outer.index;
      match outer.body with
      | { Ast.node = Ast.Do_loop inner; _ } :: _ -> cs "inner" "J" inner.index
      | _ -> Alcotest.fail "inner loop missing")
  | _ -> Alcotest.fail "outer loop missing"

let test_parse_do_step () =
  let u = parse_unit "      DO K = 10, 2, -2\n        X = K\n      ENDDO" in
  match u.u_body with
  | [ { Ast.node = Ast.Do_loop l; _ } ] ->
      check expr_testable "step" (Ast.Unop (Ast.Neg, Ast.Int_const 2)) l.step
  | _ -> Alcotest.fail "step loop"

let test_parse_if_forms () =
  let u =
    parse_unit
      "      IF (X .GT. 0) Y = 1\n      IF (X .LT. 0) THEN\n        Y = 2\n      ELSE IF (X .EQ. 0) THEN\n        Y = 3\n      ELSE\n        Y = 4\n      ENDIF"
  in
  ci "two statements" 2 (List.length u.u_body);
  match (List.nth u.u_body 1).Ast.node with
  | Ast.If (_, _, [ { Ast.node = Ast.If (_, _, e2); _ } ]) ->
      ci "final else" 1 (List.length e2)
  | _ -> Alcotest.fail "elseif chain"

let test_parse_call_stop_write () =
  let u =
    parse_unit
      "      CALL FOO(1, X)\n      CALL BAR\n      WRITE(6,*) X, Y\n      STOP 'DONE'"
  in
  match List.map (fun (s : Ast.stmt) -> s.node) u.u_body with
  | [ Ast.Call ("FOO", [ _; _ ]); Ast.Call ("BAR", []); Ast.Print [ _; _ ];
      Ast.Stop (Some "DONE") ] ->
      ()
  | _ -> Alcotest.fail "statement forms"

let test_parse_expr_precedence () =
  check expr_testable "mul before add"
    (parse_expr "A + (B * C)")
    (parse_expr "A + B * C");
  check expr_testable "pow right assoc"
    (parse_expr "A ** (B ** C)")
    (parse_expr "A ** B ** C");
  check expr_testable "unary minus"
    Ast.(Unop (Neg, Var "A"))
    (parse_expr "-A")

let test_parse_goto_rejected () =
  try
    ignore (parse "      PROGRAM T\n      GOTO 10\n      END\n");
    Alcotest.fail "GOTO accepted"
  with Diag.Fatal d -> ci "line" 2 (match d.Diag.d_loc with Some l -> l.Diag.l_line | None -> -1)

(* ---------------- pretty-printer roundtrip ---------------- *)

let roundtrip_src src =
  let p1 = parse src in
  let printed = Pretty.program_to_string p1 in
  let p2 = parse printed in
  cb
    ("roundtrip stable for " ^ String.sub src 0 (min 30 (String.length src)))
    true
    (List.for_all2
       (fun (a : Ast.program_unit) (b : Ast.program_unit) ->
         Ast.equal_body a.u_body b.u_body)
       p1.p_units p2.p_units)

let test_pretty_roundtrip_bench () =
  List.iter
    (fun (b : Perfect.Bench_def.t) -> roundtrip_src b.source)
    Perfect.Suite.all

let test_code_size () =
  let p = parse "      PROGRAM T\n      X = 1\n      END\n" in
  ci "code size" 3 (Pretty.code_size p)

(* The count [Pretty.code_size] stands for: non-blank, non-comment
   lines of the rendered program. *)
let rendered_code_size p =
  List.length
    (List.filter
       (fun l ->
         let t = String.trim l in
         t <> "" && t.[0] <> '!')
       (String.split_on_char '\n' (Pretty.program_to_string p)))

let test_code_size_from_ast () =
  let agree what p =
    ci (what ^ ": code size = rendered count") (rendered_code_size p)
      (Pretty.code_size p)
  in
  List.iter
    (fun (pt : Perfect.Driver.point) ->
      match pt.pt_program with
      | Some p ->
          agree
            (pt.pt_bench ^ "/" ^ Core.Pipeline.mode_name pt.pt_config)
            p
      | None -> Alcotest.failf "%s: crashed suite point" pt.pt_bench)
    (Perfect.Driver.run_suite ~jobs:1 ());
  for seed = 1 to 50 do
    List.iter
      (fun mutate ->
        let src =
          if mutate then Fuzz.Gen.source_mutated ~seed
          else Fuzz.Gen.source ~seed
        in
        List.iter
          (fun mode ->
            match Planner.compile_source ~mode src with
            | r, _ ->
                agree
                  (Printf.sprintf "fuzz seed %d%s %s" seed
                     (if mutate then " mutated" else "")
                     (Core.Pipeline.mode_name mode))
                  r.Core.Pipeline.res_program
            | exception (Diag.Fatal _ | Diag.Error_limit _) -> ())
          Core.Pipeline.[ No_inlining; Conventional; Annotation_based; Demand ])
      [ false; true ]
  done

(* ---------------- resolution & validation ---------------- *)

let test_resolve_function_call () =
  let p =
    parse
      "      PROGRAM T\n      X = F(3.0) + A(1)\n      END\n      REAL FUNCTION F(Y)\n      F = Y\n      END\n"
  in
  (* A is undeclared: stays an array ref; F resolves to a call *)
  let main = Ast.find_unit_exn p "T" in
  match main.u_body with
  | [ { Ast.node = Ast.Assign (_, Ast.Binop (_, Ast.Func_call ("F", _), Ast.Array_ref ("A", _))); _ } ] ->
      ()
  | _ -> Alcotest.fail "resolution"

let test_resolve_intrinsic () =
  match parse_expr "MAX(A, B)" with
  | Ast.Func_call ("MAX", _) -> ()
  | _ -> Alcotest.fail "intrinsic resolution"

let test_validate_ok () =
  List.iter
    (fun (b : Perfect.Bench_def.t) ->
      check (Alcotest.list (Alcotest.testable Validate.pp_issue (fun a b -> a = b)))
        (b.name ^ " validates") []
        (Validate.check (Perfect.Bench_def.parse b)))
    Perfect.Suite.all

let test_validate_arity () =
  let p =
    parse
      "      PROGRAM T\n      CALL S(1)\n      END\n      SUBROUTINE S(A, B)\n      A = B\n      END\n"
  in
  cb "arity issue found" true (Validate.check p <> [])

let test_validate_undefined_call () =
  let p = parse "      PROGRAM T\n      CALL NOSUCH\n      END\n" in
  cb "undefined call found" true (Validate.check p <> [])

let test_validate_common_mismatch () =
  let p =
    parse
      "      PROGRAM T\n      COMMON /B/ X, Y\n      X = 1\n      END\n      SUBROUTINE S\n      COMMON /B/ X, Z\n      X = 2\n      END\n"
  in
  cb "common mismatch found" true
    (List.exists
       (fun (i : Validate.issue) ->
         (* substring check *)
         let msg = i.message and sub = "COMMON" in
         let n = String.length msg and m = String.length sub in
         let rec go k = k + m <= n && (String.sub msg k m = sub || go (k + 1)) in
         go 0)
       (Validate.check p))

let suite =
  [
    ("lex: numbers", `Quick, test_lex_numbers);
    ("lex: dot operators", `Quick, test_lex_dot_ops);
    ("lex: int .EQ. disambiguation", `Quick, test_lex_int_vs_real_dot);
    ("lex: strings", `Quick, test_lex_strings);
    ("lex: trailing continuation", `Quick, test_lex_continuation_trailing);
    ("lex: leading continuation", `Quick, test_lex_continuation_leading);
    ("lex: labels", `Quick, test_lex_labels);
    ("lex: comments", `Quick, test_lex_comments);
    ("lex: error", `Quick, test_lex_error);
    ("parse: program units", `Quick, test_parse_program_units);
    ("parse: function", `Quick, test_parse_function);
    ("parse: declarations", `Quick, test_parse_decls);
    ("parse: implicit typing", `Quick, test_parse_implicit_typing);
    ("parse: COMMON", `Quick, test_parse_common);
    ("parse: PARAMETER", `Quick, test_parse_parameter);
    ("parse: block DO", `Quick, test_parse_do_block);
    ("parse: shared-label DO nest", `Quick, test_parse_do_labeled_shared);
    ("parse: negative step", `Quick, test_parse_do_step);
    ("parse: IF forms", `Quick, test_parse_if_forms);
    ("parse: CALL/STOP/WRITE", `Quick, test_parse_call_stop_write);
    ("parse: precedence", `Quick, test_parse_expr_precedence);
    ("parse: GOTO rejected", `Quick, test_parse_goto_rejected);
    ("pretty: roundtrip all benchmarks", `Quick, test_pretty_roundtrip_bench);
    ("pretty: code size", `Quick, test_code_size);
    ("resolve: functions vs arrays", `Quick, test_resolve_function_call);
    ("resolve: intrinsics", `Quick, test_resolve_intrinsic);
    ("validate: benchmarks clean", `Quick, test_validate_ok);
    ("validate: arity", `Quick, test_validate_arity);
    ("validate: undefined call", `Quick, test_validate_undefined_call);
    ("validate: COMMON mismatch", `Quick, test_validate_common_mismatch);
    ("code size counts without rendering", `Slow, test_code_size_from_ast);
  ]
