(** Analysis-layer tests: polynomial algebra (with qcheck properties),
    simplification, constant propagation, forward substitution, induction
    substitution and section lowering. *)

open Frontend
open Analysis
open Helpers

let ci = Alcotest.(check int)
let cb = Alcotest.(check bool)

(* ---------------- Poly: qcheck generators ---------------- *)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ast.Int_const n) (int_range (-20) 20);
        oneofl [ Ast.Var "I"; Ast.Var "J"; Ast.Var "N" ];
        map (fun n -> Ast.Array_ref ("IX", [ Ast.Int_const (abs n + 1) ]))
          (int_range 0 3);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map2
              (fun a b -> Ast.Binop (Ast.Add, a, b))
              (go (depth - 1)) (go (depth - 1)) );
          ( 2,
            map2
              (fun a b -> Ast.Binop (Ast.Sub, a, b))
              (go (depth - 1)) (go (depth - 1)) );
          ( 2,
            map2
              (fun a b -> Ast.Binop (Ast.Mul, a, b))
              (go (depth - 1)) (go (depth - 1)) );
          (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (go (depth - 1)));
        ]
  in
  go 3

let arb_expr =
  QCheck.make ~print:(fun e -> Pretty.expr_str e) gen_expr

(* reference evaluator for the generator's integer expressions *)
let rec eval_ref env e =
  match e with
  | Ast.Int_const n -> n
  | Ast.Var v -> List.assoc v env
  | Ast.Array_ref ("IX", [ Ast.Int_const k ]) -> (k * 7) + 3
  | Ast.Binop (Ast.Add, a, b) -> eval_ref env a + eval_ref env b
  | Ast.Binop (Ast.Sub, a, b) -> eval_ref env a - eval_ref env b
  | Ast.Binop (Ast.Mul, a, b) -> eval_ref env a * eval_ref env b
  | Ast.Unop (Ast.Neg, a) -> -eval_ref env a
  | _ -> failwith "eval_ref"

let env0 = [ ("I", 5); ("J", -3); ("N", 11) ]

let prop_poly_roundtrip =
  QCheck.Test.make ~count:300 ~name:"poly: of_expr/to_expr preserves value"
    arb_expr (fun e ->
      let p = Poly.of_expr e in
      eval_ref env0 (Poly.to_expr p) = eval_ref env0 e)

let prop_poly_sub_self =
  QCheck.Test.make ~count:200 ~name:"poly: e - e = 0" arb_expr (fun e ->
      Poly.is_zero (Poly.sub (Poly.of_expr e) (Poly.of_expr e)))

let prop_poly_add_commutes =
  QCheck.Test.make ~count:200 ~name:"poly: a+b = b+a"
    (QCheck.pair arb_expr arb_expr) (fun (a, b) ->
      Poly.equal
        (Poly.add (Poly.of_expr a) (Poly.of_expr b))
        (Poly.add (Poly.of_expr b) (Poly.of_expr a)))

let prop_poly_mul_distributes =
  QCheck.Test.make ~count:200 ~name:"poly: a*(b+c) = a*b + a*c"
    (QCheck.triple arb_expr arb_expr arb_expr) (fun (a, b, c) ->
      let pa = Poly.of_expr a and pb = Poly.of_expr b and pc = Poly.of_expr c in
      Poly.equal (Poly.mul pa (Poly.add pb pc))
        (Poly.add (Poly.mul pa pb) (Poly.mul pa pc)))

let prop_subst_var =
  QCheck.Test.make ~count:200 ~name:"poly: subst I:=J preserves value"
    arb_expr (fun e ->
      let p = Poly.subst_var "I" (Poly.atom (Ast.Var "J")) (Poly.of_expr e) in
      let env = [ ("I", -3); ("J", -3); ("N", 11) ] in
      eval_ref env (Poly.to_expr p) = eval_ref env e)

let prop_simplify_value =
  QCheck.Test.make ~count:300 ~name:"simplify preserves integer value"
    arb_expr (fun e ->
      let u = parse_unit "      X = 1" in
      eval_ref env0 (Simplify.simplify u e) = eval_ref env0 e)

let test_affine_in () =
  (* IX(7) + 2*I + 3 is affine in I with symbolic rest *)
  let e = parse_expr "IX(7) + 2 * I + 3" in
  match Poly.affine_in ~vars:[ "I" ] (Poly.of_expr e) with
  | Some ([ ("I", 2) ], rest) ->
      cb "rest mentions IX" true
        (List.exists
           (function Ast.Array_ref ("IX", _) -> true | _ -> false)
           (Poly.atoms rest))
  | _ -> Alcotest.fail "affine_in"

let test_affine_in_rejects_nonlinear () =
  let e = parse_expr "I * I + 1" in
  cb "quadratic rejected" true
    (Poly.affine_in ~vars:[ "I" ] (Poly.of_expr e) = None);
  let e2 = parse_expr "IX(I) + 1" in
  cb "subscripted subscript rejected" true
    (Poly.affine_in ~vars:[ "I" ] (Poly.of_expr e2) = None)

let test_sym_affine () =
  let e = parse_expr "N * I + J" in
  match Poly.sym_affine_in ~vars:[ "I" ] (Poly.of_expr e) with
  | Some ([ ("I", coeff) ], _) ->
      cb "symbolic coefficient N" true
        (Poly.equal coeff (Poly.atom (Ast.Var "N")))
  | _ -> Alcotest.fail "sym_affine_in"

(* ---------------- simplify ---------------- *)

let test_simplify_identities () =
  let u = parse_unit "      X = 1" in
  let s e = Simplify.simplify u (parse_expr e) in
  Alcotest.check expr_testable "fold" (Ast.Int_const 7) (s "3 + 4");
  Alcotest.check expr_testable "x*1" (Ast.Var "I") (s "I * 1");
  Alcotest.check expr_testable "x+0" (Ast.Var "I") (s "I + 0");
  Alcotest.check expr_testable "mul by zero" (Ast.Int_const 0) (s "I * 0");
  cb "canonical equality" true
    (Simplify.equal_mod_simplify u (parse_expr "I + 2*J - 1")
       (parse_expr "2*J + I - 1"));
  cb "cancellation" true
    (Simplify.equal_mod_simplify u (parse_expr "(I + J) - J") (parse_expr "I"))

(* ---------------- constprop ---------------- *)

let test_constprop_parameter () =
  let p =
    parse
      "      PROGRAM T\n      PARAMETER (N = 8)\n      X = N * 2\n      END\n"
  in
  let p = Constprop.run p in
  match (List.hd p.Ast.p_units).u_body with
  | [ { Ast.node = Ast.Assign (_, Ast.Int_const 16); _ } ] -> ()
  | _ -> Alcotest.fail "parameter not folded"

let test_constprop_straightline () =
  let p = parse_main "      N = 4\n      M = N + 1\n      X = M * 2" in
  let p = Constprop.run p in
  match List.rev (List.hd p.Ast.p_units).u_body with
  | { Ast.node = Ast.Assign (_, Ast.Int_const 10); _ } :: _ -> ()
  | _ -> Alcotest.fail "chain not folded"

let test_constprop_kill_by_call () =
  let p =
    parse
      "      PROGRAM T\n      N = 4\n      CALL S\n      X = N\n      END\n      SUBROUTINE S\n      COMMON /C/ N\n      N = 9\n      END\n"
  in
  let p = Constprop.run p in
  let main = Ast.find_unit_exn p "T" in
  match List.rev main.u_body with
  | { Ast.node = Ast.Assign (_, Ast.Var "N"); _ } :: _ -> ()
  | _ -> Alcotest.fail "call did not kill constant"

let test_constprop_kill_in_branch () =
  let p =
    parse_main
      "      N = 4\n      IF (X .GT. 0) N = 5\n      Y = N"
  in
  let p = Constprop.run p in
  match List.rev (List.hd p.Ast.p_units).u_body with
  | { Ast.node = Ast.Assign (_, Ast.Var "N"); _ } :: _ -> ()
  | _ -> Alcotest.fail "branch did not kill constant"

let test_constprop_no_array_broadcast () =
  (* a whole-array assignment must not be treated as a scalar constant *)
  let p =
    parse_main ~decls:"      DIMENSION A(4)" "      A = 0.0\n      X = A(2)"
  in
  let p = Constprop.run p in
  match List.rev (List.hd p.Ast.p_units).u_body with
  | { Ast.node = Ast.Assign (_, Ast.Array_ref ("A", _)); _ } :: _ -> ()
  | _ -> Alcotest.fail "broadcast leaked into constprop"

(* ---------------- forward substitution ---------------- *)

let test_forward_subst_exposes_subscript () =
  let p =
    parse_main ~decls:"      DIMENSION FE(16,128)\n      DIMENSION IDB(8)"
      "      DO K = 1, 10\n        ID = IDB(2) + K\n        FE(1, ID) = 1.0\n      ENDDO"
  in
  let p = Forward_subst.run p in
  let found =
    List.exists
      (fun (a : Usedef.access) ->
        a.acc_write && a.acc_name = "FE"
        && match a.acc_index with
           | [ _; Ast.Binop (Ast.Add, _, _) ] -> true
           | _ -> false)
      (Usedef.accesses_of_stmts (List.hd p.Ast.p_units).u_body)
  in
  cb "subscript substituted" true found

let test_forward_subst_killed_by_redef () =
  let p = parse_main "      N = J + 1\n      J = 5\n      X = N" in
  let p = Forward_subst.run p in
  match List.rev (List.hd p.Ast.p_units).u_body with
  | { Ast.node = Ast.Assign (_, Ast.Var "N"); _ } :: _ -> ()
  | _ -> Alcotest.fail "def should have been killed by input redefinition"

(* ---------------- induction substitution ---------------- *)

let test_induction_simple () =
  let src =
    "      PROGRAM T\n      DIMENSION X(100)\n      I = 0\n      DO J = 1, 10\n        I = I + 1\n        X(I) = J\n      ENDDO\n      WRITE(6,*) X(10), I\n      END\n"
  in
  let p = Induction.run (parse src) in
  let u = List.hd p.Ast.p_units in
  (* the increment is gone: no write of I inside the loop *)
  let loop = List.hd (Ast.collect_loops u.u_body) in
  let writes_i =
    List.exists
      (fun (a : Usedef.access) -> a.acc_write && a.acc_name = "I")
      (Usedef.accesses_of_stmts loop.body)
  in
  cb "increment removed" false writes_i;
  (* semantics preserved *)
  Alcotest.(check string)
    "output preserved"
    (Runtime.Interp.run_program (parse src))
    (Runtime.Interp.run_program p)

let test_induction_nested_pcinit () =
  (* the PCINIT pattern: both loops become affine *)
  let src =
    "      PROGRAM T\n      DIMENSION X(100)\n      I = 0\n      DO N = 1, 5\n        DO J = 1, 4\n          I = I + 1\n          X(I) = N + J\n        ENDDO\n      ENDDO\n      WRITE(6,*) X(20), I\n      END\n"
  in
  let p = Induction.run (parse src) in
  Alcotest.(check string)
    "output preserved"
    (Runtime.Interp.run_program (parse src))
    (Runtime.Interp.run_program p)

(* ---------------- section lowering ---------------- *)

let test_sections_lowering () =
  let u =
    parse_unit ~name:"S"
      "      DIMENSION A(10), B(10)\n      A(2:5) = 1.0"
  in
  let u = Sections.run_unit u in
  match Ast.collect_loops u.u_body with
  | [ l ] ->
      Alcotest.check expr_testable "lo" (Ast.Int_const 2) l.lo;
      Alcotest.check expr_testable "hi" (Ast.Int_const 5) l.hi
  | _ -> Alcotest.fail "section not lowered to one loop"

let test_sections_broadcast () =
  let u =
    parse_unit ~name:"S" "      DIMENSION A(4,6)\n      A = 0.0"
  in
  let u = Sections.run_unit u in
  ci "two loops for rank 2" 2 (List.length (Ast.collect_loops u.u_body))

(* ---------------- by-reference CALL actuals ---------------- *)

(* Fortran passes a bare-variable actual by reference, so normalization
   must leave it a variable: a callee that writes its formal writes the
   caller's variable in every configuration. *)
let test_byref_call_actuals () =
  let sources =
    [
      "      PROGRAM T\n      X = 1.0\n      CALL S(X)\n      WRITE(6,*) X\n      END\n      SUBROUTINE S(Y)\n      Y = Y + 1.0\n      END\n";
      "      PROGRAM T\n      DIMENSION A(10)\n      DO I = 1, 10\n        K = I\n        CALL S(K)\n        A(I) = K\n      ENDDO\n      WRITE(6,*) A(1), A(10)\n      END\n      SUBROUTINE S(N)\n      INTEGER N\n      N = N * 2\n      END\n";
    ]
  in
  List.iter
    (fun src ->
      let expected = run_str src in
      List.iter
        (fun mode ->
          Core.Pipeline.reset_gensyms ();
          let r, _ = Planner.compile_source ~mode src in
          Alcotest.(check string)
            (Core.Pipeline.mode_name mode)
            expected
            (Runtime.Interp.run_program r.Core.Pipeline.res_program))
        Core.Pipeline.[ No_inlining; Conventional; Annotation_based; Demand ])
    sources

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_poly_roundtrip; prop_poly_sub_self; prop_poly_add_commutes;
      prop_poly_mul_distributes; prop_subst_var; prop_simplify_value;
    ]

let suite =
  qcheck_tests
  @ [
      ("poly: affine_in", `Quick, test_affine_in);
      ("poly: nonlinear rejected", `Quick, test_affine_in_rejects_nonlinear);
      ("poly: symbolic coefficients", `Quick, test_sym_affine);
      ("simplify: identities", `Quick, test_simplify_identities);
      ("constprop: PARAMETER", `Quick, test_constprop_parameter);
      ("constprop: straight line", `Quick, test_constprop_straightline);
      ("constprop: killed by CALL", `Quick, test_constprop_kill_by_call);
      ("constprop: killed in branch", `Quick, test_constprop_kill_in_branch);
      ("constprop: no broadcast leak", `Quick, test_constprop_no_array_broadcast);
      ("fwdsubst: exposes subscripts", `Quick, test_forward_subst_exposes_subscript);
      ("fwdsubst: killed by redef", `Quick, test_forward_subst_killed_by_redef);
      ("induction: simple", `Quick, test_induction_simple);
      ("induction: PCINIT nest", `Quick, test_induction_nested_pcinit);
      ("sections: explicit bounds", `Quick, test_sections_lowering);
      ("sections: broadcast", `Quick, test_sections_broadcast);
      ("normalize: by-reference CALL actuals", `Quick, test_byref_call_actuals);
    ]
