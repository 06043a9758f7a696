(** Core tests: annotation language parsing, annotation-based inlining
    (unknown/unique lowering, dimension-preserving argument mapping),
    reverse inlining (matching, actual extraction, fallbacks), and the
    three-phase pipeline. *)

open Frontend
open Helpers

let ci = Alcotest.(check int)
let cs = Alcotest.(check string)
let cb = Alcotest.(check bool)

(* ---------------- annotation parser ---------------- *)

let fsmp_annot =
  {|subroutine FSMP(ID, IDE) {
      XY = unknown(XYG[1, ICOND[1, ID]], NSYMM);
      IRECT = IEGEOM[ID];
      ISTRES = 0;
      if (IDEDON[IDE] == 0) {
        IDEDON[IDE] = 1;
        FE[1:NSFE, IDE] = unknown(WTDET, NSFE);
      }
      do (JN = 1:N)
        do (JM = 1:M)
          M3[JN,JM] = 0.0;
      dimension M1[L,M];
      RHSB[unique(IN, ID)] = unknown(PE[IN, ID]);
    }|}

let test_annot_parse () =
  let a = Core.Annot_parser.parse_annotation fsmp_annot in
  cs "name" "FSMP" a.an_name;
  Alcotest.(check (list string)) "params" [ "ID"; "IDE" ] a.an_params;
  ci "statement count" 7 (List.length a.an_body);
  ci "do count" 2 (Core.Annot_ast.count_dos (Core.Annot_ast.ABlock a.an_body))

let test_annot_parse_dims () =
  let a = Core.Annot_parser.parse_annotation fsmp_annot in
  match Core.Annot_ast.declared_dims a with
  | [ ("M1", [ _; _ ]) ] -> ()
  | _ -> Alcotest.fail "dimension declaration"

let test_annot_parse_multi () =
  let src = "subroutine A(X) { X = unknown(X); }\nsubroutine B() { Y = 1; }" in
  ci "two annotations" 2 (List.length (Core.Annot_parser.parse_annotations src))

let test_annot_parse_error () =
  try
    ignore (Core.Annot_parser.parse_annotation "subroutine X { garbage !!");
    Alcotest.fail "accepted garbage"
  with Core.Annot_parser.Annot_parse_error _ -> ()

(* ---------------- annotation-based inlining ---------------- *)

let matmlt_src =
  "      PROGRAM T\n      COMMON /S/ NE\n      DIMENSION PP(8,8,4), PHIT(8,8), TM1(8,8)\n      NE = 4\n      DO KS = 2, 4\n        CALL MATMLT(PP(1,1,KS-1), PHIT, TM1, NE, NE, NE)\n      ENDDO\n      WRITE(6,*) TM1(1,1)\n      END\n      SUBROUTINE MATMLT(M1, M2, M3, L, M, N)\n      DIMENSION M1(*), M2(*), M3(*)\n      DO 10 JN = 1, N\n        DO 10 JL = 1, L\n          M3(JL + L*(JN-1)) = 0.0\n 10   CONTINUE\n      DO 20 JN = 1, N\n        DO 20 JM = 1, M\n          DO 20 JL = 1, L\n            M3(JL + L*(JN-1)) = M3(JL + L*(JN-1)) + M1(JL + L*(JM-1)) * M2(JM + M*(JN-1))\n 20   CONTINUE\n      END\n"

let matmlt_annot =
  {|subroutine MATMLT(M1, M2, M3, L, M, N) {
      dimension M1[L,M], M2[M,N], M3[L,N];
      do (JN = 1:N)
        do (JL = 1:L)
          M3[JL,JN] = 0.0;
      do (JN = 1:N)
        do (JM = 1:M)
          do (JL = 1:L)
            M3[JL,JN] = M3[JL,JN] + M1[JL,JM] * M2[JM,JN];
    }|}

let test_annot_inline_dimension_mapping () =
  (* Fig. 18: M1[i,j] with actual PP(1,1,KS-1) becomes PP(i,j,KS-1) *)
  let program = parse matmlt_src in
  let annots = Core.Annot_parser.parse_annotations matmlt_annot in
  let p, st = Core.Annot_inline.run ~annots program in
  ci "one site" 1 (List.length st.sites);
  let main = Ast.find_unit_exn p "T" in
  let found = ref false in
  ignore
    (Ast.map_exprs_in_stmts
       (fun e ->
         (match e with
         | Ast.Array_ref ("PP", [ _; _; _ ]) -> found := true
         | _ -> ());
         e)
       main.u_body);
  cb "PP referenced with full rank inside region" true !found

let test_annot_inline_unknown_lowering () =
  let program =
    parse
      "      PROGRAM T\n      COMMON /W/ XY(8)\n      DO K = 1, 8\n        CALL OP(K)\n      ENDDO\n      END\n      SUBROUTINE OP(K)\n      COMMON /W/ XY(8)\n      XY(K) = K\n      END\n"
  in
  let annots =
    Core.Annot_parser.parse_annotations
      "subroutine OP(K) { XY = unknown(K, XY); }"
  in
  let p, _ = Core.Annot_inline.run ~annots program in
  let main = Ast.find_unit_exn p "T" in
  (* the lowering creates a fresh UNKANN array: stores then a read *)
  let unk_decl =
    List.exists
      (fun (d : Ast.decl) ->
        String.length d.d_name >= 6 && String.sub d.d_name 0 6 = "UNKANN")
      main.u_decls
  in
  cb "UNKANN declared" true unk_decl

let test_annot_inline_unique_lowering () =
  let program =
    parse
      "      PROGRAM T\n      COMMON /G/ R(70000)\n      DO ID = 1, 8\n        CALL SC(ID)\n      ENDDO\n      WRITE(6,*) R(1)\n      END\n      SUBROUTINE SC(ID)\n      COMMON /G/ R(70000)\n      R(2*ID) = ID\n      END\n"
  in
  let annots =
    Core.Annot_parser.parse_annotations
      "subroutine SC(ID) { R[unique(1, ID)] = unknown(ID); }"
  in
  let p, _ = Core.Annot_inline.run ~annots program in
  let main = Ast.find_unit_exn p "T" in
  (* unique(1, ID) lowers to 1 + radix*ID *)
  let found = ref false in
  ignore
    (Ast.map_exprs_in_stmts
       (fun e ->
         (match e with
         | Ast.Binop (Ast.Add, Ast.Int_const 1, Ast.Binop (Ast.Mul, Ast.Int_const 1024, Ast.Var "ID")) ->
             found := true
         | _ -> ());
         e)
       main.u_body);
  cb "radix lowering" true !found

let test_annot_skip_records_reason () =
  let program =
    parse
      "      PROGRAM T\n      DO K = 1, 8\n        CALL OP(K, 1)\n      ENDDO\n      END\n      SUBROUTINE OP(K, J)\n      COMMON /W/ XY(8)\n      XY(K) = J\n      END\n"
  in
  (* annotation has wrong arity: site skipped, call preserved *)
  let annots =
    Core.Annot_parser.parse_annotations "subroutine OP(K) { XY = unknown(K); }"
  in
  let p, st = Core.Annot_inline.run ~annots program in
  ci "skipped" 1 (List.length st.skipped);
  let main = Ast.find_unit_exn p "T" in
  cb "call preserved" true (Analysis.Usedef.calls main.u_body <> [])

(* ---------------- full pipeline + reverse inlining ---------------- *)

let test_pipeline_matmlt_end_to_end () =
  let program = parse matmlt_src in
  let annots = Core.Annot_parser.parse_annotations matmlt_annot in
  let r =
    Core.Pipeline.run ~annots ~mode:Core.Pipeline.Annotation_based program
  in
  (* reverse inlining restored the CALL *)
  let main = Ast.find_unit_exn r.res_program "T" in
  (match Analysis.Usedef.calls main.u_body with
  | [ ("MATMLT", args) ] -> ci "six actuals" 6 (List.length args)
  | _ -> Alcotest.fail "call not restored");
  (* no tagged regions or compiler temporaries survive *)
  let clean =
    Ast.fold_stmts
      (fun acc s -> acc && match s.Ast.node with Ast.Tagged _ -> false | _ -> true)
      true main.u_body
  in
  cb "no tags remain" true clean;
  (match r.res_reverse_stats with
  | Some st ->
      cb "everything matched" true (st.fallback = []);
      ci "no extraction mismatch" 0 st.extracted_mismatch
  | None -> Alcotest.fail "no reverse stats");
  (* semantics *)
  cs "output" (run_str matmlt_src)
    (Runtime.Interp.run_program ~threads:4 r.res_program)

let test_pipeline_annotation_size_restored () =
  (* code size after annotation-based inlining ~ original (directives only) *)
  let program = parse matmlt_src in
  let annots = Core.Annot_parser.parse_annotations matmlt_annot in
  let base = Core.Pipeline.run ~annots ~mode:Core.Pipeline.No_inlining program in
  let r =
    Core.Pipeline.run ~annots ~mode:Core.Pipeline.Annotation_based program
  in
  cb "size unchanged up to peeling" true
    (abs (r.res_code_size - base.res_code_size) * 10 <= base.res_code_size)

let test_reverse_extracts_forward_substituted_actual () =
  (* ID = IDB(S) + K is forward-substituted into the region; unification
     must still recover a correct actual *)
  let src =
    "      PROGRAM T\n      COMMON /M/ IDB(4), FE(16,64)\n      IDB(2) = 7\n      DO K = 1, 8\n        ID = IDB(2) + K\n        CALL EL(ID)\n      ENDDO\n      WRITE(6,*) FE(1,9)\n      END\n      SUBROUTINE EL(ID)\n      COMMON /M/ IDB(4), FE(16,64)\n      DO I = 1, 16\n        FE(I,ID) = I + ID\n      ENDDO\n      END\n"
  in
  let annots =
    Core.Annot_parser.parse_annotations
      "subroutine EL(ID) { do (I = 1:16) FE[I,ID] = unknown(I, ID); }"
  in
  let program = parse src in
  let r =
    Core.Pipeline.run ~annots ~mode:Core.Pipeline.Annotation_based program
  in
  (match r.res_reverse_stats with
  | Some st -> cb "matched" true (st.matched >= 1 && st.fallback = [])
  | None -> Alcotest.fail "no stats");
  (* the K loop is the paper's gain *)
  let k_marked =
    List.exists
      (fun (rep : Parallelizer.Parallelize.loop_report) ->
        rep.rep_unit = "T" && rep.rep_index = "K" && rep.rep_marked)
      r.res_reports
  in
  cb "K loop parallelized" true k_marked;
  cs "output preserved" (run_str src)
    (Runtime.Interp.run_program ~threads:4 r.res_program)

let test_reverse_fallback_on_unregistered () =
  (* a tagged region whose annotation disappears still reverts via the
     recorded actuals *)
  let program = parse matmlt_src in
  let annots = Core.Annot_parser.parse_annotations matmlt_annot in
  let p, _ = Core.Annot_inline.run ~annots program in
  let p, st = Core.Reverse.run ~cfg:Core.Annot_inline.default_config ~annots:[] p in
  ci "fallback used" 1 (List.length st.fallback);
  let main = Ast.find_unit_exn p "T" in
  cb "call restored anyway" true (Analysis.Usedef.calls main.u_body <> [])

let test_pipeline_modes_distinct () =
  (* sanity: the three modes differ in the expected direction on MDG *)
  let b = Perfect.Mdg.bench in
  let program = Perfect.Bench_def.parse b in
  let annots = Perfect.Bench_def.annots b in
  let base = Core.Pipeline.run ~annots ~mode:Core.Pipeline.No_inlining program in
  let conv = Core.Pipeline.run ~annots ~mode:Core.Pipeline.Conventional program in
  let ann = Core.Pipeline.run ~annots ~mode:Core.Pipeline.Annotation_based program in
  let n r = List.length r.Core.Pipeline.res_marked in
  cb "annotation finds most" true (n ann > n base);
  cb "conventional loses" true (n conv < n base + 3)

let test_mode_names () =
  List.iter
    (fun (name, want) ->
      cb (name ^ " parses") true (Core.Pipeline.mode_of_string name = Ok want))
    Core.Pipeline.
      [
        ("none", No_inlining);
        ("no-inlining", No_inlining);
        ("conventional", Conventional);
        ("annotation", Annotation_based);
        ("annotation-based", Annotation_based);
        ("demand", Demand);
        ("demand-driven", Demand);
      ];
  cb "typo rejected" true
    (Core.Pipeline.mode_of_string "typo" = Error "unknown mode \"typo\"")

let suite =
  [
    ("annot: parse FSMP", `Quick, test_annot_parse);
    ("annot: dimension decls", `Quick, test_annot_parse_dims);
    ("annot: multiple subroutines", `Quick, test_annot_parse_multi);
    ("annot: parse error", `Quick, test_annot_parse_error);
    ("inline: dimension mapping", `Quick, test_annot_inline_dimension_mapping);
    ("inline: unknown lowering", `Quick, test_annot_inline_unknown_lowering);
    ("inline: unique lowering", `Quick, test_annot_inline_unique_lowering);
    ("inline: skip + preserve call", `Quick, test_annot_skip_records_reason);
    ("pipeline: MATMLT end-to-end", `Quick, test_pipeline_matmlt_end_to_end);
    ("pipeline: size restored", `Quick, test_pipeline_annotation_size_restored);
    ("reverse: forward-substituted actuals", `Quick,
     test_reverse_extracts_forward_substituted_actual);
    ("reverse: fallback", `Quick, test_reverse_fallback_on_unregistered);
    ("pipeline: mode ordering", `Quick, test_pipeline_modes_distinct);
    ("mode names parse in one place", `Quick, test_mode_names);
  ]
