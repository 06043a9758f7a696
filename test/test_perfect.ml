(** Suite-level integration tests: every PERFECT benchmark parses,
    validates, runs identically under all four configurations
    (sequentially and across domains), and reproduces the paper's
    Table II shape. *)

open Helpers

let ci = Alcotest.(check int)
let cb = Alcotest.(check bool)

let test_twelve_benchmarks () =
  ci "twelve applications" 12 (List.length Perfect.Suite.all)

let test_parse_validate b () =
  let p = Perfect.Bench_def.parse b in
  cb "has MAIN" true
    (List.exists (fun u -> u.Frontend.Ast.u_kind = Frontend.Ast.Main)
       p.Frontend.Ast.p_units);
  ci (b.Perfect.Bench_def.name ^ " validator issues") 0
    (List.length (Frontend.Validate.check p));
  ignore (Perfect.Bench_def.annots b)

(* One suite run shared by the Table II and output tests: the same
   compilations the bench driver reports. *)
let suite_points = lazy (Perfect.Driver.run_suite ())

let point (b : Perfect.Bench_def.t) mode =
  List.find
    (fun (p : Perfect.Driver.point) ->
      p.pt_bench = b.name && p.pt_config = mode)
    (Lazy.force suite_points)

let test_outputs_agree b () =
  cb (b.Perfect.Bench_def.name ^ " outputs agree across configs") true
    (Perfect.Experiment.outputs_agree ~threads:3 b (Lazy.force suite_points))

let test_row_invariants b () =
  let base = point b Core.Pipeline.No_inlining in
  let conv = point b Core.Pipeline.Conventional in
  let annot = point b Core.Pipeline.Annotation_based in
  (* annotation-based inlining never loses loops (the paper's claim) *)
  ci (b.Perfect.Bench_def.name ^ " annot loss") 0 annot.pt_loss;
  cb "annot par >= baseline" true (annot.pt_par >= base.pt_par);
  cb "conventional extra <= annotation extra" true
    (conv.pt_extra <= annot.pt_extra);
  (* annotation-based output size ~ input + directives, never smaller *)
  cb "annot size >= baseline" true (annot.pt_size >= base.pt_size)

let test_reverse_all_matched b () =
  if String.trim b.Perfect.Bench_def.annotations <> "" then begin
    let r =
      Core.Pipeline.run
        ~annots:(Perfect.Bench_def.annots b)
        ~mode:Core.Pipeline.Annotation_based
        (Perfect.Bench_def.parse b)
    in
    match r.res_reverse_stats with
    | Some st ->
        ci (b.Perfect.Bench_def.name ^ " fallbacks") 0 (List.length st.fallback);
        ci (b.Perfect.Bench_def.name ^ " extraction mismatches") 0
          st.extracted_mismatch
    | None -> Alcotest.fail "reverse stats missing"
  end

let test_aggregate_shape () =
  let sum mode f =
    List.fold_left (fun a b -> a + f (point b mode)) 0 Perfect.Suite.all
  in
  let conv = Core.Pipeline.Conventional
  and annot = Core.Pipeline.Annotation_based in
  let loss = sum conv (fun p -> p.pt_loss) in
  let cextra = sum conv (fun p -> p.pt_extra) in
  let aextra = sum annot (fun p -> p.pt_extra) in
  ci "paper: conventional #par-loss = 90" 90 loss;
  ci "paper: conventional #par-extra = 12" 12 cextra;
  ci "paper: annotation #par-extra = 37" 37 aextra;
  let gainers =
    List.length
      (List.filter
         (fun b -> (point b annot).pt_extra > 0)
         Perfect.Suite.all)
  in
  ci "paper: 6 of 12 benchmarks improve" 6 gainers;
  let bsize = sum Core.Pipeline.No_inlining (fun p -> p.pt_size) in
  let csize = sum conv (fun p -> p.pt_size) in
  cb "paper: conventional code grows (~10%)" true
    (csize > bsize && float_of_int csize < 1.3 *. float_of_int bsize)

let test_tuning_keeps_output () =
  let b = Perfect.Mdg.bench in
  let program = Perfect.Bench_def.parse b in
  let annots = Perfect.Bench_def.annots b in
  let r =
    Core.Pipeline.run ~annots ~mode:Core.Pipeline.Annotation_based program
  in
  let tuned = Perfect.Experiment.tune ~threads:4 r.res_program in
  Alcotest.(check string)
    "tuned output" (run_str b.source)
    (Runtime.Interp.run_program ~threads:4 tuned)

let test_projection_bounds () =
  let b = Perfect.Trfd.bench in
  let r =
    Core.Pipeline.run
      ~annots:(Perfect.Bench_def.annots b)
      ~mode:Core.Pipeline.Annotation_based
      (Perfect.Bench_def.parse b)
  in
  let t = Perfect.Experiment.projected_time ~threads:4 r.res_program in
  cb "projection positive" true (t > 0.0)

(* Fig. 20 and the output check read the suite's points, demand's
   included: one single-benchmark run covers all four programs. *)
let test_fig20_four_configs () =
  let b = Perfect.Trfd.bench in
  let points = Perfect.Driver.run_suite ~benches:[ b ] () in
  cb "outputs agree under all four configurations" true
    (Perfect.Experiment.outputs_agree ~threads:2 b points);
  let f = Perfect.Experiment.fig20_row ~threads:2 b points in
  List.iter
    (fun (label, s) ->
      cb (label ^ " speedup finite and positive") true
        (Float.is_finite s && s > 0.0))
    [
      ("no-inlining", f.f_no_inline);
      ("conventional", f.f_conventional);
      ("annotation", f.f_annotation);
      ("demand", f.f_demand);
    ]

let per_bench name f =
  List.map
    (fun (b : Perfect.Bench_def.t) ->
      (Printf.sprintf "%s: %s" name b.name, `Quick, f b))
    Perfect.Suite.all

let suite =
  [ ("suite: 12 benchmarks", `Quick, test_twelve_benchmarks) ]
  @ per_bench "parse+validate" test_parse_validate
  @ per_bench "outputs agree" test_outputs_agree
  @ per_bench "row invariants" test_row_invariants
  @ per_bench "reverse matched" test_reverse_all_matched
  @ [
      ("aggregate Table II shape", `Quick, test_aggregate_shape);
      ("tuning keeps output", `Quick, test_tuning_keeps_output);
      ("projection bounded", `Quick, test_projection_bounds);
      ( "fig20 and outputs cover the four configurations",
        `Quick,
        test_fig20_four_configs );
    ]
