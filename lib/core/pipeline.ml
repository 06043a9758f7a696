(** The compilation pipelines compared in the paper's evaluation:

    - [No_inlining]      : normalize, parallelize.
    - [Conventional]     : Polaris-default inlining, normalize, parallelize.
    - [Annotation_based] : annotation-based inlining, normalize,
                           parallelize, reverse inlining (Fig. 15).
    - [Demand]           : analysis leg of the demand-driven planner
                           ([Planner.run]).  The planner materializes its
                           current callee selection *before* calling the
                           pipeline, so the inline phase is a no-op here;
                           the reverse phase restores the selected
                           annotation regions exactly as [Annotation_based]
                           does (pass only the selected annotations).

    Normalization = constant propagation, induction-variable substitution,
    forward substitution, and a final constant-propagation sweep -- the
    transformations the reverse-inline matcher is built to tolerate. *)

open Frontend

type mode = No_inlining | Conventional | Annotation_based | Demand

let mode_name = function
  | No_inlining -> "no-inlining"
  | Conventional -> "conventional"
  | Annotation_based -> "annotation-based"
  | Demand -> "demand"

let mode_of_string = function
  | "none" | "no-inlining" -> Ok No_inlining
  | "conventional" -> Ok Conventional
  | "annotation" | "annotation-based" -> Ok Annotation_based
  | "demand" | "demand-driven" -> Ok Demand
  | m -> Error (Printf.sprintf "unknown mode %S" m)

type result = {
  res_mode : mode;
  res_program : Ast.program;  (** final optimized source *)
  res_reports : Parallelizer.Parallelize.loop_report list;
  res_marked : int list;  (** loop ids carrying a directive, deduplicated *)
  res_code_size : int;  (** non-comment line count of the output *)
  res_original_loops : int list;  (** loop ids present in the input *)
  res_inline_stats : Inliner.Inline.stats option;
  res_annot_stats : Annot_inline.stats option;
  res_reverse_stats : Reverse.stats option;
  res_diags : Diag.t list;
      (** diagnostics accumulated by {!run_robust}; [[]] from {!run} *)
  res_validation : Checker.Oracle.verdict option;
      (** oracle verdict when {!run_robust} ran with [~validate:true] *)
}

let unit_stmt_count (u : Ast.program_unit) =
  Ast.fold_stmts (fun n _ -> n + 1) 0 u.Ast.u_body

let stmt_count (p : Ast.program) =
  List.fold_left (fun n u -> n + unit_stmt_count u) 0 p.Ast.p_units

(* One pipeline phase: wall time lands in the [name] pass bucket and,
   when a span sink is armed, the phase emits a begin/end span pair.
   Both instruments are inert (a load and a branch each) when off. *)
let phase name f = Prof.time name (fun () -> Span.span ~cat:"pipeline" name f)

let normalize (p : Ast.program) : Ast.program =
  (* the count is gathered only under an installed profile; the sweep
     itself stays untouched when profiling is off *)
  if Prof.enabled () then Prof.add_stmts_normalized (stmt_count p);
  phase "normalize" (fun () ->
      p |> Analysis.Constprop.run |> Analysis.Induction.run
      |> Analysis.Forward_subst.run |> Analysis.Constprop.run)

let original_loop_ids (p : Ast.program) =
  List.concat_map
    (fun u -> List.map (fun (l : Ast.do_loop) -> l.loop_id)
        (Ast.collect_loops u.Ast.u_body))
    p.Ast.p_units

(* Units reachable from MAIN through calls and function references:
   standalone bodies of fully-inlined subroutines never execute, and the
   paper's loop accounting follows the executed code. *)
let reachable_units (p : Ast.program) =
  let module S = Set.Make (String) in
  let tbl = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace tbl u.Ast.u_name u) p.Ast.p_units;
  let rec visit seen name =
    if S.mem name seen then seen
    else
      match Hashtbl.find_opt tbl name with
      | None -> seen
      | Some u ->
          let seen = S.add name seen in
          let callees =
            List.map fst (Analysis.Usedef.calls u.Ast.u_body)
            @ Analysis.Usedef.func_calls u.Ast.u_body
          in
          List.fold_left visit seen callees
  in
  let mains =
    List.filter_map
      (fun u -> if u.Ast.u_kind = Ast.Main then Some u.Ast.u_name else None)
      p.Ast.p_units
  in
  List.fold_left visit S.empty mains

let marked_ids program reports =
  let module S = Set.Make (String) in
  let live = reachable_units program in
  List.sort_uniq compare
    (List.filter_map
       (fun (r : Parallelizer.Parallelize.loop_report) ->
         if r.rep_marked && S.mem r.rep_unit live then Some r.rep_loop_id
         else None)
       reports)

(* Representative verdict per loop id over the units reachable from
   MAIN: a marked copy wins over any serial copy, otherwise the first
   report in analysis order stands — the same "parallel anywhere live"
   rule as {!marked_ids}. *)
let verdict_map (r : result) : (int * Parallelizer.Verdict.t) list =
  let module SS = Set.Make (String) in
  let live = reachable_units r.res_program in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (rep : Parallelizer.Parallelize.loop_report) ->
      if SS.mem rep.rep_unit live then
        match Hashtbl.find_opt tbl rep.rep_loop_id with
        | None ->
            Hashtbl.add tbl rep.rep_loop_id rep.rep_verdict;
            order := rep.rep_loop_id :: !order
        | Some old ->
            if
              (not (Parallelizer.Verdict.is_marked old))
              && Parallelizer.Verdict.is_marked rep.rep_verdict
            then Hashtbl.replace tbl rep.rep_loop_id rep.rep_verdict)
    r.res_reports;
  List.rev_map (fun id -> (id, Hashtbl.find tbl id)) !order

(** Run one pipeline configuration.  With [?prof], the profile is
    installed for the duration of the run: each phase's wall time lands in
    its pass bucket and the analysis counters accumulate. *)
let run ?prof ?(par_config = Parallelizer.Parallelize.default_config)
    ?(inline_config = Inliner.Inline.default_config)
    ?(annot_config = Annot_inline.default_config)
    ?(annots : Annot_ast.annotation list = []) ~(mode : mode)
    (program : Ast.program) : result =
  Prof.with_opt prof @@ fun () ->
  let original_loops = original_loop_ids program in
  let program, inline_stats, annot_stats =
    phase "inline" (fun () ->
        match mode with
        | No_inlining | Demand -> (program, None, None)
        | Conventional ->
            let p, st = Inliner.Inline.run ~config:inline_config program in
            (p, Some st, None)
        | Annotation_based ->
            let p, st = Annot_inline.run ~config:annot_config ~annots program in
            (p, None, Some st))
  in
  let program = normalize program in
  let program, reports =
    phase "parallelize" (fun () ->
        Parallelizer.Parallelize.run ~config:par_config program)
  in
  let program, reverse_stats =
    phase "reverse" (fun () ->
        match mode with
        | Annotation_based | Demand ->
            let p, st = Reverse.run ~cfg:annot_config ~annots program in
            (p, Some st)
        | No_inlining | Conventional -> (program, None))
  in
  {
    res_mode = mode;
    res_program = program;
    res_reports = reports;
    res_marked = marked_ids program reports;
    res_code_size = Pretty.code_size program;
    res_original_loops = List.sort_uniq compare original_loops;
    res_inline_stats = inline_stats;
    res_annot_stats = annot_stats;
    res_reverse_stats = reverse_stats;
    res_diags = [];
    res_validation = None;
  }

(* ------------------------------------------------------------------ *)
(* Fault-isolated pipeline: every pass runs behind a per-unit barrier
   so one sick unit degrades locally instead of killing the program. *)

(* Every salvage barrier captures the raw backtrace first thing in its
   handler (before any allocation can clobber it): collector control
   flow is re-raised with the original trace preserved, and salvage
   diagnostics carry the rendered trace in their payload. *)
let reraise e = Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

let bt_string () =
  Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())

(* Run [f] on [u]; [None] on an unexpected exception, after recording a
   warning attributed to [pass].  [Error_limit] is the collector's own
   control flow and must not be swallowed. *)
let guard_unit dg ~code ~pass (u : Ast.program_unit)
    (f : Ast.program_unit -> Ast.program_unit) : Ast.program_unit option =
  try Some (f u) with
  | (Diag.Error_limit _ | Diag.Fatal _) as e -> reraise e
  | e ->
      let backtrace = bt_string () in
      Diag.warn dg ~unit_:u.Ast.u_name ~backtrace code
        "%s crashed on unit %s (%s); pass skipped for this unit" pass
        u.Ast.u_name (Printexc.to_string e);
      None

(* Same normalization sequence as {!normalize}, each pass guarded: a
   crashing pass restores the pre-pass body and moves on.  The flag is
   [false] when some pass crashed. *)
let normalize_unit dg (u : Ast.program_unit) : Ast.program_unit * bool =
  List.fold_left
    (fun (u, clean) (pass, f) ->
      match guard_unit dg ~code:Diag.Normalize ~pass u f with
      | Some u' -> (u', clean)
      | None -> (u, false))
    (u, true)
    [
      ("constant propagation", Analysis.Constprop.run_unit);
      ("induction substitution", Analysis.Induction.run_unit);
      ("forward substitution", Analysis.Forward_subst.run_unit);
      ("constant propagation", Analysis.Constprop.run_unit);
    ]

(* One unit as an earlier analysis of the same plan left it: the
   pre-normalization source it was keyed on, its normalized body, and
   its parallelized body and loop reports under purity set [ue_pure]. *)
type unit_entry = {
  ue_source : Ast.program_unit;
  ue_normalized : Ast.program_unit;
  ue_pure : Parallelizer.Parallelize.S.t;
  ue_parallel :
    Ast.program_unit * Parallelizer.Parallelize.loop_report list;
}

(* Entries by unit name; a name may carry several sources. *)
type unit_table = (string, unit_entry) Hashtbl.t

let unit_table () : unit_table = Hashtbl.create 16

(** Fault-tolerant variant of {!run}.  Degradation ladder:
    annotation-based inlining falls back per call site (see
    [Annot_inline.run ~robust]), then per program to conventional
    inlining, then to no inlining; a normalization pass that crashes is
    skipped for that unit with the pre-pass AST restored; a crashing
    parallelizer leaves the unit serial; a reverse-inline failure keeps
    the inlined regions.  Everything salvaged is recorded in
    [res_diags].  Pass [dg] to accumulate into an existing collector
    (e.g. one already holding parse diagnostics).  With [units], a unit
    already analyzed through that table reuses its normalized and
    parallelized body and its reports, and every cleanly analyzed unit
    is added to it. *)
let run_robust ?prof ?(par_config = Parallelizer.Parallelize.default_config)
    ?(inline_config = Inliner.Inline.default_config)
    ?(annot_config = Annot_inline.default_config)
    ?(annots : Annot_ast.annotation list = [])
    ?(dg = Diag.collector ()) ?(validate = false)
    ?(validate_threads = Checker.Oracle.default_threads) ?units
    ~(mode : mode) (program : Ast.program) : result =
  Prof.with_opt prof @@ fun () ->
  let original_loops = original_loop_ids program in
  let conventional p =
    try
      let p', st = Inliner.Inline.run ~config:inline_config p in
      (p', Some st)
    with
    | (Diag.Error_limit _ | Diag.Fatal _) as e -> reraise e
    | e ->
        let backtrace = bt_string () in
        Diag.warn dg ~backtrace Diag.Inline
          "conventional inlining failed (%s); continuing without inlining"
          (Printexc.to_string e);
        (p, None)
  in
  let program, inline_stats, annot_stats =
    phase "inline" @@ fun () ->
    match mode with
    | No_inlining | Demand -> (program, None, None)
    | Conventional ->
        let p, st = conventional program in
        (p, st, None)
    | Annotation_based -> (
        match Annot_inline.run ~config:annot_config ~robust:true ~annots
                program
        with
        | p, st ->
            List.iter
              (fun (caller, callee, why) ->
                Diag.warn dg ~unit_:caller Diag.Annot
                  "annotation for %s failed to instantiate in %s (%s); \
                   call site left un-inlined"
                  callee caller why)
              st.Annot_inline.failed;
            (p, None, Some st)
        | exception ((Diag.Error_limit _ | Diag.Fatal _) as e) -> reraise e
        | exception e ->
            let backtrace = bt_string () in
            Diag.warn dg ~backtrace Diag.Annot
              "annotation-based inlining failed (%s); falling back to \
               conventional inlining"
              (Printexc.to_string e);
            let p, st = conventional program in
            (p, st, None))
  in
  (* Each unit with its table entries (structurally equal source, sids
     and loop ids included), normalized body, and whether normalization
     ran clean.  A unit already in the table is not normalized again. *)
  let units_in =
    phase "normalize" @@ fun () ->
    List.map
      (fun u ->
        let known =
          match units with
          | None -> []
          | Some t ->
              List.filter
                (fun e -> compare e.ue_source u = 0)
                (Hashtbl.find_all t u.Ast.u_name)
        in
        match known with
        | e :: _ -> (u, known, e.ue_normalized, true)
        | [] ->
            if Prof.enabled () then
              Prof.add_stmts_normalized (unit_stmt_count u);
            let nu, clean = normalize_unit dg u in
            (u, known, nu, clean))
      program.Ast.p_units
  in
  let program, reports =
    phase "parallelize" @@ fun () ->
    let pure =
      if not par_config.Parallelizer.Parallelize.allow_pure_functions then
        Parallelizer.Parallelize.S.empty
      else
        let normalized =
          { Ast.p_units = List.map (fun (_, _, nu, _) -> nu) units_in }
        in
        try Parallelizer.Purity.pure_functions normalized with
        | (Diag.Error_limit _ | Diag.Fatal _) as e -> reraise e
        | e ->
            let backtrace = bt_string () in
            Diag.warn dg ~backtrace Diag.Parallel
              "purity analysis failed (%s); treating all functions as impure"
              (Printexc.to_string e);
            Parallelizer.Parallelize.S.empty
    in
    let us, rs =
      List.fold_left
        (fun (us, rs) (src, known, u, clean) ->
          match
            List.find_opt
              (fun e -> Parallelizer.Parallelize.S.equal e.ue_pure pure)
              known
          with
          | Some { ue_parallel = u', r; _ } -> (u' :: us, r :: rs)
          | None -> (
              match Parallelizer.Parallelize.run_unit ~config:par_config ~pure u
              with
              | (u', r) as parallel ->
                  (* a salvaged unit is never stored *)
                  (match units with
                  | Some t when clean ->
                      Hashtbl.add t src.Ast.u_name
                        {
                          ue_source = src;
                          ue_normalized = u;
                          ue_pure = pure;
                          ue_parallel = parallel;
                        }
                  | _ -> ());
                  (u' :: us, r :: rs)
              | exception ((Diag.Error_limit _ | Diag.Fatal _) as e) ->
                  reraise e
              | exception e ->
                  let backtrace = bt_string () in
                  Diag.warn dg ~unit_:u.Ast.u_name ~backtrace Diag.Parallel
                    "parallelizer crashed on unit %s (%s); unit left serial"
                    u.Ast.u_name (Printexc.to_string e);
                  (u :: us, rs)))
        ([], []) units_in
    in
    ({ Ast.p_units = List.rev us }, List.concat (List.rev rs))
  in
  let program, reverse_stats =
    phase "reverse" @@ fun () ->
    match mode with
    | No_inlining | Conventional -> (program, None)
    | Annotation_based | Demand -> (
        match Reverse.run ~cfg:annot_config ~annots program with
        | p, st ->
            List.iter
              (fun (callee, why) ->
                Diag.warn dg Diag.Reverse
                  "reverse-inline mismatch for %s (%s); region restored \
                   from recorded actuals"
                  callee why)
              st.Reverse.fallback;
            if st.Reverse.extracted_mismatch > 0 then
              Diag.warn dg Diag.Reverse
                "%d unified actual(s) disagree with recorded actuals"
                st.Reverse.extracted_mismatch;
            (p, Some st)
        | exception ((Diag.Error_limit _ | Diag.Fatal _) as e) -> reraise e
        | exception e ->
            let backtrace = bt_string () in
            Diag.warn dg ~backtrace Diag.Reverse
              "reverse inlining failed (%s); inlined regions kept"
              (Printexc.to_string e);
            (program, None))
  in
  (* Validation oracle: serial traced replay + differential parallel run
     over the optimized program.  The verdict's diagnostics join the
     salvage record; the oracle itself never raises on a bad program. *)
  let validation =
    if not validate then None
    else
      Some
        (phase "validate" (fun () ->
             Checker.Oracle.validate ~threads:validate_threads program))
  in
  let validation_diags =
    match validation with
    | None -> []
    | Some v -> v.Checker.Oracle.v_diags
  in
  {
    res_mode = mode;
    res_program = program;
    res_reports = reports;
    res_marked = marked_ids program reports;
    res_code_size = Pretty.code_size program;
    res_original_loops = List.sort_uniq compare original_loops;
    res_inline_stats = inline_stats;
    res_annot_stats = annot_stats;
    res_reverse_stats = reverse_stats;
    res_diags = Diag.to_list dg @ validation_diags;
    res_validation = validation;
  }

(** Parse source and annotation text.  Salvaging by default: units that
    fail to parse are dropped with located diagnostics (returned, capped
    at [max_errors], outside [dg]'s budget) and a rejected annotation
    file degrades to running without annotations, with an error on [dg].
    With [~strict:true] the first fault raises ({!Diag.Fatal},
    {!Annot_parser.Annot_parse_error}). *)
let parse_source ?(strict = false) ?max_errors ~dg ~annot_source
    (source : string) =
  let program, parse_diags =
    phase "parse" (fun () ->
        if strict then (Resolve.parse source, [])
        else Resolve.parse_robust ?max_errors source)
  in
  let annots =
    Prof.time "parse" @@ fun () ->
    if String.trim annot_source = "" then []
    else if strict then Annot_parser.parse_annotations annot_source
    else
      try Annot_parser.parse_annotations annot_source with
      | Annot_parser.Annot_parse_error why ->
          Diag.error dg Diag.Annot
            "annotation file rejected (%s); continuing without annotations"
            why;
          []
      | Diag.Fatal d ->
          Diag.emit dg d;
          []
  in
  (program, annots, parse_diags)

(** Reset every domain-local gensym a compilation draws from, so ids and
    generated names are a pure function of the source, independent of
    what this domain compiled before. *)
let reset_gensyms () =
  Ast.reset_ids ();
  Analysis.Sections.reset_gensym ();
  Inliner.Inline.reset_gensym ();
  Annot_inline.reset_gensym ()

(** Parallel-loop accounting for Table II: given a baseline (no-inlining)
    result and a mode result, compute (#par, #loss, #extra) counting only
    loops of the original program, a loop counting as parallelized when any
    surviving copy carries a directive. *)
let table2_counts ~(baseline : result) (r : result) : int * int * int =
  let original = baseline.res_original_loops in
  let in_original ids = List.filter (fun i -> List.mem i original) ids in
  let base = in_original baseline.res_marked in
  let mine = in_original r.res_marked in
  let loss = List.filter (fun i -> not (List.mem i mine)) base in
  let extra = List.filter (fun i -> not (List.mem i base)) mine in
  (List.length mine, List.length loss, List.length extra)
