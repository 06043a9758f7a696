(** Verdict-guided, demand-driven inlining planner.

    The paper's central claim is that inlining pays off for
    parallelization only when it is *targeted*: whole-program inlining
    explodes code size while most call sites never block a loop.  PR 4's
    verdicts record, per serial loop, exactly which callee is the opaque
    blocker, and PR 5's unit-independent dependence memo cache makes
    re-analysis nearly free — only the newly inlined regions miss.  This
    module closes that loop, in the spirit of Way & Pollock's
    demand-driven, region-based inlining:

    {ol
    {- Analyze the pristine program ([Pipeline.Demand] = no inlining).}
    {- Collect the callees named by [Unknown_call]/[Unknown_func]
       blockers on still-serial loops of the {e original} program.}
    {- For each such callee pick the inlining method the blocker
       demands: annotation-style when an annotation exists for it,
       conventional when the unit passes the Polaris eligibility
       heuristics; refuse (with a structured [Diag.Plan] warning)
       recursive callees, undefined callees, and selections that would
       push the statement count past [growth_budget × base].}
    {- Probe the surviving candidate through the (memoized) analysis
       and refuse it if it would {e lose} any loop that is currently
       parallel — the conventional-inlining damage of the paper's
       Section II-A never enters a demand plan — or if it makes no
       progress (resolves no opaque-call blocker, parallelizes
       nothing).}
    {- Re-instantiate the selection from the pristine program,
       re-analyze through the memoized dependence layer, attribute every
       newly parallel loop to the round and callee that unlocked it, and
       iterate until no blocker is resolvable, the budget is exhausted,
       or [max_rounds] is hit.}}

    The selection only ever grows and every callee is probed at most
    once, so the fixpoint terminates.  Determinism: the candidate order
    is a pure function of the verdicts (blocked-loop count, then name),
    so the plan is identical across [--jobs] shardings.

    Chaos points: ["planner.plan"] (entry — a fault degrades demand to
    the unplanned baseline), ["planner.round"] (a faulting round stops
    with the partial plan), ["planner.select"] (a faulting probe refuses
    that candidate and planning continues).  All degradation flows
    through the [Diag] ladder as [Plan]-coded warnings. *)

open Frontend
module S = Set.Make (String)
module Verdict = Parallelizer.Verdict
module Pipeline = Core.Pipeline

(* Live telemetry for the fixpoint: round count/duration plus the
   commit/refusal split (no-ops unless a Metrics registry is armed). *)
let m_rounds =
  Metrics.counter "parinline_planner_rounds_total"
    ~help:"demand-driven planning rounds executed"

let m_commits =
  Metrics.counter "parinline_planner_commits_total"
    ~help:"planner selections committed after a successful probe"

let m_refusals =
  Metrics.counter "parinline_planner_refusals_total"
    ~help:"planner candidates refused"

let m_round_seconds =
  Metrics.histogram "parinline_planner_round_seconds"
    ~help:"wall time per planning round"

(** How a selected callee is inlined. *)
type meth = Conventional_site | Annotation_site

let meth_name = function
  | Conventional_site -> "conventional"
  | Annotation_site -> "annotation"

(** A callee committed into the selection. *)
type chosen = {
  ch_callee : string;
  ch_method : meth;
  ch_loops : string list;  (** structural keys of the loops it blocked *)
}

(** A candidate rejected, permanently (the program only grows, so a
    refusal can never become viable later). *)
type refusal = { rf_callee : string; rf_why : string; rf_loops : string list }

(** One loop's parallelization attributed to the planning step that
    unlocked it. *)
type attribution = {
  at_loop : int;  (** stable loop id *)
  at_key : string;  (** structural key, ["UNIT:PATH@LINE"] *)
  at_round : int;  (** 1-based planning round *)
  at_callee : string;  (** the inlined callee credited *)
}

type round = {
  rn_round : int;  (** 1-based *)
  rn_chosen : chosen list;
  rn_refused : refusal list;
  rn_resolved : attribution list;  (** loops newly parallel this round *)
  rn_remaining : int;  (** call-blocked original loops still serial *)
  rn_stmts : int;  (** statement count after this round's inlining *)
  rn_growth : float;  (** [rn_stmts / base] *)
}

type plan = {
  pl_budget : float;  (** the growth budget the plan ran under *)
  pl_budget_exhausted : bool;  (** some selection was refused over budget *)
  pl_max_rounds : int;
  pl_base_stmts : int;
  pl_final_stmts : int;
  pl_growth : float;
  pl_rounds : round list;  (** in planning order *)
  pl_sites : int;  (** call sites actually inlined in the final program *)
  pl_callees : (string * meth) list;  (** final selection, sorted *)
  pl_resolved : attribution list;  (** all rounds' resolutions, in order *)
  pl_remaining : (string * string list) list;
      (** structural loop key → blocker callees still opaque at the end *)
}

let default_growth_budget = 2.0
let default_max_rounds = 8

(* Same backtrace-preserving re-raise discipline as the pipeline's
   salvage barriers: collector control flow is never swallowed. *)
let reraise e = Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

let bt_string () =
  Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())

(* The still-serial loops of the original program whose blocker list
   names at least one opaque callee: loop id → (structural key, callee
   names).  Order follows the verdict map (analysis order). *)
let call_blocked ~original (res : Pipeline.result) :
    (int * (string * string list)) list =
  List.filter_map
    (fun (id, v) ->
      if not (List.mem id original) then None
      else
        match
          List.sort_uniq compare
            (List.filter_map
               (function
                 | Verdict.Unknown_call c | Verdict.Unknown_func c -> Some c
                 | _ -> None)
               (Verdict.blockers v))
        with
        | [] -> None
        | cs -> Some (id, (Verdict.key v.Verdict.v_loop, cs)))
    (Pipeline.verdict_map res)

(* Candidates of one round: blocker callees grouped over the blocked
   loops, most-blocking first (ties by name) — a deterministic order
   independent of hashing and sharding. *)
let candidates (blocked : (int * (string * string list)) list) :
    (string * string list) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, (key, callees)) ->
      List.iter
        (fun c ->
          let ks = Option.value ~default:[] (Hashtbl.find_opt tbl c) in
          Hashtbl.replace tbl c (key :: ks))
        callees)
    blocked;
  Hashtbl.fold (fun c ks acc -> (c, List.rev ks) :: acc) tbl []
  |> List.sort (fun (c1, k1) (c2, k2) ->
         match compare (List.length k2) (List.length k1) with
         | 0 -> compare c1 c2
         | n -> n)

(* [name] can reach itself through the static call graph of the pristine
   program.  Checked on the real unit even for annotated callees: an
   annotation body is call-free, but committing a recursive callee would
   misrepresent a nonterminating expansion as resolved. *)
let recursive (program : Ast.program) (name : string) : bool =
  let callees (u : Ast.program_unit) =
    List.map fst (Analysis.Usedef.calls u.Ast.u_body)
    @ Analysis.Usedef.func_calls u.Ast.u_body
  in
  match Ast.find_unit program name with
  | None -> false
  | Some u0 ->
      let rec visit seen n =
        if S.mem n seen then seen
        else
          match Ast.find_unit program n with
          | None -> S.add n seen
          | Some u -> List.fold_left visit (S.add n seen) (callees u)
      in
      S.mem name (List.fold_left visit S.empty (callees u0))

(** Run the planner over a parsed program.  Returns the final analysis
    result (the inlined, normalized, parallelized, reverse-restored
    program — [res_mode = Demand]) together with the {!plan} trace.

    [dg] accumulates every diagnostic across rounds; pass the collector
    that already holds parse diagnostics to get one unified salvage
    record.  With [~validate:true] only the {e final} program runs under
    the validation oracle — intermediate rounds never pay for it. *)
let run ?(growth_budget = default_growth_budget)
    ?(max_rounds = default_max_rounds) ?par_config ?inline_config
    ?annot_config ?(annots : Core.Annot_ast.annotation list = [])
    ?(dg = Diag.collector ()) ?(validate = false) ?validate_threads
    (pristine : Ast.program) : Pipeline.result * plan =
  let icfg =
    Option.value ~default:Inliner.Inline.default_config inline_config
  in
  let acfg =
    Option.value ~default:Core.Annot_inline.default_config annot_config
  in
  let selected_annots sel =
    List.filter
      (fun (a : Core.Annot_ast.annotation) -> S.mem a.an_name sel)
      annots
  in
  (* Annotation-instantiation failures repeat identically on every probe
     (each one re-instantiates from the pristine program); warn once. *)
  let warned = Hashtbl.create 8 in
  let instantiate sel_annot sel_conv : Ast.program * int =
    let program, asites =
      if S.is_empty sel_annot then (pristine, 0)
      else begin
        let p, st =
          Core.Annot_inline.run ~config:acfg ~robust:true
            ~annots:(selected_annots sel_annot) pristine
        in
        List.iter
          (fun ((caller, callee, why) as k) ->
            if not (Hashtbl.mem warned k) then begin
              Hashtbl.add warned k ();
              Diag.warn dg ~unit_:caller Diag.Annot
                "annotation for %s failed to instantiate in %s (%s); call \
                 site left un-inlined"
                callee caller why
            end)
          st.Core.Annot_inline.failed;
        (p, List.length st.Core.Annot_inline.sites)
      end
    in
    let program, csites =
      if S.is_empty sel_conv then (program, 0)
      else
        let p, st = Inliner.Inline.run ~config:icfg ~only:sel_conv program in
        (p, List.length st.Inliner.Inline.inlined_calls)
    in
    (program, asites + csites)
  in
  (* One unit table for every analysis of this plan: a probe re-analyzes
     only the units its inlining changed. *)
  let units = Pipeline.unit_table () in
  let analyze ?(validate = false) ~sel_annot program =
    Pipeline.run_robust ?par_config ~annot_config:acfg
      ~annots:(selected_annots sel_annot) ~dg ~validate ?validate_threads
      ~units ~mode:Pipeline.Demand program
  in
  let enabled =
    match Fault.point "planner.plan" with
    | () -> true
    | exception ((Diag.Error_limit _ | Diag.Fatal _) as e) -> reraise e
    | exception e ->
        Diag.warn dg Diag.Plan
          "planner disabled by a fault at entry (%s); demand degrades to \
           the unplanned baseline"
          (Printexc.to_string e);
        false
  in
  let base_stmts = Pipeline.stmt_count pristine in
  let limit = growth_budget *. float_of_int base_stmts in
  let base_res = analyze ~sel_annot:S.empty pristine in
  let original = base_res.Pipeline.res_original_loops in
  (* Original-program loops carrying a directive (any surviving copy
     counts) — the set the damage check keeps monotone. *)
  let marked_orig (r : Pipeline.result) =
    List.filter (fun i -> List.mem i original) r.Pipeline.res_marked
  in
  (* Opaque-call pressure: total (blocked loop, opaque callee) pairs.
     Inlining a demanded callee strictly reduces it, so "probe reduces
     pressure or marks a new loop" is the planner's progress measure. *)
  let pressure (r : Pipeline.result) =
    List.fold_left
      (fun n (_, (_, cs)) -> n + List.length cs)
      0
      (call_blocked ~original r)
  in
  (* Monotone state: selections only grow, refusals are permanent. *)
  let sel_annot = ref S.empty and sel_conv = ref S.empty in
  let refused_ever = Hashtbl.create 8 in
  let cur_prog = ref pristine in
  let cur_res = ref base_res in
  let cur_sites = ref 0 in
  let last_stmts = ref base_stmts in
  let rounds = ref [] in
  let resolved_all = ref [] in
  let budget_exhausted = ref false in
  let stopped = ref (not enabled) in
  let round_no = ref 0 in
  while (not !stopped) && !round_no < max_rounds do
    incr round_no;
    Metrics.incr m_rounds;
    let round_t0 = Prof.monotonic_ns () in
    let observe_round () =
      if Metrics.on () then
        Metrics.observe_ns m_round_seconds
          (Int64.to_int (Int64.sub (Prof.monotonic_ns ()) round_t0))
    in
    match
      Fault.point "planner.round";
      let blocked = call_blocked ~original !cur_res in
      let cands = candidates blocked in
      let chosen = ref [] and refusals = ref [] in
      let commits = ref 0 in
      let refuse callee keys why =
        Metrics.incr m_refusals;
        Hashtbl.replace refused_ever callee ();
        Diag.warn dg Diag.Plan
          "round %d: callee %s refused (%s); %d blocked loop(s) stay serial"
          !round_no callee why (List.length keys);
        refusals :=
          { rf_callee = callee; rf_why = why; rf_loops = keys } :: !refusals
      in
      List.iter
        (fun (callee, keys) ->
          if
            S.mem callee !sel_annot || S.mem callee !sel_conv
            || Hashtbl.mem refused_ever callee
          then ()
          else
            let outcome =
              try
                Fault.point "planner.select";
                let meth =
                  if recursive pristine callee then
                    Error "recursive call chain; inlining would not terminate"
                  else if
                    List.exists
                      (fun (a : Core.Annot_ast.annotation) ->
                        String.equal a.an_name callee)
                      annots
                  then Ok Annotation_site
                  else
                    match Ast.find_unit pristine callee with
                    | None -> Error "no definition in this program"
                    | Some u -> (
                        match Inliner.Inline.eligibility icfg u with
                        | Some why ->
                            Error
                              ("ineligible for conventional inlining: " ^ why)
                        | None -> Ok Conventional_site)
                in
                match meth with
                | Error why -> `Refuse why
                | Ok m ->
                    let sa =
                      if m = Annotation_site then S.add callee !sel_annot
                      else !sel_annot
                    in
                    let sc =
                      if m = Conventional_site then S.add callee !sel_conv
                      else !sel_conv
                    in
                    let prog, sites = instantiate sa sc in
                    let stmts = Pipeline.stmt_count prog in
                    if float_of_int stmts > limit then begin
                      budget_exhausted := true;
                      `Refuse
                        (Printf.sprintf
                           "over growth budget: %d stmts would exceed %.2fx \
                            of the %d-stmt baseline"
                           stmts growth_budget base_stmts)
                    end
                    else begin
                      (* the probe: re-analyze the tentative selection
                         through the memoized dependence layer and keep
                         the parallel set monotone *)
                      let res = analyze ~sel_annot:sa prog in
                      let before = marked_orig !cur_res in
                      let after = marked_orig res in
                      let lost =
                        List.filter (fun i -> not (List.mem i after)) before
                      in
                      let gained =
                        List.filter (fun i -> not (List.mem i before)) after
                      in
                      if lost <> [] then
                        `Refuse
                          (Printf.sprintf
                             "would lose %d currently-parallel loop(s) \
                              (inlining damage)"
                             (List.length lost))
                      else if
                        gained = [] && pressure res >= pressure !cur_res
                      then
                        `Refuse
                          "no progress: resolves no opaque-call blocker and \
                           parallelizes nothing"
                      else `Commit (m, sa, sc, prog, sites, stmts, res)
                    end
              with
              | (Diag.Error_limit _ | Diag.Fatal _) as e -> reraise e
              | e ->
                  `Refuse
                    (Printf.sprintf "selection probe crashed (%s)"
                       (Printexc.to_string e))
            in
            match outcome with
            | `Refuse why -> refuse callee keys why
            | `Commit (m, sa, sc, prog, sites, stmts, res) ->
                sel_annot := sa;
                sel_conv := sc;
                cur_prog := prog;
                cur_sites := sites;
                last_stmts := stmts;
                cur_res := res;
                Metrics.incr m_commits;
                incr commits;
                chosen :=
                  { ch_callee = callee; ch_method = m; ch_loops = keys }
                  :: !chosen)
        cands;
      if !commits = 0 then begin
        (* Fixpoint: every remaining blocker is unresolvable. *)
        stopped := true;
        if !refusals <> [] then
          rounds :=
            {
              rn_round = !round_no;
              rn_chosen = [];
              rn_refused = List.rev !refusals;
              rn_resolved = [];
              rn_remaining = List.length blocked;
              rn_stmts = !last_stmts;
              rn_growth = float_of_int !last_stmts /. float_of_int base_stmts;
            }
            :: !rounds
      end
      else begin
        (* The last committed probe's analysis IS the round's state:
           commits update [cur_res] as they land, so no extra pass. *)
        let res = !cur_res in
        let vm = Pipeline.verdict_map res in
        let chosen_names = List.rev_map (fun c -> c.ch_callee) !chosen in
        let resolved =
          List.filter_map
            (fun (id, (key, callees)) ->
              match List.assoc_opt id vm with
              | Some v when Verdict.is_marked v ->
                  let callee =
                    match
                      List.find_opt
                        (fun c -> List.mem c callees)
                        chosen_names
                    with
                    | Some c -> c
                    | None -> (
                        match chosen_names with c :: _ -> c | [] -> "?")
                  in
                  Some
                    {
                      at_loop = id;
                      at_key = key;
                      at_round = !round_no;
                      at_callee = callee;
                    }
              | _ -> None)
            blocked
        in
        resolved_all := !resolved_all @ resolved;
        let remaining = List.length (call_blocked ~original res) in
        rounds :=
          {
            rn_round = !round_no;
            rn_chosen = List.rev !chosen;
            rn_refused = List.rev !refusals;
            rn_resolved = resolved;
            rn_remaining = remaining;
            rn_stmts = !last_stmts;
            rn_growth = float_of_int !last_stmts /. float_of_int base_stmts;
          }
          :: !rounds;
        if remaining = 0 then stopped := true
      end
    with
    | () -> observe_round ()
    | exception ((Diag.Error_limit _ | Diag.Fatal _) as e) ->
        observe_round ();
        reraise e
    | exception e ->
        observe_round ();
        let backtrace = bt_string () in
        Diag.warn dg ~backtrace Diag.Plan
          "planning round %d faulted (%s); stopping with the partial plan"
          !round_no (Printexc.to_string e);
        stopped := true
  done;
  let final_res =
    if validate then analyze ~validate:true ~sel_annot:!sel_annot !cur_prog
    else
      (* refresh the salvage record: refusal warnings of the terminal
         fixpoint scan postdate the last analysis *)
      { !cur_res with Pipeline.res_diags = Diag.to_list dg }
  in
  let remaining_list =
    List.map
      (fun (_, (key, callees)) -> (key, callees))
      (call_blocked ~original final_res)
  in
  let callees_sel =
    List.sort compare
      (List.map (fun c -> (c, Annotation_site)) (S.elements !sel_annot)
      @ List.map (fun c -> (c, Conventional_site)) (S.elements !sel_conv))
  in
  ( final_res,
    {
      pl_budget = growth_budget;
      pl_budget_exhausted = !budget_exhausted;
      pl_max_rounds = max_rounds;
      pl_base_stmts = base_stmts;
      pl_final_stmts = !last_stmts;
      pl_growth = float_of_int !last_stmts /. float_of_int base_stmts;
      pl_rounds = List.rev !rounds;
      pl_sites = !cur_sites;
      pl_callees = callees_sel;
      pl_resolved = !resolved_all;
      pl_remaining = remaining_list;
    } )

(* ------------------------------------------------------------------ *)
(* One entry for the four configurations                                *)
(* ------------------------------------------------------------------ *)

(** Compile a parsed program under one of the four configurations — the
    path the CLI, the daemon, the suite driver and the fuzz harness all
    share.  [Demand] plans through {!run}; the three pipeline modes run
    {!Pipeline.run_robust}, or {!Pipeline.run} with [~strict:true] (the
    first fault raises; no validation).  The plan is [Some] exactly for
    [Demand]. *)
let compile ?(strict = false) ?growth_budget ?max_rounds ?par_config ?annots
    ?dg ?validate ?validate_threads ~(mode : Pipeline.mode)
    (program : Ast.program) : Pipeline.result * plan option =
  match mode with
  | Pipeline.Demand ->
      let r, pl =
        run ?growth_budget ?max_rounds ?par_config ?annots ?dg ?validate
          ?validate_threads program
      in
      (r, Some pl)
  | mode when strict -> (Pipeline.run ?par_config ?annots ~mode program, None)
  | mode ->
      ( Pipeline.run_robust ?par_config ?annots ?dg ?validate ?validate_threads
          ~mode program,
        None )

(** {!compile} over source text, after {!Pipeline.parse_source}.  One
    error rule holds in every configuration: parse errors and analysis
    errors are each capped at [max_errors] (default
    {!Diag.default_max_errors}); the parse diagnostics lead [res_diags].
    [prof] is installed for the duration, parse included. *)
let compile_source ?prof ?strict ?growth_budget ?max_rounds ?max_errors
    ?validate ~(mode : Pipeline.mode) ?(annot_source = "") (source : string) :
    Pipeline.result * plan option =
  Prof.with_opt prof @@ fun () ->
  let dg = Diag.collector ?max_errors () in
  let program, annots, parse_diags =
    Pipeline.parse_source ?strict ?max_errors ~dg ~annot_source source
  in
  let r, pl =
    compile ?strict ?growth_budget ?max_rounds ~annots ~dg ?validate ~mode
      program
  in
  ({ r with Pipeline.res_diags = parse_diags @ r.Pipeline.res_diags }, pl)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let attribution_to_json (a : attribution) : Json.t =
  Json.Obj
    [
      ("loop", Json.Int a.at_loop);
      ("key", Json.Str a.at_key);
      ("round", Json.Int a.at_round);
      ("callee", Json.Str a.at_callee);
    ]

let round_to_json (r : round) : Json.t =
  Json.Obj
    [
      ("round", Json.Int r.rn_round);
      ( "chosen",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("callee", Json.Str c.ch_callee);
                   ("method", Json.Str (meth_name c.ch_method));
                   ( "blocked_loops",
                     Json.List (List.map (fun k -> Json.Str k) c.ch_loops) );
                 ])
             r.rn_chosen) );
      ( "refused",
        Json.List
          (List.map
             (fun rf ->
               Json.Obj
                 [
                   ("callee", Json.Str rf.rf_callee);
                   ("why", Json.Str rf.rf_why);
                   ( "blocked_loops",
                     Json.List (List.map (fun k -> Json.Str k) rf.rf_loops) );
                 ])
             r.rn_refused) );
      ("resolved", Json.List (List.map attribution_to_json r.rn_resolved));
      ("remaining", Json.Int r.rn_remaining);
      ("stmts", Json.Int r.rn_stmts);
      ("growth", Json.Float r.rn_growth);
    ]

let to_json (p : plan) : Json.t =
  Json.Obj
    [
      ("growth_budget", Json.Float p.pl_budget);
      ("budget_exhausted", Json.Bool p.pl_budget_exhausted);
      ("max_rounds", Json.Int p.pl_max_rounds);
      ("base_stmts", Json.Int p.pl_base_stmts);
      ("final_stmts", Json.Int p.pl_final_stmts);
      ("growth", Json.Float p.pl_growth);
      ("rounds", Json.List (List.map round_to_json p.pl_rounds));
      ("sites_inlined", Json.Int p.pl_sites);
      ( "callees",
        Json.List
          (List.map
             (fun (c, m) ->
               Json.Obj
                 [ ("name", Json.Str c); ("method", Json.Str (meth_name m)) ])
             p.pl_callees) );
      ("resolved", Json.List (List.map attribution_to_json p.pl_resolved));
      ( "remaining",
        Json.List
          (List.map
             (fun (key, cs) ->
               Json.Obj
                 [
                   ("loop", Json.Str key);
                   ( "blocked_by",
                     Json.List (List.map (fun c -> Json.Str c) cs) );
                 ])
             p.pl_remaining) );
    ]

let render (p : plan) : string =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "plan: %d round(s), %d site(s) inlined, growth %.2fx (budget %.2fx over \
     %d stmts)%s\n"
    (List.length p.pl_rounds)
    p.pl_sites p.pl_growth p.pl_budget p.pl_base_stmts
    (if p.pl_budget_exhausted then " [budget exhausted]" else "");
  List.iter
    (fun r ->
      Printf.bprintf b "round %d: %d stmt(s) (%.2fx)\n" r.rn_round r.rn_stmts
        r.rn_growth;
      List.iter
        (fun c ->
          Printf.bprintf b "  inline %s (%s) -- demanded by %s\n" c.ch_callee
            (meth_name c.ch_method)
            (String.concat ", " c.ch_loops))
        r.rn_chosen;
      List.iter
        (fun rf -> Printf.bprintf b "  refuse %s: %s\n" rf.rf_callee rf.rf_why)
        r.rn_refused;
      List.iter
        (fun a ->
          Printf.bprintf b "  resolved %s (loop %d)\n" a.at_key a.at_loop)
        r.rn_resolved;
      Printf.bprintf b "  %d call-blocked loop(s) remain\n" r.rn_remaining)
    p.pl_rounds;
  List.iter
    (fun (key, cs) ->
      Printf.bprintf b "remaining: %s blocked by %s\n" key
        (String.concat ", " cs))
    p.pl_remaining;
  Buffer.contents b
