(** Forward substitution of scalar definitions into later uses.

    Polaris forward-substitutes scalars so that array subscripts expose
    their structure to dependence analysis; e.g. with FSMP inlined into
    DYFESM's main loop,

      ID = IDBEGS(ISS) + K
      FE(I,ID) = FE(I,ID) * 0.5 + ...

    becomes [FE(I,IDBEGS(ISS) + K) = ...], making the subscript's
    linearity in [K] visible.  The defining assignment is kept (it is
    semantically harmless); dead-store removal is not this pass's job.
    A bare variable passed to a CALL is left alone: Fortran passes it by
    reference, so [CALL FSMP(ID, K)] keeps [ID] for the callee to read
    and write.

    A definition [v = rhs] is propagated into following statements of the
    same block -- descending into nested loops/ifs -- until [v] or any
    variable read by [rhs] (array bases included) is (possibly) rewritten.
    Substitution into a nested construct requires the whole construct to
    leave [v] and the rhs inputs untouched. *)

open Frontend
module S = Set.Make (String)

let max_rhs_size = 30
let expr_size e = Ast.fold_expr (fun n _ -> n + 1) 0 e

(* Substitute inside the subscripts of an lvalue, never its base name. *)
let subst_lvalue f = function
  | Ast.Lvar v -> Ast.Lvar v
  | Ast.Larray (a, idx) -> Ast.Larray (a, List.map f idx)
  | Ast.Lsection (a, bounds) ->
      Ast.Lsection
        ( a,
          List.map
            (fun (x, y, z) ->
              let g = Option.map f in
              (g x, g y, g z))
            bounds )

(* rhs is pure: only reads, intrinsic calls allowed. *)
let pure_rhs e =
  Ast.fold_expr
    (fun ok sub ->
      ok
      &&
      match sub with
      | Ast.Func_call (f, _) -> Intrinsics.is_intrinsic f
      | Ast.Section _ -> false
      | _ -> true)
    true e

type def = { dv : string; drhs : Ast.expr; dinputs : S.t }

let kills (w : Usedef.write_set) (d : def) =
  Usedef.mem d.dv w || S.exists (fun v -> Usedef.mem v w) d.dinputs

let subst_defs defs e =
  Ast.map_expr
    (function
      | Ast.Var v as e -> (
          match List.find_opt (fun d -> String.equal d.dv v) defs with
          | Some d -> d.drhs
          | None -> e)
      | e -> e)
    e

(* Process a block: thread the list of live definitions through the
   statements, substituting as we go. *)
let rec process_block u (defs : def list) (stmts : Ast.stmt list) :
    Ast.stmt list =
  match stmts with
  | [] -> []
  | s :: rest ->
      let s', defs' = process_stmt u defs s in
      s' :: process_block u defs' rest

and process_stmt u defs (s : Ast.stmt) : Ast.stmt * def list =
  let sub e = Simplify.simplify u (subst_defs defs e) in
  match s.node with
  | Ast.Assign (lv, e) ->
      let e = sub e in
      let lv = subst_lvalue sub lv in
      let name = Ast.lvalue_name lv in
      let w = Usedef.Vars (S.singleton name) in
      let defs = List.filter (fun d -> not (kills w d)) defs in
      let defs =
        match lv with
        | Ast.Lvar v
          when (not (Ast.is_array u v))
               && pure_rhs e
               && expr_size e <= max_rhs_size
               && not (S.mem v (S.of_list (Ast.expr_vars e))) ->
            { dv = v; drhs = e; dinputs = S.of_list (Ast.expr_vars e) } :: defs
        | _ -> defs
      in
      ({ s with node = Ast.Assign (lv, e) }, defs)
  | Ast.Do_loop l ->
      let w = Invariance.loop_writes l in
      (* defs that survive the whole loop may be substituted inside *)
      let live = List.filter (fun d -> not (kills w d)) defs in
      let body = process_block u live l.body in
      let node =
        Ast.Do_loop
          { l with lo = sub l.lo; hi = sub l.hi; step = sub l.step; body }
      in
      ({ s with node }, live)
  | Ast.If (c, t, e) ->
      let wt = Usedef.written t and we = Usedef.written e in
      let live_t = List.filter (fun d -> not (kills wt d)) defs in
      let live_e = List.filter (fun d -> not (kills we d)) defs in
      let t' = process_block u live_t t in
      let e' = process_block u live_e e in
      let keep =
        List.filter (fun d -> not (kills wt d) && not (kills we d)) defs
      in
      ({ s with node = Ast.If (sub c, t', e') }, keep)
  | Ast.Call (n, args) ->
      (* after a call with unknown effects nothing survives *)
      let actual = function Ast.Var _ as v -> v | a -> sub a in
      ({ s with node = Ast.Call (n, List.map actual args) }, [])
  | Ast.Print es -> ({ s with node = Ast.Print (List.map sub es) }, defs)
  | Ast.Tagged (tag, body) ->
      let w = Usedef.written body in
      let live = List.filter (fun d -> not (kills w d)) defs in
      let body' = process_block u live body in
      (* keep the recorded actuals consistent with the substituted body,
         which saw only the definitions live across the region *)
      let sub_live e = Simplify.simplify u (subst_defs live e) in
      let tag = { tag with Ast.tag_actuals = List.map sub_live tag.tag_actuals } in
      ({ s with node = Ast.Tagged (tag, body') }, live)
  | Ast.Return | Ast.Stop _ | Ast.Continue -> (s, defs)

let run_unit (u : Ast.program_unit) =
  Fault.point "analysis.forward_subst";
  { u with u_body = process_block u [] u.u_body }

let run (p : Ast.program) = { Ast.p_units = List.map run_unit p.p_units }
