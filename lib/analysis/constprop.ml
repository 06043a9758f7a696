(** Constant propagation: PARAMETER constants are substituted everywhere,
    then scalar constants are propagated along straight-line code with the
    usual kill rules at control-flow joins.  One of the normalizations the
    paper's reverse-inline matcher must tolerate. *)

open Frontend
module M = Map.Make (String)
module S = Set.Make (String)

let is_const = function
  | Ast.Int_const _ | Ast.Real_const _ | Ast.Logical_const _ -> true
  | _ -> false

(* Remove from [env] everything the statements may write. *)
let kill_written env stmts =
  match Usedef.written stmts with
  | Usedef.All -> M.empty
  | Usedef.Vars w -> M.filter (fun v _ -> not (S.mem v w)) env

let subst_env env e =
  Ast.map_expr
    (function
      | Ast.Var v as e -> ( match M.find_opt v env with Some c -> c | None -> e)
      | e -> e)
    e

(** Propagate constants through a statement list; returns rewritten
    statements.  [env0] seeds the environment (PARAMETER constants). *)
let propagate_stmts u env0 stmts =
  let rec go env stmts =
    let env = ref env in
    let out =
      List.map
        (fun (s : Ast.stmt) ->
          let node =
            match s.node with
            | Ast.Assign (lv, e) ->
                let e = Simplify.simplify u (subst_env !env e) in
                let lv = Ast.map_lvalue (subst_env !env) lv in
                (match lv with
                | Ast.Lvar v when not (Ast.is_array u v) ->
                    if is_const e then env := M.add v e !env
                    else env := M.remove v !env
                | Ast.Lvar v -> env := M.remove v !env
                | Ast.Larray _ | Ast.Lsection _ -> ());
                Ast.Assign (lv, e)
            | Ast.Do_loop l ->
                let lo = Simplify.simplify u (subst_env !env l.lo) in
                let hi = Simplify.simplify u (subst_env !env l.hi) in
                let step = Simplify.simplify u (subst_env !env l.step) in
                (* inside the loop nothing written by the body (or the
                   index) may be assumed constant *)
                let env_in = M.remove l.index (kill_written !env l.body) in
                let body, _ = go env_in l.body in
                env := kill_written (M.remove l.index !env) l.body;
                Ast.Do_loop { l with lo; hi; step; body }
            | Ast.If (c, t, e) ->
                let c = Simplify.simplify u (subst_env !env c) in
                let t', _ = go !env t in
                let e', _ = go !env e in
                env := kill_written (kill_written !env t) e;
                Ast.If (c, t', e')
            | Ast.Call (n, args) ->
                (* a bare variable is passed by reference: it stays *)
                let args =
                  List.map
                    (function
                      | Ast.Var _ as v -> v
                      | a -> Simplify.simplify u (subst_env !env a))
                    args
                in
                (* a call may clobber globals and by-ref arguments *)
                env := M.empty;
                Ast.Call (n, args)
            | Ast.Print es ->
                Ast.Print (List.map (fun a -> Simplify.simplify u (subst_env !env a)) es)
            | Ast.Tagged (tag, body) ->
                let body', _ = go !env body in
                env := kill_written !env body;
                Ast.Tagged
                  ( { tag with tag_actuals = List.map (subst_env !env) tag.tag_actuals },
                    body' )
            | (Ast.Return | Ast.Stop _ | Ast.Continue) as n -> n
          in
          { s with node })
        stmts
    in
    (out, !env)
  in
  fst (go env0 stmts)

(** Evaluate PARAMETER constants of a unit to literal values. *)
let parameter_env (u : Ast.program_unit) =
  List.fold_left
    (fun env (name, e) ->
      let e' = Simplify.basic_simplify (subst_env env e) in
      if is_const e' then M.add name e' env else env)
    M.empty u.u_params_const

(** Run constant propagation over one unit. *)
let run_unit (u : Ast.program_unit) =
  Fault.point "analysis.constprop";
  let env0 = parameter_env u in
  { u with u_body = propagate_stmts u env0 u.u_body }

let run (p : Ast.program) = { Ast.p_units = List.map run_unit p.p_units }
