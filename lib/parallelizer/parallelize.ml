(** The automatic loop parallelizer (the Polaris stand-in).

    For every DO loop, innermost first, decide whether all its carried
    dependences can be disproven, privatized, or folded into reductions; if
    so (and the loop looks profitable) attach an OpenMP directive.  Loops
    containing I/O, STOP, RETURN or opaque calls stay sequential -- those
    are exactly the obstacles annotation-based inlining removes. *)

open Frontend
open Analysis
open Dependence
module S = Set.Make (String)

type config = {
  min_trip : int;  (** don't mark loops with a known trip count below this *)
  mark_nested : bool;  (** also mark parallel loops inside parallel loops *)
  trust_nonlinear : bool;
      (** ablation switch: treat unanalyzable subscripts as independent
          (unsound in general; shows the losses are analysis-side) *)
  allow_pure_functions : bool;
      (** treat invocations of {!Purity}-pure functions like intrinsics *)
}

let default_config =
  {
    min_trip = 4;
    mark_nested = true;
    trust_nonlinear = false;
    allow_pure_functions = false;
  }

type loop_report = {
  rep_unit : string;
  rep_loop_id : int;
  rep_index : string;
  rep_safe : bool;
  rep_marked : bool;
  rep_reason : string;
      (** first blocker, legacy rendering, when unsafe (see {!Verdict}) *)
  rep_private : string list;
  rep_reductions : (Ast.red_op * string) list;
  rep_peeled : bool;
  rep_verdict : Verdict.t;
      (** the structured decision: stable loop id + outcome with the
          complete blocker list (the analysis no longer bails at the
          first obstacle) *)
}

(* ------------------------------------------------------------------ *)

(* Liveness after a loop, indexed once per unit: a name is live outside
   loop [l] when it is a COMMON member or a dummy argument, or when the
   unit body accesses it in a statement that is not in [l]'s body. *)
type live_index = {
  li_global : S.t;  (** COMMON members and dummy arguments *)
  li_sids : (string, int) Hashtbl.t;
      (** name -> sid of each statement accessing it (one binding per
          access, [Hashtbl.find_all] order) *)
}

let live_index (u : Ast.program_unit) =
  let sids = Hashtbl.create 64 in
  List.iter
    (fun (a : Usedef.access) -> Hashtbl.add sids a.acc_name a.acc_sid)
    (Usedef.accesses_of_stmts u.Ast.u_body);
  {
    li_global =
      S.of_list (List.concat_map snd u.Ast.u_commons @ u.Ast.u_params);
    li_sids = sids;
  }

(* [inside] holds the sids of the loop body (see [analyze_loop]). *)
let live_outside idx inside name =
  S.mem name idx.li_global
  || List.exists
       (fun sid -> not (Hashtbl.mem (Lazy.force inside) sid))
       (Hashtbl.find_all idx.li_sids name)

(* All loops inside a body (for the positivity context). *)
let inner_loops body =
  List.rev
    (Ast.fold_stmts
       (fun acc s -> match s.Ast.node with Ast.Do_loop l -> l :: acc | _ -> acc)
       [] body)

type decision = {
  dec_private : string list;
  dec_reductions : (Ast.red_op * string) list;
  dec_peel : bool;
}

(* Rendered array reference for the deciding pair of a [Dep_cycle]
   blocker, e.g. "XDT(I-1)"; a subscript-free access is the bare name. *)
let render_ref (a : Access.t) =
  if a.ca_index = [] then a.ca_name
  else
    a.ca_name ^ "("
    ^ String.concat "," (List.map Pretty.expr_str a.ca_index)
    ^ ")"

(** Analyze one candidate loop.  Unlike the historical version, which
    raised at the first obstacle, this collects *every* blocker — a
    multi-cause loop reports all its causes, in the same detection order
    the first-bail analysis used (so the head of the list is exactly the
    blocker the old code reported). *)
let analyze_loop ?(pure = S.empty) cfg (u : Ast.program_unit) live
    (outer : Ast.do_loop list) (l : Ast.do_loop) :
    (decision, Verdict.blocker list) result =
  Fault.point "parallelizer.loop";
  let blockers = ref [] in
  let block b = blockers := b :: !blockers in
  (* first-occurrence-order dedup: a callee invoked five times is one
     blocker, reported where it first appears *)
  let dedup names =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, seen) n ->
              if S.mem n seen then (acc, seen) else (n :: acc, S.add n seen))
            ([], S.empty) names))
  in
  (* structural blockers *)
  if Usedef.has_side_exit l.body then block Verdict.Io_stmt;
  List.iter
    (fun callee -> block (Verdict.Unknown_call callee))
    (dedup (List.map fst (Usedef.calls l.body)));
  List.iter
    (fun f ->
      if not (cfg.allow_pure_functions && S.mem f pure) then
        block (Verdict.Unknown_func f))
    (dedup (Usedef.func_calls l.body));
  let inner = inner_loops l.body in
  let ctx = Ctx.make ~cunit:u ~outer ~candidate:l ~inner_loops:inner in
  let inside =
    lazy
      (let t = Hashtbl.create 64 in
       Ast.fold_stmts (fun () s -> Hashtbl.replace t s.Ast.sid ()) () l.body;
       t)
  in
  let accesses = Access.collect l.body in
  if
    List.exists
      (fun (a : Access.t) -> a.ca_write && String.equal a.ca_name l.index)
      accesses
  then block Verdict.Index_write;
  let groups = Access.by_name accesses in
  let privates = ref [] in
  let reductions = ref [] in
  let peel = ref false in
  List.iter
    (fun (name, accs) ->
      if String.equal name l.index then ()
      else
        let is_scalar_like =
          (not (Ast.is_array u name))
          || List.for_all (fun (a : Access.t) -> a.ca_index = []) accs
        in
        let writes = List.filter (fun (a : Access.t) -> a.ca_write) accs in
        let is_inner_index =
          List.exists
            (fun (il : Ast.do_loop) -> String.equal il.index name)
            inner
        in
        if writes = [] then ()
        else if is_scalar_like then begin
          match Scalars.classify u l.body name accs with
          | Scalars.Read_only -> ()
          | Scalars.Reduction op -> reductions := (op, name) :: !reductions
          | Scalars.Private ->
              privates := name :: !privates;
              (* F77 leaves a DO index undefined after loop completion,
                 so inner indices never need their last value *)
              if (not is_inner_index) && live_outside live inside name then
                peel := true
          | Scalars.Blocker why ->
              block (Verdict.Scalar_blocker { sb_name = name; sb_why = why })
        end
        else begin
          (* array: pairwise dependence tests.  Each access is interned
             exactly once ([Ddtest.mk_aref]) so the many duplicate
             references inlining produces share one memo key, and the
             pair walk is lazy in the original (i, j>=i) order: the
             witness — the first pair the tester cannot disprove, with
             the reason the conservative answer stood — is unchanged,
             but no quadratic pair list is materialized and the walk
             stops at the first carried pair. *)
          let arr = Array.of_list accs in
          let arefs =
            Array.map
              (fun (a : Access.t) ->
                Ddtest.mk_aref u ~index:a.ca_index ~inner:a.ca_inner)
              arr
          in
          let n = Array.length arr in
          let rec scan i j =
            if i >= n then None
            else if j >= n then scan (i + 1) (i + 1)
            else
              let a = arr.(i) and b = arr.(j) in
              if a.ca_write || b.ca_write then
                let carry, why =
                  Ddtest.may_carry_why ctx arefs.(i) arefs.(j)
                in
                if carry then Some (a, b, why) else scan i (j + 1)
              else scan i (j + 1)
          in
          let witness = if cfg.trust_nonlinear then None else scan 0 0 in
          match witness with
          | None -> ()
          | Some (a, b, why) ->
              let live_out = live_outside live inside name in
              if Array_private.privatizable ctx ~live_out accs then begin
                privates := name :: !privates;
                if live_out then peel := true
              end
              else begin
                block
                  (Verdict.Dep_cycle
                     {
                       dc_array = name;
                       dc_ref_a = render_ref a;
                       dc_ref_b = render_ref b;
                       dc_test = why;
                     });
                block (Verdict.Array_not_private name)
              end
        end)
    groups;
  if !peel && l.step <> Ast.Int_const 1 then block Verdict.Nonunit_peel;
  match List.rev !blockers with
  | [] ->
      Ok
        {
          dec_private = List.sort_uniq compare !privates;
          dec_reductions = List.sort_uniq compare !reductions;
          dec_peel = !peel;
        }
  | bs -> Error bs

(* Profitability: known-constant trip counts below the threshold are not
   worth a fork/join. *)
let profitable cfg u (l : Ast.do_loop) =
  let const e = Poly.to_const (Poly.of_expr (Simplify.simplify u e)) in
  match (const l.lo, const l.hi, const l.step) with
  | Some lo, Some hi, Some st when st <> 0 ->
      ((hi - lo) / st) + 1 >= cfg.min_trip
  | _ -> true

(* ------------------------------------------------------------------ *)

let rec process_stmts ~pure cfg u live outer reports stmts =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.node with
      | Ast.Do_loop l -> process_loop ~pure cfg u live outer reports s l
      | Ast.If (c, t, e) ->
          let t' = process_stmts ~pure cfg u live outer reports t in
          let e' = process_stmts ~pure cfg u live outer reports e in
          [ { s with node = Ast.If (c, t', e') } ]
      | Ast.Tagged (tag, b) ->
          let b' = process_stmts ~pure cfg u live outer reports b in
          [ { s with node = Ast.Tagged (tag, b') } ]
      | _ -> [ s ])
    stmts

and process_loop ~pure cfg u live outer reports s (l : Ast.do_loop) =
  (* inner loops first *)
  let body = process_stmts ~pure cfg u live (outer @ [ l ]) reports l.body in
  let l = { l with body } in
  let lid =
    {
      Verdict.lid_unit = u.Ast.u_name;
      lid_line = l.do_line;
      lid_index = l.index;
      lid_path = List.map (fun (o : Ast.do_loop) -> o.Ast.index) outer;
      lid_loop = l.loop_id;
    }
  in
  let analysis =
    Span.span ~cat:"parallelize" ~unit_:u.u_name ~loop:l.loop_id
      "analyze-loop" (fun () -> analyze_loop ~pure cfg u live outer l)
  in
  match analysis with
  | Error bs ->
      reports :=
        {
          rep_unit = u.u_name;
          rep_loop_id = l.loop_id;
          rep_index = l.index;
          rep_safe = false;
          rep_marked = false;
          rep_reason = Verdict.render_blocker (List.hd bs);
          rep_private = [];
          rep_reductions = [];
          rep_peeled = false;
          rep_verdict = { Verdict.v_loop = lid; v_outcome = Verdict.Serial bs };
        }
        :: !reports;
      [ { s with node = Ast.Do_loop l } ]
  | Ok dec ->
      let mark = profitable cfg u l in
      let omp =
        { Ast.omp_private = dec.dec_private; omp_reductions = dec.dec_reductions }
      in
      reports :=
        {
          rep_unit = u.u_name;
          rep_loop_id = l.loop_id;
          rep_index = l.index;
          rep_safe = true;
          rep_marked = mark;
          rep_reason = "";
          rep_private = dec.dec_private;
          rep_reductions = dec.dec_reductions;
          rep_peeled = mark && dec.dec_peel;
          rep_verdict =
            {
              Verdict.v_loop = lid;
              v_outcome =
                Verdict.Parallel
                  {
                    Verdict.par_private = dec.dec_private;
                    par_reductions = dec.dec_reductions;
                    par_peeled = mark && dec.dec_peel;
                    par_marked = mark;
                  };
            };
        }
        :: !reports;
      if not mark then [ { s with node = Ast.Do_loop l } ]
      else if dec.dec_peel then Peel.peel_last l omp
      else [ { s with node = Ast.Do_loop { l with parallel = Some omp } } ]

(* Strip directives from loops nested inside marked loops. *)
let rec strip_nested ?(inside = false) stmts =
  List.map
    (fun (s : Ast.stmt) ->
      let node =
        match s.Ast.node with
        | Ast.Do_loop l ->
            let here = inside && l.parallel <> None in
            let parallel = if here then None else l.parallel in
            let inside' = inside || l.parallel <> None in
            Ast.Do_loop
              { l with parallel; body = strip_nested ~inside:inside' l.body }
        | Ast.If (c, t, e) ->
            Ast.If (c, strip_nested ~inside t, strip_nested ~inside e)
        | Ast.Tagged (tag, b) -> Ast.Tagged (tag, strip_nested ~inside b)
        | n -> n
      in
      { s with node })
    stmts

let run_unit ?(config = default_config) ?(pure = S.empty)
    (u : Ast.program_unit) : Ast.program_unit * loop_report list =
  (* No cache reset here: memo keys carry the type signature of every
     identifier they mention (see [Dependence.Memo]), so entries are
     unit-independent and legally persist across units and inlining
     configurations — that cross-config reuse is where most of the
     cache's value lies.  Verdicts stay deterministic; only the
     per-unit hit/miss split depends on what this domain analyzed
     before (hence the bench suite pins counters single-job). *)
  Fault.point "parallelizer.unit";
  let reports = ref [] in
  let body = process_stmts ~pure config u (live_index u) [] reports u.u_body in
  let body = if config.mark_nested then body else strip_nested body in
  ({ u with u_body = body }, List.rev !reports)

(** Parallelize every unit of the program. *)
let run ?(config = default_config) (p : Ast.program) :
    Ast.program * loop_report list =
  let pure =
    if config.allow_pure_functions then Purity.pure_functions p else S.empty
  in
  let units, reports =
    List.fold_left
      (fun (us, rs) u ->
        let u', r = run_unit ~config ~pure u in
        (u' :: us, rs @ r))
      ([], []) p.p_units
  in
  ({ Ast.p_units = List.rev units }, reports)
