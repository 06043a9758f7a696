(** Scalar classification for a candidate loop: each scalar written in the
    body is either privatizable (assigned before every use in each
    iteration), a recognized reduction, or a parallelization blocker. *)

open Frontend
module S = Set.Make (String)

type classification =
  | Read_only
  | Private
  | Reduction of Ast.red_op
  | Blocker of string

(* Does [e] mention [v] (as a variable, array, function or section
   name)?  The same names as [Ast.expr_vars], without building the list. *)
let rec mentions v (e : Ast.expr) =
  match e with
  | Ast.Int_const _ | Ast.Real_const _ | Ast.Str_const _ | Ast.Logical_const _
    ->
      false
  | Ast.Var x -> String.equal x v
  | Ast.Array_ref (a, args) | Ast.Func_call (a, args) ->
      String.equal a v || List.exists (mentions v) args
  | Ast.Binop (_, a, b) -> mentions v a || mentions v b
  | Ast.Unop (_, a) -> mentions v a
  | Ast.Section (a, bounds) ->
      String.equal a v
      || List.exists
           (fun (x, y, z) ->
             List.exists
               (function Some e -> mentions v e | None -> false)
               [ x; y; z ])
           bounds

(* Is every statement touching [v] a reduction update [v = v op e]? *)
let reduction_of u body v : Ast.red_op option =
  let op_found = ref None in
  let ok = ref true in
  let note op =
    match !op_found with
    | None -> op_found := Some op
    | Some op' -> if op <> op' then ok := false
  in
  let reads_v = mentions v in
  (* Flatten an Add/Sub chain into addends; [v] must appear exactly once,
     positively, as a direct addend: S = S + a + b - c. *)
  let sum_reduction rhs =
    let rec addends sign e acc =
      match e with
      | Ast.Binop (Ast.Add, a, b) -> addends sign a (addends sign b acc)
      | Ast.Binop (Ast.Sub, a, b) -> addends sign a (addends (-sign) b acc)
      | e -> (sign, e) :: acc
    in
    let parts = addends 1 rhs [] in
    let vs, others =
      List.partition
        (function _, Ast.Var x -> String.equal x v | _ -> false)
        parts
    in
    match vs with
    | [ (1, _) ] -> List.for_all (fun (_, e) -> not (reads_v e)) others
    | _ -> false
  in
  let rec walk stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.node with
        | Ast.Assign (Ast.Lvar v', rhs) when String.equal v v' -> (
            match rhs with
            | Ast.Binop ((Ast.Add | Ast.Sub), _, _) when sum_reduction rhs ->
                note Ast.Rsum
            | Ast.Binop (Ast.Mul, Ast.Var x, e) when String.equal x v && not (reads_v e) ->
                note Ast.Rprod
            | Ast.Binop (Ast.Mul, e, Ast.Var x) when String.equal x v && not (reads_v e) ->
                note Ast.Rprod
            | Ast.Func_call (("MAX" | "AMAX1" | "DMAX1" | "MAX0"), [ a; b ])
              when (a = Ast.Var v && not (reads_v b))
                   || (b = Ast.Var v && not (reads_v a)) ->
                note Ast.Rmax
            | Ast.Func_call (("MIN" | "AMIN1" | "DMIN1" | "MIN0"), [ a; b ])
              when (a = Ast.Var v && not (reads_v b))
                   || (b = Ast.Var v && not (reads_v a)) ->
                note Ast.Rmin
            | _ -> ok := false)
        | Ast.Assign (lv, rhs) ->
            if reads_v rhs then ok := false;
            if List.exists reads_v (Ast.lvalue_indices lv) then ok := false
        | Ast.Do_loop l ->
            if String.equal l.index v then ok := false;
            if reads_v l.lo || reads_v l.hi || reads_v l.step then ok := false;
            walk l.body
        | Ast.If (c, t, e) ->
            if reads_v c then ok := false;
            walk t;
            walk e
        | Ast.Call (_, args) -> if List.exists reads_v args then ok := false
        | Ast.Print es -> if List.exists reads_v es then ok := false
        | Ast.Tagged (_, b) -> walk b
        | Ast.Return | Ast.Stop _ | Ast.Continue -> ())
      stmts
  in
  ignore u;
  walk body;
  if !ok then !op_found else None

(* Structured definitely-assigned-before-used walk.  Returns
   (ok, assigned_after): [ok] = no read of [v] can precede an assignment
   within one iteration; [assigned_after] = v definitely assigned when the
   statements complete. *)
let rec def_before_use v assigned stmts : bool * bool =
  List.fold_left
    (fun (ok, assigned) (s : Ast.stmt) ->
      if not ok then (false, assigned)
      else
        let reads_v = mentions v in
        match s.node with
        | Ast.Assign (lv, rhs) ->
            let read =
              reads_v rhs || List.exists reads_v (Ast.lvalue_indices lv)
            in
            let ok = ok && ((not read) || assigned) in
            let assigned =
              assigned
              ||
              match lv with
              | Ast.Lvar v' -> String.equal v v'
              | _ -> false
            in
            (ok, assigned)
        | Ast.Do_loop l ->
            let bound_read = reads_v l.lo || reads_v l.hi || reads_v l.step in
            let ok = ok && ((not bound_read) || assigned) in
            let iter_assigned = String.equal l.index v in
            let body_ok, _ =
              def_before_use v (assigned || iter_assigned) l.body
            in
            (* loop may run zero times: assigned state unchanged *)
            (ok && body_ok, assigned || iter_assigned)
        | Ast.If (c, t, e) ->
            let ok = ok && ((not (reads_v c)) || assigned) in
            let ok_t, a_t = def_before_use v assigned t in
            let ok_e, a_e = def_before_use v assigned e in
            (ok && ok_t && ok_e, a_t && a_e)
        | Ast.Call (_, args) ->
            (* a call may read v through COMMON: conservative *)
            let ok = ok && ((not (List.exists reads_v args)) || assigned) in
            (ok, assigned)
        | Ast.Print es ->
            (ok && ((not (List.exists reads_v es)) || assigned), assigned)
        | Ast.Tagged (_, b) -> def_before_use v assigned b
        | Ast.Return | Ast.Stop _ | Ast.Continue -> (ok, assigned))
    (true, assigned) stmts

(** Classify scalar (or whole-array-accessed) name [v] for the candidate
    loop body; [accs] are [v]'s accesses in [body] ({!Access.collect},
    grouped by {!Access.by_name}). *)
let classify u body v (accs : Access.t list) : classification =
  let writes = List.filter (fun a -> a.Access.ca_write) accs in
  if writes = [] then Read_only
  else
    match reduction_of u body v with
    | Some op -> Reduction op
    | None ->
        let ok, _ = def_before_use v false body in
        (* Whole-array accesses mixed with element accesses: privatization
           via the scalar rule only if every access is whole-array. *)
        let uniform =
          List.for_all (fun a -> a.Access.ca_index = []) accs
          || not (Ast.is_array u v)
        in
        if ok && uniform then Private
        else if not ok then Blocker "read before write"
        else Blocker "mixed whole/element array access"
