(** Pretty-printer: emits the AST back as Fortran source, including
    [!$OMP] directives for parallelized loops and [!*annot*] tag comments
    around annotation-inlined regions (mirroring Fig. 17/18 of the paper). *)

open Ast

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Eq -> ".EQ."
  | Ne -> ".NE."
  | Lt -> ".LT."
  | Le -> ".LE."
  | Gt -> ".GT."
  | Ge -> ".GE."
  | And -> ".AND."
  | Or -> ".OR."

let prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div -> 5
  | Pow -> 7

let rec expr_str ?(p = 0) e =
  let s, my_p =
    match e with
    | Int_const n -> ((if n < 0 then Printf.sprintf "(%d)" n else string_of_int n), 10)
    | Real_const r ->
        let s = Printf.sprintf "%.12g" r in
        let s =
          if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
          then s
          else s ^ ".0"
        in
        (s, 10)
    | Str_const s -> (Printf.sprintf "'%s'" s, 10)
    | Logical_const true -> (".TRUE.", 10)
    | Logical_const false -> (".FALSE.", 10)
    | Var v -> (v, 10)
    | Array_ref (a, args) | Func_call (a, args) ->
        (Printf.sprintf "%s(%s)" a (args_str args), 10)
    | Section (a, bounds) ->
        ( Printf.sprintf "%s(%s)" a
            (String.concat ", " (List.map bound_str bounds)),
          10 )
    | Unop (Neg, a) -> (Printf.sprintf "-%s" (expr_str ~p:6 a), 6)
    | Unop (Not, a) -> (Printf.sprintf ".NOT. %s" (expr_str ~p:3 a), 3)
    | Binop (op, a, b) ->
        let mp = prec op in
        (* [**] is right-associative: the LEFT operand needs the tighter
           context; every other binop is left-associative *)
        let pl, pr = if op = Pow then (mp + 1, mp) else (mp, mp + 1) in
        ( Printf.sprintf "%s %s %s"
            (expr_str ~p:pl a) (binop_str op)
            (expr_str ~p:pr b),
          mp )
  in
  if my_p < p then "(" ^ s ^ ")" else s

and args_str args = String.concat ", " (List.map (expr_str ~p:0) args)

and bound_str (lo, hi, step) =
  match (lo, hi, step) with
  | Some a, Some b, None when equal_expr a b -> expr_str a
  | _ ->
      let f = function Some e -> expr_str e | None -> "" in
      let base = Printf.sprintf "%s:%s" (f lo) (f hi) in
      (match step with Some s -> base ^ ":" ^ expr_str s | None -> base)

let lvalue_str = function
  | Lvar v -> v
  | Larray (a, args) -> Printf.sprintf "%s(%s)" a (args_str args)
  | Lsection (a, bounds) ->
      Printf.sprintf "%s(%s)" a
        (String.concat ", " (List.map bound_str bounds))

let dtype_str = function
  | Integer -> "INTEGER"
  | Real -> "REAL"
  | Double -> "DOUBLE PRECISION"
  | Logical -> "LOGICAL"
  | Character -> "CHARACTER"

let dim_str = function Dim_star -> "*" | Dim_expr e -> expr_str e

let omp_clause_str omp =
  let buf = Buffer.create 32 in
  if omp.omp_private <> [] then
    Buffer.add_string buf
      (Printf.sprintf " PRIVATE(%s)" (String.concat ", " omp.omp_private));
  List.iter
    (fun (op, v) ->
      let op_s =
        match op with
        | Rsum -> "+"
        | Rprod -> "*"
        | Rmax -> "MAX"
        | Rmin -> "MIN"
      in
      Buffer.add_string buf (Printf.sprintf " REDUCTION(%s:%s)" op_s v))
    omp.omp_reductions;
  Buffer.contents buf

let rec emit_stmt buf indent s =
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  match s.node with
  | Assign (lv, e) -> line "%s = %s" (lvalue_str lv) (expr_str e)
  | Call (n, []) -> line "CALL %s" n
  | Call (n, args) -> line "CALL %s(%s)" n (args_str args)
  | Return -> line "RETURN"
  | Stop None -> line "STOP"
  | Stop (Some m) -> line "STOP '%s'" m
  | Print [] -> line "WRITE(6,*)"
  | Print es -> line "WRITE(6,*) %s" (args_str es)
  | Continue -> line "CONTINUE"
  | If (c, t, []) -> begin
      match t with
      | [ { node = Assign _ | Call _ | Return | Stop _ | Print _ | Continue; _ } as single ]
        ->
          let sub = Buffer.create 64 in
          emit_stmt sub 0 single;
          let text = String.trim (Buffer.contents sub) in
          line "IF (%s) %s" (expr_str c) text
      | _ ->
          line "IF (%s) THEN" (expr_str c);
          List.iter (emit_stmt buf (indent + 2)) t;
          line "ENDIF"
    end
  | If (c, t, e) ->
      line "IF (%s) THEN" (expr_str c);
      List.iter (emit_stmt buf (indent + 2)) t;
      line "ELSE";
      List.iter (emit_stmt buf (indent + 2)) e;
      line "ENDIF"
  | Do_loop l ->
      (match l.parallel with
      | Some omp ->
          line "!$OMP PARALLEL DO DEFAULT(SHARED)%s" (omp_clause_str omp)
      | None -> ());
      line "DO %s = %s, %s%s" l.index (expr_str l.lo) (expr_str l.hi)
        (match l.step with
        | Int_const 1 -> ""
        | s -> ", " ^ expr_str s);
      List.iter (emit_stmt buf (indent + 2)) l.body;
      line "ENDDO";
      (match l.parallel with
      | Some _ -> line "!$OMP END PARALLEL DO"
      | None -> ())
  | Tagged (tag, body) ->
      line "!*annot* BEGIN %d inline %s (%s)" tag.tag_id tag.tag_callee
        (args_str tag.tag_actuals);
      List.iter (emit_stmt buf (indent + 2)) body;
      line "!*annot* END %d" tag.tag_id

let emit_unit buf (u : program_unit) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match u.u_kind with
  | Main -> line "PROGRAM %s" u.u_name
  | Subroutine ->
      line "SUBROUTINE %s(%s)" u.u_name (String.concat ", " u.u_params)
  | Function ty ->
      line "%s FUNCTION %s(%s)" (dtype_str ty) u.u_name
        (String.concat ", " u.u_params));
  List.iter
    (fun d ->
      if d.d_dims = [] then line "  %s %s" (dtype_str d.d_type) d.d_name
      else
        line "  %s %s(%s)" (dtype_str d.d_type) d.d_name
          (String.concat ", " (List.map dim_str d.d_dims)))
    u.u_decls;
  List.iter
    (fun (blk, members) ->
      line "  COMMON /%s/ %s" blk (String.concat ", " members))
    u.u_commons;
  List.iter
    (fun (n, e) -> line "  PARAMETER (%s = %s)" n (expr_str e))
    u.u_params_const;
  List.iter (emit_stmt buf 2) u.u_body;
  line "END";
  line ""

(** Render a whole program back to Fortran source. *)
let program_to_string (p : program) =
  let buf = Buffer.create 4096 in
  List.iter (emit_unit buf) p.p_units;
  Buffer.contents buf

(* Lines [emit_stmt] writes for one statement, comment lines ([!$OMP]
   directives, [!*annot*] tags) left out. *)
let rec stmt_lines s =
  match s.node with
  | Assign _ | Call _ | Return | Stop _ | Print _ | Continue -> 1
  | If (_, [ { node = Assign _ | Call _ | Return | Stop _ | Print _; _ } ], [])
  | If (_, [ { node = Continue; _ } ], []) ->
      1
  | If (_, t, []) -> 2 + stmts_lines t
  | If (_, t, e) -> 3 + stmts_lines t + stmts_lines e
  | Do_loop l -> 2 + stmts_lines l.body
  | Tagged (_, body) -> stmts_lines body

and stmts_lines stmts = List.fold_left (fun n s -> n + stmt_lines s) 0 stmts

(** Number of non-comment source lines -- the paper's code-size metric:
    the non-blank lines of {!program_to_string} that are not comments,
    counted from the AST without rendering.  Per unit: the header, one
    line per declaration, COMMON block and PARAMETER, the body, [END]. *)
let code_size (p : program) =
  List.fold_left
    (fun n u ->
      n + 2 + List.length u.u_decls + List.length u.u_commons
      + List.length u.u_params_const + stmts_lines u.u_body)
    0 p.p_units
