(** Shared helpers for the test suites. *)

open Frontend

let parse = Resolve.parse

let parse_unit ?(name = "T") body_src =
  let src = Printf.sprintf "      SUBROUTINE %s\n%s\n      END\n" name body_src in
  Ast.find_unit_exn (parse src) name

(** Wrap a statement-list source into a MAIN program and parse it. *)
let parse_main ?(decls = "") body =
  parse (Printf.sprintf "      PROGRAM T\n%s\n%s\n      END\n" decls body)

(** Run the parallelizer on a source string; returns reports. *)
let reports_of ?config src =
  let p = Core.Pipeline.normalize (parse src) in
  snd (Parallelizer.Parallelize.run ?config p)

(** index -> marked? for loops, looked up by unit and DO-variable. *)
let marked_loops ?config src =
  List.filter_map
    (fun (r : Parallelizer.Parallelize.loop_report) ->
      if r.rep_marked then Some (r.rep_unit, r.rep_index) else None)
    (reports_of ?config src)

let loop_status ?config src uname index =
  match
    List.find_opt
      (fun (r : Parallelizer.Parallelize.loop_report) ->
        String.equal r.rep_unit uname && String.equal r.rep_index index)
      (reports_of ?config src)
  with
  | Some r ->
      if r.rep_marked then "parallel"
      else if r.rep_safe then "safe"
      else "sequential"
  | None -> "missing"

let run_str ?(threads = 1) src =
  Runtime.Interp.run_program ~threads (parse src)

let check_status ?config src uname index expected =
  Alcotest.(check string)
    (Printf.sprintf "%s/DO %s" uname index)
    expected
    (loop_status ?config src uname index)

(** Expression helper: parse an expression by wrapping in an assignment. *)
let parse_expr src =
  let p = parse (Printf.sprintf "      PROGRAM T\n      X = %s\n      END\n" src) in
  match (List.hd p.Ast.p_units).u_body with
  | [ { Ast.node = Ast.Assign (_, e); _ } ] -> e
  | _ -> failwith "parse_expr"

let expr_testable =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Pretty.expr_str e))
    Ast.equal_expr

(** Byte-level fingerprint of one analysis: every verdict as JSON, in
    report order, then the optimized program. *)
let fingerprint (r : Core.Pipeline.result) =
  String.concat "\n"
    (List.map
       (fun (rep : Parallelizer.Parallelize.loop_report) ->
         Json.to_string (Parallelizer.Verdict.to_json rep.rep_verdict))
       r.res_reports)
  ^ "\n"
  ^ Pretty.program_to_string r.res_program
