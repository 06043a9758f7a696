(** The fuzz harness: drive {!Gen} corpora through the robust pipeline
    and enforce the crash-free-gate invariants.

    1. {b No bare escapes}: for every generated program, the pipeline
       either completes or fails through the structured diagnostic
       channel ({!Frontend.Diag.Fatal} / {!Frontend.Diag.Error_limit}).
       Any other exception reaching the harness is a bug.
    2. {b Every directive validated}: each run executes with
       [~validate:true], so every emitted [PARALLEL DO] passes the race
       detector and the serial/parallel differential oracle.  A valid
       (unmutated) program must come back [v_ok]; a mutated one may be
       salvaged into something that traps at runtime ([v_crashed] is
       tolerated there), but an unexcused race or a divergence is a bug
       in either mode.
    3. {b The emitted program computes what the original computes}: for a
       valid program, both run serially and print the same output
       (compared like the oracle compares runs).  The oracle compares
       serial and parallel runs of the emitted program only, so it cannot
       see a miscompile that both runs share.

    Each seed is compiled under one of the three pipeline modes (picked
    by [seed mod 3]) so a corpus sweep exercises conventional and
    annotation-based inlining, not just the baseline.  Gensym counters
    are reset per seed, making every run independent of corpus order
    and the whole corpus a pure function of the seed range. *)

open Frontend

(** What happened to one seed. *)
type outcome = {
  o_seed : int;
  o_mode : Core.Pipeline.mode;
  o_source : string;  (** the program text that was compiled *)
  o_escaped : string option;
      (** [Some (Printexc.to_string e)] when a non-[Diag] exception
          escaped the pipeline — an invariant-1 violation *)
  o_fatal : bool;  (** structured [Diag.Fatal] / [Error_limit] outcome *)
  o_diags : Diag.t list;
  o_marked : int;  (** loops that received a directive *)
  o_verdict : Checker.Oracle.verdict option;
  o_miscompiled : string option;
      (** valid corpus: why the emitted program's serial output is not
          the original's — an invariant-3 violation *)
}

let mode_of_seed seed : Core.Pipeline.mode =
  match abs seed mod 3 with
  | 0 -> No_inlining
  | 1 -> Conventional
  | _ -> Annotation_based

(* Invariant 3: run the original and the emitted program serially. *)
let miscompiled source (emitted : Ast.program) : string option =
  let run program =
    match Runtime.Interp.run_program program with
    | out -> Ok out
    | exception e -> Error (Printexc.to_string e)
  in
  match (run (Resolve.parse source), run emitted) with
  | Ok a, Ok b when Checker.Oracle.outputs_equal a b -> None
  | Ok _, Ok _ -> Some "emitted program's output differs from the original's"
  | Error e, _ -> Some ("original program failed: " ^ e)
  | _, Error e -> Some ("emitted program failed: " ^ e)
  | exception e -> Some ("original program failed: " ^ Printexc.to_string e)

(** Compile-and-validate one seed.  Never raises. *)
let run_one ?(mutate = false) ~seed () : outcome =
  Core.Pipeline.reset_gensyms ();
  let source =
    if mutate then Gen.source_mutated ~seed else Gen.source ~seed
  in
  let mode = mode_of_seed seed in
  let base =
    {
      o_seed = seed;
      o_mode = mode;
      o_source = source;
      o_escaped = None;
      o_fatal = false;
      o_diags = [];
      o_marked = 0;
      o_verdict = None;
      o_miscompiled = None;
    }
  in
  match Planner.compile_source ~validate:true ~mode source with
  | res, _ ->
      {
        base with
        o_diags = res.res_diags;
        o_marked = List.length res.res_marked;
        o_verdict = res.res_validation;
        o_miscompiled =
          (if mutate then None else miscompiled source res.res_program);
      }
  | exception Diag.Fatal d -> { base with o_fatal = true; o_diags = [ d ] }
  | exception Diag.Error_limit n ->
      {
        base with
        o_fatal = true;
        o_diags =
          [
            Diag.make Diag.Parse
              (Printf.sprintf "error limit reached (%d diagnostics)" n);
          ];
      }
  | exception e -> { base with o_escaped = Some (Printexc.to_string e) }

(** Why an outcome violates the gate, if it does.  [mutate] relaxes the
    oracle contract to tolerate [v_crashed] (salvaged programs may trap)
    but never races or divergence. *)
let violation ?(mutate = false) (o : outcome) : string option =
  match o.o_escaped with
  | Some e -> Some (Printf.sprintf "exception escaped the pipeline: %s" e)
  | None -> (
      match o.o_verdict with
      | None -> if o.o_fatal || mutate then None
          else Some "validation verdict missing on a completed run"
      | Some v ->
          if v.v_unexcused > 0 then
            Some (Printf.sprintf "%d unexcused race(s)" v.v_unexcused)
          else if v.v_diverged then Some "serial/parallel divergence"
          else if v.v_crashed && not mutate then
            Some "execution crashed on a valid program"
          else o.o_miscompiled)

type summary = {
  s_total : int;
  s_marked_total : int;  (** directives emitted (and validated) in all *)
  s_violations : (int * string) list;  (** (seed, reason), worst first *)
  s_digest : string;  (** MD5 over the corpus text — reproducibility *)
}

(** Run seeds [seed .. seed+count-1]; the corpus digest covers every
    generated source in order, so two runs with the same arguments must
    report the same digest byte-for-byte. *)
let run_corpus ?(mutate = false) ?(progress = fun _ -> ()) ~seed ~count () :
    summary =
  let ctx = ref [] in
  let violations = ref [] in
  let marked = ref 0 in
  for i = 0 to count - 1 do
    let s = seed + i in
    let o = run_one ~mutate ~seed:s () in
    ctx := o.o_source :: !ctx;
    marked := !marked + o.o_marked;
    (match violation ~mutate o with
    | Some why -> violations := (s, why) :: !violations
    | None -> ());
    progress (i + 1)
  done;
  {
    s_total = count;
    s_marked_total = !marked;
    s_violations = List.rev !violations;
    s_digest =
      Digest.to_hex (Digest.string (String.concat "\x00" (List.rev !ctx)));
  }
