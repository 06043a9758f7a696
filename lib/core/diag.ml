(** Pipeline-level name for the structured diagnostics subsystem.

    The single source of truth is {!Frontend.Diag} (the lexer and parser,
    which [core] depends on, must be able to raise located diagnostics,
    and the checker renders race reports without depending on [core]);
    this module is a pure re-export shim so the pipeline, experiment
    drivers and CLI can keep saying [Core.Diag].  It is the one shim
    left in [core] because the benchmark harness under [perfbench/]
    builds against a copy of [lib/] and names
    [Core.Diag.default_max_errors]. *)

include Frontend.Diag
