(** The rewriting engine: fires rules from a set anywhere in a query,
    recording a trace, so tests can check the paper's derivations (Figures
    4 and 6) step by step and the optimizer can explain itself.

    Two dispatch paths exist.  {!step_once} attempts every rule of the
    right sort at every node, in catalog order; COKO blocks fire through
    it.  {!run} routes each node through {!Index} so only rules whose
    pattern head can match are attempted — same firings, same trace,
    fewer attempts. *)

type step = {
  rule_name : string;
  result : Kola.Term.query;  (** the whole query after the firing *)
}

type trace = step list

type stats = {
  firings : int;
  attempts : int;
      (** rules actually tried: for each node visited, each candidate rule
          of the node's sort attempted before (and including) the one that
          fired.  Rules of the wrong sort for a node — or, under the index,
          rules whose head cannot match it — are dismissed by dispatch, not
          tried, and not counted. *)
}

type outcome = { query : Kola.Term.query; trace : trace; stats : stats }

val pp_trace : trace Fmt.t

val step_once :
  ?schema:Kola.Schema.t ->
  ?counter:int ref ->
  Rule.t list -> Kola.Term.query -> (string * Kola.Term.query) option
(** Fire the first rule (in catalog order) that applies anywhere, outermost
    first; query rules are tried at the query level before function and
    predicate rules.  Attempts every candidate rule at every node. *)

val run :
  ?schema:Kola.Schema.t -> ?fuel:int ->
  Rule.t list -> Kola.Term.query -> outcome
(** Normalize under the rule set, up to [fuel] firings.  Builds the
    head-symbol index once and reuses it across firings; the firings and
    trace are those of iterating {!step_once}, with fewer attempts. *)

val run_func :
  ?schema:Kola.Schema.t -> ?fuel:int ->
  Rule.t list -> Kola.Term.func -> Kola.Term.func * trace

val fired_rules : outcome -> string list
