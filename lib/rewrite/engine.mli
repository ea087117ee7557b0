(** The rewriting engine: fires rules from a set anywhere in a query,
    recording a trace, so tests can check the paper's derivations (Figures
    4 and 6) step by step and the optimizer can explain itself.

    One stepping function, {!step_once}, serves COKO blocks and {!run}.
    It dispatches on heads: at each node it tries, in catalog order, only
    the rules whose pattern head can match that node ({!offered}), and it
    skips every subtree whose head bitmask shares no bit with the rule
    list.  A rule that cannot match a node is never tried there, so the
    firings are those of the naive semantics — every rule of the right
    sort tried at every node, outermost first — which stays the
    definition. *)

type step = {
  rule_name : string;
  result : Kola.Term.query;  (** the whole query after the firing *)
}

type trace = step list

type stats = {
  firings : int;
  attempts : int;
      (** rules actually tried: for each node visited, each rule head
          dispatch offers there, attempted before (and including) the one
          that fired.  Query rules count once per step.  Rules dismissed
          by dispatch are not tried and not counted. *)
}

type outcome = { query : Kola.Term.query; trace : trace; stats : stats }

val offered : Rule.t -> Strategy.target -> bool
(** Head dispatch: function rules at function nodes and predicate rules
    at predicate nodes, when the pattern's {!Rule.head_mask} is [0] (a
    hole) or the node's own shape bit. *)

(** {!offered} tabulated once for a rule list, so a walk that visits many
    nodes looks a node's rules up instead of filtering the list. *)
type dispatch = private {
  rules : Rule.t array;  (** the list, in order *)
  fslots : int array array;
  pslots : int array array;
      (** per head bit, the lists {!offered_func} and {!offered_pred}
          read *)
  mask : int;
      (** the OR of the function and predicate rules' head masks: only
          subtrees whose head bitmask shares a bit with it hold a node
          some rule is offered at.  [0] when a hole-rooted rule makes
          every node a candidate, and when the list has no function or
          predicate rule. *)
}

val dispatch : Rule.t list -> dispatch

val offered_func : dispatch -> Kola.Term.Hc.fnode -> int array
(** The indices into [rules], ascending, of the rules {!offered} at the
    node. *)

val offered_pred : dispatch -> Kola.Term.Hc.pnode -> int array

val step_once :
  ?schema:Kola.Schema.t ->
  ?counter:int ref ->
  Rule.t list ->
  Kola.Term.Hc.hquery ->
  (string * Kola.Term.Hc.hquery) option
(** Fire the first rule (in list order) that applies anywhere, outermost
    first; query rules are tried at the query level before function and
    predicate rules.  [counter] accumulates attempts. *)

val run :
  ?schema:Kola.Schema.t -> ?fuel:int ->
  Rule.t list -> Kola.Term.query -> outcome
(** Normalize under the rule set, up to [fuel] firings, by iterating
    {!step_once} on the interned query. *)
