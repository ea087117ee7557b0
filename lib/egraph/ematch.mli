(** E-matching: firing the catalog's declarative patterns against
    e-classes.  Patterns are the rules' own interned bodies — no separate
    pattern language; substitutions are ordinary {!Rewrite.Subst}
    values, so preconditions and instantiation reuse the BFS machinery.

    Associativity is handled by two internal reassociation rules rather
    than matching windows: at saturation every grouping of a composition
    chain is present, and plain binary structural matching sees every
    window the BFS chain matcher would. *)

open Lang

type erule = {
  eid : int;  (** position in the compiled catalog; scheduler index *)
  ename : string;
  esource : Rewrite.Rule.t;  (** for preconditions and replay *)
  elhs : wterm;
  erhs : wterm;
  emask : int;
      (** root-head bit a class must contain ({!Rewrite.Rule.head_mask});
          [0] when the pattern has no fixed head *)
  einternal : bool;  (** reassociation scaffolding, invisible in proofs *)
  etimer : string;
      (** ["egraph.match_ms." ^ ename], built once: the telemetry name of
          the rule's match-time distribution *)
}

val compile : Rewrite.Rule.t list -> erule list
(** Compile the catalog (appending the internal reassociation rules);
    [eid]s number the result contiguously from 0. *)

(** One matched instance, ready to apply. *)
type match_inst = {
  mrule : erule;
  mlhs : wterm;  (** instantiated left side; a member of the matched class *)
  mrhs : wterm;
}

val matches_of_rule :
  Graph.t -> Kola.Schema.t -> erule -> int -> match_inst list
(** One rule against one class: every precondition-passing instance.
    Reads only — safe from pool domains between rebuilds.  Call it only
    while the graph is unchanged since the last {!Graph.canonicalize}:
    it walks {!Graph.match_view}, which raises otherwise. *)

val matches_in_class :
  Graph.t -> Kola.Schema.t -> erule list -> int -> match_inst list
