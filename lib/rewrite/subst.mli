(** Substitutions binding pattern holes to interned ground terms (see
    {!Kola.Term.Hc}).

    Rebind consistency checks are physical equality, which is structural
    equality on interned nodes.  [apply_*] instantiates a pattern under a
    binding; unbound holes are left in place so substitutions compose.
    Instantiation short-circuits on the [*hole_free] bit (a pattern
    subtree without holes is returned as-is) and returns the input node
    whenever no child changed, so rewriting shares every untouched subterm
    with its input. *)

type t = {
  funcs : (string * Kola.Term.Hc.fnode) list;
  preds : (string * Kola.Term.Hc.pnode) list;
  values : (string * Kola.Term.Hc.vnode) list;
}

val empty : t

val bind_func : t -> string -> Kola.Term.Hc.fnode -> t option
(** [None] when the hole is already bound to a different node. *)

val bind_pred : t -> string -> Kola.Term.Hc.pnode -> t option
val bind_value : t -> string -> Kola.Term.Hc.vnode -> t option
val find_func : t -> string -> Kola.Term.Hc.fnode option
val find_pred : t -> string -> Kola.Term.Hc.pnode option
val find_value : t -> string -> Kola.Term.Hc.vnode option
val apply_func : t -> Kola.Term.Hc.fnode -> Kola.Term.Hc.fnode
val apply_pred : t -> Kola.Term.Hc.pnode -> Kola.Term.Hc.pnode

val apply_value : t -> Kola.Term.Hc.vnode -> Kola.Term.Hc.vnode
(** A set, bag, list or object constant holding a hole is instantiated on
    its plain value and re-interned: a bound element can change a set's
    canonical order. *)
