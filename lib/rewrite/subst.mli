(** Substitutions binding pattern holes to ground terms.

    [apply_*] instantiates a pattern under a binding; unbound holes are
    left in place so substitutions compose.  Instantiation preserves
    physical identity: a subtree under which no binding applies is returned
    unchanged rather than reallocated, so rewriting shares every untouched
    subterm with the input. *)

type t = {
  funcs : (string * Kola.Term.func) list;
  preds : (string * Kola.Term.pred) list;
  values : (string * Kola.Value.t) list;
}

val empty : t

val bind_func : t -> string -> Kola.Term.func -> t option
(** [None] when the hole is already bound to a different term. *)

val bind_pred : t -> string -> Kola.Term.pred -> t option
val bind_value : t -> string -> Kola.Value.t -> t option
val find_func : t -> string -> Kola.Term.func option
val find_pred : t -> string -> Kola.Term.pred option
val find_value : t -> string -> Kola.Value.t option
val apply_func : t -> Kola.Term.func -> Kola.Term.func
val apply_pred : t -> Kola.Term.pred -> Kola.Term.pred
val apply_value : t -> Kola.Value.t -> Kola.Value.t
val pp : t Fmt.t

(** Substitutions over hash-consed nodes (see {!Kola.Term.Hc}).

    Rebind consistency checks are physical equality (O(1), equivalent to
    the plain structural checks because interned equality is [==]), and
    [apply_*] short-circuit on the [*hole_free] bit: a pattern subtree
    without holes is returned as-is, and rebuilds return the input node
    whenever no child changed. *)
module H : sig
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
end
