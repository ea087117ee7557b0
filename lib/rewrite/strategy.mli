(** Traversal: applying a rewrite throughout an interned term.

    A strategy is a partial transformation on targets (functions or
    predicates); [None] means "did not apply".  Traversal descends through
    every syntactic position where a function or predicate occurs — left
    to right, predicate before function children, never into constant
    values — and rebuilds through the interning smart constructors.
    Firing strategies over named rules are COKO blocks
    ({!Coko.Block.step}). *)

type target = F of Kola.Term.Hc.fnode | P of Kola.Term.Hc.pnode
type t = target -> target option

val of_rule : ?schema:Kola.Schema.t -> Rule.t -> t
(** The rule applied at the root of the target. *)

val once_topdown : ?mask:int -> t -> t
(** Apply once, at the outermost (leftmost) matching position.  Subtrees
    whose head bitmask ([fheads]/[pheads]) has no bit of [mask] are
    skipped in O(1) instead of walked: with [mask] the OR of the
    {!Rule.head_mask}s of every rule the strategy can fire, it visits the
    same matching positions in the same order as an unpruned traversal.
    [mask = 0] (the default) disables pruning. *)

val apply_func : t -> Kola.Term.Hc.fnode -> Kola.Term.Hc.fnode option
