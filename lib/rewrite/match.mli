(** One-way matching of rule patterns against interned (sub)terms — the
    paper's "unification" applicability test.

    Because KOLA terms are variable-free, structural matching with
    consistent hole binding is the entire test: no environmental analysis,
    no head routines.  Compositions match modulo associativity: both chains
    are flattened and matched elementwise, and a bare hole element may
    absorb any non-empty run of consecutive target elements.

    Two O(1) short-circuits come from interning: a hole-free pattern
    physically equal to the target matches immediately, and a hole-free
    pattern without any [Compose] (read off [fheads]) that is physically
    distinct cannot match at all, because without reassociation matching
    is structural and structural equality of interned nodes is physical. *)

val func :
  Subst.t -> Kola.Term.Hc.fnode -> Kola.Term.Hc.fnode -> Subst.t option
(** [func subst pattern target] extends [subst] or fails. *)

val pred :
  Subst.t -> Kola.Term.Hc.pnode -> Kola.Term.Hc.pnode -> Subst.t option

val value :
  Subst.t -> Kola.Term.Hc.vnode -> Kola.Term.Hc.vnode -> Subst.t option
(** Value patterns are holes, pairs of patterns, or exact constants. *)

val chain_match :
  Subst.t ->
  Kola.Term.Hc.fnode list ->
  Kola.Term.Hc.fnode list ->
  Subst.t option
(** Match a flattened pattern chain against a flattened target chain
    (what {!func} does at two compositions). *)
