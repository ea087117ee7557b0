(** COKO rule blocks: "sets of rules that are used together, together with
    strategies for their firing" (Section 4.2).  Blocks express
    "conceptual transformations" — too large for one rule, small enough to
    reason about as a unit, such as each step of the hidden-join
    untangler. *)

type step =
  | Use of string list
      (** fire one of the named rules once, anywhere, outermost first *)
  | Seq of step list  (** atomic sequencing: a failing tail aborts all *)
  | Choice of step list  (** first step that applies *)
  | Repeat of step       (** while applicable; fails if never applied *)
  | Try of step          (** never fails *)

type t = { block_name : string; step : step }

val block : string -> step -> t

type outcome = {
  query : Kola.Term.query;
  trace : Rewrite.Engine.trace;
  applied : bool;
}

val default_lookup : string -> Rewrite.Rule.t
(** {!Rules.Catalog.find_exn}: the catalog; ["-1"] suffixes flip. *)

val run :
  ?schema:Kola.Schema.t ->
  ?lookup:(string -> Rewrite.Rule.t) ->
  t -> Kola.Term.query -> outcome

val run_pipeline :
  ?schema:Kola.Schema.t ->
  ?lookup:(string -> Rewrite.Rule.t) ->
  t list -> Kola.Term.query -> outcome * (string * bool) list
(** Run blocks in sequence; inapplicable blocks leave the query unchanged
    (partial simplification survives, as the paper emphasises).  Returns
    per-block applicability. *)
