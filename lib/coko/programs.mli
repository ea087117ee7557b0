(** The paper's conceptual transformations as COKO blocks, parsed from
    coko/hidden_join.coko (embedded at build time). *)

(** Identity/projection/constant-folding housekeeping. *)
val simplify : Block.t

val times_forms : Block.t

(** {1 The five steps of the Section 4.1 hidden-join strategy} *)

(** Step 1: rules 17/17b/18 + cleanup. *)
val breakup : Block.t

(** Step 2: rules 19/19f. *)
val bottom_out : Block.t

(** Step 3: rules 20/21 + cleanup. *)
val pullup_nest : Block.t

(** Step 4: rules 22/22b/23. *)
val pullup_unnest : Block.t

(** Step 5: rule 24 + cleanup + ×-forms. *)
val absorb_join : Block.t

val hidden_join_steps : Block.t list

val hidden_join :
  Kola.Term.query -> Block.outcome * (string * bool) list
(** Run all five steps; the boolean list reports which applied. *)

val code_motion : Block.t
(** The Figure 6 derivation: rules 13, 14, 15, 16, then cleanup. *)

(** Figure 4, T1K. *)
val compose_iterates : Block.t

(** Figure 4, T2K's second half. *)
val decompose_predicate : Block.t

(** The paper's "convert predicates to CNF" example block. *)
val to_cnf : Block.t

val by_name : (string * Block.t) list
(** Every block of the file, in file order. *)
