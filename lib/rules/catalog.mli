(** The rule pool, indexed by name — this reproduction's analogue of the
    paper's 500-rule pool an optimizer draws from.  Each list is one file of
    coko/catalog, embedded at build time and parsed at initialisation.

    The paper's printed rule 13 is not here: it is boundary-unsound, and
    the pack coko/unsound/r13_paper.coko exists only to show {!Cert}
    rejecting it. *)

(** Rules 1-16 as printed (rule 13 repaired). *)
val figure5 : Rewrite.Rule.t list

(** Rules 17-24 plus the 17b/19f/22b variants. *)
val figure8 : Rewrite.Rule.t list
val housekeeping : Rewrite.Rule.t list
val preconditioned : Rewrite.Rule.t list

(** An extended pool of algebraic laws. *)
val extended : Rewrite.Rule.t list

val all : Rewrite.Rule.t list

val find : string -> Rewrite.Rule.t option
(** By name; a ["-1"] suffix yields the flipped rule (the paper's
    "right-to-left interpretations"), built once. *)

val find_exn : string -> Rewrite.Rule.t
(** @raise Invalid_argument on unknown names. *)

val rules : string list -> Rewrite.Rule.t list
(** {!find_exn} over several names. *)

val names : unit -> string list
