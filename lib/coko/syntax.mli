(** The COKO surface language (the follow-on language the paper announces).

    A COKO file holds rule definitions ({!Rules.Text}) and transformations:
    {v
    -- comments run to end of line
    GIVEN injective(?f)
    RULE my-inter: inter o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f))
                   --> iterate(Kp(T), ?f) o inter

    TRANSFORMATION cleanup
    BEGIN
      TRY REPEAT { my-inter | r1 };
      USE r3
    END
    v}
    Step connectives: [;] atomic sequencing, [{ a | b }] one firing from a
    rule set, [REPEAT], [TRY], [CHOICE { s1 / s2 }].  Rule names resolve
    against the file's own rules, then the catalog; ["-1"] flips. *)

exception Error of string
(** The same exception as {!Rules.Text.Error}. *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

type program = {
  rules : Rewrite.Rule.t list;
  transformations : Block.t list;
  resolve : string -> Rewrite.Rule.t option;
      (** program rules shadow same-named catalog rules *)
}

val parse_program : string -> program
(** @raise Error on a syntax or scoping problem, and on a step naming a
    rule that resolves nowhere ([line N: unknown rule ...]), reached or
    not. *)

val lookup_of : program -> string -> Rewrite.Rule.t
(** [resolve], raising {!Error} on an unknown name. *)

val find_transformation : program -> string -> Block.t option

val run_source :
  ?schema:Kola.Schema.t ->
  string -> transformation:string -> Kola.Term.query -> Block.outcome
(** Parse [source] and run its named transformation. *)
