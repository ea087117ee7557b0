(** The rule language as text: [RULE] and [GIVEN] definitions.  One parser
    and one scope check ({!Lint.scoping}) serve the catalog
    (coko/catalog/*.coko, embedded at build time) and every runtime pack;
    [Coko.Syntax] layers [TRANSFORMATION] parsing on top.
    {v
    -- comments run to end of line
    GIVEN injective(?f)
    RULE my-inter: inter o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f))
                   --> iterate(Kp(T), ?f) o inter
    v}
    Rule sides are KOLA terms in {!Kola.Parse} notation; the side kind
    (function / predicate / query) is inferred from the left-hand side. *)

exception Error of string
(** A rejection, positioned as ["line N: ..."] where a line is known. *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

(** {1 Tokens, for the transformation parser} *)

type tok =
  | Word of string  (** names and keywords *)
  | Sym of char  (** one of [; | { } ( ) , : /] *)
  | Arrow  (** [-->] *)
  | Body of string  (** the raw text of a rule side *)

val pp_tok : tok Fmt.t
val is_keyword : string -> bool

type cursor
(** A position in a token stream. *)

val peek : cursor -> tok option
val advance : cursor -> unit

val line : cursor -> int
(** The source line of the most recently peeked token. *)

val expect : cursor -> tok -> string -> unit
val expect_word : cursor -> string -> string

(** {1 Files} *)

val parse :
  ?transformation:(cursor -> 'a) -> string -> Rewrite.Rule.t list * 'a list
(** The rules of a file, in order, each scope-checked, and its
    transformations: after each [TRANSFORMATION] keyword the cursor is
    handed to [transformation].  Without it a [TRANSFORMATION] is an
    error.  @raise Error on a lexical, syntax or scoping problem. *)

val resolver : Rewrite.Rule.t list -> string -> Rewrite.Rule.t option
(** A name table built once: each rule by name, and its right-to-left
    reading ({!Rewrite.Rule.flip}) by name with a ["-1"] suffix. *)
