(** Columnar materialization of a database of object extents: the
    struct-of-arrays view the compiled execution layer's column kernels
    run over.  Each materializable extent (a set of objects of one
    class) becomes a {!relation} — boxed rows in canonical set order
    plus one typed column per uniformly-typed attribute; object-valued
    attributes are dictionary-encoded as row indexes into the extent
    holding their class ({!Column.Refs}), and set-of-object attributes
    the same way element by element ({!Column.Sets}), each with an
    element relation ({!elements}) whose rows are the embedded elements.
    Extents that do not fit the shape are simply absent and execute on
    the boxed row path. *)

module Column : sig
  type t =
    | Ints of int array
    | Strs of string array
    | Bools of bool array
    | Refs of {
        target : string;  (** extent name the indexes point into *)
        idx : int array;  (** row index in target, [-1] = unresolved *)
        total : bool;
            (** no [-1] entries; only then may two ref columns into the
                same target be compared by index *)
        exact : bool;
            (** every embedded value is structurally equal, field by
                field, to the target row it resolves to; only then may
                projections read through the ref into the target's
                columns *)
      }
    | Sets of {
        target : string;  (** extent name the element indexes point into *)
        off : int array;
            (** [n + 1] offsets: row [i]'s elements are
                [idx.(off.(i))] to [idx.(off.(i + 1) - 1)], in the set's
                canonical order *)
        idx : int array;  (** element row in target, [-1] = unresolved *)
        total : bool;  (** no [-1] entries *)
        sets : Value.t array;  (** the boxed sets, for emission *)
      }
        (** an attribute holding, in every row, a set of objects of the
            class [target] holds (empty sets included); its elements
            form a relation of their own, see {!elements} *)
    | Boxed of Value.t array

  val kind_name : t -> string
  val length : t -> int
end

type relation = {
  name : string;
      (** the extent name this relation materializes; ["E.mentors"] for
          the element relation of [E]'s [mentors] *)
  cls : string;
  rows : Value.t array;
      (** boxed rows: an extent's in canonical set order, an element
          relation's the embedded elements in CSR order *)
  cols : (string * Column.t) list;
      (** an extent's columns; [[]] for an element relation, whose
          columns {!column} builds on first use *)
  of_set : of_set option;  (** [Some] exactly for element relations *)
}

(** How the rows of an element relation relate to the extents. *)
and of_set = {
  target : string;  (** the extent the elements are objects of *)
  codes : int array;
      (** each element's row in [target], [-1] outside it: the [Sets]
          column's [idx] *)
  total : bool;  (** no [-1] codes *)
  owner : int array;
      (** each element's row in the relation whose set holds it *)
  memo : memo;
}

and memo
(** The element columns built so far. *)

type db

val of_db : (string * Value.t) list -> db
(** Materialize every extent that is a set of same-class objects.
    Deterministic in the input; O(rows × fields).  Element relations
    are not built here. *)

val source : db -> (string * Value.t) list
(** The boxed database this view was materialized from — execution
    contexts resolve [Named] extents against it, so columnar and row
    runs see identical data. *)

val relations : db -> (string * relation) list
val relation : db -> string -> relation option

val column : relation -> string -> Column.t option
(** A named column.  On an element relation the column is encoded from
    the elements' own fields, exactly as an extent's from its rows (a
    field missing in some element gives [None], a non-uniform one a
    [Boxed] column), on first use, once per store even when several
    domains ask at the same time. *)

val elements : db -> relation -> string -> relation option
(** [elements db r a]: the element relation of [r]'s [Sets] column [a]
    ([None] when [a] is not one).  Row [e] is the [e]-th element in CSR
    order, the very value the boxed set holds, so a read through it sees
    what the row path sees even where the copy differs from its target
    row.  Built on first use and memoized, domain-safe like {!column}. *)

type ranks = {
  rank : int array;
      (** each row's rank among the column's distinct values: rows [i]
          and [j] hold equal values iff [rank.(i) = rank.(j)], and
          [rank.(i) < rank.(j)] iff row [i]'s value comes first *)
  values : Value.t array;  (** the distinct values, boxed, by rank *)
}

val ranks : db -> relation -> string -> ranks option
(** [ranks db r a]: the value ranks of [r]'s [Ints] or [Strs] column [a]
    ([None] for any other column), so that a kernel can sort and
    deduplicate its values as small ints and box each once.  Built on
    first use (one sort of the rows) and memoized per store, domain-safe
    like {!column}. *)

type stats = {
  relations : int;
  rows : int;
  typed_cols : int;  (** Ints/Strs/Bools/Refs/Sets columns *)
  boxed_cols : int;
  element_cols : int;  (** element columns built so far *)
}

val stats : db -> stats
val pp_stats : stats Fmt.t
