(** Columnar materialization of a database of object extents: the
    struct-of-arrays view the compiled execution layer's column kernels
    run over.  Each materializable extent (a set of objects of one
    class) becomes a {!relation} — boxed rows in canonical set order
    plus one typed column per uniformly-typed attribute; object-valued
    attributes are dictionary-encoded as row indexes into the extent
    holding their class ({!Column.Refs}), and set-of-object attributes
    the same way element by element ({!Column.Sets}).  Extents that do
    not fit the shape are simply absent and execute on the boxed row
    path. *)

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
            class [target] holds (empty sets included) *)
    | Boxed of Value.t array

  val kind_name : t -> string
  val length : t -> int
end

type relation = {
  name : string;  (** the extent name this relation materializes *)
  cls : string;
  rows : Value.t array;  (** boxed rows in canonical set order *)
  cols : (string * Column.t) list;
}

type db

val of_db : (string * Value.t) list -> db
(** Materialize every extent that is a set of same-class objects.
    Deterministic in the input; O(rows × fields). *)

val source : db -> (string * Value.t) list
(** The boxed database this view was materialized from — execution
    contexts resolve [Named] extents against it, so columnar and row
    runs see identical data. *)

val relations : db -> (string * relation) list
val relation : db -> string -> relation option
val column : relation -> string -> Column.t option

type stats = {
  relations : int;
  rows : int;
  typed_cols : int;  (** Ints/Strs/Bools/Refs/Sets columns *)
  boxed_cols : int;
}

val stats : db -> stats
val pp_stats : stats Fmt.t
