(* Columnar materialization of a database of object extents.

   A relation is the struct-of-arrays view of one extent: the boxed rows
   (in canonical set order, so row index is a stable identity) plus one
   typed column per attribute that is uniformly typed across every row.
   Scalar attributes become unboxed [int array] / [string array] /
   [bool array]; object-valued attributes whose targets all live in
   another extent of the same class are dictionary-encoded as row
   indexes into that extent ([Refs]); attributes holding, in every row, a
   set of objects of one such class are encoded the same way element by
   element, in CSR form ([Sets]); anything else (mixed types, missing
   fields in some rows) keeps a [Boxed] column of the original values.

   Two soundness flags matter for the execution layer:

   - [total]: every ref resolved to a target row.  Object equality is
     (cls, oid) identity, and oid -> row index is injective within a
     relation, so two *total* ref columns into the same target can be
     compared by index alone.  A [-1] (unresolved) entry can never match
     a probe-side row index, which is exactly the hash-join miss the
     boxed path produces — so joins may use non-total refs, equality
     between two ref columns may not.
   - [exact] (refs only): additionally, every embedded object is
     structurally equal, field by field, to the target row it resolves
     to.  Only then may a projection *through* the ref (e.g.
     [dcity ∘ dept]) read the target's columns: with [exact] false the
     embedded copy could carry different fields than the extent row, and
     field access must stay on the boxed value.

   [Sets] need no such flag.  Each one has an *element relation*: its
   rows are the embedded elements themselves, in CSR order, and its typed
   columns hold those elements' own fields.  A read through an element
   row therefore sees exactly what the boxed element holds, stale copies
   included, and no copy is ever compared with its target row.  Element
   relations and their columns are built on first use, under a lock, so
   [of_db] does no work for them and a store shared across domains builds
   each one once. *)

module Column = struct
  type t =
    | Ints of int array
    | Strs of string array
    | Bools of bool array
    | Refs of {
        target : string;  (** extent name the indexes point into *)
        idx : int array;  (** row index in target, [-1] = unresolved *)
        total : bool;     (** no [-1] entries *)
        exact : bool;     (** embedded values structurally equal target rows *)
      }
    | Sets of {
        target : string;  (** extent name the element indexes point into *)
        off : int array;  (** row [i]'s elements are [idx.(off.(i)) ..] *)
        idx : int array;  (** element row in target, [-1] = unresolved *)
        total : bool;     (** no [-1] entries *)
        sets : Value.t array;  (** the boxed sets, for emission *)
      }
    | Boxed of Value.t array

  let kind_name = function
    | Ints _ -> "int"
    | Strs _ -> "str"
    | Bools _ -> "bool"
    | Refs _ -> "ref"
    | Sets _ -> "sets"
    | Boxed _ -> "boxed"

  let length = function
    | Ints a -> Array.length a
    | Strs a -> Array.length a
    | Bools a -> Array.length a
    | Refs { idx; _ } -> Array.length idx
    | Sets { sets; _ } -> Array.length sets
    | Boxed a -> Array.length a
end

type relation = {
  name : string;  (** the extent name this relation materializes *)
  cls : string;
  rows : Value.t array;  (** boxed rows in canonical set order *)
  cols : (string * Column.t) list;
  of_set : of_set option;
}

and of_set = {
  target : string;
  codes : int array;
  total : bool;
  owner : int array;
  memo : memo;
}

(* Element columns built so far, read without the lock and extended
   under it. *)
and memo = {
  lock : Mutex.t;
  built : (string * Column.t option) list Atomic.t;
  field_column : string -> Value.t array -> Column.t option;
  count : int Atomic.t;  (** columns built across the whole store *)
}

(* The element relation of one [Sets] column, published once built. *)
type slot = {
  slock : Mutex.t;
  elems : relation option Atomic.t;
  build : unit -> relation;
}

type ranks = { rank : int array; values : Value.t array }

type db = {
  source : (string * Value.t) list;
  rels : (string * relation) list;
  slots : ((string * string) * slot) list;  (** (relation, attribute) *)
  element_cols : int Atomic.t;
  rank_lock : Mutex.t;
  ranked : ((string * string) * ranks option) list Atomic.t;
      (** the string ranks built so far, by (relation, attribute) *)
}

let source t = t.source
let relations t = t.rels
let relation t name = Value.assoc name t.rels

(* What [find] answers without the lock; otherwise, under [lock], what
   it answers then or what [build] publishes.  Two domains asking at once
   build once. *)
let once lock find build =
  match find () with
  | Some v -> v
  | None ->
    Mutex.protect lock (fun () ->
        match find () with Some v -> v | None -> build ())

let column (r : relation) name =
  match r.of_set with
  | None -> Value.assoc name r.cols
  | Some { memo = m; _ } ->
    once m.lock
      (fun () -> List.assoc_opt name (Atomic.get m.built))
      (fun () ->
        let c = m.field_column name r.rows in
        Atomic.incr m.count;
        Atomic.set m.built ((name, c) :: Atomic.get m.built);
        c)

let elements t (r : relation) attr =
  Option.map
    (fun s ->
      once s.slock
        (fun () -> Atomic.get s.elems)
        (fun () ->
          let e = s.build () in
          Atomic.set s.elems (Some e);
          e))
    (List.assoc_opt (r.name, attr) t.slots)

(* Each cell's rank among the distinct cells of [arr] in [cmp] order,
   and those cells boxed: one sort of the row indexes. *)
let rank_cells cmp box arr =
  let n = Array.length arr in
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun i j -> cmp arr.(i) arr.(j)) perm;
  let rank = Array.make n 0 and values = ref [] and d = ref (-1) in
  Array.iteri
    (fun p i ->
      if p = 0 || cmp arr.(perm.(p - 1)) arr.(i) <> 0 then begin
        incr d;
        values := box arr.(i) :: !values
      end;
      rank.(i) <- !d)
    perm;
  { rank; values = Array.of_list (List.rev !values) }

let ranks t (r : relation) attr =
  let key = (r.name, attr) in
  once t.rank_lock
    (fun () -> List.assoc_opt key (Atomic.get t.ranked))
    (fun () ->
      let ranks =
        match column r attr with
        | Some (Column.Ints arr) ->
          Some (rank_cells Int.compare (fun i -> Value.Int i) arr)
        | Some (Column.Strs arr) ->
          Some (rank_cells String.compare (fun s -> Value.Str s) arr)
        | _ -> None
      in
      Atomic.set t.ranked ((key, ranks) :: Atomic.get t.ranked);
      ranks)

(* ------------------------------------------------------------------ *)
(* Materialization. *)

(* An extent materializes when it is a set whose rows are all objects of
   one class.  (Canonical sets cannot hold two objects with the same
   (cls, oid) — object comparison is identity — so the row oids are
   unique and oid -> index is well-defined.) *)
let extent_rows (v : Value.t) : (string * Value.t array) option =
  match v with
  | Value.Set ((Value.Obj { cls; _ } :: _) as rows)
    when List.for_all
           (function Value.Obj o -> String.equal o.Value.cls cls | _ -> false)
           rows ->
    Some (cls, Array.of_list rows)
  | _ -> None

let oid_of_row (v : Value.t) =
  match v with Value.Obj o -> o.Value.oid | _ -> assert false

(* A dictionary target: an extent's rows and their oid -> row index.
   Generated extents give object [k] oid [k] ([dense], checked once in one
   sequential pass), so an oid is its own row index; other extents build
   a hash index on first use. *)
type target = {
  tname : string;
  tcls : string;
  trows : Value.t array;
  dense : bool Lazy.t;
  index : (int, int) Hashtbl.t Lazy.t;
}

let row_of t oid =
  if Lazy.force t.dense then
    if oid >= 0 && oid < Array.length t.trows then oid else -1
  else
    match Hashtbl.find_opt (Lazy.force t.index) oid with
    | Some i -> i
    | None -> -1

(* Structural equality that also compares objects field by field (and
   sets element by element): what a read through an embedded value
   sees.  [Value.equal] compares objects by (cls, oid) only. *)
let rec same_value (a : Value.t) (b : Value.t) =
  a == b
  ||
  match (a, b) with
  | Value.Obj x, Value.Obj y ->
    String.equal x.cls y.cls && x.oid = y.oid
    && List.equal
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && same_value v1 v2)
         x.fields y.fields
  | Value.Pair (a1, b1), Value.Pair (a2, b2) ->
    same_value a1 a2 && same_value b1 b2
  | Value.Set xs, Value.Set ys
  | Value.Bag xs, Value.Bag ys
  | Value.List xs, Value.List ys ->
    List.equal same_value xs ys
  | _ -> Value.equal a b

type field_class =
  | FInt
  | FStr
  | FBool
  | FObj of string  (** all objects of this class *)
  | FSet of string option
      (** all sets of objects of this class ([None]: every set seen so far
          was empty); the elements are checked as they are encoded *)
  | FOther

let kind_of = function
  | Value.Int _ -> FInt
  | Value.Str _ -> FStr
  | Value.Bool _ -> FBool
  | Value.Obj o -> FObj o.Value.cls
  | Value.Set [] -> FSet None
  | Value.Set (Value.Obj o :: _) -> FSet (Some o.Value.cls)
  | _ -> FOther

let merge a b =
  match (a, b) with
  | FInt, FInt | FStr, FStr | FBool, FBool -> a
  | FObj x, FObj y when String.equal x y -> a
  | FSet None, FSet _ -> b
  | FSet _, FSet None -> a
  | FSet (Some x), FSet (Some y) when String.equal x y -> a
  | _ -> FOther

exception Not_uniform

(* Sets of objects of class [t.tcls] as CSR row indexes into [t], one walk
   per element.  Raises [Not_uniform] on an element of another class or
   kind. *)
let encode_sets t (cells : Value.t array) : Column.t =
  let n = Array.length cells in
  let elems = function Value.Set xs -> xs | _ -> raise Not_uniform in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i c -> off.(i + 1) <- off.(i) + List.length (elems c)) cells;
  let idx = Array.make off.(n) (-1) in
  let total = ref true in
  Array.iteri
    (fun i c ->
      List.iteri
        (fun k e ->
          match e with
          | Value.Obj o when String.equal o.Value.cls t.tcls ->
            let r = row_of t o.Value.oid in
            if r < 0 then total := false;
            idx.(off.(i) + k) <- r
          | _ -> raise Not_uniform)
        (elems c))
    cells;
  Column.Sets { target = t.tname; off; idx; total = !total; sets = cells }

let encode_refs t (cells : Value.t array) : Column.t =
  let total = ref true and exact = ref true in
  let idx =
    Array.map
      (fun v ->
        let r = row_of t (oid_of_row v) in
        if r < 0 then begin
          total := false;
          exact := false
        end
        else if not (same_value v t.trows.(r)) then exact := false;
        r)
      cells
  in
  Column.Refs { target = t.tname; idx; total = !total; exact = !exact }

(* One column from the cells of one field: typed when every cell has the
   same kind, boxed otherwise. *)
let encode ~target_of (cells : Value.t array) : Column.t =
  let boxed () = Column.Boxed cells in
  let cls =
    if Array.length cells = 0 then FOther
    else
      Array.fold_left (fun acc c -> merge acc (kind_of c)) (kind_of cells.(0))
        cells
  in
  let unbox f = Array.map f cells in
  match cls with
  | FInt -> Column.Ints (unbox (function Value.Int i -> i | _ -> assert false))
  | FStr -> Column.Strs (unbox (function Value.Str s -> s | _ -> assert false))
  | FBool ->
    Column.Bools (unbox (function Value.Bool b -> b | _ -> assert false))
  | FObj c -> (
    match target_of c with Some t -> encode_refs t cells | None -> boxed ())
  | FSet (Some c) -> (
    match target_of c with
    | Some t -> ( try encode_sets t cells with Not_uniform -> boxed ())
    | None -> boxed ())
  | FSet None | FOther -> boxed ()

(* A field that holds an int (a string, a bool) in every row, unboxed in
   one pass: the column [encode] builds from the cells, without allocating
   the cells, a transient array the size of the relation (at 10^5 rows
   those arrays raised the oql_large ledger's peak RSS by 9%).  [None]
   otherwise. *)
let scalar_column name (rows : Value.t array) : Column.t option =
  let unbox f =
    match Array.map (fun r -> f (Value.field name r)) rows with
    | a -> Some a
    | exception Exit -> None
  in
  if Array.length rows = 0 then None
  else
    match Value.field name rows.(0) with
    | Some (Value.Int _) ->
      Option.map
        (fun a -> Column.Ints a)
        (unbox (function Some (Value.Int k) -> k | _ -> raise_notrace Exit))
    | Some (Value.Str _) ->
      Option.map
        (fun a -> Column.Strs a)
        (unbox (function Some (Value.Str k) -> k | _ -> raise_notrace Exit))
    | Some (Value.Bool _) ->
      Option.map
        (fun a -> Column.Bools a)
        (unbox (function Some (Value.Bool k) -> k | _ -> raise_notrace Exit))
    | _ -> None

(* The column of field [name] over [rows]: typed when every row's field
   has the same kind, boxed otherwise, and [None] when some row lacks the
   field (accessors then fall back to boxed row reads, which return the
   same absence the interpreter sees). *)
let field_column ~target_of name (rows : Value.t array) : Column.t option =
  match scalar_column name rows with
  | Some _ as c -> c
  | None -> (
    match
      Array.map
        (fun r ->
          match Value.field name r with
          | Some v -> v
          | None -> raise_notrace Not_found)
        rows
    with
    | cells -> Some (encode ~target_of cells)
    | exception Not_found -> None)

let of_db (source : (string * Value.t) list) : db =
  (* Which extents materialize, and the dictionary target of each class:
     a class maps to the first extent (in db order) that holds it,
     mirroring how the generators lay stores out. *)
  let rels_raw =
    List.filter_map
      (fun (name, v) ->
        Option.map (fun (cls, rows) -> (name, cls, rows)) (extent_rows v))
      source
  in
  let targets =
    List.map
      (fun (tname, tcls, trows) ->
        let n = Array.length trows in
        let rec dense_from i = i = n || (oid_of_row trows.(i) = i && dense_from (i + 1)) in
        let index =
          lazy
            (let t = Hashtbl.create ((2 * n) + 1) in
             Array.iteri (fun i row -> Hashtbl.replace t (oid_of_row row) i) trows;
             t)
        in
        let dense = lazy (dense_from 0) in
        { tname; tcls; trows; dense; index })
      rels_raw
  in
  let target_of cls = List.find_opt (fun t -> String.equal t.tcls cls) targets in
  let materialize (name, cls, rows) =
    let fields =
      if Array.length rows = 0 then []
      else
        match rows.(0) with
        | Value.Obj o -> List.map fst o.Value.fields
        | _ -> []
    in
    let cols =
      List.filter_map
        (fun field ->
          Option.map (fun c -> (field, c)) (field_column ~target_of field rows))
        fields
    in
    (name, { name; cls; rows; cols; of_set = None })
  in
  let rels = List.map materialize rels_raw in
  let element_cols = Atomic.make 0 in
  (* one slot per [Sets] column; its element relation is built by
     [elements] on first use *)
  let slot (r : relation) attr target off idx total (sets : Value.t array) =
    let build () =
      let m = off.(Array.length sets) in
      let rows = Array.make m Value.Unit and owner = Array.make m 0 in
      Array.iteri
        (fun i s ->
          match s with
          | Value.Set xs ->
            List.iteri
              (fun k e ->
                rows.(off.(i) + k) <- e;
                owner.(off.(i) + k) <- i)
              xs
          | _ -> assert false (* [encode_sets] admits sets only *))
        sets;
      let memo =
        {
          lock = Mutex.create ();
          built = Atomic.make [];
          field_column = field_column ~target_of;
          count = element_cols;
        }
      in
      {
        name = r.name ^ "." ^ attr;
        cls = (List.assoc target rels).cls;
        rows;
        cols = [];
        of_set = Some { target; codes = idx; total; owner; memo };
      }
    in
    ( (r.name, attr),
      { slock = Mutex.create (); elems = Atomic.make None; build } )
  in
  let slots =
    List.concat_map
      (fun (_, (r : relation)) ->
        List.filter_map
          (fun (attr, c) ->
            match c with
            | Column.Sets { target; off; idx; total; sets } ->
              Some (slot r attr target off idx total sets)
            | _ -> None)
          r.cols)
      rels
  in
  {
    source;
    rels;
    slots;
    element_cols;
    rank_lock = Mutex.create ();
    ranked = Atomic.make [];
  }

(* ------------------------------------------------------------------ *)

type stats = {
  relations : int;
  rows : int;
  typed_cols : int;  (** Ints/Strs/Bools/Refs/Sets columns *)
  boxed_cols : int;
  element_cols : int;  (** element columns built so far *)
}

let stats (t : db) : stats =
  List.fold_left
    (fun acc (_, r) ->
      let typed, boxed =
        List.fold_left
          (fun (t, b) (_, c) ->
            match c with Column.Boxed _ -> (t, b + 1) | _ -> (t + 1, b))
          (0, 0) r.cols
      in
      {
        acc with
        relations = acc.relations + 1;
        rows = acc.rows + Array.length r.rows;
        typed_cols = acc.typed_cols + typed;
        boxed_cols = acc.boxed_cols + boxed;
      })
    {
      relations = 0;
      rows = 0;
      typed_cols = 0;
      boxed_cols = 0;
      element_cols = Atomic.get t.element_cols;
    }
    t.rels

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "%d relations, %d rows, %d typed + %d boxed columns, %d element columns \
     built"
    s.relations s.rows s.typed_cols s.boxed_cols s.element_cols
