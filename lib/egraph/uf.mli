(** Union-find over dense integer ids: path compression on [find], union
    by rank.  One element per e-class; merged classes keep a single live
    root. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
(** Elements allocated so far (roots and non-roots alike). *)

val make : t -> int
(** Allocate a fresh singleton class and return its id. *)

val find : t -> int -> int
(** Representative of the class containing the element; compresses the
    path it walks. *)

val same : t -> int -> int -> bool

val union : t -> int -> int -> int
(** Merge the two classes (by rank) and return the surviving root; when
    they already coincide, the shared root is returned unchanged. *)
