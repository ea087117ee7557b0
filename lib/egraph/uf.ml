(* Union-find over dense integer ids: path compression on find, union by
   rank.  The e-graph allocates one element per e-class; merged classes
   keep a single live root, and every structure keyed by class id is
   resolved through [find] before use. *)

type t = {
  mutable parent : int array;
  mutable rank : int array;
  mutable len : int;
}

let create ?(capacity = 256) () =
  let capacity = max 1 capacity in
  { parent = Array.make capacity 0; rank = Array.make capacity 0; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.parent in
  if t.len >= cap then begin
    let parent = Array.make (2 * cap) 0 in
    let rank = Array.make (2 * cap) 0 in
    Array.blit t.parent 0 parent 0 cap;
    Array.blit t.rank 0 rank 0 cap;
    t.parent <- parent;
    t.rank <- rank
  end

(* A fresh singleton class; returns its id. *)
let make t =
  grow t;
  let id = t.len in
  t.parent.(id) <- id;
  t.len <- t.len + 1;
  id

(* Two-pass find with full path compression. *)
let find t i =
  let rec root j = if t.parent.(j) = j then j else root t.parent.(j) in
  let r = root i in
  let rec compress j =
    if t.parent.(j) <> r then begin
      let next = t.parent.(j) in
      t.parent.(j) <- r;
      compress next
    end
  in
  compress i;
  r

let same t a b = find t a = find t b

(* Union by rank; returns the surviving root.  No-op (returns the shared
   root) when the classes already coincide. *)
let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    let win, lose =
      if t.rank.(ra) > t.rank.(rb) then (ra, rb)
      else if t.rank.(ra) < t.rank.(rb) then (rb, ra)
      else begin
        t.rank.(ra) <- t.rank.(ra) + 1;
        (ra, rb)
      end
    in
    t.parent.(lose) <- win;
    win
  end
