(* The e-graph: e-classes over a union-find, hash-consed e-nodes keyed by
   (operator, canonical child classes), and a worklist-driven rebuild that
   restores congruence closure after unions.

   Proof forest (Nieuwenhuis–Oliveras style): every distinct term ever
   added owns a proof node; each union adds exactly one edge between the
   two concrete terms that justified it (a rule's instantiated sides, or
   the witnesses of two e-nodes that became congruent), re-rooting one
   tree so the forest partition always equals the class partition.
   [explain] walks the tree path between two terms and flattens congruence
   edges recursively, lifting child rewrites through the parent operator —
   yielding a step-by-step derivation replayable against the BFS engine.

   A graph belongs to the domain that saturates it.  Between
   [canonicalize] and the next mutation the classes do not change, and
   the matcher reads each class through its [match_view]. *)

open Lang

type just =
  | Jrule of string  (** catalog rule name as fired, lhs → rhs *)
  | Jassoc  (** internal ∘-reassociation; invisible modulo associativity *)
  | Jcong  (** same operator, child classes pairwise equal *)

(* A proof-forest node.  [pparent = Some (p, j, fwd)] asserts this node's
   term rewrites to [p]'s term by [j] ([fwd = false]: by [j] read
   right-to-left). *)
type pnode = {
  pterm : wterm;
  mutable pparent : (pnode * just * bool) option;
}

type enode = {
  op : op;
  children : int array;  (** class ids; canonicalized in place on rebuild *)
  witness : wterm;  (** the concrete term this e-node was created from *)
  wproof : pnode;
  mutable ecls : int;  (** class at insertion; resolve through [find] *)
}

type eclass = {
  mutable nodes : enode list;  (** every member, congruent copies included *)
  mutable parents : enode list;  (** e-nodes with this class as a child *)
  mutable cmask : int;  (** OR of member operators' head bits *)
  csort : sort;
  cwitness : wterm;  (** first member's witness; stable across merges *)
}

module Key = struct
  type t = op * int array

  let equal (o1, c1) (o2, c2) =
    op_equal o1 o2
    && Array.length c1 = Array.length c2
    &&
    let rec go i = i < 0 || (c1.(i) = c2.(i) && go (i - 1)) in
    go (Array.length c1 - 1)

  let hash (o, cs) =
    Array.fold_left
      (fun acc c -> ((acc * 131) + c) land max_int)
      (op_hash o) cs
end

module Ktbl = Hashtbl.Make (Key)

type t = {
  uf : Uf.t;
  classes : (int, eclass) Hashtbl.t;  (** root id → class data *)
  hashcons : enode Ktbl.t;  (** canonical (op, children) → e-node *)
  proofs : (wkey, pnode) Hashtbl.t;
  term_class : (wkey, int) Hashtbl.t;  (** added term → class at insertion *)
  mutable dirty : int list;  (** classes whose parents need recanonicalizing *)
  mutable touched : int list;  (** classes changed since last [take_touched] *)
  mutable n_nodes : int;
  mutable n_unions : int;
  mutable views : enode list array;
      (** root id → matcher view (see [canonicalize]); read only while
          [viewable] *)
  mutable viewable : bool;
      (** set by [canonicalize], cleared by every new e-node and union *)
}

let create () =
  {
    uf = Uf.create ();
    classes = Hashtbl.create 256;
    hashcons = Ktbl.create 256;
    proofs = Hashtbl.create 256;
    term_class = Hashtbl.create 256;
    dirty = [];
    touched = [];
    n_nodes = 0;
    n_unions = 0;
    views = [||];
    viewable = false;
  }

let find t i = Uf.find t.uf i
let n_nodes t = t.n_nodes
let n_unions t = t.n_unions
let n_classes t = Hashtbl.length t.classes
let eclass t i = Hashtbl.find t.classes (find t i)
let nodes t i = (eclass t i).nodes
let class_mask t i = (eclass t i).cmask
let class_sort t i = (eclass t i).csort
let witness t i = (eclass t i).cwitness
let iter_classes t f = Hashtbl.iter (fun root c -> f root c) t.classes
let parents t i = (eclass t i).parents

(* Live roots in ascending id order — a stable iteration order for the
   match phase, independent of hash-table internals. *)
let class_roots t =
  List.sort compare (Hashtbl.fold (fun root _ acc -> root :: acc) t.classes [])

(* Roots (canonical) of every class changed — created or merged into —
   since the previous call; clears the accumulator.  Drives the
   saturation loop's freshness stamps. *)
let take_touched t =
  let roots = List.sort_uniq compare (List.map (Uf.find t.uf) t.touched) in
  t.touched <- [];
  roots

let canon_key t (n : enode) : Key.t =
  Array.iteri (fun i c -> n.children.(i) <- find t c) n.children;
  (n.op, n.children)

(* Rebuild leaves congruent copies in their class: every e-node whose key
   collided with an existing one is united into its class and kept, with
   its own witness.  A copy matches exactly like the first member with
   the same canonical key, so the matcher's view keeps only that first
   member, in list order: the distinct matches and the order in which
   each first appears are those of the full list. *)
let first_of_each_key t (ns : enode list) : enode list =
  match ns with
  | [] | [ _ ] -> ns
  | _ ->
    let seen = Ktbl.create 16 in
    let kept =
      List.filter
        (fun n ->
          let key = canon_key t n in
          if Ktbl.mem seen key then false
          else begin
            Ktbl.replace seen key ();
            true
          end)
        ns
    in
    if List.compare_lengths kept ns = 0 then ns else kept

let canonicalize t =
  let views = Array.make (Uf.length t.uf) [] in
  Hashtbl.iter
    (fun root c -> views.(root) <- first_of_each_key t c.nodes)
    t.classes;
  t.views <- views;
  t.viewable <- true

let match_view t i =
  if not t.viewable then
    invalid_arg "Graph.match_view: the graph changed since canonicalize";
  t.views.(find t i)

(* ------------------------------------------------------------------ *)
(* Adding terms.  Memoized per term: re-adding any term previously added
   returns its (current) class without touching the graph, which is what
   makes "re-add a class witness" a sound way to reconstruct bindings. *)

let rec add_term t (w : wterm) : int =
  let k = wkey w in
  match Hashtbl.find_opt t.term_class k with
  | Some c -> find t c
  | None ->
    let op, cws = decompose w in
    let children = Array.of_list (List.map (add_term t) cws) in
    let key = (op, children) in
    (match Ktbl.find_opt t.hashcons key with
    | Some n ->
      (* Existing e-node; [w] is an alias spelling of its class.  The
         fresh proof node hangs off the e-node's witness by congruence
         (same operator, same child classes). *)
      let c = find t n.ecls in
      let pn = { pterm = w; pparent = None } in
      pn.pparent <- Some (n.wproof, Jcong, true);
      Hashtbl.replace t.proofs k pn;
      Hashtbl.replace t.term_class k c;
      c
    | None ->
      let id = Uf.make t.uf in
      let pn = { pterm = w; pparent = None } in
      let n = { op; children; witness = w; wproof = pn; ecls = id } in
      Hashtbl.replace t.classes id
        {
          nodes = [ n ];
          parents = [];
          cmask = head_bit w;
          csort = sort_of_op op;
          cwitness = w;
        };
      Ktbl.replace t.hashcons key n;
      Hashtbl.replace t.proofs k pn;
      Hashtbl.replace t.term_class k id;
      t.touched <- id :: t.touched;
      t.n_nodes <- t.n_nodes + 1;
      t.viewable <- false;
      (* Register as a parent of each distinct child class. *)
      let seen = ref [] in
      Array.iter
        (fun c ->
          let r = find t c in
          if not (List.mem r !seen) then begin
            seen := r :: !seen;
            let cc = Hashtbl.find t.classes r in
            cc.parents <- n :: cc.parents
          end)
        children;
      id)

(* Current class of a previously added term; [None] if never added. *)
let find_term t (w : wterm) : int option =
  Option.map (find t) (Hashtbl.find_opt t.term_class (wkey w))

let add_query t (hq : Kola.Term.Hc.hquery) : int =
  add_term t (Wq (hq.Kola.Term.Hc.hbody, hq.Kola.Term.Hc.harg))

(* ------------------------------------------------------------------ *)
(* Unions and rebuild. *)

(* Reverse every parent pointer above [pn] so it becomes the root of its
   proof tree; edge orientations flip with the pointers. *)
let rec reroot (pn : pnode) =
  match pn.pparent with
  | None -> ()
  | Some (par, j, fwd) ->
    reroot par;
    par.pparent <- Some (pn, j, not fwd);
    pn.pparent <- None

(* Merge the classes of [a] and [b], justified by [just] rewriting [ja]
   (a term of [a]'s class) into [jb] (a term of [b]'s class).  Both terms
   must already have been added.  Returns [false] when the classes
   already coincided (nothing recorded). *)
let union t ~ja ~jb ~just a b : bool =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let pa = Hashtbl.find t.proofs (wkey ja) in
    let pb = Hashtbl.find t.proofs (wkey jb) in
    reroot pa;
    pa.pparent <- Some (pb, just, true);
    let ca = Hashtbl.find t.classes ra and cb = Hashtbl.find t.classes rb in
    assert (ca.csort = cb.csort);
    let root = Uf.union t.uf ra rb in
    let cw, cl = if root = ra then (ca, cb) else (cb, ca) in
    cw.nodes <- List.rev_append cl.nodes cw.nodes;
    cw.parents <- List.rev_append cl.parents cw.parents;
    cw.cmask <- cw.cmask lor cl.cmask;
    Hashtbl.remove t.classes (if root = ra then rb else ra);
    Hashtbl.replace t.classes root cw;
    t.dirty <- root :: t.dirty;
    t.touched <- root :: t.touched;
    t.n_unions <- t.n_unions + 1;
    t.viewable <- false;
    true
  end

(* Restore congruence: recanonicalize the parents of every merged class;
   parents whose keys collide with an existing e-node unite their classes
   (with a congruence proof edge), possibly dirtying further classes.
   Iterates to a fixpoint. *)
let rebuild t =
  while t.dirty <> [] do
    let dirty = t.dirty in
    t.dirty <- [];
    let roots =
      List.sort_uniq compare (List.map (fun i -> find t i) dirty)
    in
    List.iter
      (fun r ->
        match Hashtbl.find_opt t.classes r with
        | None -> ()  (* merged away by an earlier collision this pass *)
        | Some c ->
          List.iter
            (fun n ->
              let key = canon_key t n in
              match Ktbl.find_opt t.hashcons key with
              | Some m when m != n ->
                if find t m.ecls <> find t n.ecls then
                  ignore
                    (union t ~ja:n.witness ~jb:m.witness ~just:Jcong n.ecls
                       m.ecls)
              | _ -> Ktbl.replace t.hashcons key n)
            c.parents)
      roots
  done

(* ------------------------------------------------------------------ *)
(* Explanations. *)

exception Proof_too_large

type step = just * bool * wterm
(** one rewrite: justification, direction (false = right-to-left), and
    the term it produces *)

(* Path from [p] up to its tree root, as (node, edge-to-parent) pairs. *)
let ancestors (p : pnode) =
  let rec go acc p =
    match p.pparent with
    | None -> List.rev ((p, None) :: acc)
    | Some (par, j, fwd) -> go ((p, Some (par, j, fwd)) :: acc) par
  in
  go [] p

let rec explain_terms t budget (w1 : wterm) (w2 : wterm) : step list =
  if wkey w1 = wkey w2 then []
  else begin
    let p1 = Hashtbl.find t.proofs (wkey w1) in
    let p2 = Hashtbl.find t.proofs (wkey w2) in
    let up1 = ancestors p1 in
    let on_path1 = List.map fst up1 in
    (* Walk p2 upward to the first node on p1's root path — the LCA. *)
    let rec to_lca acc p =
      if List.memq p on_path1 then (p, List.rev acc)
      else
        match p.pparent with
        | None -> invalid_arg "Graph.explain: terms not equal"
        | Some (par, j, fwd) -> to_lca ((p, par, j, fwd) :: acc) par
    in
    let lca, down_rev = to_lca [] p2 in
    (* Edges from w1 up to the LCA, in stored orientation... *)
    let rec up_edges = function
      | (p, Some (par, j, fwd)) :: rest when not (p == lca) ->
        (p.pterm, par.pterm, j, fwd) :: up_edges rest
      | _ -> []
    in
    let ups = up_edges up1 in
    (* ...then from the LCA down to w2, orientation reversed. *)
    let downs =
      List.rev_map (fun (p, par, j, fwd) -> (par.pterm, p.pterm, j, not fwd))
        down_rev
    in
    List.concat_map
      (fun (a, b, j, fwd) -> edge_steps t budget a b j fwd)
      (ups @ downs)
  end

(* One forest edge as concrete rewrite steps.  Rule and assoc edges are a
   single root rewrite of the edge's own terms; congruence edges rewrite
   the children left to right, each child explanation lifted through the
   parent operator with already-rewritten siblings on the left. *)
and edge_steps t budget (a : wterm) (b : wterm) (j : just) (fwd : bool) :
    step list =
  decr budget;
  if !budget < 0 then raise Proof_too_large;
  match j with
  | Jrule _ | Jassoc -> [ (j, fwd, b) ]
  | Jcong ->
    let op, ca = decompose a in
    let _, cb = decompose b in
    let ca = Array.of_list ca and cb = Array.of_list cb in
    let k = Array.length ca in
    let steps = ref [] in
    for i = 0 to k - 1 do
      let child_steps = explain_terms t budget ca.(i) cb.(i) in
      let ctx (w : wterm) =
        Lang.rebuild op
          (List.init k (fun m ->
               if m < i then cb.(m) else if m = i then w else ca.(m)))
      in
      List.iter
        (fun (j', fwd', w') -> steps := (j', fwd', ctx w') :: !steps)
        child_steps
    done;
    List.rev !steps

let explain ?(max_steps = 200_000) t (w1 : wterm) (w2 : wterm) : step list =
  explain_terms t (ref max_steps) w1 w2
