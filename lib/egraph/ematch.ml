(* E-matching: firing the catalog's declarative patterns against e-classes.

   Patterns are the rules' own interned bodies ({!Rewrite.Rule.patterns})
   — no separate pattern language.  A hole matches a whole e-class and
   binds its representative witness, so substitutions stay ordinary
   {!Rewrite.Subst} values: instantiation and precondition checks reuse
   the BFS machinery unchanged, and the instantiated sides are concrete
   hash-consed terms ready for {!Graph.add_term}.

   Associativity is handled with rewrite rules rather than matching
   windows: two internal reassociation rules (named "assoc", justified as
   {!Graph.Jassoc}) expose every grouping of a composition chain at
   saturation, after which plain binary structural matching sees every
   window the BFS chain matcher would. *)

open Kola.Term
open Lang

type erule = {
  eid : int;  (** position in the compiled catalog; scheduler index *)
  ename : string;
  esource : Rewrite.Rule.t;  (** for preconditions and replay *)
  elhs : wterm;
  erhs : wterm;
  emask : int;
      (** root-head bit a class must contain ({!Rewrite.Rule.head_mask});
          [0] when the pattern has no fixed head *)
  einternal : bool;  (** reassociation scaffolding, invisible in proofs *)
  etimer : string;  (** telemetry name of its match-time distribution *)
}

(* ------------------------------------------------------------------ *)
(* Matching a pattern against an e-class.  Returns every extension of
   [subst] under which some member matches.  Members are read through
   {!Graph.match_view}: a congruent copy would only repeat its first
   twin's matches, once more at every pattern level it sits under. *)

let bind_or_check_func g subst h cls =
  match Rewrite.Subst.find_func subst h with
  | Some b -> (
    match Graph.find_term g (Wf b) with
    | Some c when c = Graph.find g cls -> [ subst ]
    | _ -> [])
  | None -> (
    match Graph.witness g cls with
    | Wf w -> (
      match Rewrite.Subst.bind_func subst h w with
      | Some s -> [ s ]
      | None -> [])
    | _ -> [])

let bind_or_check_pred g subst h cls =
  match Rewrite.Subst.find_pred subst h with
  | Some b -> (
    match Graph.find_term g (Wp b) with
    | Some c when c = Graph.find g cls -> [ subst ]
    | _ -> [])
  | None -> (
    match Graph.witness g cls with
    | Wp w -> (
      match Rewrite.Subst.bind_pred subst h w with
      | Some s -> [ s ]
      | None -> [])
    | _ -> [])

let rec match_wterm g (subst : Rewrite.Subst.t) (pat : wterm) (cls : int) :
    Rewrite.Subst.t list =
  match pat with
  | Wf { Hc.fshape = Hc.HFhole h; _ } ->
    if Graph.class_sort g cls = Func then bind_or_check_func g subst h cls
    else []
  | Wp { Hc.pshape = Hc.HPhole h; _ } ->
    if Graph.class_sort g cls = Pred then bind_or_check_pred g subst h cls
    else []
  | Wv vpat -> (
    (* Value classes are singleton leaves; holes, pairs and constants are
       the BFS value matcher's own cases. *)
    match Graph.witness g cls with
    | Wv v -> (
      match Rewrite.Match.value subst vpat v with
      | Some s -> [ s ]
      | None -> [])
    | _ -> [])
  | _ ->
    let pop, pcs = decompose pat in
    let bit = head_bit pat in
    if Graph.class_sort g cls <> sort_of_op pop then []
    else if bit <> 0 && Graph.class_mask g cls land bit = 0 then []
    else
      List.concat_map
        (fun (n : Graph.enode) ->
          if
            op_equal n.Graph.op pop
            && Array.length n.Graph.children = List.length pcs
          then
            (* Thread the substitution through the children left to
               right; each child may match several ways. *)
            let rec go substs i = function
              | [] -> substs
              | p :: rest ->
                let c = Graph.find g n.Graph.children.(i) in
                let substs =
                  List.concat_map (fun s -> match_wterm g s p c) substs
                in
                if substs = [] then [] else go substs (i + 1) rest
            in
            go [ subst ] 0 pcs
          else [])
        (Graph.match_view g cls)

(* ------------------------------------------------------------------ *)
(* Preconditions.  The BFS engine checks properties of the exact subterm
   a hole matched; here a hole binds a whole class, so the check may pass
   on a different member than the representative.  When the witness
   fails, scan the class for a member that satisfies the property and
   upgrade the binding to it — the instantiated sides are then built from
   precondition-passing terms and replay under the BFS checker. *)

let rebind_func (s : Rewrite.Subst.t) h w =
  { s with Rewrite.Subst.funcs = (h, w) :: List.remove_assoc h s.funcs }

let check_preconditions g schema (er : erule) (subst : Rewrite.Subst.t) :
    Rewrite.Subst.t option =
  List.fold_left
    (fun acc { Rewrite.Rule.prop; hole } ->
      match acc with
      | None -> None
      | Some s -> (
        match Rewrite.Subst.find_func s hole with
        | Some f ->
          if Rewrite.Props.holds schema prop f.Hc.fterm then Some s
          else (
            match Graph.find_term g (Wf f) with
            | None -> None
            | Some c ->
              let rec scan = function
                | [] -> None
                | (n : Graph.enode) :: rest -> (
                  match n.Graph.witness with
                  | Wf w when Rewrite.Props.holds schema prop w.Hc.fterm ->
                    Some (rebind_func s hole w)
                  | _ -> scan rest)
              in
              scan (Graph.nodes g c))
        | None -> (
          match Rewrite.Subst.find_value s hole with
          | Some v ->
            if Rewrite.Props.holds_value prop v.Hc.vterm then Some s
            else None
          | None -> None)))
    (Some subst) er.esource.Rewrite.Rule.preconditions

(* ------------------------------------------------------------------ *)
(* Instantiation: pattern under a complete substitution is ground. *)

let inst (subst : Rewrite.Subst.t) (pat : wterm) : wterm =
  match pat with
  | Wf f -> Wf (Rewrite.Subst.apply_func subst f)
  | Wp p -> Wp (Rewrite.Subst.apply_pred subst p)
  | Wv v -> Wv (Rewrite.Subst.apply_value subst v)
  | Wq (f, v) ->
    Wq (Rewrite.Subst.apply_func subst f, Rewrite.Subst.apply_value subst v)

(* ------------------------------------------------------------------ *)
(* Compiling the catalog. *)

(* Reserved hole name for the chain prefix of query-rule matching; the
   middle dots keep it out of any catalog rule's namespace. *)
let prefix_hole = "·prefix·"

let compile_rule ?(internal = false) (r : Rewrite.Rule.t) : erule list =
  let name = r.Rewrite.Rule.name in
  let etimer = "egraph.match_ms." ^ name in
  match Rewrite.Rule.patterns r with
  | Rewrite.Rule.Fun_pats (l, rhs) ->
    [
      {
        eid = 0;
        ename = name;
        esource = r;
        elhs = Wf l;
        erhs = Wf rhs;
        emask = Rewrite.Rule.head_mask r;
        einternal = internal;
        etimer;
      };
    ]
  | Rewrite.Rule.Pred_pats (l, rhs) ->
    [
      {
        eid = 0;
        ename = name;
        esource = r;
        elhs = Wp l;
        erhs = Wp rhs;
        emask = Rewrite.Rule.head_mask r;
        einternal = internal;
        etimer;
      };
    ]
  | Rewrite.Rule.Query_pats ((lf, lv), (rf, rv)) ->
    (* BFS matches a query rule against the tail of the body chain plus
       the argument.  At saturation every grouping of the body chain is a
       member of the body class, so two pattern forms cover all tails:
       the whole body (empty prefix) and prefix ∘ tail. *)
    let ph = Hc.fhole prefix_hole in
    [
      {
        eid = 0;
        ename = name;
        esource = r;
        elhs = Wq (lf, lv);
        erhs = Wq (rf, rv);
        emask = 0;
        einternal = internal;
        etimer;
      };
      {
        eid = 0;
        ename = name;
        esource = r;
        elhs = Wq (Hc.compose ph lf, lv);
        erhs = Wq (Hc.compose ph rf, rv);
        emask = 0;
        einternal = internal;
        etimer;
      };
    ]

(* The two internal reassociation rules.  Genuine catalog rules (so their
   steps replay through {!Rewrite.Rule.apply_query} like any other), but
   marked internal: saturation justifies them as {!Graph.Jassoc} and
   proof post-processing drops them, because the BFS path checker already
   works modulo associativity. *)
let assoc_rules =
  let a = Fhole "·a·" and b = Fhole "·b·" and c = Fhole "·c·" in
  let left = Compose (Compose (a, b), c)
  and right = Compose (a, Compose (b, c)) in
  [ Rewrite.Rule.fun_rule ~name:"assoc" left right;
    Rewrite.Rule.fun_rule ~name:"assoc-1" right left ]

let compile (rules : Rewrite.Rule.t list) : erule list =
  List.concat_map (compile_rule ~internal:false) rules
  @ List.concat_map (compile_rule ~internal:true) assoc_rules
  |> List.mapi (fun i er -> { er with eid = i })

(* ------------------------------------------------------------------ *)
(* One matched instance, ready to apply. *)

type match_inst = {
  mrule : erule;
  mlhs : wterm;  (** instantiated left side; a member of the matched class *)
  mrhs : wterm;
}

(* One rule against one class.  Reads only — safe from pool domains
   between rebuilds (after {!Graph.canonicalize}); telemetry records into
   the calling domain's own buffer. *)
let matches_of_rule g schema (er : erule) (cls : int) : match_inst list =
  let module Telemetry = Kola_telemetry.Telemetry in
  if er.emask <> 0 && Graph.class_mask g cls land er.emask = 0 then []
  else if Telemetry.enabled () then begin
    (* Per-rule matcher time, aggregated as a distribution; the disabled
       path below stays clock-free. *)
    let t0 = Telemetry.now () in
    let res =
      match_wterm g Rewrite.Subst.empty er.elhs cls
      |> List.filter_map (fun s ->
             match check_preconditions g schema er s with
             | None -> None
             | Some s ->
               Some { mrule = er; mlhs = inst s er.elhs; mrhs = inst s er.erhs })
    in
    Telemetry.observe er.etimer ((Telemetry.now () -. t0) *. 1000.);
    res
  end
  else
    match_wterm g Rewrite.Subst.empty er.elhs cls
    |> List.filter_map (fun s ->
           match check_preconditions g schema er s with
           | None -> None
           | Some s ->
             Some { mrule = er; mlhs = inst s er.elhs; mrhs = inst s er.erhs })

let matches_in_class g schema (erules : erule list) (cls : int) :
    match_inst list =
  List.concat_map (fun er -> matches_of_rule g schema er cls) erules
