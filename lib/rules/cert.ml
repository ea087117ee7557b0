(* Rule certification: the reproduction's analogue of the paper's Larch/LP
   machine-checked proofs ("we have constructed proofs of over 500 rules").

   Two strategies share one checking core:

   - [`Sampled] (the original): instantiate every hole with random
     well-typed terms drawn from pools over the paper schema, discard
     instantiations that do not type, and compare the two sides'
     denotations on random inputs of the inferred input type.

   - [`Exhaustive] (small-scope, in the Alloy tradition): enumerate *all*
     hole instantiations built from a finite combinator grammar up to a
     depth bound ([scope]), and compare denotations on *enumerated* small
     inputs per inferred type.  When the instantiation space at the
     requested scope exceeds the check [budget] the scope shrinks until it
     fits; if even scope 1 does not fit, certification falls back to the
     randomized checker ([`Auto] behaviour).

   Neither is proof — but it is the same artifact (an independently
   validated rule pool) and it catches the same defect class: both
   strategies reject the paper's printed rule 13 (see test_rules_cert).

   Verdicts are cacheable: {!fingerprint} digests the rule's canonical
   rendering (reassociated patterns + preconditions + {!cert_version}),
   deliberately *not* hash-cons ids, which are process-dependent.
   {!Cache} persists verdicts to a versioned file so re-certifying a rule
   pack is O(1) after the first load. *)

open Kola
open Kola.Term
module Subst = Rewrite.Subst
module Store = Datagen.Store
module Telemetry = Kola_telemetry.Telemetry

(* Bump when the checking semantics change: enumeration grammars, input
   universes, RNG draw order, comparison rules.  Part of both the cache
   file header and every fingerprint, so stale certificates can never be
   mistaken for current ones. *)
let cert_version = 2

type mode =
  | Sampled
  | Exhaustive of int  (** the scope (grammar depth bound) it ran at *)

let mode_name = function
  | Sampled -> "sampled"
  | Exhaustive s -> Fmt.str "exhaustive@%d" s

type result = {
  rule : Rewrite.Rule.t;
  instances : int;      (** well-typed instantiations exercised *)
  checks : int;         (** (instance, input) pairs compared *)
  counterexample : (Subst.t * Value.t) option;
  mode : mode;          (** the strategy that actually ran *)
}

type ('a, 'b) either = L of 'a | R of 'b

type pool = {
  funcs : func list;
  preds : pred list;
  values : Value.t list;
}

let store = Store.generate { Store.default_params with people = 14; vehicles = 10; seed = 99 }
let db = Store.db store

let person () = List.nth store.Store.persons 0
let vehicle () = List.nth store.Store.vehicles 0

let default_pool =
  {
    funcs =
      [
        Id;
        Prim "age";
        Prim "addr";
        Prim "child";
        Prim "cars";
        Prim "grgs";
        Prim "name";
        Compose (Prim "city", Prim "addr");
        Pairf (Prim "age", Prim "age");
        Pairf (Id, Prim "child");
        Kf (Value.Int 7);
        Kf (Value.set []);
        Iterate (Kp true, Prim "age");
        Iterate (Oplus (Gt, Pairf (Prim "age", Kf (Value.Int 30))), Id);
        Con (Oplus (Gt, Pairf (Prim "age", Kf (Value.Int 25))), Prim "child", Kf (Value.set []));
        Agg Count;
        Pi1;
        Pi2;
        Times (Prim "age", Prim "name");
        Flat;
      ];
    preds =
      [
        Kp true;
        Kp false;
        Eq;
        Gt;
        Leq;
        In;
        Oplus (Gt, Pairf (Prim "age", Kf (Value.Int 25)));
        Oplus (Leq, Pairf (Prim "age", Kf (Value.Int 40)));
        Oplus (Eq, Pairf (Compose (Prim "city", Prim "addr"), Kf (Value.Str "Boston")));
        Andp (Oplus (Gt, Pairf (Prim "age", Kf (Value.Int 10))), Kp true);
        Inv (Oplus (Gt, Pairf (Prim "age", Kf (Value.Int 50))));
        Cp (Gt, Value.Int 20);
        Conv Gt;
      ];
    values =
      [
        Value.Int 25;
        Value.Int 0;
        Value.Str "Boston";
        Value.set [];
        Value.Named "P";
        Value.Named "V";
        Value.set [ person () ];
        person ();
        vehicle ();
      ];
  }

(* Random well-typed value of type [ty], drawing objects from the store. *)
let rec value_of_ty rng (ty : Ty.t) : Value.t option =
  match ty with
  | Ty.Unit -> Some Value.Unit
  | Ty.Bool -> Some (Value.Bool (Store.int rng 2 = 0))
  | Ty.Int -> Some (Value.Int (Store.int rng 100 - 20))
  | Ty.Str -> Some (Value.Str (Store.pick rng [ "Boston"; "Providence"; "x" ]))
  | Ty.Pair (a, b) -> (
    match value_of_ty rng a, value_of_ty rng b with
    | Some va, Some vb -> Some (Value.Pair (va, vb))
    | _ -> None)
  | Ty.Set a | Ty.Bag a | Ty.List a ->
    let n = Store.int rng 4 in
    let elems = List.init n (fun _ -> value_of_ty rng a) in
    if List.for_all Option.is_some elems then
      Some (Value.set (List.map Option.get elems))
    else None
  | Ty.Obj "Person" -> Some (Store.pick rng store.Store.persons)
  | Ty.Obj "Vehicle" -> Some (Store.pick rng store.Store.vehicles)
  | Ty.Obj "Address" -> Some (Store.pick rng store.Store.addresses)
  | Ty.Obj _ -> None
  | Ty.Var _ ->
    (* unconstrained: any concrete type will do *)
    value_of_ty rng Ty.Int

(* A pool interned: holes bind interned nodes, and rule patterns are
   instantiated through the engine's own {!Rewrite.Subst}. *)
type fillers = {
  ffuncs : Hc.fnode list;
  fpreds : Hc.pnode list;
  fvalues : Hc.vnode list;
}

let fillers_of (pool : pool) =
  {
    ffuncs = List.map Hc.of_func pool.funcs;
    fpreds = List.map Hc.of_pred pool.preds;
    fvalues = List.map Hc.of_value pool.values;
  }

(* Build a random substitution for the rule's holes. *)
let random_subst rng fillers (holes : string list) : Subst.t =
  List.fold_left
    (fun subst hole ->
      match String.split_on_char ':' hole with
      | [ "f"; h ] -> { subst with Subst.funcs = (h, Store.pick rng fillers.ffuncs) :: subst.Subst.funcs }
      | [ "p"; h ] -> { subst with Subst.preds = (h, Store.pick rng fillers.fpreds) :: subst.Subst.preds }
      | [ "v"; h ] -> { subst with Subst.values = (h, Store.pick rng fillers.fvalues) :: subst.Subst.values }
      | _ -> subst)
    Subst.empty holes

let holes_of_rule (r : Rewrite.Rule.t) =
  let both f a b = f a @ f b in
  let uniq xs = List.sort_uniq String.compare xs in
  match r.Rewrite.Rule.body with
  | Rewrite.Rule.Fun_rule (l, rr) -> uniq (both Term.holes_func l rr)
  | Rewrite.Rule.Pred_rule (l, rr) ->
    (* wrap predicates in a dummy iterate to reuse holes_func *)
    uniq (both (fun p -> Term.holes_func (Iterate (p, Id))) l rr)
  | Rewrite.Rule.Query_rule ((lf, la), (rf, ra)) ->
    uniq
      (Term.holes_func lf @ Term.holes_func rf
      @ Term.holes_func (Kf la) @ Term.holes_func (Kf ra))

(* Compare both sides of an instantiated rule, drawing inputs of the
   inferred LHS input type from [inputs_for].  Shared by both strategies;
   only the input source differs. *)
let check_instance_with ~inputs_for schema (r : Rewrite.Rule.t)
    (subst : Subst.t) : (int, Value.t) either =
  let eval_both mk_l mk_r input_ty =
    let run mk v =
      try Ok (Eval.deep_resolve (Eval.ctx ~db ()) (mk v))
      with Eval.Error _ | Schema.Schema_error _ -> Error ()
    in
    let rec go vs checks =
      match vs () with
      | Seq.Nil -> L checks
      | Seq.Cons (v, rest) -> (
        match run mk_l v, run mk_r v with
        | Ok a, Ok b when Value.equal a b -> go rest (checks + 1)
        | Error (), Error () -> go rest (checks + 1)
        | Ok _, Ok _ | Ok _, Error () | Error (), Ok _ -> R v)
    in
    go (inputs_for input_ty) 0
  in
  (* Typing reads the instantiated sides' plain views; evaluation runs on
     the interned nodes themselves. *)
  let run_func f v = Eval.hfunc (Eval.ctx ~db ()) f v in
  match Rewrite.Rule.patterns r with
  | Rewrite.Rule.Fun_pats (l, rr) -> (
    let l = Subst.apply_func subst l and rr = Subst.apply_func subst rr in
    match
      Typing.func_ty schema (Hc.to_func l), Typing.func_ty schema (Hc.to_func rr)
    with
    | (lin, _), (rin, _) -> (
      (* require both sides to type; use the more specific input type *)
      let input_ty = match lin with Ty.Var _ -> rin | t -> t in
      eval_both (run_func l) (run_func rr) input_ty)
    | exception Typing.Type_error _ | exception Schema.Schema_error _ -> L 0)
  | Rewrite.Rule.Pred_pats (l, rr) -> (
    let l = Subst.apply_pred subst l and rr = Subst.apply_pred subst rr in
    match
      Typing.pred_ty schema (Hc.to_pred l), Typing.pred_ty schema (Hc.to_pred rr)
    with
    | lin, rin -> (
      let input_ty = match lin with Ty.Var _ -> rin | t -> t in
      let run_pred p v = Value.Bool (Eval.hpred (Eval.ctx ~db ()) p v) in
      eval_both (run_pred l) (run_pred rr) input_ty)
    | exception Typing.Type_error _ | exception Schema.Schema_error _ -> L 0)
  | Rewrite.Rule.Query_pats ((lf, la), (rf, ra)) -> (
    let la = Subst.apply_value subst la in
    let run_query f a =
      Eval.hrun (Eval.ctx ~db ()) { Hc.hbody = Subst.apply_func subst f; harg = a }
    in
    match (run_query lf la, run_query rf (Subst.apply_value subst ra)) with
    | a, b when Value.equal a b -> L 1
    | _ -> R (Hc.to_value la)
    | exception Eval.Error _ -> L 0
    | exception Typing.Type_error _ -> L 0
    | exception Schema.Schema_error _ -> L 0)

(* Up to [inputs] random values of [ty], drawn lazily so the RNG sees the
   same draw order as the pre-refactor checker (one draw per check). *)
let sampled_inputs rng ~inputs ty =
  let drawn = ref 0 in
  Seq.of_dispenser (fun () ->
      if !drawn >= inputs then None
      else begin
        incr drawn;
        value_of_ty rng ty
      end)

(* ------------------------------------------------------------------ *)
(* Small-scope enumeration: a finite combinator grammar indexed by depth,
   and finite input universes per type.  Everything here is deterministic
   and ordered, so a verdict at a given (scope, cert_version) is a stable
   fact about the rule. *)

module Enum = struct
  (* Depth-1 atoms.  Small on purpose: scope-2 closures are quadratic in
     these lists and every instantiation is denotationally compared. *)
  let funcs1 =
    [
      Id;
      Prim "age";
      Prim "addr";
      Prim "child";
      Prim "name";
      Prim "cars";
      Kf (Value.Int 1);
      Kf (Value.set []);
      Pi1;
      Pi2;
      Flat;
      Agg Count;
    ]

  let preds1 = [ Kp true; Kp false; Eq; Gt; Leq; In ]

  let values1 =
    [
      Value.Int 0;
      Value.Int 25;
      Value.Str "Boston";
      Value.set [];
      Value.Named "P";
      person ();
      vehicle ();
    ]

  (* The grammar interned once per depth: every instantiation binds holes
     to these shared nodes. *)
  let memo_f : (int, Hc.fnode list) Hashtbl.t = Hashtbl.create 4
  let memo_p : (int, Hc.pnode list) Hashtbl.t = Hashtbl.create 4
  let memo_v : (int, Hc.vnode list) Hashtbl.t = Hashtbl.create 4

  let memo tbl d build =
    match Hashtbl.find_opt tbl d with
    | Some xs -> xs
    | None ->
      let xs = build () in
      Hashtbl.add tbl d xs;
      xs

  let rec funcs d =
    memo memo_f (max d 1) @@ fun () ->
    if d <= 1 then List.map Hc.of_func funcs1
    else
      let fs = funcs (d - 1) and ps = preds (d - 1) in
      fs
      @ List.concat_map (fun f -> List.map (fun g -> Hc.compose f g) fs) fs
      @ List.concat_map (fun f -> List.map (fun g -> Hc.pairf f g) fs) fs
      @ List.concat_map (fun p -> List.map (fun f -> Hc.iterate p f) fs) ps

  and preds d =
    memo memo_p (max d 1) @@ fun () ->
    if d <= 1 then List.map Hc.of_pred preds1
    else
      let fs = funcs (d - 1) and ps = preds (d - 1) in
      ps
      @ List.concat_map (fun p -> List.map (fun f -> Hc.oplus p f) fs) ps
      @ List.map Hc.inv ps
      @ List.map Hc.conv ps

  let values d =
    memo memo_v (if d <= 1 then 1 else 2) @@ fun () ->
    let vs = List.map Hc.of_value values1 in
    if d <= 1 then vs
    else
      vs
      @ List.concat_map (fun a -> List.map (fun b -> Hc.vpair a b) vs) vs
      @ List.map (fun v -> Hc.of_value (Value.set [ v ])) values1

  let take n l = List.filteri (fun i _ -> i < n) l

  (* Finite input universe per type; capped by the caller.  The integers
     straddle the age thresholds the pool predicates test. *)
  let rec inputs_of_ty (ty : Ty.t) : Value.t list =
    match ty with
    | Ty.Unit -> [ Value.Unit ]
    | Ty.Bool -> [ Value.Bool true; Value.Bool false ]
    | Ty.Int ->
      [ Value.Int (-1); Value.Int 0; Value.Int 1; Value.Int 26; Value.Int 30 ]
    | Ty.Str -> [ Value.Str "Boston"; Value.Str "x" ]
    | Ty.Pair (a, b) ->
      let va = take 4 (inputs_of_ty a) and vb = take 4 (inputs_of_ty b) in
      List.concat_map (fun x -> List.map (fun y -> Value.Pair (x, y)) vb) va
    | Ty.Set a | Ty.Bag a | Ty.List a ->
      let u = take 3 (inputs_of_ty a) in
      let singles = List.map (fun x -> Value.set [ x ]) u in
      let doubles =
        match u with
        | x :: rest -> List.map (fun y -> Value.set [ x; y ]) rest
        | [] -> []
      in
      (Value.set [] :: singles) @ doubles
    | Ty.Obj "Person" -> take 3 store.Store.persons
    | Ty.Obj "Vehicle" -> take 2 store.Store.vehicles
    | Ty.Obj "Address" -> take 2 store.Store.addresses
    | Ty.Obj _ -> []
    | Ty.Var _ ->
      [ Value.Int 0; Value.Int 26; Value.set [ Value.Int 0; Value.Int 26 ] ]

  let max_inputs = 16
  let enum_inputs ty = List.to_seq (take max_inputs (inputs_of_ty ty))

  (* Candidates for one tagged hole at [scope]. *)
  let candidates scope hole : Subst.t -> Subst.t list =
    match String.split_on_char ':' hole with
    | [ "f"; h ] ->
      fun s ->
        List.map
          (fun f -> { s with Subst.funcs = (h, f) :: s.Subst.funcs })
          (funcs scope)
    | [ "p"; h ] ->
      fun s ->
        List.map
          (fun p -> { s with Subst.preds = (h, p) :: s.Subst.preds })
          (preds scope)
    | [ "v"; h ] ->
      fun s ->
        List.map
          (fun v -> { s with Subst.values = (h, v) :: s.Subst.values })
          (values scope)
    | _ -> fun s -> [ s ]

  let arity scope hole =
    match String.split_on_char ':' hole with
    | [ "f"; _ ] -> List.length (funcs scope)
    | [ "p"; _ ] -> List.length (preds scope)
    | [ "v"; _ ] -> List.length (values scope)
    | _ -> 1

  (* Worst-case (instance, input) comparisons at [scope], saturating at
     [cap] so hole-rich rules cannot overflow. *)
  let cost ~cap scope holes =
    List.fold_left
      (fun acc hole ->
        let n = acc * arity scope hole in
        if n > cap || n < acc then cap + 1 else n)
      max_inputs holes

  let substs scope holes : Subst.t Seq.t =
    List.fold_left
      (fun acc hole ->
        Seq.concat_map
          (fun s -> List.to_seq (candidates scope hole s))
          acc)
      (Seq.return Subst.empty) holes
end

(* ------------------------------------------------------------------ *)

type strategy = [ `Sampled | `Exhaustive | `Auto ]

(* Certify one rule.  [`Sampled]: [samples] random well-typed
   instantiations, each compared on [inputs] random inputs.
   [`Exhaustive]/[`Auto]: every instantiation from the scope-bounded
   grammar, shrinking the scope until its worst-case check count fits
   [budget] and falling back to the sampler when even scope 1 does not. *)
let certify ?(schema = Schema.paper) ?(samples = 60) ?(inputs = 12)
    ?(pool = default_pool) ?(seed = 2025) ?(strategy = `Sampled)
    ?(scope = 2) ?(budget = 50_000) (r : Rewrite.Rule.t) : result =
  let holes = holes_of_rule r in
  let sampled () =
    let fillers = fillers_of pool in
    let rng = Store.rng (seed lxor Hashtbl.hash r.Rewrite.Rule.name) in
    let inputs_for = sampled_inputs rng ~inputs in
    let rec go tries instances checks =
      if instances >= samples || tries >= samples * 20 then
        { rule = r; instances; checks; counterexample = None; mode = Sampled }
      else
        let subst = random_subst rng fillers holes in
        if not (Rewrite.Rule.check_preconditions schema r subst) then
          go (tries + 1) instances checks
        else
          match check_instance_with ~inputs_for schema r subst with
          | L 0 -> go (tries + 1) instances checks
          | L n -> go (tries + 1) (instances + 1) (checks + n)
          | R v ->
            {
              rule = r;
              instances;
              checks;
              counterexample = Some (subst, v);
              mode = Sampled;
            }
    in
    go 0 0 0
  in
  let exhaustive_at s =
    let instances = ref 0 and checks = ref 0 in
    let cex = ref None in
    let exception Refuted in
    (try
       Seq.iter
         (fun subst ->
           if Rewrite.Rule.check_preconditions schema r subst then
             match
               check_instance_with ~inputs_for:Enum.enum_inputs schema r subst
             with
             | L 0 -> ()
             | L n ->
               incr instances;
               checks := !checks + n
             | R v ->
               cex := Some (subst, v);
               raise Refuted)
         (Enum.substs s holes)
     with Refuted -> ());
    {
      rule = r;
      instances = !instances;
      checks = !checks;
      counterexample = !cex;
      mode = Exhaustive s;
    }
  in
  match strategy with
  | `Sampled -> sampled ()
  | `Exhaustive | `Auto ->
    let rec pick s =
      if s < 1 then None
      else if Enum.cost ~cap:budget s holes <= budget then Some s
      else pick (s - 1)
    in
    (match pick scope with
    | Some s -> exhaustive_at s
    | None -> sampled ())

let certified result = Option.is_none result.counterexample && result.instances > 0

let certify_all ?schema ?samples ?inputs ?pool ?seed ?strategy ?scope ?budget
    rules =
  List.map
    (fun r ->
      certify ?schema ?samples ?inputs ?pool ?seed ?strategy ?scope ?budget r)
    rules

let pp_result ppf r =
  match r.counterexample with
  | None ->
    Fmt.pf ppf "%-18s certified (%s, %d instances, %d checks)"
      r.rule.Rewrite.Rule.name (mode_name r.mode) r.instances r.checks
  | Some (_, v) ->
    Fmt.pf ppf "%-18s REFUTED on input %a" r.rule.Rewrite.Rule.name Value.pp v

(* ------------------------------------------------------------------ *)
(* Fingerprints and the persisted certificate cache. *)

(* Stable across processes and OCaml versions: a digest of the canonical
   (composition-reassociated) pretty-printed rule plus its preconditions
   and the certifier version.  Hash-cons ids are deliberately excluded —
   they depend on interning order, which depends on scheduling. *)
let fingerprint (r : Rewrite.Rule.t) : string =
  let fstr f = Pretty.func_to_string (Term.reassoc_func f) in
  let pstr p = Pretty.pred_to_string (Term.reassoc_pred p) in
  let body =
    match r.Rewrite.Rule.body with
    | Rewrite.Rule.Fun_rule (l, rr) -> Fmt.str "F|%s-->%s" (fstr l) (fstr rr)
    | Rewrite.Rule.Pred_rule (l, rr) -> Fmt.str "P|%s-->%s" (pstr l) (pstr rr)
    | Rewrite.Rule.Query_rule ((lf, la), (rf, ra)) ->
      Fmt.str "Q|%s!%a-->%s!%a" (fstr lf) Value.pp la (fstr rf) Value.pp ra
  in
  let pres =
    r.Rewrite.Rule.preconditions
    |> List.map (fun p ->
           Fmt.str "%a(%s)" Rewrite.Props.pp_prop p.Rewrite.Rule.prop
             p.Rewrite.Rule.hole)
    |> List.sort String.compare |> String.concat ","
  in
  Digest.to_hex
    (Digest.string (Fmt.str "kola-cert/%d|%s|GIVEN %s" cert_version body pres))

type verdict = {
  fingerprint : string;
  name : string;        (** rule name at certification time; informational *)
  ok : bool;
  vmode : mode;
  vinstances : int;
  vchecks : int;
  reason : string option;  (** rendered counterexample when refuted *)
  from_cache : bool;
}

let verdict_of_result ?(from_cache = false) (res : result) : verdict =
  {
    fingerprint = fingerprint res.rule;
    name = res.rule.Rewrite.Rule.name;
    ok = certified res;
    vmode = res.mode;
    vinstances = res.instances;
    vchecks = res.checks;
    reason =
      (match res.counterexample with
      | Some (subst, v) ->
        let binding pp view ppf (h, x) = Fmt.pf ppf "?%s := %a" h pp (view x) in
        let bindings =
          List.map (Fmt.str "%a" (binding Pretty.pp_func Hc.to_func)) subst.Subst.funcs
          @ List.map (Fmt.str "%a" (binding Pretty.pp_pred Hc.to_pred)) subst.Subst.preds
          @ List.map (Fmt.str "%a" (binding Value.pp Hc.to_value)) subst.Subst.values
        in
        Some
          (Fmt.str "input %a under %s" Value.pp v
             (String.concat ", " bindings))
      | None ->
        if res.instances = 0 then
          Some "no well-typed instantiation found (vacuous)"
        else None);
    from_cache;
  }

module Cache = struct
  type entry = {
    everdict : bool;
    emode : mode;
    einstances : int;
    echecks : int;
    ereason : string option;
  }

  type t = {
    path : string option;
    table : (string, entry) Hashtbl.t;
    mutable dirty : bool;
    mutable hits : int;
    mutable misses : int;
  }

  let header = Fmt.str "kola-cert-cache %d" cert_version
  let in_memory () =
    { path = None; table = Hashtbl.create 16; dirty = false; hits = 0; misses = 0 }

  let mode_of_string = function
    | "sampled" -> Some Sampled
    | s -> (
      match String.split_on_char '@' s with
      | [ "exhaustive"; n ] -> Option.map (fun n -> Exhaustive n) (int_of_string_opt n)
      | _ -> None)

  let parse_entry line =
    match
      Scanf.sscanf line "%s %s %s %d %d %S"
        (fun fp verdict mode inst checks reason ->
          (fp, verdict, mode, inst, checks, reason))
    with
    | fp, verdict, mode, einstances, echecks, reason -> (
      match mode_of_string mode, verdict with
      | Some emode, ("certified" | "refuted") ->
        Some
          ( fp,
            {
              everdict = verdict = "certified";
              emode;
              einstances;
              echecks;
              ereason = (if reason = "" then None else Some reason);
            } )
      | _ -> None)
    | exception Scanf.Scan_failure _ -> None
    | exception End_of_file -> None

  (* Missing, unreadable, corrupt or version-skewed files all load as an
     empty cache: certificates are only ever a performance artifact. *)
  let load path =
    let t =
      { path = Some path; table = Hashtbl.create 16; dirty = false; hits = 0; misses = 0 }
    in
    (match open_in path with
    | exception Sys_error _ -> ()
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | h when String.trim h = header -> (
            try
              while true do
                match parse_entry (input_line ic) with
                | Some (fp, e) -> Hashtbl.replace t.table fp e
                | None -> ()
              done
            with End_of_file -> ())
          | _ -> ()
          | exception End_of_file -> ()));
    t

  let save t =
    match t.path with
    | None -> ()
    | Some path when t.dirty ->
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (header ^ "\n");
          Hashtbl.iter
            (fun fp e ->
              Printf.fprintf oc "%s %s %s %d %d %S\n" fp
                (if e.everdict then "certified" else "refuted")
                (mode_name e.emode) e.einstances e.echecks
                (Option.value ~default:"" e.ereason))
            t.table);
      Sys.rename tmp path;
      t.dirty <- false
    | Some _ -> ()

  let find t fp =
    match Hashtbl.find_opt t.table fp with
    | Some e ->
      t.hits <- t.hits + 1;
      Telemetry.count "cert.cache.hit";
      Some e
    | None ->
      t.misses <- t.misses + 1;
      Telemetry.count "cert.cache.miss";
      None

  let add t fp e =
    Hashtbl.replace t.table fp e;
    t.dirty <- true

  let hits t = t.hits
  let misses t = t.misses
  let size t = Hashtbl.length t.table
end

(* Cache-through certification: O(1) on a fingerprint hit, a full
   certification run (recorded into [cache]) on a miss.  The caller owns
   persistence via {!Cache.save}. *)
let certify_cached ?schema ?samples ?inputs ?pool ?seed ?(strategy = `Auto)
    ?scope ?budget ~cache (r : Rewrite.Rule.t) : verdict =
  let fp = fingerprint r in
  match Cache.find cache fp with
  | Some e ->
    {
      fingerprint = fp;
      name = r.Rewrite.Rule.name;
      ok = e.Cache.everdict;
      vmode = e.Cache.emode;
      vinstances = e.Cache.einstances;
      vchecks = e.Cache.echecks;
      reason = e.Cache.ereason;
      from_cache = true;
    }
  | None ->
    let res =
      certify ?schema ?samples ?inputs ?pool ?seed ~strategy ?scope ?budget r
    in
    let v = verdict_of_result res in
    Cache.add cache fp
      {
        Cache.everdict = v.ok;
        emode = v.vmode;
        einstances = v.vinstances;
        echecks = v.vchecks;
        ereason = v.reason;
      };
    v

let pp_verdict ppf v =
  if v.ok then
    Fmt.pf ppf "%-18s certified (%s, %d instances, %d checks%s)" v.name
      (mode_name v.vmode) v.vinstances v.vchecks
      (if v.from_cache then ", cached" else "")
  else
    Fmt.pf ppf "%-18s REFUTED%s: %s" v.name
      (if v.from_cache then " (cached)" else "")
      (Option.value ~default:"counterexample found" v.reason)
