(* Evaluator for AQUA expressions, over the same value domain as KOLA.
   Used as the reference semantics when validating the AQUA→KOLA
   translator. *)

open Kola
open Ast

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type ctx = { db : (string * Value.t) list; env : (string * Value.t) list }

let ctx ?(db = []) () = { db; env = [] }

let resolve ctx v =
  match v with
  | Value.Named n -> (
    match List.assoc_opt n ctx.db with
    | Some v -> v
    | None -> error "unbound database name %s" n)
  | v -> v

let as_set ctx v =
  match resolve ctx v with
  | Value.Set xs -> xs
  | v -> error "expected a set, got %a" Value.pp_brief v

let as_bool ctx v =
  match resolve ctx v with
  | Value.Bool b -> b
  | v -> error "expected a bool, got %a" Value.pp_brief v

let as_int ctx v =
  match resolve ctx v with
  | Value.Int i -> i
  | v -> error "expected an int, got %a" Value.pp_brief v

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Membership tests hash the right operand once instead of scanning it per
   element ([List.exists] made In/Inter/Diff quadratic in the set sizes);
   filter order over the left operand is preserved, so results are
   identical. *)
let member_table ys =
  let t = VH.create (2 * List.length ys + 1) in
  List.iter (fun y -> VH.replace t y ()) ys;
  t

let rec eval ctx e : Value.t =
  match e with
  | Var x -> (
    match List.assoc_opt x ctx.env with
    | Some v -> v
    | None -> error "unbound variable %s" x)
  | Const v -> resolve ctx v
  | Extent s -> (
    match List.assoc_opt s ctx.db with
    | Some v -> v
    | None -> error "unbound extent %s" s)
  | Path (e, attr) -> (
    let v = eval ctx e in
    match Value.field attr v with
    | Some x -> x
    | None -> error "no attribute %s on %a" attr Value.pp_brief v)
  | Pair (a, b) -> Value.Pair (eval ctx a, eval ctx b)
  | App (l, set) ->
    let xs = as_set ctx (eval ctx set) in
    Value.set
      (List.map (fun x -> eval { ctx with env = (l.v, x) :: ctx.env } l.body) xs)
  | Sel (l, set) ->
    let xs = as_set ctx (eval ctx set) in
    Value.set
      (List.filter
         (fun x ->
           as_bool ctx (eval { ctx with env = (l.v, x) :: ctx.env } l.body))
         xs)
  | Flatten e ->
    let outer = as_set ctx (eval ctx e) in
    Value.set (List.concat_map (fun s -> as_set ctx s) outer)
  | Join (p, f, a, b) ->
    let xs = as_set ctx (eval ctx a) and ys = as_set ctx (eval ctx b) in
    Value.set
      (List.concat_map
         (fun x ->
           List.filter_map
             (fun y ->
               let env_p = (p.v1, x) :: (p.v2, y) :: ctx.env in
               if as_bool ctx (eval { ctx with env = env_p } p.body2) then
                 let env_f = (f.v1, x) :: (f.v2, y) :: ctx.env in
                 Some (eval { ctx with env = env_f } f.body2)
               else None)
             ys)
         xs)
  | If (c, t, e) ->
    if as_bool ctx (eval ctx c) then eval ctx t else eval ctx e
  | Not e -> Value.Bool (not (as_bool ctx (eval ctx e)))
  | Agg (op, e) -> (
    let xs = as_set ctx (eval ctx e) in
    match op with
    | Term.Count -> Value.Int (List.length xs)
    | Term.Sum -> Value.Int (List.fold_left (fun a x -> a + as_int ctx x) 0 xs)
    | Term.Max -> (
      match xs with
      | [] -> error "max of empty set"
      | x :: r -> List.fold_left (fun m y -> if Value.compare y m > 0 then y else m) x r)
    | Term.Min -> (
      match xs with
      | [] -> error "min of empty set"
      | x :: r -> List.fold_left (fun m y -> if Value.compare y m < 0 then y else m) x r))
  | SetLit xs -> Value.set (List.map (eval ctx) xs)
  | Bin (op, a, b) -> (
    let va = eval ctx a in
    (* And/Or short-circuit, as in any reasonable query language: their
       right operand evaluates only when the left one doesn't decide.
       Every strict operator forces [vb] exactly once.  One exhaustive
       match — no catch-all, so a new operator is a compile error here
       rather than a latent [assert false]. *)
    let vb = lazy (eval ctx b) in
    match op with
    | And -> if as_bool ctx va then Lazy.force vb else Value.Bool false
    | Or -> if as_bool ctx va then Value.Bool true else Lazy.force vb
    | Eq -> Value.Bool (Value.equal va (Lazy.force vb))
    | Leq -> Value.Bool (Value.compare va (Lazy.force vb) <= 0)
    | Lt -> Value.Bool (Value.compare va (Lazy.force vb) < 0)
    | Gt -> Value.Bool (Value.compare va (Lazy.force vb) > 0)
    | Geq -> Value.Bool (Value.compare va (Lazy.force vb) >= 0)
    | In -> Value.Bool (VH.mem (member_table (as_set ctx (Lazy.force vb))) va)
    | Add -> Value.Int (as_int ctx va + as_int ctx (Lazy.force vb))
    | Sub -> Value.Int (as_int ctx va - as_int ctx (Lazy.force vb))
    | Mul -> Value.Int (as_int ctx va * as_int ctx (Lazy.force vb))
    | Union -> Value.set (as_set ctx va @ as_set ctx (Lazy.force vb))
    | Inter ->
      let m = member_table (as_set ctx (Lazy.force vb)) in
      Value.set (List.filter (fun x -> VH.mem m x) (as_set ctx va))
    | Diff ->
      let m = member_table (as_set ctx (Lazy.force vb)) in
      Value.set (List.filter (fun x -> not (VH.mem m x)) (as_set ctx va)))

let eval_closed ?db e = eval (ctx ?db ()) e
