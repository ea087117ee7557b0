(* The rewriting engine: repeatedly fires rules from a set anywhere in a
   query, recording a trace.  The trace lets tests check the *derivations*
   of Figures 4 and 6, not just their end points, and gives the optimizer
   an explanation facility.

   Two dispatch paths exist.  [step_once] attempts every rule of the
   right sort at every node, in catalog order — COKO blocks fire through
   it one rule list at a time.  [run] routes each node through {!Index}
   so only rules whose pattern head can match are attempted: same
   firings, same trace, fewer attempts. *)

open Kola
open Kola.Term
module Telemetry = Kola_telemetry.Telemetry

(* Per-rule attribution: one counter per rule name, built only when a
   telemetry session is active so the disabled path allocates nothing. *)
let note_attempt name fired =
  if Telemetry.enabled () then
    Telemetry.count ((if fired then "rule.fire." else "rule.miss.") ^ name)

type step = {
  rule_name : string;
  result : query;  (** whole query after the firing *)
}

type trace = step list

type stats = {
  firings : int;
  attempts : int;
      (** rules actually tried: for each node visited, each candidate rule
          of the node's sort attempted before (and including) the one that
          fired.  Query rules count once per step, function (predicate)
          rules once per function (predicate) node attempted.  Rules of the
          wrong sort for a node — or, under the index, rules whose head
          cannot match it — are not counted: they are dismissed by
          dispatch, not tried. *)
}

type outcome = { query : query; trace : trace; stats : stats }

let pp_trace ppf trace =
  List.iter
    (fun s ->
      Fmt.pf ppf "  --%s--> %a@." s.rule_name Pretty.pp_query s.result)
    trace

(* Shared stepping core: given the query rules and a per-target candidate
   function, apply the first rule that fires anywhere in the query,
   outermost first; query rules are tried at the query level first.
   [counter] accumulates rule-at-node attempts — the unification cost. *)
let step_with ?schema ~counter ~query_rules ~candidates (q : query) :
    (string * query) option =
  let attempts = counter in
  let from_query_rules =
    List.find_map
      (fun r ->
        incr attempts;
        let res =
          Option.map (fun q' -> (r.Rule.name, q')) (Rule.apply_query ?schema r q)
        in
        note_attempt r.Rule.name (res <> None);
        res)
      query_rules
  in
  match from_query_rules with
  | Some _ as res -> res
  | None ->
    let strat tgt =
      List.find_map
        (fun r ->
          incr attempts;
          let res =
            Option.map (fun t -> (r.Rule.name, t))
              (Strategy.of_rule ?schema r tgt)
          in
          note_attempt r.Rule.name (res <> None);
          res)
        (candidates tgt)
    in
    let named = ref "" in
    let s tgt =
      Telemetry.count "engine.positions";
      match strat tgt with
      | Some (name, t) ->
        named := name;
        Some t
      | None -> None
    in
    Option.map
      (fun body -> (!named, { q with body }))
      (Strategy.apply_func (Strategy.once_topdown s) q.body)

(* Split out the rules a target of each sort can try: function rules for
   function nodes, predicate rules for predicate nodes. *)
let partition_rules rules =
  let fun_rules =
    List.filter
      (fun r -> match r.Rule.body with Rule.Fun_rule _ -> true | _ -> false)
      rules
  in
  let pred_rules =
    List.filter
      (fun r -> match r.Rule.body with Rule.Pred_rule _ -> true | _ -> false)
      rules
  in
  let query_rules =
    List.filter
      (fun r -> match r.Rule.body with Rule.Query_rule _ -> true | _ -> false)
      rules
  in
  (fun_rules, pred_rules, query_rules)

let step_once ?schema ?(counter = ref 0) (rules : Rule.t list) (q : query) :
    (string * query) option =
  let fun_rules, pred_rules, query_rules = partition_rules rules in
  let candidates = function
    | Strategy.F _ -> fun_rules
    | Strategy.P _ -> pred_rules
  in
  step_with ?schema ~counter ~query_rules ~candidates q

let step_once_indexed ?schema ?(counter = ref 0) (index : Index.t) (q : query)
    : (string * query) option =
  let candidates = function
    | Strategy.F f -> Index.candidates_func index f
    | Strategy.P p -> Index.candidates_pred index p
  in
  step_with ?schema ~counter ~query_rules:(Index.query_rules index) ~candidates
    q

(* Normalize [q] under [rules], up to [fuel] firings.  The head-symbol
   index is built once and reused across firings. *)
let run ?schema ?(fuel = 10_000) (rules : Rule.t list) (q : query) : outcome =
  Telemetry.span "engine.run" @@ fun () ->
  let counter = ref 0 in
  let step = step_once_indexed ?schema ~counter (Index.build rules) in
  let rec go n q trace firings =
    if n = 0 then (q, trace, firings)
    else
      match step q with
      | Some (name, q') ->
        go (n - 1) q' ({ rule_name = name; result = q' } :: trace) (firings + 1)
      | None -> (q, trace, firings)
  in
  let q', trace, firings = go fuel q [] 0 in
  {
    query = q';
    trace = List.rev trace;
    stats = { firings; attempts = !counter };
  }

(* Same, over a bare function (no query argument), used when transforming
   subplans. *)
let run_func ?schema ?(fuel = 10_000) rules f =
  let outcome = run ?schema ~fuel rules (query f Value.Unit) in
  (outcome.query.body, outcome.trace)

let fired_rules outcome = List.map (fun s -> s.rule_name) outcome.trace
