(* The rewriting engine: repeatedly fires rules from a set anywhere in a
   query, recording a trace.  The trace lets tests check the *derivations*
   of Figures 4 and 6, not just their end points, and gives the optimizer
   an explanation facility.

   One stepping function serves COKO blocks (one rule list per [Use]) and
   [run] (the whole catalog).  It dispatches on heads: each node is offered
   only the rules whose pattern head can match it, in list order — a head
   check is one integer comparison, a match attempt is a pattern walk —
   and subtrees whose head bitmask shares no bit with the rule list are
   skipped.  The firings are those of the naive semantics (every rule of
   the right sort tried at every node). *)

open Kola.Term
module Telemetry = Kola_telemetry.Telemetry

(* Per-rule attribution: one counter per rule, named when the rule was
   made, so recording allocates no name. *)
let note_attempt (r : Rule.t) fired =
  Telemetry.count (if fired then r.Rule.fire_counter else r.Rule.miss_counter)

type step = {
  rule_name : string;
  result : query;  (** whole query after the firing *)
}

type trace = step list

type stats = { firings : int; attempts : int }
type outcome = { query : query; trace : trace; stats : stats }

let offered (r : Rule.t) (tgt : Strategy.target) =
  let m = Rule.head_mask r in
  match Rule.patterns r, tgt with
  | Rule.Fun_pats _, Strategy.F f -> m = 0 || m = Hc.fshape_bit f.Hc.fshape
  | Rule.Pred_pats _, Strategy.P p -> m = 0 || m = Hc.pshape_bit p.Hc.pshape
  | _, _ -> false

(* The first rule of [rules] that [apply] fires, counting each attempt. *)
let first_firing ~counter rules apply =
  List.find_map
    (fun (r : Rule.t) ->
      incr counter;
      let res = apply r in
      note_attempt r (res <> None);
      Option.map (fun x -> (r.Rule.name, x)) res)
    rules

let step_once ?schema ?(counter = ref 0) (rules : Rule.t list)
    (hq : Hc.hquery) : (string * Hc.hquery) option =
  let query_rules, node_rules =
    List.partition
      (fun r ->
        match Rule.patterns r with Rule.Query_pats _ -> true | _ -> false)
      rules
  in
  match
    first_firing ~counter query_rules (fun r -> Rule.apply_query ?schema r hq)
  with
  | Some _ as res -> res
  | None when node_rules = [] -> None
  | None ->
    (* A hole-rooted pattern may fire at any node: no pruning then. *)
    let masks = List.map Rule.head_mask node_rules in
    let mask = if List.mem 0 masks then 0 else List.fold_left ( lor ) 0 masks in
    let named = ref "" in
    let at_node tgt =
      Telemetry.count "engine.positions";
      match
        first_firing ~counter
          (List.filter (fun r -> offered r tgt) node_rules)
          (fun r -> Strategy.of_rule ?schema r tgt)
      with
      | Some (name, t) ->
        named := name;
        Some t
      | None -> None
    in
    Option.map
      (fun hbody -> (!named, { hq with Hc.hbody }))
      (Strategy.apply_func (Strategy.once_topdown ~mask at_node) hq.Hc.hbody)

(* Normalize [q] under [rules], up to [fuel] firings. *)
let run ?schema ?(fuel = 10_000) (rules : Rule.t list) (q : query) : outcome =
  Telemetry.span "engine.run" @@ fun () ->
  let counter = ref 0 in
  let rec go n hq trace firings =
    if n = 0 then (hq, trace, firings)
    else
      match step_once ?schema ~counter rules hq with
      | Some (rule_name, hq') ->
        let step = { rule_name; result = Hc.to_query hq' } in
        go (n - 1) hq' (step :: trace) (firings + 1)
      | None -> (hq, trace, firings)
  in
  let hq, trace, firings = go fuel (Hc.of_query q) [] 0 in
  {
    query = Hc.to_query hq;
    trace = List.rev trace;
    stats = { firings; attempts = !counter };
  }
