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

(* [r] is offered at a node of the given sort whose own head bit is
   [bit] (0 for a hole). *)
let offered_at (r : Rule.t) ~pred bit =
  let m = Rule.head_mask r in
  (m = 0 || m = bit)
  &&
  match Rule.patterns r with
  | Rule.Fun_pats _ -> not pred
  | Rule.Pred_pats _ -> pred
  | Rule.Query_pats _ -> false

let offered r = function
  | Strategy.F f -> offered_at r ~pred:false (Hc.fshape_bit f.Hc.fshape)
  | Strategy.P p -> offered_at r ~pred:true (Hc.pshape_bit p.Hc.pshape)

(* Function and predicate rules fire only inside subtrees whose head
   bitmask shares a bit with the OR of their head masks; a hole-rooted
   pattern may fire at any node, and then nothing is pruned (0). *)
let prune_mask node_rules =
  let masks = List.map Rule.head_mask node_rules in
  if List.mem 0 masks then 0 else List.fold_left ( lor ) 0 masks

(* [offered] tabulated for a whole rule list.  A node's head bit is 0 (a
   hole) or one of the 32 powers of two below 2^32; 2 is a primitive
   root modulo 37, so [bit mod 37] gives each of those 33 values its own
   slot. *)
type dispatch = {
  rules : Rule.t array;
  fslots : int array array;
  pslots : int array array;
  mask : int;
}

let slot bit = bit mod 37
let func_bits = 0 :: List.init 20 (fun i -> 1 lsl i)
let pred_bits = 0 :: List.init 12 (fun i -> 1 lsl (20 + i))

(* A rule with head mask [m <> 0] can only be offered at nodes whose bit
   is [m]; a hole-rooted one is tried against every bit of both sorts. *)
let dispatch rules =
  let rules = Array.of_list rules in
  let fslots = Array.make 37 [] and pslots = Array.make 37 [] in
  for i = Array.length rules - 1 downto 0 do
    let r = rules.(i) in
    let m = Rule.head_mask r in
    List.iter
      (fun (slots, pred, bits) ->
        List.iter
          (fun bit ->
            if offered_at r ~pred bit then
              slots.(slot bit) <- i :: slots.(slot bit))
          (if m = 0 then bits else [ m ]))
      [ (fslots, false, func_bits); (pslots, true, pred_bits) ]
  done;
  {
    rules;
    fslots = Array.map Array.of_list fslots;
    pslots = Array.map Array.of_list pslots;
    mask =
      prune_mask
        (List.filter
           (fun r ->
             match Rule.patterns r with
             | Rule.Query_pats _ -> false
             | Rule.Fun_pats _ | Rule.Pred_pats _ -> true)
           (Array.to_list rules));
  }

let offered_func d (f : Hc.fnode) =
  d.fslots.(slot (Hc.fshape_bit f.Hc.fshape))

let offered_pred d (p : Hc.pnode) =
  d.pslots.(slot (Hc.pshape_bit p.Hc.pshape))

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
    let mask = prune_mask node_rules in
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
