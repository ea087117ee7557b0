(* The end-to-end optimizer: OQL → AQUA → KOLA → COKO normalization and
   hidden-join untangling → cost-based plan choice (original vs untangled,
   each costed on the hashed interpreter with eager dedup, the untangled
   plan first and the original only as far as the untangled plan's cost).

   The output [report] is an explanation artifact: each phase records what
   it produced, and the rewrite trace names every rule fired — the paper's
   declarative-rules thesis made operational. *)

open Kola

type plan = {
  label : string;
  query : Term.query;
  backend : Eval.backend;
  dedup : Eval.dedup;
  cost : Cost.t;
}

type report = {
  source : string option;           (** OQL text, when that is the entry *)
  aqua : Aqua.Ast.expr;
  translated : Term.query;
  normalized : Term.query;
  untangled : Term.query option;    (** when the hidden-join blocks applied *)
  trace : Rewrite.Engine.trace;
  blocks : (string * bool) list;
  candidates : plan list;
  chosen : plan;
  cost_cache_hits : int;    (** plan-cache hits while costing candidates *)
  cost_cache_misses : int;  (** candidate evaluations actually run *)
}

let backend_name = function Eval.Naive -> "naive" | Eval.Hashed -> "hashed"
let dedup_name = function Eval.Eager -> "eager" | Eval.Deferred -> "deferred"

(* Normalize with the simplify block (identity laws etc.). *)
let normalize q =
  let o = Coko.Block.run Coko.Programs.simplify q in
  (o.Coko.Block.query, o.Coko.Block.trace)

(* One plan cache shared across [optimize] calls (like the search cost
   caches): re-optimizing a query — or optimizing one whose normalized and
   untangled forms coincide with an earlier run's — serves the
   measurement from the memo instead of re-running the plan. *)
let shared_plan_cache = Cost.plan_cache ()

(* Only the hashed/eager physical variant is costed; pipeline.mli says
   why the naive backend and deferred dedup do not win. *)
let candidate ~cache ~tally ?budget ~db label q =
  let backend = Eval.Hashed and dedup = Eval.Eager in
  let cost = Cost.measure_memo cache ~backend ~dedup ?budget ~tally ~db q in
  { label; query = q; backend; dedup; cost }

let optimize ?source ?(plan_cache = shared_plan_cache) ~db
    (aqua : Aqua.Ast.expr) : report =
  let translated = Translate.Compile.query aqua in
  let normalized, trace1 = normalize translated in
  let untangle_outcome, blocks = Coko.Programs.hidden_join normalized in
  let untangled =
    if List.for_all snd blocks then Some untangle_outcome.Coko.Block.query
    else None
  in
  let tally = Cost.tally () in
  let candidate = candidate ~cache:plan_cache ~tally ~db in
  (* Branch and bound: the untangled plan is usually far cheaper, so it
     is costed first and the original only as far as its cost.  The cut
     is strict, so an original that ties still wins below. *)
  let candidates =
    match untangled with
    | None -> [ candidate "original" normalized ]
    | Some q ->
      let u = candidate "untangled" q in
      [ candidate ~budget:u.cost.Cost.weighted "original" normalized; u ]
  in
  let chosen =
    List.fold_left
      (fun best c -> if c.cost.Cost.weighted < best.cost.Cost.weighted then c else best)
      (List.hd candidates) (List.tl candidates)
  in
  {
    source;
    aqua;
    translated;
    normalized;
    untangled;
    trace = trace1 @ untangle_outcome.Coko.Block.trace;
    blocks;
    candidates;
    chosen;
    cost_cache_hits = tally.Cost.hits;
    cost_cache_misses = tally.Cost.misses;
  }

let optimize_oql ?extents ?plan_cache ~db src =
  let aqua = Oql.Parser.parse ?extents src in
  optimize ~source:src ?plan_cache ~db aqua

(* Execute the chosen plan against a database. *)
let run ~db (r : report) : Value.t =
  Eval.eval_query ~db ~backend:r.chosen.backend ~dedup:r.chosen.dedup
    r.chosen.query

(* Execute the chosen plan through a [Kola_exec] backend.  The default is
   the interpreter backend the plan was costed on; [~backend:Compiled]
   fuses the plan into loop closures instead (falling back to the
   interpreter on unsupported plans, recorded in the stats).  The dedup
   dimension always follows the chosen plan — it is part of what was
   costed. *)
let execute ?backend ?layout ?jobs ?pool ?coldb ~db (r : report) :
    Value.t * Kola_exec.Exec.stats =
  let backend =
    match backend with
    | Some b -> b
    | None -> Kola_exec.Exec.Interp r.chosen.backend
  in
  Kola_exec.Exec.run ~backend ~dedup:r.chosen.dedup ?layout ?jobs ?pool ?coldb
    ~db r.chosen.query

let pp_report ppf (r : report) =
  Option.iter (fun s -> Fmt.pf ppf "OQL:        %s@." s) r.source;
  Fmt.pf ppf "AQUA:       @[%a@]@." Aqua.Pretty.pp r.aqua;
  Fmt.pf ppf "KOLA:       @[%a@]@." Pretty.pp_query r.translated;
  Fmt.pf ppf "normalized: @[%a@]@." Pretty.pp_query r.normalized;
  (match r.untangled with
  | Some q -> Fmt.pf ppf "untangled:  @[%a@]@." Pretty.pp_query q
  | None -> Fmt.pf ppf "untangled:  (hidden-join strategy not applicable)@.");
  Fmt.pf ppf "rules fired: %a@."
    Fmt.(list ~sep:comma string)
    (List.map (fun s -> s.Rewrite.Engine.rule_name) r.trace);
  Fmt.pf ppf "plan cache: %d hits, %d misses@." r.cost_cache_hits
    r.cost_cache_misses;
  List.iter
    (fun c ->
      Fmt.pf ppf "  plan %-10s %-7s %-9s %a%s@." c.label
        (backend_name c.backend) (dedup_name c.dedup) Cost.pp c.cost
        (if c == r.chosen then "   <= chosen" else ""))
    r.candidates
