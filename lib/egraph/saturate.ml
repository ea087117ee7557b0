(* The saturation loop: grow the e-graph under the catalog until nothing
   new appears or a budget trips, then answer optimization questions by
   extraction and equivalence questions by same-class checks.

   One iteration = match the scheduled rules against the fresh e-classes
   (pruned by the class head mask), dedup the instances fired in earlier
   iterations, apply the fresh ones (add both sides, union with a
   justification), then rebuild congruence once for the whole union
   batch.  Budgets bound e-nodes, iterations and wall-clock; the stop
   reason is always reported, never silent.

   Four throughput levers, all outcome-preserving:

   - Parallel e-matching.  Between rebuilds the graph is read-only (the
     union-find is fully compressed first, so [find] writes nothing);
     per-class match queries fan out over an optional domain pool and
     merge back in class order, so unions apply in the same order as the
     sequential loop and every stat is bit-identical at any jobs count.

   - Incremental matching.  Each class carries the iteration at which
     its reachable subgraph last changed (change stamps propagate to
     ancestors through parent edges); each rule remembers the iteration
     it last ran.  A (rule, class) pair re-matches only when the class
     changed since the rule's last run — stale pairs are skipped outright
     instead of re-matched and deduped.

   - Rule scheduling.  A rule whose run cost something and fired nothing
     fresh backs off exponentially (capped, never excluded); the stamps
     make its eventual re-run catch up on everything it missed.  Backoff
     is driven by the deterministic fresh-fire counters, not by the
     wall-clock match-time distributions (those still flow to telemetry):
     outcomes must not depend on timer noise or the jobs count.  An
     uneventful iteration only proves saturation if no rule was deferred;
     otherwise every rule is forced back in for one full round first.

   - One match per canonical e-node.  The matcher walks each class's
     {!Graph.match_view}, built when the rebuild's [canonicalize] closes
     the mutation phase: a congruent copy would only repeat its first
     twin's matches, so the first occurrence of every instance, and with
     it union order, stays where it was.  [instances] counts what the
     matcher produces before the dedup against earlier iterations. *)

open Kola
open Lang
module Telemetry = Kola_telemetry.Telemetry
module Pool = Kola_parallel.Pool

type budgets = { max_enodes : int; max_iterations : int; max_millis : float }

(* The wall-clock budget is a safety valve, not the intended stop: the
   time check truncates the match sweep wherever the clock happens to
   trip, so any run it cuts short is load-dependent and two identical
   searches may build different proof forests (same classes reachable
   sooner stay equal; replayed derivations differ).  Keep the default
   high enough that the deterministic e-node budget binds first on every
   standard workload — a caller that wants a real deadline passes one
   explicitly (the daemon's [deadline] knob tightens [max_millis]). *)
let default_budgets =
  { max_enodes = 20_000; max_iterations = 12; max_millis = 20_000. }

type stop_reason =
  | Saturated  (** a full iteration added no e-node and united no classes *)
  | Node_budget
  | Iter_budget
  | Time_budget
  | Target_found  (** equivalence query answered early *)

let stop_reason_label = function
  | Saturated -> "saturated"
  | Node_budget -> "node-budget"
  | Iter_budget -> "iteration-budget"
  | Time_budget -> "time-budget"
  | Target_found -> "target-found"

type stats = {
  iterations : int;
  e_nodes : int;
  e_classes : int;
  unions : int;
  instances : int;
      (** match instances produced, before dropping those fired in
          earlier iterations *)
  matches_skipped : int;
      (** (rule, class) pairs skipped because the class was unchanged
          since the rule's last run *)
  rules_deferred : int;
      (** rule-iterations skipped by scheduler backoff, summed *)
  rebuild_ms : float;
  total_ms : float;
  stop : stop_reason;
}

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "%d e-nodes, %d e-classes, %d unions, %d iterations, %d instances, \
     %d matches skipped, %d rules deferred, rebuild %.3fms, total %.1fms, \
     stop: %s"
    s.e_nodes s.e_classes s.unions s.iterations s.instances
    s.matches_skipped s.rules_deferred s.rebuild_ms s.total_ms
    (stop_reason_label s.stop)

type space = {
  graph : Graph.t;
  src : wterm;  (** the source query, verbatim *)
  root : int;  (** its class *)
  tgt : wterm option;  (** the target query, when posed *)
  target : int option;  (** its class *)
  schema : Schema.t;
  stats : stats;
}

let wterm_of_query (hq : Term.Hc.hquery) : wterm =
  Wq (hq.Term.Hc.hbody, hq.Term.Hc.harg)

let hquery_of_wterm : wterm -> Term.Hc.hquery option = function
  | Wq (f, v) -> Some { Term.Hc.hbody = f; Term.Hc.harg = v }
  | _ -> None

let query_of_wterm : wterm -> Term.query option = function
  | Wq (f, v) -> Some (Term.Hc.to_query { Term.Hc.hbody = f; Term.Hc.harg = v })
  | _ -> None

(* Instances already applied, across iterations: re-firing them cannot
   change the graph (both sides are already present and united). *)
module Seen = Hashtbl.Make (struct
  type t = string * wkey * wkey

  let equal (a1, b1, c1) (a2, b2, c2) =
    String.equal a1 a2 && b1 = b2 && c1 = c2

  let hash = Hashtbl.hash
end)

(* Per-rule scheduler state.  [last_run] is the last iteration the rule
   matched (against every class fresh for it at that point); [next_run]
   is the earliest iteration it may run again; [streak] counts
   consecutive costly-but-fruitless runs. *)
type rsched = {
  sr : Ematch.erule;
  mutable last_run : int;
  mutable next_run : int;
  mutable streak : int;
  mutable ever_fired : bool;  (** fired a fresh instance at some point *)
}

(* Deferral only starts after [backoff_gate] consecutive runs that
   attempted fresh classes and fired nothing new — a rule whose moment in
   a chained derivation simply hasn't come yet must not be parked early,
   or every link of the chain slips and the fixpoint recedes past the
   iteration budget.  From the gate on, the deferral doubles up to
   [backoff_cap] iterations; a deferred rule always retries, and the
   freshness stamps make each retry catch up on every class that changed
   while it was parked. *)
let backoff_gate = 3
let backoff_cap = 4

let saturate ?(schema = Schema.paper) ?(budgets = default_budgets) ?pool
    ?target ~rules (hq : Term.Hc.hquery) : space =
  Telemetry.span "egraph.saturate" @@ fun () ->
  (* Budgets and span timings run on the monotonic clock: a wall-clock
     (NTP) jump must neither trip nor stretch the time budget. *)
  let t0 = Telemetry.now () in
  let g = Graph.create () in
  let src = wterm_of_query hq in
  let root = Graph.add_term g src in
  let tgt = Option.map wterm_of_query target in
  let tcls = Option.map (Graph.add_term g) tgt in
  let erules = Ematch.compile rules in
  let scheds =
    Array.of_list
      (List.map
         (fun er ->
           { sr = er; last_run = 0; next_run = 0; streak = 0; ever_fired = false })
         erules)
  in
  let n_rules = Array.length scheds in
  let seen = Seen.create 1024 in
  (* Canonical root → iteration its reachable subgraph last changed.
     Absent means 0, i.e. present since before the first iteration. *)
  let stamps : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let stamp_of cls =
    match Hashtbl.find_opt stamps cls with Some s -> s | None -> 0
  in
  (* A change at a class can create matches at any class that reaches it,
     so stamp the ancestor closure of the touched set. *)
  let mark_fresh iter touched =
    let visited = Hashtbl.create 64 in
    let stack = ref touched in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | r :: rest ->
        stack := rest;
        if not (Hashtbl.mem visited r) then begin
          Hashtbl.replace visited r ();
          Hashtbl.replace stamps r iter;
          List.iter
            (fun (n : Graph.enode) ->
              stack := Graph.find g n.Graph.ecls :: !stack)
            (Graph.parents g r)
        end
    done
  in
  let rebuild_ms = ref 0. in
  let iterations = ref 0 in
  let instances = ref 0 in
  let matches_skipped = ref 0 in
  let rules_deferred = ref 0 in
  let timed_rebuild () =
    let r0 = Telemetry.now () in
    Graph.rebuild g;
    (* Full union-find compression: [find] is a bare read until the next
       mutation, so the match fan-out below shares the graph safely. *)
    Graph.canonicalize g;
    rebuild_ms := !rebuild_ms +. ((Telemetry.now () -. r0) *. 1000.)
  in
  timed_rebuild ();
  (* The initial classes carry stamp 0 (the table's default) and every
     rule has last_run 0, so iteration 1 matches everything. *)
  ignore (Graph.take_touched g);
  let fan_out : 'a. (int -> 'a) -> int array -> 'a array =
   fun f arr ->
    match pool with Some p -> Pool.map p f arr | None -> Array.map f arr
  in
  let target_found () =
    match tcls with
    | Some c -> Graph.find g c = Graph.find g root
    | None -> false
  in
  let out_of_time () = (Telemetry.now () -. t0) *. 1000. > budgets.max_millis in
  let stop = ref None in
  let force_full = ref false in
  while !stop = None do
    if target_found () then stop := Some Target_found
    else if !iterations >= budgets.max_iterations then stop := Some Iter_budget
    else if out_of_time () then stop := Some Time_budget
    else begin
      incr iterations;
      let iter = !iterations in
      let nodes_before = Graph.n_nodes g
      and unions_before = Graph.n_unions g in
      if !force_full then begin
        force_full := false;
        Array.iter (fun sc -> sc.next_run <- iter) scheds
      end;
      let scheduled =
        List.filter (fun sc -> sc.next_run <= iter) (Array.to_list scheds)
      in
      let deferred = n_rules - List.length scheduled in
      rules_deferred := !rules_deferred + deferred;
      (* Matches are collected against the graph as it stood at the start
         of the iteration — sorted class order, so the later merge (and
         hence union order) is independent of chunking — then applied in
         one batch. *)
      let classes = Array.of_list (Graph.class_roots g) in
      let max_stamp =
        Array.fold_left (fun acc c -> max acc (stamp_of c)) 0 classes
      in
      (* [fresh_mask_since.(v)] = OR of the head masks of every class
         stamped at iteration [v] or later.  The scheduler uses it to
         decide whether a fruitless rule actually *worked* this run: a
         rule whose mask intersects no fresh class was rejected in O(1)
         per class and must not accrue backoff — in particular a rule
         whose pattern head has not appeared in the graph yet stays live
         and fires the moment it does. *)
      let fresh_mask_since =
        let a = Array.make (iter + 1) 0 in
        Array.iter
          (fun c ->
            let s = min (stamp_of c) iter in
            a.(s) <- a.(s) lor Graph.class_mask g c)
          classes;
        for v = iter - 1 downto 0 do
          a.(v) <- a.(v) lor a.(v + 1)
        done;
        a
      in
      (* The deadline is re-checked per class: one iteration over a large
         graph can dwarf the whole budget, and a trip mid-match must not
         stretch the run to the iteration boundary. *)
      let deadline_hit = Atomic.make false in
      let work cls =
        if Atomic.get deadline_hit then ([], 0)
        else if out_of_time () then begin
          Atomic.set deadline_hit true;
          ([], 0)
        end
        else begin
          let stamp = stamp_of cls in
          let skipped = ref 0 in
          let insts =
            List.concat_map
              (fun sc ->
                if stamp >= sc.last_run then
                  Ematch.matches_of_rule g schema sc.sr cls
                else begin
                  incr skipped;
                  []
                end)
              scheduled
          in
          (insts, !skipped)
        end
      in
      let results = fan_out work classes in
      (* Merge in class order; dedup against every earlier iteration.
         [fresh_by_rule] feeds the scheduler: it marks rules that fired
         at least one instance not seen before. *)
      let fresh_by_rule = Array.make n_rules false in
      let fresh = ref [] in
      Array.iter
        (fun (insts, skipped) ->
          instances := !instances + List.length insts;
          matches_skipped := !matches_skipped + skipped;
          List.iter
            (fun (m : Ematch.match_inst) ->
              let key = (m.mrule.Ematch.ename, wkey m.mlhs, wkey m.mrhs) in
              if not (Seen.mem seen key) then begin
                Seen.replace seen key ();
                fresh_by_rule.(m.mrule.Ematch.eid) <- true;
                fresh := m :: !fresh
              end)
            insts)
        results;
      let fresh = List.rev !fresh in
      let hit_node_budget = ref false in
      List.iter
        (fun (m : Ematch.match_inst) ->
          if Graph.n_nodes g >= budgets.max_enodes then
            hit_node_budget := true
          else begin
            let ca = Graph.add_term g m.mlhs in
            let cb = Graph.add_term g m.mrhs in
            let just =
              if m.mrule.Ematch.einternal then Graph.Jassoc
              else Graph.Jrule m.mrule.Ematch.ename
            in
            ignore (Graph.union g ~ja:m.mlhs ~jb:m.mrhs ~just ca cb)
          end)
        fresh;
      timed_rebuild ();
      mark_fresh iter (Graph.take_touched g);
      (* Scheduler bookkeeping.  A rule accrues backoff only for runs
         that both cost something (its mask intersected at least one
         class fresh for it — [worked]) and fired nothing new; mask-level
         rejections are free and leave the streak alone, so a rule whose
         moment hasn't come is never parked.  A productive run resets. *)
      List.iter
        (fun sc ->
          let worked =
            if sc.sr.Ematch.emask = 0 then max_stamp >= sc.last_run
            else fresh_mask_since.(min sc.last_run iter) land sc.sr.Ematch.emask <> 0
          in
          if fresh_by_rule.(sc.sr.Ematch.eid) then begin
            sc.streak <- 0;
            sc.ever_fired <- true;
            sc.next_run <- iter + 1
          end
          else if worked && sc.ever_fired then begin
            sc.streak <- sc.streak + 1;
            sc.next_run <-
              (if sc.streak < backoff_gate then iter + 1
               else
                 iter + min (1 lsl (sc.streak - backoff_gate + 1)) backoff_cap)
          end
          else sc.next_run <- iter + 1;
          sc.last_run <- iter)
        scheduled;
      if Telemetry.enabled () then
        Telemetry.instant
          ~args:
            [
              ("iter", string_of_int iter);
              ("e_nodes", string_of_int (Graph.n_nodes g));
              ("e_classes", string_of_int (Graph.n_classes g));
              ("unions", string_of_int (Graph.n_unions g));
              ("fresh_instances", string_of_int (List.length fresh));
              ("rules_scheduled", string_of_int (List.length scheduled));
              ("rules_deferred", string_of_int deferred);
              ("matches_skipped", string_of_int !matches_skipped);
            ]
          "egraph.iteration";
      if Atomic.get deadline_hit then
        stop := Some (if target_found () then Target_found else Time_budget)
      else if !hit_node_budget then stop := Some Node_budget
      else if
        Graph.n_nodes g = nodes_before && Graph.n_unions g = unions_before
      then
        if deferred = 0 then
          stop := Some (if target_found () then Target_found else Saturated)
        else
          (* An uneventful round with rules parked proves nothing: force
             every rule back in and require one full quiet round. *)
          force_full := true
    end
  done;
  let stop = Option.get !stop in
  if Telemetry.enabled () then begin
    Telemetry.count ~n:!matches_skipped "egraph.matches_skipped";
    Telemetry.count ~n:!rules_deferred "egraph.rules_deferred";
    Telemetry.instant
      ~args:[ ("reason", stop_reason_label stop) ]
      "egraph.stop"
  end;
  {
    graph = g;
    src;
    root;
    tgt;
    target = tcls;
    schema;
    stats =
      {
        iterations = !iterations;
        e_nodes = Graph.n_nodes g;
        e_classes = Graph.n_classes g;
        unions = Graph.n_unions g;
        instances = !instances;
        matches_skipped = !matches_skipped;
        rules_deferred = !rules_deferred;
        rebuild_ms = !rebuild_ms;
        total_ms = (Telemetry.now () -. t0) *. 1000.;
        stop;
      };
  }

(* ------------------------------------------------------------------ *)
(* Extraction: the k cheapest spellings of the source's class. *)

let best_terms ?(k = 4) (sp : space) : wterm list =
  let tbl = Extract.k_best ~k sp.graph in
  List.map (fun (b : Extract.best) -> b.Extract.bt) (Extract.bests tbl sp.graph sp.root)

(* One-point deviations of a concrete anchor spelling: at every subterm
   position of the anchor, each member e-node's *witness* substituted in
   place of that subterm, the rest of the anchor untouched.  Witnesses
   are the instantiated sides rules actually fired, so this needs no
   weight model at all: around the source it surfaces every single-site
   rewrite saturation discovered — including ones whose measured win is
   a few percent and invisible to the extraction weights — as full,
   provably equivalent query spellings. *)
let anchor_deviations ?(cap = 512) (sp : space) (anchor : wterm) :
    wterm list =
  let g = sp.graph in
  (* Every subterm position of the anchor, with a context closure that
     rebuilds the full anchor around a replacement at that position. *)
  let sites = ref [] in
  let rec walk (ctx : wterm -> wterm) (w : wterm) =
    (match Graph.find_term g w with
    | Some c -> sites := (ctx, w, c) :: !sites
    | None -> ());
    let op, cs = decompose w in
    List.iteri
      (fun j cj ->
        let ctx' d =
          ctx (rebuild op (List.mapi (fun i c -> if i = j then d else c) cs))
        in
        walk ctx' cj)
      cs
  in
  walk (fun w -> w) anchor;
  (* Per-site queues of alternative member witnesses.  Members whose head
     operator differs from the anchor's go first: a genuine single-site
     rewrite usually changes the head, while reassociation noise in a
     compose chain keeps it.  The cap is then spent round-robin across
     sites, so a deep site's first alternative always beats a shallow
     site's fiftieth. *)
  let queues =
    List.rev_map
      (fun (ctx, w, c) ->
        let aop, _ = decompose w in
        let ms =
          List.filter
            (fun (n : Graph.enode) -> wkey n.Graph.witness <> wkey w)
            (Graph.nodes g c)
        in
        let diff, same =
          List.partition (fun (n : Graph.enode) -> not (op_equal n.Graph.op aop)) ms
        in
        (ctx, ref (diff @ same)))
      !sites
  in
  let out = ref [] in
  let count = ref 0 in
  let progress = ref true in
  while !progress && !count < cap do
    progress := false;
    List.iter
      (fun (ctx, q) ->
        match !q with
        | [] -> ()
        | (n : Graph.enode) :: rest ->
          q := rest;
          if !count < cap then begin
            incr count;
            progress := true;
            out := ctx n.Graph.witness :: !out
          end)
      queues
  done;
  List.rev !out

(* The front handed to the executed cost model: the k cheapest spellings
   of the source's class overall, the one-point deviations of the
   cheapest one ({!Extract.deviations}), and the witness deviations
   around the source itself.  The deviation neighborhoods are what save
   queries whose win the weights cannot see — hoisting a loop invariant
   moves the measured cost a few percent but the weight the wrong way,
   so its spelling never survives a weight-ranked merge, yet it sits one
   substitution from a spelling the caller already holds. *)
let extraction_front ?(k = 2) (sp : space) : wterm list =
  let tbl = Extract.k_best ~k sp.graph in
  let wide =
    List.map
      (fun (b : Extract.best) -> b.Extract.bt)
      (Extract.bests tbl sp.graph sp.root)
    @ Extract.deviations tbl sp.graph sp.root
    @ anchor_deviations sp sp.src
  in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun w ->
      let key = wkey w in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    wide

(* ------------------------------------------------------------------ *)
(* Equivalence and proof replay. *)

let equiv (sp : space) : bool =
  match sp.target with
  | Some c -> Graph.find sp.graph c = Graph.find sp.graph sp.root
  | None -> false

(* A step taken right-to-left replays as the flipped rule: "r" ↔ "r-1",
   matching {!Rewrite.Rule.flip}'s naming. *)
let oriented_name name fwd =
  if fwd then name
  else if Filename.check_suffix name "-1" then
    String.sub name 0 (String.length name - 2)
  else name ^ "-1"

(* Proof-forest steps → (rule, query) replay.  Internal reassociations
   drop out: the BFS engine matches modulo associativity, so an assoc
   step is a no-op to its checker and the next retained step still
   follows from the previous retained query. *)
let steps_to_path (steps : Graph.step list) : (string * Term.query) list =
  List.filter_map
    (fun (j, fwd, w) ->
      match j with
      | Graph.Jrule name -> (
        match query_of_wterm w with
        | Some q -> Some (oriented_name name fwd, q)
        | None -> None)
      | Graph.Jassoc | Graph.Jcong -> None)
    steps

(* Derivation from the source to any term of its class.  The term is
   first re-added: after the final rebuild the hash-cons keys are
   canonical, so an extracted candidate folds back onto existing e-nodes
   (alias proof nodes only, no new classes) and becomes explainable. *)
let path_to (sp : space) (w : wterm) : (string * Term.query) list option =
  let c = Graph.add_term sp.graph w in
  if Graph.find sp.graph c <> Graph.find sp.graph sp.root then None
  else Some (steps_to_path (Graph.explain sp.graph sp.src w))

let path (sp : space) : (string * Term.query) list option =
  match sp.tgt with
  | Some w when equiv sp -> path_to sp w
  | _ -> None
