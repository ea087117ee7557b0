(* COKO rule blocks (Section 4.2: "rule blocks; sets of rules that are used
   together, together with strategies for their firing").

   A block is a firing strategy over named rules.  Blocks compose into
   "conceptual transformations" — transformations too large for one rule but
   small enough to think about as a unit, such as each of the five steps of
   the hidden-join untangler. *)

open Kola.Term

type step =
  | Use of string list
      (** fire any of the named rules once, anywhere (outermost first) *)
  | Seq of step list
  | Choice of step list  (** first step that applies *)
  | Repeat of step       (** as long as it applies *)
  | Try of step          (** apply if possible; never fails *)

type t = { block_name : string; step : step }

let block block_name step = { block_name; step }

type outcome = {
  query : query;
  trace : Rewrite.Engine.trace;
  applied : bool;
}

(* Rule names are resolved through a lookup so that text-defined COKO files
   (see {!Syntax}) can add rules beyond the built-in catalog. *)
let default_lookup = Rules.Catalog.find_exn

(* Steps run on the interned query, handed from firing to firing; the
   trace records each result's plain view (an O(1) field read). *)
let rec run_step ?schema ~lookup step (hq : Hc.hquery) trace =
  match step with
  | Use names -> (
    match Rewrite.Engine.step_once ?schema (List.map lookup names) hq with
    | Some (rule_name, hq') ->
      let result = Hc.to_query hq' in
      Some (hq', { Rewrite.Engine.rule_name; result } :: trace)
    | None -> None)
  | Seq steps ->
    let rec go steps hq trace =
      match steps with
      | [] -> Some (hq, trace)
      | s :: rest -> (
        match run_step ?schema ~lookup s hq trace with
        | Some (hq', trace') -> go rest hq' trace'
        | None -> None)
    in
    go steps hq trace
  | Choice steps ->
    List.find_map (fun s -> run_step ?schema ~lookup s hq trace) steps
  | Repeat s ->
    let rec go hq trace applied fuel =
      if fuel = 0 then if applied then Some (hq, trace) else None
      else
        match run_step ?schema ~lookup s hq trace with
        | Some (hq', trace') -> go hq' trace' true (fuel - 1)
        | None -> if applied then Some (hq, trace) else None
    in
    go hq trace false 10_000
  | Try s -> (
    match run_step ?schema ~lookup s hq trace with
    | Some _ as res -> res
    | None -> Some (hq, trace))

(* One block on an interned query: the result (the input when the block
   does not apply), its firings in order, and whether it applied. *)
let run_interned ?schema ~lookup (t : t) (hq : Hc.hquery) =
  match run_step ?schema ~lookup t.step hq [] with
  | Some (hq', trace) -> (hq', List.rev trace, true)
  | None -> (hq, [], false)

let run ?schema ?(lookup = default_lookup) (t : t) (q : query) : outcome =
  match run_interned ?schema ~lookup t (Hc.of_query q) with
  | hq, trace, true -> { query = Hc.to_query hq; trace; applied = true }
  | _, _, false -> { query = q; trace = []; applied = false }

(* Run blocks in sequence; blocks that do not apply leave the query
   unchanged (the paper's point that failed strategies still leave behind
   the simplifications of earlier steps).  The query is interned once for
   the whole sequence. *)
let run_pipeline ?schema ?(lookup = default_lookup) (blocks : t list)
    (q : query) : outcome * (string * bool) list =
  let hq, rev_trace, applied_list =
    List.fold_left
      (fun (hq, trace, applied) b ->
        let hq', steps, ok = run_interned ?schema ~lookup b hq in
        (hq', List.rev_append steps trace, (b.block_name, ok) :: applied))
      (Hc.of_query q, [], []) blocks
  in
  ( {
      query = Hc.to_query hq;
      trace = List.rev rev_trace;
      applied = applied_list <> [];
    },
    List.rev applied_list )
