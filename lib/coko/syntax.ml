(* The COKO surface language — the follow-on language the paper announces
   ("we are developing a language, COKO, with which to express rule blocks;
   sets of rules that are used together, together with strategies for their
   firing").

   A COKO file contains rule definitions ({!Rules.Text}) and
   transformations:

     RULE unit-left: id o ?f --> ?f

     TRANSFORMATION cleanup
     BEGIN
       TRY REPEAT { unit-left | r1 };
       USE r3
     END

   Step connectives: ';' sequencing (atomic: a failing tail aborts the
   whole), '|' inside braces = first applicable rule, 'REPEAT' = while
   applicable, 'TRY' = don't fail, 'CHOICE { s1 / s2 }' = first applicable
   step.  Every rule name a step uses is resolved once the whole file is
   parsed, against the file's own rules and then the catalog. *)

module T = Rules.Text

exception Error = T.Error

let error = T.error

type program = {
  rules : Rewrite.Rule.t list;
  transformations : Block.t list;
  resolve : string -> Rewrite.Rule.t option;
}

(* [used] collects each rule name a step mentions, with its line. *)
let rec parse_step ~used st : Block.step =
  let first = parse_alt ~used st in
  let rec go acc =
    match T.peek st with
    | Some (T.Sym ';') ->
      T.advance st;
      go (parse_alt ~used st :: acc)
    | _ -> (
      match acc with [ s ] -> s | steps -> Block.Seq (List.rev steps))
  in
  go [ first ]

and parse_alt ~used st : Block.step =
  let rule_name () =
    let w = T.expect_word st "rule name" in
    used := (w, T.line st) :: !used;
    w
  in
  (* names separated by [sep] up to a non-separator *)
  let rec names sep acc =
    let w = rule_name () in
    match T.peek st with
    | Some (T.Sym c) when c = sep ->
      T.advance st;
      names sep (w :: acc)
    | _ -> List.rev (w :: acc)
  in
  match T.peek st with
  | Some (T.Word "REPEAT") ->
    T.advance st;
    Block.Repeat (parse_alt ~used st)
  | Some (T.Word "TRY") ->
    T.advance st;
    Block.Try (parse_alt ~used st)
  | Some (T.Word "CHOICE") ->
    T.advance st;
    T.expect st (T.Sym '{') "{";
    let rec alts acc =
      let s = parse_step ~used st in
      match T.peek st with
      | Some (T.Sym '/') ->
        T.advance st;
        alts (s :: acc)
      | _ ->
        T.expect st (T.Sym '}') "}";
        Block.Choice (List.rev (s :: acc))
    in
    alts []
  | Some (T.Sym '{') ->
    (* { r1 | r2 | ... } — one firing from a rule set *)
    T.advance st;
    let rules = names '|' [] in
    T.expect st (T.Sym '}') "}";
    Block.Use rules
  | Some (T.Word "USE") ->
    T.advance st;
    Block.Use (names ',' [])
  | Some (T.Word name) when not (T.is_keyword name) -> Block.Use [ rule_name () ]
  | Some other ->
    error "line %d: unexpected %a in a transformation body" (T.line st)
      T.pp_tok other
  | None ->
    error "line %d: unexpected end of input in a transformation body"
      (T.line st)

let parse_transformation ~used st =
  let name = T.expect_word st "transformation name" in
  T.expect st (T.Word "BEGIN") "BEGIN";
  let step = parse_step ~used st in
  T.expect st (T.Word "END") "END";
  Block.block name step

let parse_program (src : string) : program =
  let used = ref [] in
  let rules, transformations =
    T.parse ~transformation:(parse_transformation ~used) src
  in
  (* program rules shadow catalog rules of the same name *)
  let own = T.resolver rules in
  let resolve name =
    match own name with Some _ as r -> r | None -> Rules.Catalog.find name
  in
  List.iter
    (fun (name, line) ->
      if Option.is_none (resolve name) then
        error "line %d: unknown rule %s" line name)
    (List.rev !used);
  { rules; transformations; resolve }

let lookup_of (p : program) name =
  match p.resolve name with
  | Some r -> r
  | None -> error "unknown rule %s" name

let find_transformation (p : program) name =
  List.find_opt (fun b -> b.Block.block_name = name) p.transformations

(* Parse and run a named transformation from COKO source. *)
let run_source ?schema (src : string) ~transformation (q : Kola.Term.query) :
    Block.outcome =
  let p = parse_program src in
  match find_transformation p transformation with
  | Some b -> Block.run ?schema ~lookup:(lookup_of p) b q
  | None -> error "no transformation named %s" transformation
