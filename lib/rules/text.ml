(* The rule language as text: RULE and GIVEN definitions, parsed once for
   the catalog (coko/catalog/*.coko, embedded at build time) and for every
   runtime pack, with transformations layered on top by Coko.Syntax.

     -- comments run to end of line
     GIVEN injective(?f)
     RULE my-inter: inter o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f))
                    --> iterate(Kp(T), ?f) o inter

   Rule sides are KOLA terms in {!Kola.Parse} notation; the side kind
   (function / predicate / query) is inferred from the left-hand side. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexing: word-level tokens; rule bodies are re-lexed by Kola.Parse.   *)

let comment_start line =
  let n = String.length line in
  let rec go i =
    if i + 1 >= n then None
    else if line.[i] = '-' && line.[i + 1] = '-'
            && not (i + 2 < n && line.[i + 2] = '>') then Some i
    else go (i + 1)
  in
  go 0

let strip_comments src =
  String.split_on_char '\n' src
  |> List.map (fun line ->
         match comment_start line with
         | Some i -> String.sub line 0 i
         | None -> line)
  |> String.concat "\n"

let keywords =
  [ "RULE"; "GIVEN"; "TRANSFORMATION"; "BEGIN"; "END"; "REPEAT"; "TRY";
    "USE"; "CHOICE" ]

let is_keyword w = List.mem w keywords

type tok =
  | Word of string     (* rule / transformation names, keywords *)
  | Sym of char        (* ; | { } ( ) , : / *)
  | Arrow              (* --> *)
  | Body of string     (* raw term text, only produced inside rule sides *)

let pp_tok ppf = function
  | Word w -> Fmt.string ppf w
  | Sym c -> Fmt.pf ppf "%c" c
  | Arrow -> Fmt.string ppf "-->"
  | Body s -> Fmt.pf ppf "<%s>" s

(* Tokenize the structural level.  Rule sides (between ':' and '-->', and
   between '-->' and the end of the rule) are captured verbatim as [Body]
   so Kola.Parse handles them.  Every token carries its 1-based source
   line so parse- and elaboration-time rejections can point at it. *)
let tokenize src =
  let src = strip_comments src in
  let n = String.length src in
  (* prefix newline counts: line_at i = 1 + newlines in src.[0..i) *)
  let line_at =
    let lines = Array.make (n + 1) 1 in
    for i = 0 to n - 1 do
      lines.(i + 1) <- (lines.(i) + if src.[i] = '\n' then 1 else 0)
    done;
    fun i -> lines.(min (max i 0) n)
  in
  let toks = ref [] in
  let push t i = toks := (t, line_at i) :: !toks in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '?'
  in
  let rec structural i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then structural (i + 1)
      else if c = ';' || c = '{' || c = '}' || c = '(' || c = ')' || c = ','
              || c = '|' || c = '/' then begin
        push (Sym c) i;
        structural (i + 1)
      end
      else if c = ':' then begin
        push (Sym ':') i;
        (* capture a rule side: up to --> *)
        side (i + 1)
      end
      else if is_word c then begin
        let j = ref i in
        while !j < n && is_word src.[!j] do incr j done;
        let w = String.sub src i (!j - i) in
        push (Word w) i;
        structural !j
      end
      else error "line %d: unexpected character %C in COKO source" (line_at i) c
  and side i =
    (* everything up to --> is the LHS body; then everything up to the next
       keyword or end of input is the RHS body *)
    let rec find_arrow j =
      if j + 2 >= n then error "line %d: rule without -->" (line_at i)
      else if src.[j] = '-' && src.[j + 1] = '-' && src.[j + 2] = '>' then j
      else find_arrow (j + 1)
    in
    let a = find_arrow i in
    push (Body (String.trim (String.sub src i (a - i)))) i;
    push Arrow a;
    (* RHS: scan forward for a keyword at word-boundary *)
    let rec find_end j =
      if j >= n then n
      else if is_word src.[j] then begin
        let k = ref j in
        while !k < n && is_word src.[!k] do incr k done;
        if is_keyword (String.sub src j (!k - j)) then j else find_end !k
      end
      else find_end (j + 1)
    in
    let e = find_end (a + 3) in
    push (Body (String.trim (String.sub src (a + 3) (e - (a + 3))))) (a + 3);
    structural e
  in
  structural 0;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)

type cursor = {
  mutable toks : (tok * int) list;
  mutable line : int;  (** line of the most recently peeked token *)
}

let line st = st.line

let peek st =
  match st.toks with
  | [] -> None
  | (t, l) :: _ ->
    st.line <- l;
    Some t

let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect st t what =
  match peek st with
  | Some t' when t' = t -> advance st
  | Some other -> error "line %d: expected %s, found %a" st.line what pp_tok other
  | None -> error "line %d: expected %s, found end of input" st.line what

let expect_word st what =
  match peek st with
  | Some (Word w) ->
    advance st;
    w
  | Some other -> error "line %d: expected %s, found %a" st.line what pp_tok other
  | None -> error "line %d: expected %s, found end of input" st.line what

(* Rule sides: infer the kind from the LHS text. *)
let looks_like_pred src =
  match Kola.Parse.pred src with
  | _ -> (
    (* prefer the predicate reading unless the function reading is clearly
       richer (a bare Prim of a non-predicate name parses as both) *)
    match Kola.Parse.func src with
    | exception Kola.Parse.Error _ -> true
    | Kola.Term.Prim _ -> true
    | _ -> false)
  | exception Kola.Parse.Error _ -> false

let parse_rule_body ~name ~preconditions lhs_src rhs_src =
  let module R = Rewrite.Rule in
  let has_bang s = String.contains s '!' in
  R.make ~preconditions ~name
    (if has_bang lhs_src && has_bang rhs_src then
       let lq = Kola.Parse.query lhs_src and rq = Kola.Parse.query rhs_src in
       R.Query_rule
         ((lq.Kola.Term.body, lq.Kola.Term.arg), (rq.Kola.Term.body, rq.Kola.Term.arg))
     else if looks_like_pred lhs_src then
       R.Pred_rule (Kola.Parse.pred lhs_src, Kola.Parse.pred rhs_src)
     else R.Fun_rule (Kola.Parse.func lhs_src, Kola.Parse.func rhs_src))

let prop_of_string = function
  | "injective" -> Some Rewrite.Props.Injective
  | "total" -> Some Rewrite.Props.Total
  | "constant" -> Some Rewrite.Props.Constant
  | "preserves-pair" -> Some Rewrite.Props.Preserves_pair
  | "set-valued" -> Some Rewrite.Props.Set_valued
  | _ -> None

let drop_question h =
  if String.length h > 0 && h.[0] = '?' then String.sub h 1 (String.length h - 1)
  else h

let parse_given st =
  (* GIVEN prop(?h) [, prop(?h)]* *)
  let rec go acc =
    let prop_w = expect_word st "property name" in
    let prop_line = st.line in
    let prop =
      match prop_of_string prop_w with
      | Some p -> p
      | None ->
        error
          "line %d: unknown property %s (expected injective, total, \
           constant, preserves-pair or set-valued)"
          prop_line prop_w
    in
    expect st (Sym '(') "(";
    let hole =
      match peek st with
      | Some (Word w) ->
        advance st;
        w
      | _ -> error "line %d: expected a hole name in GIVEN" st.line
    in
    expect st (Sym ')') ")";
    let pre = { Rewrite.Rule.prop; hole = drop_question hole } in
    match peek st with
    | Some (Sym ',') ->
      advance st;
      go (pre :: acc)
    | _ -> List.rev (pre :: acc)
  in
  go []

let parse_rule st preconditions =
  let name = expect_word st "rule name" in
  let rule_line = st.line in
  expect st (Sym ':') ":";
  let body what =
    match peek st with
    | Some (Body b) ->
      advance st;
      b
    | _ -> error "line %d: expected a rule %s" st.line what
  in
  let lhs = body "left-hand side" in
  expect st Arrow "-->";
  let rhs = body "right-hand side" in
  let rule =
    try parse_rule_body ~name ~preconditions lhs rhs
    with Kola.Parse.Error msg ->
      error "line %d: in rule %s: %s" rule_line name msg
  in
  (* Reject ill-scoped rules at load time: an RHS hole the pattern never
     binds would survive substitution as a hole in the rewritten program
     (Subst leaves unbound holes in place), and a precondition naming an
     absent hole could never be checked.  Schema-dependent validation
     (typing, semantics) is certification's job, not the loader's. *)
  (match Lint.scoping rule with
  | [] -> ()
  | p :: _ -> error "line %d: rule %s: %a" rule_line name Lint.pp_problem p);
  rule

let parse ?transformation src =
  let st = { toks = tokenize src; line = 1 } in
  let rec go rules transformations =
    match (peek st, transformation) with
    | None, _ -> (List.rev rules, List.rev transformations)
    | Some (Word "GIVEN"), _ ->
      advance st;
      let preconditions = parse_given st in
      expect st (Word "RULE") "RULE";
      go (parse_rule st preconditions :: rules) transformations
    | Some (Word "RULE"), _ ->
      advance st;
      go (parse_rule st [] :: rules) transformations
    | Some (Word "TRANSFORMATION"), Some parse_transformation ->
      advance st;
      go rules (parse_transformation st :: transformations)
    | Some other, _ ->
      error "line %d: expected %s, found %a" st.line
        (if Option.is_none transformation then "RULE or GIVEN"
         else "RULE, GIVEN or TRANSFORMATION")
        pp_tok other
  in
  go [] []

(* ------------------------------------------------------------------ *)
(* Names                                                                *)

(* One table per rule set, built once: every rule under its name and its
   right-to-left reading under name ^ "-1" (the paper's "rule i⁻¹"), so a
   flipped rule is built, and its patterns interned, only once.  The first
   of two same-named rules wins. *)
let resolver rules =
  let table = Hashtbl.create (2 * List.length rules) in
  List.iter
    (fun (r : Rewrite.Rule.t) ->
      Hashtbl.replace table r.name r;
      Hashtbl.replace table (r.name ^ "-1") (Rewrite.Rule.flip r))
    (List.rev rules);
  Hashtbl.find_opt table
