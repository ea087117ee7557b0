(* A parser for KOLA terms in (ASCII-friendly) paper notation.

   Functions:   id, pi1, pi2, flat, attribute names, Kf(v), Cf(f, v),
                con(p, f, g), iterate(p, f), iter(p, f), join(p, f),
                nest(f, g), unnest(f, g), cnt/sum/max/min, add/sub/mul,
                union/inter/diff, <f, g> (pair former), f x g (product),
                f o g (composition, also ∘), ?h (hole)
   Predicates:  eq, leq, gt, in, Kp(T), Kp(F), Cp(p, v), p (+) f (also ⊕),
                p & q, p | q, p^-1 (inverse), p^o (converse), ?h
   Values:      integers, "strings", true, false, (), [v1, v2], {v1, ...},
                UPPERCASE names (database extents), ?h
   Queries:     f ! v

   Example:  iterate(Kp(T), city o addr) ! P *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type token =
  | TIdent of string
  | TInt of int
  | TString of string
  | THole of string
  | TLparen | TRparen
  | TLbracket | TRbracket
  | TLbrace | TRbrace
  | TLangle | TRangle
  | TComma
  | TCompose       (* o  or ∘ *)
  | TTimes         (* x  or × *)
  | TOplus         (* (+) or ⊕ *)
  | TAmp | TBar
  | TInv           (* ^-1 or ⁻¹ *)
  | TConv          (* ^o *)
  | TBang
  | TEof

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (s : string) : token list =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev (TEof :: acc)
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if is_digit c || (c = '-' && i + 1 < n && is_digit s.[i + 1]) then begin
        let j = ref (i + 1) in
        while !j < n && is_digit s.[!j] do incr j done;
        go !j (TInt (int_of_string (String.sub s i (!j - i))) :: acc)
      end
      else if c = '?' then begin
        let j = ref (i + 1) in
        while !j < n && is_ident_char s.[!j] do incr j done;
        if !j = i + 1 then error "expected a hole name after ?";
        go !j (THole (String.sub s (i + 1) (!j - i - 1)) :: acc)
      end
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        let word = String.sub s i (!j - i) in
        (* a lone 'o' or 'x' between terms is an operator *)
        match word with
        | "o" -> go !j (TCompose :: acc)
        | "x" -> go !j (TTimes :: acc)
        | _ -> go !j (TIdent word :: acc)
      end
      else if c = '"' then begin
        let j = ref (i + 1) in
        while !j < n && s.[!j] <> '"' do incr j done;
        if !j >= n then error "unterminated string";
        go (!j + 1) (TString (String.sub s (i + 1) (!j - i - 1)) :: acc)
      end
      else if i + 2 < n && String.sub s i 3 = "(+)" then go (i + 3) (TOplus :: acc)
      else if i + 2 < n && String.sub s i 3 = "^-1" then go (i + 3) (TInv :: acc)
      else if i + 1 < n && String.sub s i 2 = "^o" then go (i + 2) (TConv :: acc)
      else begin
        (* unicode operators from the pretty-printer *)
        let utf8_at p pat = String.length pat <= n - p && String.sub s p (String.length pat) = pat in
        if utf8_at i "\u{2218}" then go (i + String.length "\u{2218}") (TCompose :: acc)
        else if utf8_at i "\u{1D52}" then go (i + String.length "\u{1D52}") (TConv :: acc)
        else if utf8_at i "\u{207B}\u{B9}" then
          go (i + String.length "\u{207B}\u{B9}") (TInv :: acc)
        else if utf8_at i "\u{D7}" then go (i + String.length "\u{D7}") (TTimes :: acc)
        else if utf8_at i "\u{2295}" then go (i + String.length "\u{2295}") (TOplus :: acc)
        else if utf8_at i "\u{27E8}" then go (i + String.length "\u{27E8}") (TLangle :: acc)
        else if utf8_at i "\u{27E9}" then go (i + String.length "\u{27E9}") (TRangle :: acc)
        else if utf8_at i "\u{3C0}1" then go (i + String.length "\u{3C0}1") (TIdent "pi1" :: acc)
        else if utf8_at i "\u{3C0}2" then go (i + String.length "\u{3C0}2") (TIdent "pi2" :: acc)
        else
          match c with
          | '(' -> go (i + 1) (TLparen :: acc)
          | ')' -> go (i + 1) (TRparen :: acc)
          | '[' -> go (i + 1) (TLbracket :: acc)
          | ']' -> go (i + 1) (TRbracket :: acc)
          | '{' -> go (i + 1) (TLbrace :: acc)
          | '}' -> go (i + 1) (TRbrace :: acc)
          | '<' -> go (i + 1) (TLangle :: acc)
          | '>' -> go (i + 1) (TRangle :: acc)
          | ',' -> go (i + 1) (TComma :: acc)
          | '&' -> go (i + 1) (TAmp :: acc)
          | '|' -> go (i + 1) (TBar :: acc)
          | '!' -> go (i + 1) (TBang :: acc)
          | c -> error "unexpected character %C at offset %d" c i
      end
  in
  go 0 []

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> TEof | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect st tok what =
  if peek st = tok then advance st else error "expected %s" what

(* value *)
let rec parse_value st : Value.t =
  match peek st with
  | TInt i ->
    advance st;
    Value.Int i
  | TString s ->
    advance st;
    Value.Str s
  | THole h ->
    advance st;
    Value.Hole h
  | TIdent "true" ->
    advance st;
    Value.Bool true
  | TIdent "false" ->
    advance st;
    Value.Bool false
  | TIdent name when name <> "" && name.[0] >= 'A' && name.[0] <= 'Z' ->
    advance st;
    Value.Named name
  | TLparen ->
    advance st;
    expect st TRparen ")";
    Value.Unit
  | TLbracket ->
    advance st;
    let a = parse_value st in
    expect st TComma ",";
    let b = parse_value st in
    expect st TRbracket "]";
    Value.Pair (a, b)
  | TLbrace ->
    advance st;
    if peek st = TRbrace then begin
      advance st;
      Value.set []
    end
    else begin
      let first = parse_value st in
      let rec more acc =
        if peek st = TComma then begin
          advance st;
          more (parse_value st :: acc)
        end
        else List.rev acc
      in
      let elems = more [ first ] in
      expect st TRbrace "}";
      Value.set elems
    end
  | _ -> error "expected a value"

(* func: composition chain of products of atoms *)
and parse_func st : Term.func =
  let first = parse_times st in
  let rec chain acc =
    if peek st = TCompose then begin
      advance st;
      chain (Term.Compose (acc, parse_times st))
    end
    else acc
  in
  chain first

and parse_times st : Term.func =
  let first = parse_fatom st in
  let rec go acc =
    if peek st = TTimes then begin
      advance st;
      go (Term.Times (acc, parse_fatom st))
    end
    else acc
  in
  go first

and parse_fatom st : Term.func =
  match peek st with
  | THole h ->
    advance st;
    Term.Fhole h
  | TLparen ->
    advance st;
    let f = parse_func st in
    expect st TRparen ")";
    f
  | TLangle ->
    advance st;
    let a = parse_func st in
    expect st TComma ",";
    let b = parse_func st in
    expect st TRangle "closing angle";
    Term.Pairf (a, b)
  | TIdent name -> (
    advance st;
    let unary_pf mk =
      expect st TLparen "(";
      let p = parse_pred st in
      expect st TComma ",";
      let f = parse_func st in
      expect st TRparen ")";
      mk p f
    in
    let unary_ff mk =
      expect st TLparen "(";
      let a = parse_func st in
      expect st TComma ",";
      let b = parse_func st in
      expect st TRparen ")";
      mk a b
    in
    match name with
    | "id" -> Term.Id
    | "pi1" -> Term.Pi1
    | "pi2" -> Term.Pi2
    | "flat" -> Term.Flat
    | "sng" -> Term.Sng
    | "cnt" -> Term.Agg Term.Count
    | "sum" -> Term.Agg Term.Sum
    | "max" -> Term.Agg Term.Max
    | "min" -> Term.Agg Term.Min
    | "add" -> Term.Arith Term.Add
    | "sub" -> Term.Arith Term.Sub
    | "mul" -> Term.Arith Term.Mul
    | "union" -> Term.Setop Term.Union
    | "inter" -> Term.Setop Term.Inter
    | "diff" -> Term.Setop Term.Diff
    | "Kf" ->
      expect st TLparen "(";
      let v = parse_value st in
      expect st TRparen ")";
      Term.Kf v
    | "Cf" ->
      expect st TLparen "(";
      let f = parse_func st in
      expect st TComma ",";
      let v = parse_value st in
      expect st TRparen ")";
      Term.Cf (f, v)
    | "con" ->
      expect st TLparen "(";
      let p = parse_pred st in
      expect st TComma ",";
      let f = parse_func st in
      expect st TComma ",";
      let g = parse_func st in
      expect st TRparen ")";
      Term.Con (p, f, g)
    | "iterate" -> unary_pf (fun p f -> Term.Iterate (p, f))
    | "iter" -> unary_pf (fun p f -> Term.Iter (p, f))
    | "join" -> unary_pf (fun p f -> Term.Join (p, f))
    | "nest" -> unary_ff (fun a b -> Term.Nest (a, b))
    | "unnest" -> unary_ff (fun a b -> Term.Unnest (a, b))
    | name -> Term.Prim name)
  | _ -> error "expected a function"

(* pred: | over & over ⊕-chains over atoms with postfix ^-1 / ^o *)
and parse_pred st : Term.pred =
  let lhs = parse_pred_and st in
  if peek st = TBar then begin
    advance st;
    Term.Orp (lhs, parse_pred st)
  end
  else lhs

and parse_pred_and st : Term.pred =
  let lhs = parse_oplus st in
  if peek st = TAmp then begin
    advance st;
    Term.Andp (lhs, parse_pred_and st)
  end
  else lhs

and parse_oplus st : Term.pred =
  let first = parse_patom st in
  let rec go acc =
    if peek st = TOplus then begin
      advance st;
      go (Term.Oplus (acc, parse_times st))
    end
    else go_postfix acc
  and go_postfix acc =
    match peek st with
    | TInv ->
      advance st;
      go (Term.Inv acc)
    | TConv ->
      advance st;
      go (Term.Conv acc)
    | _ -> acc
  in
  go first

and parse_patom st : Term.pred =
  match peek st with
  | THole h ->
    advance st;
    Term.Phole h
  | TLparen ->
    advance st;
    let p = parse_pred st in
    expect st TRparen ")";
    p
  | TIdent name -> (
    advance st;
    match name with
    | "eq" -> Term.Eq
    | "leq" -> Term.Leq
    | "gt" -> Term.Gt
    | "in" -> Term.In
    | "Kp" -> (
      expect st TLparen "(";
      match peek st with
      | TIdent ("T" | "true") ->
        advance st;
        expect st TRparen ")";
        Term.Kp true
      | TIdent ("F" | "false") ->
        advance st;
        expect st TRparen ")";
        Term.Kp false
      | _ -> error "expected T or F in Kp(...)")
    | "Cp" ->
      expect st TLparen "(";
      let p = parse_pred st in
      expect st TComma ",";
      let v = parse_value st in
      expect st TRparen ")";
      Term.Cp (p, v)
    | name -> Term.Primp name)
  | _ -> error "expected a predicate"

let finish st what =
  match peek st with
  | TEof -> ()
  | _ -> error "trailing input after %s" what

let func (src : string) : Term.func =
  let st = { toks = tokenize src } in
  let f = parse_func st in
  finish st "function";
  f

let pred (src : string) : Term.pred =
  let st = { toks = tokenize src } in
  let p = parse_pred st in
  finish st "predicate";
  p

let value (src : string) : Value.t =
  let st = { toks = tokenize src } in
  let v = parse_value st in
  finish st "value";
  v

let query (src : string) : Term.query =
  let st = { toks = tokenize src } in
  let f = parse_func st in
  expect st TBang "!";
  let v = parse_value st in
  finish st "query";
  Term.query f v
