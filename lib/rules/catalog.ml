(* The full rule pool, indexed by name.

   The paper reports a pool of 500 LP-verified rules from which an optimizer
   draws; this catalog is our pool, and {!Cert} is our verification
   analogue.  Its rules are COKO text (coko/catalog/*.coko), embedded at
   build time and parsed once, here, by the same parser and scope check as
   every runtime pack. *)

let parse src = fst (Text.parse src)
let figure5 = parse Catalog_text.figure5
let figure8 = parse Catalog_text.figure8
let housekeeping = parse Catalog_text.housekeeping
let preconditioned = parse Catalog_text.preconditioned
let extended = parse Catalog_text.extended

let all = figure5 @ figure8 @ housekeeping @ preconditioned @ extended

let find = Text.resolver all

let find_exn name =
  match find name with
  | Some r -> r
  | None -> invalid_arg (Fmt.str "Catalog.find_exn: unknown rule %s" name)

let rules names = List.map find_exn names

let names () = List.map (fun r -> r.Rewrite.Rule.name) all
