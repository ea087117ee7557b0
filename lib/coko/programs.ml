(* The conceptual transformations of the paper, as COKO blocks: the text of
   coko/hidden_join.coko, embedded at build time and parsed once.

   [hidden_join] is the five-step strategy of Section 4.1; [code_motion]
   drives the Figure 6 derivation; [simplify] is the general cleanup block
   every step relies on (rules 1-10 plus housekeeping). *)

let program = Syntax.parse_program Programs_text.source

let by_name =
  List.map (fun b -> (b.Block.block_name, b)) program.Syntax.transformations

let block name =
  match List.assoc_opt name by_name with
  | Some b -> b
  | None -> invalid_arg ("Programs: coko/hidden_join.coko has no " ^ name)

let simplify = block "simplify"
let times_forms = block "times-forms"
let breakup = block "breakup"
let bottom_out = block "bottom-out"
let pullup_nest = block "pullup-nest"
let pullup_unnest = block "pullup-unnest"
let absorb_join = block "absorb-join"
let code_motion = block "code-motion"
let compose_iterates = block "compose-iterates"
let decompose_predicate = block "decompose-predicate"
let to_cnf = block "to-cnf"

let hidden_join_steps =
  [ breakup; bottom_out; pullup_nest; pullup_unnest; absorb_join ]

let hidden_join (q : Kola.Term.query) = Block.run_pipeline hidden_join_steps q
