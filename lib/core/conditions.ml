open Xt_obs
open Xt_topology
open Xt_bintree
open Xt_embedding

type report = {
  edges : int;
  cond3_violations : int;
  cond4_violations : int;
  max_level_gap : int;
}

(* [b] at level [lb] lies in N(a) for [a] at level [la <= lb]. *)
let in_n xt a la b lb =
  Xtree.mem xt b && Xtree.in_window ~gap:(lb - la) (a + 1 - (1 lsl la)) (b + 1 - (1 lsl lb))

(* One pass over the child -> parent links, each endpoint's level
   computed once per edge. *)
let check xt (e : Embedding.t) =
  Obs.span "conditions.check" @@ fun () ->
  let edges = ref 0 and cond3 = ref 0 and cond4 = ref 0 and gap = ref 0 in
  for v = 0 to Bintree.n e.tree - 1 do
    let p = Bintree.parent_id e.tree v in
    if p >= 0 then begin
      incr edges;
      let a = e.place.(p) and b = e.place.(v) in
      let la = Xtree.level a and lb = Xtree.level b in
      let g = abs (lb - la) in
      if g > !gap then gap := g;
      if g > 2 then incr cond4;
      if not (if la <= lb then in_n xt a la b lb else in_n xt b lb a la) then incr cond3
    end
  done;
  { edges = !edges; cond3_violations = !cond3; cond4_violations = !cond4; max_level_gap = !gap }

let check_theorem1 (r : Theorem1.result) = check r.Theorem1.xt r.Theorem1.embedding
