open Xt_topology

let node_radius = 14.
let level_height = 70.
let margin = 30.

let width_for xt =
  let leaves = float_of_int (Xt_prelude.Bits.pow2 (Xtree.height xt)) in
  (2. *. margin) +. (leaves *. 3.2 *. node_radius)

let position xt v =
  let w = width_for xt -. (2. *. margin) in
  let l = Xtree.level v and k = Xtree.index v in
  let slots = float_of_int (Xt_prelude.Bits.pow2 l) in
  let x = margin +. ((float_of_int k +. 0.5) /. slots *. w) in
  let y = margin +. (float_of_int l *. level_height) in
  (x, y)

let header ~width ~height =
  Printf.sprintf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n\
     <style>text { font: 10px monospace; text-anchor: middle; dominant-baseline: central; }</style>\n"
    width height width height

let edge_svg xt buf u v ~colour ~dashed ~label =
  let x1, y1 = position xt u and x2, y2 = position xt v in
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\"%s stroke-width=\"1.2\"/>\n"
       x1 y1 x2 y2 colour
       (if dashed then " stroke-dasharray=\"4 3\"" else ""));
  match label with
  | Some text ->
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" fill=\"%s\">%s</text>\n"
           ((x1 +. x2) /. 2.)
           (((y1 +. y2) /. 2.) -. 8.)
           colour text)
  | None -> ()

let vertex_svg xt buf v ~fill ~label =
  let x, y = position xt v in
  Buffer.add_string buf
    (Printf.sprintf
       "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"%s\" stroke=\"black\"/>\n" x y
       node_radius fill);
  Buffer.add_string buf (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\">%s</text>\n" x y label)

let render xt ~vertex_fill ~vertex_label ~extra_edges =
  let buf = Buffer.create 4096 in
  let width = width_for xt in
  let height = (2. *. margin) +. (float_of_int (Xtree.height xt) *. level_height) in
  Buffer.add_string buf (header ~width ~height);
  Graph.iter_edges (Xtree.graph xt) (fun u v ->
      let horizontal = Xtree.level u = Xtree.level v in
      edge_svg xt buf u v ~colour:"#555" ~dashed:horizontal ~label:None);
  extra_edges buf;
  for v = 0 to Xtree.order xt - 1 do
    vertex_svg xt buf v ~fill:(vertex_fill v) ~label:(vertex_label v)
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let xtree xt =
  render xt
    ~vertex_fill:(fun _ -> "white")
    ~vertex_label:(fun v -> Xtree.to_string v)
    ~extra_edges:(fun _ -> ())

let embedding xt (e : Embedding.t) =
  let loads = Array.make (Graph.n e.host) 0 in
  Array.iter (fun p -> loads.(p) <- loads.(p) + 1) e.place;
  let max_load = max 1 (Array.fold_left max 0 loads) in
  let fill v =
    (* white (empty) to steel blue (full) *)
    let t = float_of_int loads.(v) /. float_of_int max_load in
    let channel base = int_of_float (float_of_int base +. ((255. -. float_of_int base) *. (1. -. t))) in
    Printf.sprintf "rgb(%d,%d,%d)" (channel 70) (channel 130) (channel 180)
  in
  let stretched buf =
    let d = Xtree.distance xt in
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (u, v) ->
        let a = e.place.(u) and b = e.place.(v) in
        if a <> b && d a b >= 2 then begin
          let key = (min a b, max a b) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            edge_svg xt buf a b ~colour:"#c0392b" ~dashed:false
              ~label:(Some (string_of_int (d a b)))
          end
        end)
      (Xt_bintree.Bintree.edges e.tree)
  in
  render xt ~vertex_fill:fill ~vertex_label:(fun v -> string_of_int loads.(v)) ~extra_edges:stretched
