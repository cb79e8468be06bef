(* Per-layer accounting of one traced pass.

   The benchmark wraps each of its calls into a layer in a span named
   [pb.<layer>.<stage>] and the whole pass in [pb.pass]; the program's own
   spans ([theorem1.*], [serve.batch], [netsim.run], [parallel.*]) nest
   inside them. Self times come from [Trace_report]'s span table, and every
   span name maps to the layer that owns it. The self time of [pb.pass] is
   the part of the pass no layer span covers: it is reported as [other]. *)

open Xt_obs

type span = { count : int; wall_s : float; self_s : float }

type table = {
  spans : (string * span) list;
  wall_s : float;  (** Wall time of the [pb.pass] root span. *)
  by_layer : (string * float) list;  (** Self seconds per layer, [other] last. *)
  coverage : float;  (** Share of [wall_s] spent in named layers. *)
  self_sum : float;  (** Sum of every self time, as a share of [wall_s]. *)
}

let layers = [ "bintree"; "core"; "embedding"; "prelude"; "serve"; "netsim" ]

(* The benchmark keeps [other] within this share of the pass wall time. *)
let tolerance = 0.10

let layer_of name =
  let name =
    if String.starts_with ~prefix:"pb." name then String.sub name 3 (String.length name - 3)
    else name
  in
  match String.index_opt name '.' with
  | None -> "other"
  | Some i -> (
      match String.sub name 0 i with
      | "bintree" -> "bintree"
      | "core" | "theorem1" | "adjust" | "split" | "repair" -> "core"
      | "embedding" | "cache" -> "embedding"
      | "prelude" | "parallel" -> "prelude"
      | "serve" | "loadgen" -> "serve"
      | "netsim" -> "netsim"
      | _ -> "other")

(* The "== spans ==" section of a report: span, count, wall_ms, self_ms,
   avg_us, whitespace-separated, one row per span name. *)
let parse_spans report =
  let rec skip = function
    | "== spans ==" :: _header :: rest -> rest
    | _ :: rest -> skip rest
    | [] -> []
  in
  let rec rows acc = function
    | l :: rest when l <> "" && not (String.starts_with ~prefix:"==" l) -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | [ name; count; wall; self; _avg ] ->
            let row =
              {
                count = int_of_string count;
                wall_s = float_of_string wall /. 1e3;
                self_s = float_of_string self /. 1e3;
              }
            in
            rows ((name, row) :: acc) rest
        | _ -> rows acc rest)
    | _ -> List.rev acc
  in
  rows [] (skip (String.split_on_char '\n' report))

let spans_of ?dump evs = parse_spans (Trace_report.report ?dump evs)

let find spans name : span option = List.assoc_opt name spans
let wall spans name = match find spans name with Some s -> s.wall_s | None -> 0.0
let self spans name = match find spans name with Some s -> s.self_s | None -> 0.0

(* Mean wall time per call of a span, 0 when it never ran. *)
let mean_wall spans name =
  match find spans name with
  | Some s when s.count > 0 -> s.wall_s /. float_of_int s.count
  | _ -> 0.0

let analyse spans =
  let wall_s = wall spans "pb.pass" in
  let sum layer =
    List.fold_left (fun acc (n, s) -> if layer_of n = layer then acc +. s.self_s else acc) 0.0 spans
  in
  let by_layer = List.map (fun l -> (l, sum l)) (layers @ [ "other" ]) in
  let share x = if wall_s > 0.0 then x /. wall_s else 0.0 in
  let named = List.fold_left (fun acc l -> acc +. sum l) 0.0 layers in
  let all = List.fold_left (fun acc (_, s) -> acc +. s.self_s) 0.0 spans in
  { spans; wall_s; by_layer; coverage = share named; self_sum = share all }

let covered t = 1.0 -. t.coverage <= tolerance

let render ~title ~traced_wall ~untraced_wall t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  line "== per-layer: %s ==" title;
  line "%-10s %12s %8s" "layer" "self_s" "share";
  List.iter
    (fun (l, s) ->
      line "%-10s %12.6f %7.2f%%" l s (if t.wall_s > 0.0 then 100.0 *. s /. t.wall_s else 0.0))
    t.by_layer;
  line "%-10s %12.6f" "wall" t.wall_s;
  line "coverage: layers cover %.2f%% of the pass wall time (tolerance: other <= %.0f%%) -> %s"
    (100.0 *. t.coverage) (100.0 *. tolerance)
    (if covered t then "ok" else "NOT COVERED");
  line "self-time sum: %.2f%% of wall" (100.0 *. t.self_sum);
  line "tracing overhead: traced %.6f s / untraced %.6f s = %.4f (median pass walls)" traced_wall
    untraced_wall
    (if untraced_wall > 0.0 then traced_wall /. untraced_wall else 0.0);
  line "%-32s %8s %12s %12s" "span" "count" "wall_s" "self_s";
  List.iter (fun (n, s) -> line "%-32s %8d %12.6f %12.6f" n s.count s.wall_s s.self_s) t.spans;
  Buffer.contents b
