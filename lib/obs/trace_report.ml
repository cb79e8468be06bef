(* Trace analytics: turn an event log (in-memory or re-read from a
   Chrome-trace JSON export) into deterministic summary tables.

   Per-tid B/E matching gives each span name its wall time and its self
   time (wall minus the wall of direct children); depth-0 spans give
   per-domain busy time, utilization, and idle gaps. Everything is
   aggregated by name and sorted, so two traces with the same events
   render the same bytes.

   The [deterministic] projection is stricter: it drops every
   time-derived column and the per-domain section, leaving only tables
   that are byte-identical across runs of a deterministic computation. *)

module J = Tiny_json

type event = Obs.event

let of_trace_json s =
  match J.parse s with
  | Error e -> Error ("trace JSON: " ^ e)
  | Ok doc -> (
      match Option.bind (J.member "traceEvents" doc) J.to_list with
      | None -> Error "trace JSON: no traceEvents array"
      | Some items ->
          let evs =
            List.filter_map
              (fun it ->
                let ph =
                  match Option.bind (J.member "ph" it) J.to_string with
                  | Some p when String.length p = 1 -> p.[0]
                  | _ -> 'M'
                in
                if ph = 'M' then None
                else
                  let name =
                    Option.value ~default:"?" (Option.bind (J.member "name" it) J.to_string)
                  in
                  let tid =
                    Option.value ~default:0 (Option.bind (J.member "tid" it) J.to_int)
                  in
                  let us =
                    Option.value ~default:0.0 (Option.bind (J.member "ts" it) J.to_float)
                  in
                  let args = J.member "args" it in
                  let arg_field k fallback =
                    match Option.bind args (fun a -> Option.bind (J.member k a) J.to_int) with
                    | Some v -> v
                    | None -> fallback
                  in
                  let arg =
                    if ph = 'C' then arg_field "value" 0 else arg_field "v" min_int
                  in
                  Some
                    {
                      Obs.ev_tid = tid;
                      ev_name = name;
                      ev_ph = ph;
                      ev_ts = int_of_float (Float.round (us *. 1000.));
                      ev_arg = arg;
                      ev_arg2 = arg_field "v2" min_int;
                    })
              items
          in
          Ok evs)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type span_stat = {
  mutable s_count : int;
  mutable s_wall : int; (* ns *)
  mutable s_self : int; (* ns *)
  mutable s_gc_minor : int;
  mutable s_gc_major : int;
  mutable s_gc_samples : int;
}

type domain_stat = {
  d_tid : int;
  mutable d_events : int;
  mutable d_spans : int; (* depth-0 spans *)
  mutable d_busy : int; (* ns inside depth-0 spans *)
  mutable d_first : int;
  mutable d_last : int;
  mutable d_prev_end : int; (* end ts of the previous depth-0 span *)
  mutable d_gaps : int;
  mutable d_max_gap : int;
}

type series_stat = {
  mutable c_samples : int;
  mutable c_min : int;
  mutable c_max : int;
  mutable c_last : int;
}

type frame = { f_name : string; f_start : int; mutable f_child : int }

type analysis = {
  spans : (string, span_stat) Hashtbl.t;
  domains : (int, domain_stat) Hashtbl.t;
  series : (string, series_stat) Hashtbl.t;
  instants : (string, int ref) Hashtbl.t;
  mutable total_events : int;
}

let get tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl key v;
      v

let span_stat a name =
  get a.spans name (fun () ->
      { s_count = 0; s_wall = 0; s_self = 0; s_gc_minor = 0; s_gc_major = 0; s_gc_samples = 0 })

let domain_stat a tid =
  get a.domains tid (fun () ->
      {
        d_tid = tid;
        d_events = 0;
        d_spans = 0;
        d_busy = 0;
        d_first = max_int;
        d_last = min_int;
        d_prev_end = min_int;
        d_gaps = 0;
        d_max_gap = 0;
      })

let close_frame a d stack_rest fr t_end =
  let wall = max 0 (t_end - fr.f_start) in
  let st = span_stat a fr.f_name in
  st.s_count <- st.s_count + 1;
  st.s_wall <- st.s_wall + wall;
  st.s_self <- st.s_self + max 0 (wall - fr.f_child);
  (match stack_rest with
  | parent :: _ -> parent.f_child <- parent.f_child + wall
  | [] ->
      d.d_spans <- d.d_spans + 1;
      d.d_busy <- d.d_busy + wall;
      if d.d_prev_end <> min_int then begin
        let gap = fr.f_start - d.d_prev_end in
        if gap > 0 then begin
          d.d_gaps <- d.d_gaps + 1;
          if gap > d.d_max_gap then d.d_max_gap <- gap
        end
      end;
      d.d_prev_end <- t_end)

let analyse evs =
  let a =
    {
      spans = Hashtbl.create 32;
      domains = Hashtbl.create 8;
      series = Hashtbl.create 8;
      instants = Hashtbl.create 8;
      total_events = 0;
    }
  in
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : event) ->
      a.total_events <- a.total_events + 1;
      let d = domain_stat a e.Obs.ev_tid in
      d.d_events <- d.d_events + 1;
      if e.ev_ts < d.d_first then d.d_first <- e.ev_ts;
      if e.ev_ts > d.d_last then d.d_last <- e.ev_ts;
      let stack = get stacks e.ev_tid (fun () -> ref []) in
      match e.ev_ph with
      | 'B' -> stack := { f_name = e.ev_name; f_start = e.ev_ts; f_child = 0 } :: !stack
      | 'E' -> (
          (match !stack with
          | fr :: rest ->
              stack := rest;
              close_frame a d rest fr e.ev_ts
          | [] -> ());
          if e.ev_arg <> min_int then begin
            let st = span_stat a e.ev_name in
            st.s_gc_samples <- st.s_gc_samples + 1;
            st.s_gc_minor <- st.s_gc_minor + e.ev_arg;
            if e.ev_arg2 <> min_int then st.s_gc_major <- st.s_gc_major + e.ev_arg2
          end)
      | 'i' ->
          let c = get a.instants e.ev_name (fun () -> ref 0) in
          incr c
      | 'C' ->
          let s =
            get a.series e.ev_name (fun () ->
                { c_samples = 0; c_min = max_int; c_max = min_int; c_last = 0 })
          in
          s.c_samples <- s.c_samples + 1;
          if e.ev_arg < s.c_min then s.c_min <- e.ev_arg;
          if e.ev_arg > s.c_max then s.c_max <- e.ev_arg;
          s.c_last <- e.ev_arg
      | _ -> ())
    evs;
  (* Close anything still open (a truncated trace, or a flight dump cut
     mid-span) at the last timestamp seen on that domain. *)
  Hashtbl.iter
    (fun tid stack ->
      let d = domain_stat a tid in
      let rec drain = function
        | fr :: rest ->
            close_frame a d rest fr d.d_last;
            drain rest
        | [] -> ()
      in
      drain !stack)
    stacks;
  a

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* First column left-aligned, the rest right-aligned, two-space gutter. *)
let render_table b header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell))
    all;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string b "  ";
          let w = widths.(i) in
          if i = 0 then begin
            Buffer.add_string b cell;
            if i < ncols - 1 then Buffer.add_string b (String.make (w - String.length cell) ' ')
          end
          else begin
            Buffer.add_string b (String.make (w - String.length cell) ' ');
            Buffer.add_string b cell
          end)
        row;
      Buffer.add_char b '\n')
    all

let ms ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e6)

let sorted_assoc tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let report ?(deterministic = false) ?dump:(_ : Obs.dump option) evs =
  let a = analyse evs in
  let b = Buffer.create 2048 in
  if a.total_events = 0 then Buffer.add_string b "(empty trace)\n"
  else begin
    let spans = sorted_assoc a.spans in
    if deterministic then begin
      Buffer.add_string b "== spans (deterministic) ==\n";
      render_table b [ "span"; "count" ]
        (List.map (fun (name, st) -> [ name; string_of_int st.s_count ]) spans)
    end
    else begin
      Buffer.add_string b "== spans ==\n";
      render_table b
        [ "span"; "count"; "wall_ms"; "self_ms"; "avg_us" ]
        (List.map
           (fun (name, st) ->
             [
               name;
               string_of_int st.s_count;
               ms st.s_wall;
               ms st.s_self;
               Printf.sprintf "%.1f" (float_of_int st.s_wall /. float_of_int st.s_count /. 1e3);
             ])
           spans);
      let domains = sorted_assoc a.domains in
      Buffer.add_string b "== domains ==\n";
      render_table b
        [ "tid"; "events"; "spans"; "busy_ms"; "util_pct"; "idle_gaps"; "max_gap_ms" ]
        (List.map
           (fun (tid, d) ->
             let range = d.d_last - d.d_first in
             let util =
               if range <= 0 then 100.0
               else 100.0 *. float_of_int (min d.d_busy range) /. float_of_int range
             in
             [
               string_of_int tid;
               string_of_int d.d_events;
               string_of_int d.d_spans;
               ms d.d_busy;
               Printf.sprintf "%.1f" util;
               string_of_int d.d_gaps;
               ms d.d_max_gap;
             ])
           domains)
    end;
    let instants = sorted_assoc a.instants in
    if instants <> [] then begin
      Buffer.add_string b "== instants ==\n";
      render_table b [ "name"; "count" ]
        (List.map (fun (name, c) -> [ name; string_of_int !c ]) instants)
    end;
    let series = sorted_assoc a.series in
    if series <> [] then begin
      if deterministic then begin
        Buffer.add_string b "== series (deterministic) ==\n";
        render_table b
          [ "series"; "samples"; "min"; "max" ]
          (List.map
             (fun (name, s) ->
               [
                 name;
                 string_of_int s.c_samples;
                 string_of_int s.c_min;
                 string_of_int s.c_max;
               ])
             series)
      end
      else begin
        Buffer.add_string b "== series ==\n";
        render_table b
          [ "series"; "samples"; "min"; "max"; "last" ]
          (List.map
             (fun (name, s) ->
               [
                 name;
                 string_of_int s.c_samples;
                 string_of_int s.c_min;
                 string_of_int s.c_max;
                 string_of_int s.c_last;
               ])
             series)
      end
    end;
    if not deterministic then begin
      let gc = List.filter (fun (_, st) -> st.s_gc_samples > 0) spans in
      if gc <> [] then begin
        Buffer.add_string b "== gc ==\n";
        render_table b
          [ "span"; "samples"; "minor_words"; "major_words" ]
          (List.map
             (fun (name, st) ->
               [
                 name;
                 string_of_int st.s_gc_samples;
                 string_of_int st.s_gc_minor;
                 string_of_int st.s_gc_major;
               ])
             gc)
      end
    end
  end;
  Buffer.contents b
