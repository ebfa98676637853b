(* Exporters for a filled Trace collector:

   - [chrome]: the Chrome trace-event format (JSON object with a
     "traceEvents" array of complete "X" events and instant "i"
     events), loadable in chrome://tracing and Perfetto;
   - [jsonl]: one span per line, for grep/jq pipelines;
   - [profile]: the per-phase self/total wall-time aggregation behind
     `omq_tool --profile`.

   Timestamps are exported in microseconds relative to the earliest
   span/event of the collector, so traces are stable under re-runs up
   to durations. *)

type format = Chrome | Jsonl

let format_of_string = function
  | "chrome" -> Some Chrome
  | "jsonl" -> Some Jsonl
  | _ -> None

let attr_json : Trace.attr -> Json.t = function
  | Trace.Str s -> Str s
  | Trace.Int i -> Json.int i
  | Trace.Float f -> Num f
  | Trace.Bool b -> Bool b

let status_member = function
  | Some st -> [ ("status", Json.Str st) ]
  | None -> []

let args_json attrs status : Json.t =
  Obj
    (status_member status
    @ List.rev_map (fun (k, v) -> (k, attr_json v)) attrs)

(* Category: the dotted prefix of the span name ("engine.solve" ->
   "engine"), which Perfetto uses for colouring and filtering. *)
let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let epoch c =
  List.fold_left
    (fun t0 (s : Trace.span) -> Float.min t0 s.start_s)
    (List.fold_left
       (fun t0 (e : Trace.event) -> Float.min t0 e.ts_s)
       infinity (Trace.events c))
    (Trace.spans c)

let us t0 t = (t -. t0) *. 1e6

let chrome c : Json.t =
  let t0 = epoch c in
  let span_events =
    List.map
      (fun (s : Trace.span) : Json.t ->
        Obj
          [
            ("name", Str s.name);
            ("cat", Str (category s.name));
            ("ph", Str "X");
            ("ts", Num (us t0 s.start_s));
            ("dur", Num (Float.max 0.0 s.dur_s *. 1e6));
            ("pid", Json.int 1);
            ("tid", Json.int 1);
            ( "args",
              args_json
                (("span_id", Trace.Int s.id)
                :: ("parent_id", Trace.Int s.parent)
                :: s.attrs)
                s.status );
          ])
      (Trace.spans c)
  in
  let instant_events =
    List.map
      (fun (e : Trace.event) : Json.t ->
        Obj
          [
            ("name", Str e.ename);
            ("cat", Str "event");
            ("ph", Str "i");
            ("ts", Num (us t0 e.ts_s));
            ("s", Str "t");
            ("pid", Json.int 1);
            ("tid", Json.int 1);
            ("args", args_json (("span_id", Trace.Int e.span_id) :: e.eattrs) None);
          ])
      (Trace.events c)
  in
  Obj
    [
      ("traceEvents", Arr (span_events @ instant_events));
      ("displayTimeUnit", Str "ms");
      ("otherData",
       Obj
         [
           ("spans", Json.int (Trace.span_count c));
           ("events_retained", Json.int (List.length (Trace.events c)));
           ("events_dropped", Json.int (Trace.dropped_events c));
         ]);
    ]

(* One span per line: {"name","span_id","parent_id","start_us","dur_us",
   "status"?, ...attrs}. Events follow as {"event":...} lines. *)
let jsonl c : Json.t list =
  let t0 = epoch c in
  List.map
    (fun (s : Trace.span) : Json.t ->
      Obj
        ([
           ("name", Json.Str s.name);
           ("span_id", Json.int s.id);
           ("parent_id", Json.int s.parent);
           ("start_us", Json.Num (us t0 s.start_s));
           ("dur_us", Json.Num (Float.max 0.0 s.dur_s *. 1e6));
         ]
        @ status_member s.status
        @ List.rev_map (fun (k, v) -> (k, attr_json v)) s.attrs))
    (Trace.spans c)
  @ List.map
      (fun (e : Trace.event) : Json.t ->
        Obj
          ([
             ("event", Json.Str e.ename);
             ("span_id", Json.int e.span_id);
             ("ts_us", Json.Num (us t0 e.ts_s));
           ]
          @ List.map (fun (k, v) -> (k, attr_json v)) e.eattrs))
      (Trace.events c)

let render fmt c =
  match fmt with
  | Chrome -> Json.render (chrome c)
  | Jsonl ->
      String.concat "" (List.map (fun j -> Json.render j ^ "\n") (jsonl c))

let to_file fmt c path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render fmt c))

(* ------------------------------------------------------------------ *)
(* The profile table                                                    *)
(* ------------------------------------------------------------------ *)

type profile_row = {
  pname : string;
  count : int;
  total_s : float;  (* sum of span durations *)
  self_s : float;  (* total minus time in direct children *)
}

let profile c =
  let spans = Trace.spans c in
  let self = Hashtbl.create 16 in
  (* self time: subtract each span's duration from its parent's credit *)
  let credit = Array.of_list (List.map (fun (s : Trace.span) -> Float.max 0.0 s.dur_s) spans) in
  List.iter
    (fun (s : Trace.span) ->
      if s.parent >= 0 then
        credit.(s.parent) <- credit.(s.parent) -. Float.max 0.0 s.dur_s)
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let total, slf, n =
        Option.value (Hashtbl.find_opt self s.name) ~default:(0.0, 0.0, 0)
      in
      Hashtbl.replace self s.name
        (total +. Float.max 0.0 s.dur_s, slf +. credit.(s.id), n + 1))
    spans;
  Hashtbl.fold
    (fun pname (total_s, self_s, count) acc ->
      { pname; count; total_s; self_s } :: acc)
    self []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

let pp_profile ppf rows =
  Fmt.pf ppf "%-28s %8s %12s %12s@." "phase" "count" "self(s)" "total(s)";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-28s %8d %12.6f %12.6f@." r.pname r.count
        (Float.max 0.0 r.self_s) r.total_s)
    rows
