(* In-process replay of a workload's requests through each layer's
   public functions, in the order the daemon calls them: decode the
   frame, parse its texts, run the session operation, journal it,
   render the response. Untraced, the replay computes the reference
   answers every served response is checked against; traced, its spans
   give the per-layer figures. *)

module P = Omq.Protocol

type t = {
  tr : Span.t option;
  journal : Omqd.Journal.t option;
  mutable omq : Omq.t option;
  mutable session : Omq.Session.t option;
  mutable deltas : int;  (** updates that took the `Delta path *)
  mutable updates : int;
}

let create ?journal tr =
  { tr; journal; omq = None; session = None; deltas = 0; updates = 0 }

let span t name f = Span.with_ t.tr name f

let decode t frame =
  span t "protocol.decode" (fun () ->
      match P.parse_request frame with
      | Ok (_, req) -> req
      | Error (_, (_, m)) -> failwith ("replay: bad frame: " ^ m))

let encode t ~id resp =
  ignore (span t "protocol.encode" (fun () -> P.render_response ~id resp))

let journal t entry =
  Option.iter
    (fun j -> span t "journal.append" (fun () -> Omqd.Journal.append j entry))
    t.journal

let session t = Option.get t.session

(* Frames are rendered outside the op span: the client renders them,
   not the daemon. *)
let open_ t ~id ~sid req =
  let frame = P.render_request ~id req in
  span t "op.open" @@ fun () ->
  match decode t frame with
  | P.Open_session { ontology; data; query; max_extra } ->
      let tbox = span t "parse.tbox" (fun () -> Dl.Parser.parse_tbox ontology) in
      let inst =
        span t "parse.instance" (fun () -> Structure.Parse.instance_of_string data)
      in
      let q = span t "parse.query" (fun () -> Query.Parse.ucq_of_string query) in
      (* served sessions are updatable, as the daemon opens them *)
      span t "session.open" (fun () ->
          let omq = Omq.of_tbox tbox q in
          t.omq <- Some omq;
          t.session <- Some (Omq.open_session ~max_extra ~updatable:true omq inst));
      journal t (Omqd.Journal.Open { sid; ontology; data; query; max_extra });
      encode t ~id (P.Opened { session = sid })
  | _ -> invalid_arg "Replay.open_"

let element_name e = Fmt.str "%a" Structure.Element.pp e

(* The eval response, computed as the daemon's eval does: consistency
   first, then the certain answers. [kind] names the span:
   first_eval, hot_eval or post_update_eval. *)
let eval t ~id ~sid kind =
  let frame =
    P.render_request ~id
      (P.Eval { session = sid; budget = P.no_budget; want_stats = false })
  in
  span t "op.eval" @@ fun () ->
  ignore (decode t frame);
  let s = session t in
  let resp =
    span t ("session." ^ kind) (fun () ->
        let consistent = Omq.Session.is_consistent s in
        let tuples =
          if consistent then
            List.map (List.map element_name) (Omq.Session.certain_answers s)
          else []
        in
        let boolean = Query.Ucq.is_boolean (Option.get t.omq).Omq.query in
        P.Evaled { result = { P.consistent; boolean; tuples }; stats = None })
  in
  encode t ~id resp;
  resp

let update t ~id ~sid ~insert facts =
  let op, name = if insert then ("op.insert", "insert") else ("op.retract", "retract") in
  let frame =
    P.render_request ~id
      (if insert then P.Insert_facts { session = sid; facts }
       else P.Retract_facts { session = sid; facts })
  in
  span t op @@ fun () ->
  ignore (decode t frame);
  let parsed =
    span t "parse.facts" (fun () -> Structure.Parse.instance_of_string facts)
  in
  let s, strategy =
    span t ("session." ^ name) (fun () ->
        let f = if insert then Omq.Session.insert_facts else Omq.Session.retract_facts in
        f (session t) (Structure.Instance.facts parsed))
  in
  t.session <- Some s;
  t.updates <- t.updates + 1;
  if strategy = `Delta then t.deltas <- t.deltas + 1;
  journal t
    (if insert then Omqd.Journal.Insert { sid; facts }
     else Omqd.Journal.Retract { sid; facts });
  let total_facts = Structure.Instance.cardinal (Omq.Session.instance s) in
  encode t ~id
    (if insert then P.Inserted { session = sid; total_facts }
     else P.Retracted { session = sid; total_facts })

let close t ~id ~sid =
  let frame = P.render_request ~id (P.Close_session { session = sid }) in
  span t "op.close" @@ fun () ->
  ignore (decode t frame);
  t.session <- None;
  encode t ~id (P.Closed { session = sid })
