(* The daemon's flight recorder: a bounded ring of completed request
   records, owned by the select loop (single writer, so no lock). It is
   always on by default — the per-record cost is one array store and a
   couple of field writes — and the [enabled] flag turns even that off,
   leaving one load + branch on the hot path.

   The ring answers "what did the daemon just do" without a debugger:
   it is dumped as JSON on SIGUSR1 (to [--flight-dump PATH]) and over
   the wire by the [dump_telemetry] op. *)

type record = {
  ts_s : float;  (** completion time, Obs.Clock *)
  op : string;  (** wire op, or "recovery" for journal replay *)
  outcome : string;  (** ok / timeout / out_of_fuel / error kind *)
  worker : int;  (** worker domain index; -1 = handled on the loop *)
  session : int;  (** -1 when the request has no session *)
  dur_s : float;  (** submit-to-completion wall time *)
}

type t = {
  ring : record option array;
  mutable next : int;  (** next slot to overwrite *)
  mutable total : int;  (** records ever pushed *)
  mutable enabled : bool;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  { ring = Array.make capacity None; next = 0; total = 0; enabled = true }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let capacity t = Array.length t.ring

let record t r =
  if t.enabled then begin
    t.ring.(t.next) <- Some r;
    t.next <- (t.next + 1) mod Array.length t.ring;
    t.total <- t.total + 1
  end

(* Oldest first. *)
let records t =
  let n = Array.length t.ring in
  let out = ref [] in
  (* walk newest slot down to oldest, prepending: the result comes out
     oldest first *)
  for i = n - 1 downto 0 do
    match t.ring.((t.next + i) mod n) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  !out

let total t = t.total
let dropped t = max 0 (t.total - Array.length t.ring)

let record_json r : Obs.Json.t =
  Obj
    [
      ("ts", Num r.ts_s);
      ("op", Str r.op);
      ("outcome", Str r.outcome);
      ("worker", Obs.Json.int r.worker);
      ("session", Obs.Json.int r.session);
      ("dur_ms", Num (r.dur_s *. 1000.0));
    ]

(* The dump is one object so extra context (per-worker rows, quantiles)
   can ride along as [extra] members. *)
let to_json ?(extra = []) t : Obs.Json.t =
  Obj
    (extra
    @ [
        ("flight_total", Obs.Json.int t.total);
        ("flight_dropped", Obs.Json.int (dropped t));
        ("flight", Arr (List.map record_json (records t)));
      ])
