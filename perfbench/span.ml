(* In-memory span recorder for the traced run.

   Spans are recorded only by the benchmark, around its calls into the
   program's public functions: a root span per operation and one child
   span per layer call. A recorder belongs to one thread, so recording
   takes no lock; recorders are merged when the run ends and written
   out as one JSON file. *)

type span = {
  name : string;
  op : int;  (** operation id, shared by a root span and its children *)
  parent : int;  (** index of the parent span in its recorder, -1 = root *)
  start : float;
  mutable stop : float;
}

type t = { mutable buf : span array; mutable len : int; mutable cur : int }

let dummy = { name = ""; op = 0; parent = -1; start = 0.; stop = 0. }
let create () = { buf = Array.make 1024 dummy; len = 0; cur = -1 }

(* Operation ids are unique across every recorder of the process. *)
let next_op = Atomic.make 0

let push t s =
  if t.len = Array.length t.buf then begin
    let nb = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end;
  t.buf.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let record t name f =
  let op = if t.cur < 0 then Atomic.fetch_and_add next_op 1 else t.buf.(t.cur).op in
  let i = push t { name; op; parent = t.cur; start = Obs.Clock.now (); stop = nan } in
  let saved = t.cur in
  t.cur <- i;
  Fun.protect
    ~finally:(fun () ->
      t.buf.(i).stop <- Obs.Clock.now ();
      t.cur <- saved)
    f

(* [with_ tr name f]: a span when tracing, a plain call otherwise. *)
let with_ tr name f = match tr with None -> f () | Some t -> record t name f

let spans t = Array.sub t.buf 0 t.len
let duration s = s.stop -. s.start

(* Durations in seconds of every span called [name]. *)
let durations ts name =
  List.concat_map
    (fun t ->
      Array.to_list (spans t)
      |> List.filter_map (fun s ->
             if s.name = name then Some (duration s) else None))
    ts

(* Root spans' time not covered by their children, as a share of the
   root spans' total time, in percent. Children of one root run
   sequentially on its thread, so their durations do not overlap. *)
let unattributed_pct ts =
  let root = ref 0. and covered = ref 0. in
  List.iter
    (fun t ->
      let sp = spans t in
      Array.iter
        (fun s ->
          if s.parent < 0 then root := !root +. duration s
          else if sp.(s.parent).parent < 0 then
            covered := !covered +. duration s)
        sp)
    ts;
  if !root <= 0. then 0. else 100. *. (!root -. !covered) /. !root

(* Self time of every span name: duration minus the time its direct
   children cover, summed over the spans of that name. *)
let self_times ts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let sp = spans t in
      let child = Array.make (Array.length sp) 0. in
      Array.iter
        (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s)
        sp;
      Array.iteri
        (fun i s ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
          Hashtbl.replace tbl s.name (prev +. duration s -. child.(i)))
        sp)
    ts;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write path ~meta ts =
  let module J = Omq.Protocol.Json in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"meta\":";
      output_string oc (J.render meta);
      output_string oc ",\"self_s\":";
      output_string oc
        (J.render (J.Obj (List.map (fun (k, v) -> (k, J.Num v)) (self_times ts))));
      output_string oc ",\"spans\":[";
      let first = ref true in
      List.iteri
        (fun r t ->
          Array.iter
            (fun s ->
              if not !first then output_char oc ',';
              first := false;
              output_string oc
                (J.render
                   (J.Obj
                      [
                        ("name", J.Str s.name);
                        ("op", J.Num (float_of_int s.op));
                        ("recorder", J.Num (float_of_int r));
                        ("parent", J.Num (float_of_int s.parent));
                        ("start", J.Num s.start);
                        ("end", J.Num s.stop);
                      ])))
            (spans t))
        ts;
      output_string oc "]}\n")
