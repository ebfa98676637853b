(* A real [omq_tool serve] process, and closed-loop clients that speak
   to it over its Unix socket. Every response is kept with what it must
   equal, and checked once the timed loop is over. *)

open Common
module P = Omq.Protocol

let exe = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "omq_tool.exe" ]

type daemon = { pid : int; socket : string; mutable alive : bool }

let live = ref []

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end

(* A daemon must never outlive the benchmark, whatever ends it. *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~dir ~jobs ?journal () =
  if not (Sys.file_exists exe) then
    failwith (exe ^ " is missing: run the benchmark through perfbench/run.sh");
  let socket = Filename.concat dir "omqd.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let log =
    Unix.openfile (Filename.concat dir "omqd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let args =
    [ exe; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs ]
    @ match journal with Some j -> [ "--journal"; j ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let d = { pid; socket; alive = true } in
  live := d :: !live;
  d

let addr d = Omqd.Daemon.Unix_path d.socket

let connect d =
  match Omqd.Client.connect (addr d) with
  | Ok c -> c
  | Error m -> failwith m

(* Graceful stop: the wire [shutdown] op, then wait for a clean exit. *)
let stop d =
  if d.alive then begin
    let c = connect d in
    ignore (Omqd.Client.call c P.Shutdown);
    Omqd.Client.close c;
    d.alive <- false;
    match Unix.waitpid [] d.pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "daemon did not exit cleanly after shutdown"
  end

let peak_rss_mb d = Common.peak_rss_mb (string_of_int d.pid)

(* What a response must equal: the in-process answer for a data state
   (known only after the run), an exact response, or any [opened]. *)
type expect = Answer of int | Exactly of P.response | Opened

type client = {
  ix : int;
  conn : Omqd.Client.t;
  mutable next_id : int;
  mutable tr : Span.t option;
  mutable ops : int;
  mutable bytes : int;
  mutable evals : float list;  (** eval latencies, ms *)
  mutable updates : float list;  (** insert/retract latencies, ms *)
  mutable all : float list;  (** every request, ms *)
  mutable checks : (int * string * expect) list;
  mutable error : string option;
  mutable sid : int;
}

let client d ix =
  {
    ix;
    conn = connect d;
    next_id = 0;
    tr = None;
    ops = 0;
    bytes = 0;
    evals = [];
    updates = [];
    all = [];
    checks = [];
    error = None;
    sid = -1;
  }

(* One request, closed loop: send, wait for the answer, keep it for the
   check. Returns the id, the raw response and the latency in ms. *)
let request ?id c op req expect =
  Span.with_ c.tr ("op." ^ op) @@ fun () ->
  let id =
    match id with
    | Some id -> id
    | None ->
        c.next_id <- c.next_id + 1;
        c.next_id
  in
  let frame = Span.with_ c.tr "client.encode" (fun () -> P.render_request ~id req) in
  let t0 = now () in
  let resp = Span.with_ c.tr "wire" (fun () -> Omqd.Client.raw c.conn frame) in
  let ms = (now () -. t0) *. 1000. in
  match resp with
  | Error m -> failwith (Printf.sprintf "client %d: %s" c.ix m)
  | Ok raw ->
      c.ops <- c.ops + 1;
      c.bytes <- c.bytes + String.length frame + String.length raw + 2;
      c.all <- ms :: c.all;
      c.checks <- (id, raw, expect) :: c.checks;
      (id, raw, ms)

let eval c state =
  let _, _, ms =
    request c "eval"
      (P.Eval { session = c.sid; budget = P.no_budget; want_stats = false })
      (Answer state)
  in
  c.evals <- ms :: c.evals

let open_session c req =
  let id, raw, ms = request c "open" req Opened in
  (match P.parse_response raw with
  | Ok (Some rid, P.Opened { session }) when rid = id -> c.sid <- session
  | _ -> failwith ("open_session failed: " ^ raw));
  ms

(* Run [f] on every client, one thread each; an exception ends that
   client and is kept as its error. *)
let on_clients clients f =
  let ths =
    Array.map
      (fun c ->
        Thread.create
          (fun () ->
            try f c with e -> c.error <- Some (Printexc.to_string e))
          ())
      clients
  in
  Array.iter Thread.join ths

(* Per-client throughput of a loop's cycles, each given as (requests,
   seconds). [median_rate]: the rate of the median cycle, so that a
   stall of the shared host in part of the run does not decide the
   figure; for loops whose cycles all do the same work. [total_rate]:
   requests over time, for loops whose cycles differ. *)
let median_rate cycles = median (List.map (fun (n, t) -> n /. t) cycles)

let total_rate cycles =
  List.fold_left (fun a (n, _) -> a +. n) 0. cycles
  /. List.fold_left (fun a (_, t) -> a +. t) 0. cycles

(* [timed clients ~seconds ~rate cycle]: the closed loop until the
   deadline. Each client runs whole cycles and starts none after the
   deadline. Returns the requests answered per second, summed over the
   clients. *)
let timed clients ~seconds ~rate cycle =
  let until = now () +. seconds in
  let rates = Array.make (Array.length clients) 0. in
  on_clients clients (fun c ->
      let k = ref 0 and cycles = ref [] in
      while now () < until do
        let n0 = c.ops and t0 = now () in
        cycle c !k;
        cycles := (float_of_int (c.ops - n0), now () -. t0) :: !cycles;
        incr k
      done;
      rates.(c.ix) <- rate !cycles);
  Array.fold_left ( +. ) 0. rates

(* The traced run's loop ({!Common.tracing_overhead}); returns the
   overhead in percent and the clients' span recorders. *)
let traced clients ~seconds ~rate cycle =
  let recs = ref [] in
  let block traced =
    Array.iter
      (fun c ->
        c.tr <-
          (if traced then begin
             let t = Span.create () in
             recs := t :: !recs;
             Some t
           end
           else None))
      clients;
    let r = timed clients ~seconds:(seconds /. 4.) ~rate cycle in
    Array.iter (fun c -> c.tr <- None) clients;
    r
  in
  let overhead = tracing_overhead block in
  (overhead, !recs)

let close_all clients = Array.iter (fun c -> Omqd.Client.close c.conn) clients

(* Check every kept response against what it must equal; [answer k] is
   the in-process rendering of data state [k]'s eval response. Returns
   the number of mismatches, reporting the first on stderr. *)
let verify clients ~answer =
  let bad = ref 0 in
  Array.iter
    (fun c ->
      List.iter
        (fun (id, raw, expect) ->
          let ok =
            match expect with
            | Answer k -> String.equal raw (P.render_response ~id (answer k))
            | Exactly r -> String.equal raw (P.render_response ~id r)
            | Opened -> (
                match P.parse_response raw with
                | Ok (Some rid, P.Opened _) -> rid = id
                | _ -> false)
          in
          if not ok then begin
            if !bad = 0 then
              Printf.eprintf "mismatch (client %d, id %d): %s\n%!" c.ix id raw;
            incr bad
          end)
        c.checks;
      c.checks <- [])
    clients;
  !bad

let errors clients =
  Array.fold_left
    (fun n c ->
      match c.error with
      | None -> n
      | Some m ->
          Printf.eprintf "client %d failed: %s\n%!" c.ix m;
          n + 1)
    0 clients

(* Server-side figures after the timed loop, from the [stats] and
   [dump_telemetry] wire ops: requests served, errors, and the p50 of
   the flight recorder's durations of the evals answered since [since]
   (the recorder keeps the most recent requests). *)
let server_figures d ~since =
  let c = connect d in
  let served, errs =
    match Omqd.Client.call c P.Stats with
    | Ok (P.Server_stats s) -> (s.served, s.errors)
    | _ -> failwith "stats failed"
  in
  let num k r = match P.Json.member k r with Some (P.Json.Num x) -> x | _ -> nan in
  let durs =
    match Omqd.Client.call c P.Dump_telemetry with
    | Ok (P.Telemetry { telemetry }) -> (
        match P.Json.member "flight" telemetry with
        | Some (P.Json.Arr recs) ->
            List.filter_map
              (fun r ->
                if P.Json.member "op" r = Some (P.Json.Str "eval") && num "ts" r >= since
                then Some (num "dur_ms" r)
                else None)
              recs
        | _ -> [])
    | _ -> failwith "dump_telemetry failed"
  in
  Omqd.Client.close c;
  (served, errs, median durs)
