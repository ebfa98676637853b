(* The self-healing serving layer, driven through deterministic fault
   injection (Omqd.Chaos), the session journal (Omqd.Journal) and
   worker supervision (Parallel.Service.replace).

   The load-bearing assertions: after any injected fault — torn frames,
   short writes, dropped connections, a wedged worker, a kill of the
   whole daemon — every *acknowledged* session answers byte-identically
   to the sequential evaluation, and nothing that was never acked is
   resurrected. No test sleeps as synchronisation: clients block on
   typed responses, and the only polling loops wait on an observable
   predicate with a deadline. *)

module P = Omq.Protocol
module Journal = Omqd.Journal

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let onto = "Hand << exists hasFinger . Thumb"
let data = "Hand(h)\nThumb(t)\nhasFinger(h, t)"
let query = "q(x) <- Thumb(x)"

let open_req =
  P.Open_session { ontology = onto; data; query; max_extra = 2 }

let eval_req session = P.Eval { session; budget = P.no_budget; want_stats = false }

(* The sequential ground truth, rendered through the same codec the
   daemon uses — recovered and fault-ridden responses must equal this
   byte for byte. *)
let direct_eval ?(extra = "") () =
  let tbox = Dl.Parser.parse_tbox onto in
  let d = Structure.Parse.instance_of_string (data ^ "\n" ^ extra) in
  let q = Query.Parse.ucq_of_string query in
  let session = Omq.open_session ~max_extra:2 (Omq.of_tbox tbox q) d in
  let answers = Omq.Session.certain_answers session in
  P.Evaled
    {
      result =
        {
          P.consistent = true;
          boolean = false;
          tuples =
            List.map
              (List.map (fun e -> Fmt.str "%a" Structure.Element.pp e))
              answers;
        };
      stats = None;
    }

(* ---------------------------------------------------------------- *)
(* Harness: daemon on a thread, with a shutdown loop that survives a
   chaos plan eating the shutdown request itself. *)

let counter = ref 0

let fresh_name tag =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "omqd-chaos-%s-%d-%d" tag (Unix.getpid ()) !counter)

let with_daemon ?journal ?supervise ?max_inflight ?max_outbuf ?shutdown_grace
    ?chaos ?(jobs = 2) f =
  let path = fresh_name "sock" in
  let addr = Omqd.Daemon.Unix_path path in
  let cfg =
    Omqd.Daemon.config ~addr ~jobs ?journal ?supervise ?max_inflight
      ?max_outbuf ?shutdown_grace ?chaos ()
  in
  let result = ref (Ok ()) in
  let finished = ref false in
  let th =
    Thread.create
      (fun () ->
        result := Omqd.Daemon.run cfg;
        finished := true)
      ()
  in
  let out = try Ok (f addr) with e -> Error e in
  (* Under a fault plan any one shutdown round trip may be torn or
     dropped; keep asking until the daemon actually exits. *)
  let tries = ref 0 in
  while (not !finished) && !tries < 30 do
    incr tries;
    (match Omqd.Client.connect ~attempts:3 ~base_delay:0.005 addr with
    | Error _ -> ()
    | Ok c ->
        ignore (Omqd.Client.call c P.Shutdown);
        Omqd.Client.close c);
    if not !finished then Thread.yield ()
  done;
  Thread.join th;
  (match !result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon failed: %s" m);
  match out with Ok v -> v | Error e -> raise e

let connect_exn addr =
  match Omqd.Client.connect addr with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let call_exn ?retries c req =
  match Omqd.Client.call ?retries ~base_delay:0.05 c req with
  | Ok r -> r
  | Error m -> Alcotest.failf "call: %s" m

let open_exn c =
  match call_exn c open_req with
  | P.Opened { session } -> session
  | r -> Alcotest.failf "open failed: %s" (P.render_response r)

(* Raw-socket plumbing for framing and pipelining tests. *)

let raw_connect addr =
  let path = match addr with Omqd.Daemon.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n < 200 ->
        Unix.sleepf 0.01;
        go (n + 1)
  in
  go 0;
  fd

let write_all fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then
      match Unix.write_substring fd s pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

(* Blocking read of the next newline-terminated frame; [buf] carries
   bytes already read past earlier frames. *)
let read_line fd buf =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "unexpected EOF from daemon"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* ---------------------------------------------------------------- *)
(* Parallel.Service supervision primitives, tested directly *)

let test_service_replace () =
  let svc = Parallel.Service.create ~jobs:2 ~wakeup:ignore ~clock:Obs.Clock.now () in
  let m = Mutex.create () and cv = Condition.create () in
  let release = ref false in
  let wedge () =
    Mutex.lock m;
    while not !release do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    "late"
  in
  Parallel.Service.submit svc ~worker:0 wedge;
  (* wait until the wedged job has actually started *)
  let deadline = Obs.Clock.now () +. 5.0 in
  let rec wait_busy () =
    match Parallel.Service.busy_since svc ~worker:0 with
    | Some _ -> ()
    | None ->
        if Obs.Clock.now () > deadline then
          Alcotest.fail "worker never started its job"
        else begin
          Thread.yield ();
          wait_busy ()
        end
  in
  wait_busy ();
  Parallel.Service.submit svc ~worker:0 (fun () -> "queued1");
  Parallel.Service.submit svc ~worker:0 (fun () -> "queued2");
  check_int "three jobs in flight" 3 (Parallel.Service.in_flight svc);
  let lost = Parallel.Service.replace svc ~worker:0 in
  check_int "one running + two queued lost" 3 lost;
  check_int "in_flight returned to zero" 0 (Parallel.Service.in_flight svc);
  check_int "one replacement recorded" 1 (Parallel.Service.replaced svc);
  (* the fresh domain at index 0 serves new work *)
  Parallel.Service.submit svc ~worker:0 (fun () -> "fresh");
  let got = ref [] in
  let deadline = Obs.Clock.now () +. 5.0 in
  while !got = [] && Obs.Clock.now () < deadline do
    got := Parallel.Service.drain svc;
    if !got = [] then Thread.yield ()
  done;
  Alcotest.(check (list string)) "fresh worker answers" [ "fresh" ] !got;
  (* let the abandoned domain finish: its result must be dropped, not
     enqueued — drain stays empty *)
  Mutex.lock m;
  release := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  Parallel.Service.submit svc ~worker:0 (fun () -> "after");
  let got = ref [] in
  let deadline = Obs.Clock.now () +. 5.0 in
  while !got = [] && Obs.Clock.now () < deadline do
    got := Parallel.Service.drain svc;
    if !got = [] then Thread.yield ()
  done;
  Alcotest.(check (list string)) "abandoned result never surfaces" [ "after" ]
    !got;
  Parallel.Service.shutdown svc

(* ---------------------------------------------------------------- *)
(* Journal unit behaviour *)

let e_open sid = Journal.Open { sid; ontology = onto; data; query; max_extra = 2 }

let test_journal_load_and_compact () =
  (* render/parse roundtrip, including a frame that is not a journal op *)
  let ins = Journal.Insert { sid = 1; facts = "Thumb(u)" } in
  (match Journal.entry_of_line (Journal.render ins) with
  | Ok e -> Alcotest.(check bool) "roundtrip" true (e = ins)
  | Error m -> Alcotest.failf "roundtrip: %s" m);
  (match Journal.entry_of_line "{\"v\":1,\"op\":\"stats\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats is not a journal operation");
  let dir = fresh_name "journal" in
  let t = Journal.open_ dir in
  Journal.append t (e_open 1);
  Journal.append t ins;
  Journal.append t (e_open 2);
  Journal.append t (Journal.Close { sid = 2 });
  Journal.close t;
  let entries, status = Journal.load dir in
  Alcotest.(check bool) "clean load" true (status = `Ok);
  check_int "four entries" 4 (List.length entries);
  check_int "max sid" 2 (Journal.max_sid entries);
  (match Journal.live_sessions entries with
  | [ (1, (o, d, q, me), folded) ] ->
      check_str "ontology preserved" onto o;
      (* net-data fold renders canonically: one fact per line, in
         compare_fact order, no spaces after commas *)
      check_str "data is the union"
        "Hand(h)\nThumb(t)\nThumb(u)\nhasFinger(h,t)" d;
      check_str "query preserved" query q;
      check_int "max_extra preserved" 2 me;
      check_int "two entries folded" 2 folded
  | l -> Alcotest.failf "expected exactly session 1 live, got %d" (List.length l));
  (* a torn final line — crash mid-append — is skipped silently *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "omq.journal")
  in
  output_string oc "{\"v\":1,\"op\":\"insert_fa";
  close_out oc;
  let entries', status' = Journal.load dir in
  Alcotest.(check bool) "torn tail skipped, still ok" true (status' = `Ok);
  check_int "same four entries" 4 (List.length entries');
  (* compaction: one open per live session, atomically; the handle
     stays usable *)
  let t = Journal.open_ dir in
  let folded =
    List.map
      (fun (sid, (ontology, data, query, max_extra), _) ->
        Journal.Open { sid; ontology; data; query; max_extra })
      (Journal.live_sessions entries')
  in
  Journal.compact t folded;
  let after, status'' = Journal.load dir in
  Alcotest.(check bool) "compacted load ok" true (status'' = `Ok);
  check_int "one entry per live session" 1 (List.length after);
  Journal.append t (Journal.Insert { sid = 1; facts = "Thumb(v)" });
  Journal.close t;
  let final, _ = Journal.load dir in
  check_int "append after compact lands" 2 (List.length final)

(* Journal replay equivalence, as a property: for any valid history of
   opens / inserts / retracts / closes, folding the journal yields
   exactly the model's live sessions — net fact sets in canonical
   rendering — in open order. *)

(* The model's view of a fact set, rendered the way live_sessions does:
   parse and re-render canonically (one fact per line, compare_fact
   order). *)
let canon facts =
  match
    Structure.Parse.instance_of_string_result (String.concat "\n" facts)
  with
  | Error m -> Alcotest.failf "model facts unparsable: %s" m
  | Ok i ->
      Structure.Instance.facts i
      |> List.map (fun (f : Structure.Instance.fact) ->
             Printf.sprintf "%s(%s)" f.rel
               (String.concat ","
                  (List.map Structure.Element.to_string f.args)))
      |> String.concat "\n"

let replay_equivalence =
  QCheck.Test.make ~count:200 ~name:"journal replay equals model"
    QCheck.(list (int_range 0 11))
    (fun script ->
      let next = ref 1 in
      (* (sid, net facts, entries folded), open order reversed *)
      let live = ref [] in
      let entries = ref [] in
      let update sid f =
        live :=
          List.map
            (fun (s, fs, n) -> if s = sid then (s, f fs, n + 1) else (s, fs, n))
            !live
      in
      List.iter
        (fun n ->
          let nlive = List.length !live in
          if nlive = 0 || n mod 4 = 0 then begin
            let sid = !next in
            incr next;
            let d = Printf.sprintf "D(d%d)" sid in
            live := (sid, [ d ], 1) :: !live;
            entries :=
              Journal.Open
                { sid; ontology = "o"; data = d; query = "q"; max_extra = 1 }
              :: !entries
          end
          else if n mod 4 = 1 then begin
            let sid, fs, _ = List.nth !live (n mod nlive) in
            let f = Printf.sprintf "F(f%d_%d)" sid (List.length fs) in
            update sid (fun fs' -> f :: fs');
            ignore fs;
            entries := Journal.Insert { sid; facts = f } :: !entries
          end
          else if n mod 4 = 2 then begin
            (* retract one present fact, or one that was never there —
               both must fold correctly (absent facts are no-ops) *)
            let sid, fs, _ = List.nth !live (n mod nlive) in
            let f =
              match fs with
              | f :: _ when n / 4 mod 2 = 0 -> f
              | _ -> "Absent(nobody)"
            in
            update sid (List.filter (fun f' -> f' <> f));
            entries := Journal.Retract { sid; facts = f } :: !entries
          end
          else begin
            let sid, _, _ = List.nth !live (n mod nlive) in
            live := List.filter (fun (s, _, _) -> s <> sid) !live;
            entries := Journal.Close { sid } :: !entries
          end)
        script;
      let expected =
        List.rev_map (fun (sid, fs, n) -> (sid, canon fs, n)) !live
      in
      let got =
        List.map
          (fun (sid, (_, d, _, _), folded) -> (sid, d, folded))
          (Journal.live_sessions (List.rev !entries))
      in
      got = expected)

(* ---------------------------------------------------------------- *)
(* Framing under adversity *)

let test_byte_at_a_time () =
  with_daemon @@ fun addr ->
  let fd = raw_connect addr in
  let buf = Buffer.create 256 in
  let frame = P.render_request ~id:1 open_req ^ "\n" in
  String.iter (fun ch -> write_all fd (String.make 1 ch)) frame;
  (match P.parse_response (read_line fd buf) with
  | Ok (Some 1, P.Opened { session }) ->
      write_all fd (P.render_request ~id:2 (eval_req session) ^ "\n");
      (match P.parse_response (read_line fd buf) with
      | Ok (Some 2, resp) ->
          check_str "byte-dripped open still answers identically"
            (P.render_response (direct_eval ()))
            (P.render_response resp)
      | _ -> Alcotest.fail "bad eval response")
  | _ -> Alcotest.fail "byte-dripped open was not answered");
  Unix.close fd

(* The same invariant as a property: a conversation chopped into
   arbitrary chunks (frames split anywhere, including across requests)
   is reassembled; junk between frames gets a typed rejection and never
   poisons the next frame. One daemon and one already-registered
   session serve every case. *)
let chunked_framing_cases daemon_addr sid =
  QCheck.Test.make ~count:25 ~name:"arbitrary chunking reassembles"
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_range 1 40)) bool)
    (fun (cuts, with_junk) ->
      let fd = raw_connect daemon_addr in
      let buf = Buffer.create 256 in
      let stream =
        (if with_junk then "not json at all\n" else "")
        ^ P.render_request ~id:1 (eval_req sid)
        ^ "\n"
        ^ P.render_request ~id:2 P.Stats
        ^ "\n"
      in
      (* cut positions derived from the generated list; any remainder is
         written in one last piece *)
      let pos = ref 0 in
      List.iter
        (fun k ->
          let n = min k (String.length stream - !pos) in
          if n > 0 then begin
            write_all fd (String.sub stream !pos n);
            pos := !pos + n
          end)
        cuts;
      if !pos < String.length stream then
        write_all fd (String.sub stream !pos (String.length stream - !pos));
      (* the eval is answered from a worker, stats inline: responses to
         pipelined requests may interleave — match them up by id *)
      let junk_rejected = ref (not with_junk) in
      let by_id = Hashtbl.create 4 in
      let expected_lines = 2 + if with_junk then 1 else 0 in
      for _ = 1 to expected_lines do
        match P.parse_response (read_line fd buf) with
        | Ok (None, P.Rejected { kind = P.Bad_frame; _ }) ->
            junk_rejected := true
        | Ok (Some id, resp) -> Hashtbl.replace by_id id resp
        | _ -> ()
      done;
      let ok1 =
        match Hashtbl.find_opt by_id 1 with
        | Some resp ->
            P.render_response resp = P.render_response (direct_eval ())
        | None -> false
      in
      let ok2 =
        match Hashtbl.find_opt by_id 2 with
        | Some (P.Server_stats _) -> true
        | _ -> false
      in
      Unix.close fd;
      !junk_rejected && ok1 && ok2)

let test_chunked_framing () =
  with_daemon ~jobs:1 @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  QCheck.Test.check_exn (chunked_framing_cases addr sid);
  Omqd.Client.close c

(* Torn reads and short writes from a seeded plan: the daemon's framing
   and flush paths absorb them; every answer stays byte-identical. *)
let test_torn_and_short () =
  let chaos = Omqd.Chaos.create ~seed:7 ~torn_read:0.35 ~short_write:0.35 () in
  with_daemon ~chaos @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  (match call_exn c (P.Insert_facts { session = sid; facts = "Thumb(u)" }) with
  | P.Inserted _ -> ()
  | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
  let expected = P.render_response (direct_eval ~extra:"Thumb(u)" ()) in
  for _ = 1 to 8 do
    check_str "answer identical under torn frames and short writes" expected
      (P.render_response (call_exn c (eval_req sid)))
  done;
  Omqd.Client.close c;
  let torn, _, short, _, _, _ = Omqd.Chaos.injected chaos in
  Alcotest.(check bool) "the plan actually injected faults" true
    (torn + short > 0)

(* Dropped reads and accepts kill individual connections, never the
   daemon: the harness's clean-shutdown assertion is the test. *)
let test_drops_survived () =
  let chaos = Omqd.Chaos.create ~seed:42 ~drop_read:0.15 ~drop_accept:0.1 () in
  with_daemon ~chaos @@ fun addr ->
  let expected = P.render_response (direct_eval ()) in
  let full_rounds = ref 0 in
  for _ = 1 to 20 do
    match Omqd.Client.connect ~attempts:2 ~base_delay:0.005 addr with
    | Error _ -> ()
    | Ok c ->
        (match Omqd.Client.call c open_req with
        | Ok (P.Opened { session }) -> (
            match Omqd.Client.call c (eval_req session) with
            | Ok resp when P.render_response resp = expected ->
                incr full_rounds
            | Ok r ->
                Alcotest.failf "delivered answer differs: %s"
                  (P.render_response r)
            | Error _ -> (* connection dropped mid-request *) ())
        | Ok _ | Error _ -> ());
        Omqd.Client.close c
  done;
  Alcotest.(check bool) "some rounds completed" true (!full_rounds >= 1);
  let _, drop_r, _, _, drop_a, _ = Omqd.Chaos.injected chaos in
  Alcotest.(check bool) "the plan actually dropped something" true
    (drop_r + drop_a > 0)

(* ---------------------------------------------------------------- *)
(* Crash recovery from the journal *)

let test_journal_restart () =
  let dir = fresh_name "journal" in
  (* first life: two sessions, an acked insert, an acked
     insert-then-retract pair, then exit *)
  let s1, s2 =
    with_daemon ~journal:dir @@ fun addr ->
    let c = connect_exn addr in
    let s1 = open_exn c in
    let s2 = open_exn c in
    (match call_exn c (P.Insert_facts { session = s1; facts = "Thumb(u)" }) with
    | P.Inserted _ -> ()
    | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
    (match call_exn c (P.Insert_facts { session = s2; facts = "Thumb(w)" }) with
    | P.Inserted _ -> ()
    | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
    (match call_exn c (P.Retract_facts { session = s2; facts = "Thumb(w)" }) with
    | P.Retracted _ -> ()
    | r -> Alcotest.failf "retract failed: %s" (P.render_response r));
    Omqd.Client.close c;
    (s1, s2)
  in
  let with_insert = P.render_response (direct_eval ~extra:"Thumb(u)" ()) in
  let plain = P.render_response (direct_eval ()) in
  (* second life: every acked session answers identically; the retract
     survived replay (s2 nets out to the original data); fresh ids
     never collide with replayed ones; a close is journalled too *)
  with_daemon ~journal:dir (fun addr ->
      let c = connect_exn addr in
      check_str "replayed session kept its acked insert" with_insert
        (P.render_response (call_exn c (eval_req s1)));
      check_str "replayed session kept its acked retract" plain
        (P.render_response (call_exn c (eval_req s2)));
      let s3 = open_exn c in
      Alcotest.(check bool) "fresh sid past every journalled one" true
        (s3 > s1 && s3 > s2);
      (match call_exn c (P.Close_session { session = s2 }) with
      | P.Closed _ -> ()
      | r -> Alcotest.failf "close failed: %s" (P.render_response r));
      Omqd.Client.close c);
  (* third life: the close held; the survivor still answers *)
  with_daemon ~journal:dir (fun addr ->
      let c = connect_exn addr in
      (match call_exn c (eval_req s2) with
      | P.Rejected { kind = P.Unknown_session; _ } -> ()
      | r ->
          Alcotest.failf "closed session resurrected: %s"
            (P.render_response r));
      check_str "survivor still answers identically" with_insert
        (P.render_response (call_exn c (eval_req s1)));
      Omqd.Client.close c)

(* A torn final journal line (kill -9 mid-append) must not block
   recovery and must not resurrect the unacked operation. *)
let test_torn_journal_tail () =
  let dir = fresh_name "journal" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat dir "omq.journal") in
  output_string oc (Journal.render (e_open 1) ^ "\n");
  output_string oc
    (Journal.render (Journal.Insert { sid = 1; facts = "Thumb(u)" }) ^ "\n");
  (* the append the crash interrupted: never fsync'd, never acked *)
  output_string oc "{\"v\":1,\"id\":1,\"op\":\"insert_fa";
  close_out oc;
  with_daemon ~journal:dir @@ fun addr ->
  let c = connect_exn addr in
  check_str "acked prefix replayed, torn tail dropped"
    (P.render_response (direct_eval ~extra:"Thumb(u)" ()))
    (P.render_response (call_exn c (eval_req 1)));
  Omqd.Client.close c

(* ---------------------------------------------------------------- *)
(* Worker supervision end to end *)

(* Worker 0's second job (the first eval of the first session) wedges
   forever. Supervision quarantines the domain, fails the eval with the
   retryable worker_lost, and replays the session on the replacement;
   the client's same-frame retries end in a byte-identical answer. A
   session pinned to the healthy worker is untouched throughout. *)
let test_poisoned_worker_replayed () =
  let chaos = Omqd.Chaos.create ~seed:3 ~poison:(1, 0) () in
  with_daemon ~jobs:2 ~supervise:0.2 ~chaos @@ fun addr ->
  let c = connect_exn addr in
  let s0 = open_exn c in
  let s1 = open_exn c in
  let expected = P.render_response (direct_eval ()) in
  let c2 = connect_exn addr in
  check_str "healthy worker's session answers while the other wedges"
    expected
    (P.render_response (call_exn c2 (eval_req s1)));
  check_str "retried eval lands on the replayed session identically"
    expected
    (P.render_response (call_exn ~retries:8 c (eval_req s0)));
  let _, _, _, _, _, poisoned = Omqd.Chaos.injected chaos in
  check_int "exactly one job was poisoned" 1 poisoned;
  Omqd.Client.close c2;
  Omqd.Client.close c

(* Deterministic shed + supervision, pipelined on one connection:
   eval A wedges (poison), eval B arrives while A holds the only
   in-flight slot and is shed with the typed, retryable [overloaded];
   supervision then fails A with [worker_lost]; resending the same
   eval eventually gets the byte-identical answer from the replayed
   session. *)
let test_overload_shed_and_worker_lost () =
  let chaos = Omqd.Chaos.create ~seed:5 ~poison:(1, 0) () in
  with_daemon ~jobs:1 ~max_inflight:1 ~supervise:0.2 ~chaos @@ fun addr ->
  let fd = raw_connect addr in
  let buf = Buffer.create 256 in
  write_all fd (P.render_request ~id:1 open_req ^ "\n");
  let sid =
    match P.parse_response (read_line fd buf) with
    | Ok (Some 1, P.Opened { session }) -> session
    | _ -> Alcotest.fail "open failed"
  in
  (* both evals in one write: arrival order is the wire order *)
  write_all fd
    (P.render_request ~id:2 (eval_req sid)
    ^ "\n"
    ^ P.render_request ~id:3 (eval_req sid)
    ^ "\n");
  (match P.parse_response (read_line fd buf) with
  | Ok (Some 3, P.Rejected { kind = P.Overloaded; _ }) ->
      Alcotest.(check bool) "overloaded is retryable" true
        (P.retryable P.Overloaded)
  | Ok (_, r) ->
      Alcotest.failf "expected overloaded shed: %s" (P.render_response r)
  | Error _ -> Alcotest.fail "undecodable shed response");
  (match P.parse_response (read_line fd buf) with
  | Ok (Some 2, P.Rejected { kind = P.Worker_lost; _ }) ->
      Alcotest.(check bool) "worker_lost is retryable" true
        (P.retryable P.Worker_lost)
  | Ok (_, r) ->
      Alcotest.failf "expected worker_lost: %s" (P.render_response r)
  | Error _ -> Alcotest.fail "undecodable worker_lost response");
  (* same frame, resent until the replacement worker has replayed the
     session: exponential backoff (10 ms, doubling, capped at 200 ms)
     under a 10 s deadline, so a loaded machine gets time to respawn *)
  let expected = P.render_response (direct_eval ()) in
  let deadline = Obs.Clock.now () +. 10.0 in
  let rec retry pause =
    write_all fd (P.render_request ~id:4 (eval_req sid) ^ "\n");
    match P.parse_response (read_line fd buf) with
    | Ok (Some 4, P.Rejected { kind; _ }) when P.retryable kind ->
        if Obs.Clock.now () > deadline then
          Alcotest.fail "replayed session never answered";
        Unix.sleepf pause;
        retry (Float.min 0.2 (2.0 *. pause))
    | Ok (Some 4, resp) ->
        check_str "post-recovery answer byte-identical" expected
          (P.render_response resp)
    | _ -> Alcotest.fail "bad retry response"
  in
  retry 0.01;
  Unix.close fd

(* ---------------------------------------------------------------- *)
(* Hardened edges *)

(* A reader that never drains (every flush stalls) trips the bounded
   output buffer and is disconnected; the daemon itself shuts down
   cleanly within the grace period. *)
let test_slow_reader_disconnected () =
  let chaos = Omqd.Chaos.create ~seed:13 ~stall_write:1.0 () in
  with_daemon ~jobs:1 ~max_outbuf:16 ~shutdown_grace:0.2 ~chaos
  @@ fun addr ->
  let c = connect_exn addr in
  (match Omqd.Client.call c open_req with
  | Error _ -> (* disconnected: the response could never be drained *) ()
  | Ok r ->
      Alcotest.failf "stalled response was delivered: %s"
        (P.render_response r));
  Omqd.Client.close c

(* SIGTERM routes through the graceful path: in-flight work answered,
   run returns Ok. *)
let test_sigterm_graceful () =
  let path = fresh_name "sock" in
  let addr = Omqd.Daemon.Unix_path path in
  let cfg = Omqd.Daemon.config ~addr ~jobs:1 ~signals:true () in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Omqd.Daemon.run cfg) () in
  let c = connect_exn addr in
  let sid = open_exn c in
  check_str "served before the signal"
    (P.render_response (direct_eval ()))
    (P.render_response (call_exn c (eval_req sid)));
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join th;
  Omqd.Client.close c;
  match !result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sigterm was not graceful: %s" m

let suite =
  [
    Alcotest.test_case "service replace quarantines a wedged worker" `Quick
      test_service_replace;
    Alcotest.test_case "journal load, torn tail, compaction" `Quick
      test_journal_load_and_compact;
    QCheck_alcotest.to_alcotest replay_equivalence;
    Alcotest.test_case "byte-at-a-time framing" `Quick test_byte_at_a_time;
    Alcotest.test_case "adversarial chunked framing" `Quick
      test_chunked_framing;
    Alcotest.test_case "torn reads / short writes leave answers identical"
      `Quick test_torn_and_short;
    Alcotest.test_case "dropped reads and accepts never kill the daemon"
      `Quick test_drops_survived;
    Alcotest.test_case "journal restart resurrects acked sessions" `Quick
      test_journal_restart;
    Alcotest.test_case "torn journal tail is dropped, prefix replayed" `Quick
      test_torn_journal_tail;
    Alcotest.test_case "poisoned worker quarantined, session replayed" `Quick
      test_poisoned_worker_replayed;
    Alcotest.test_case "overload shed and worker_lost, pipelined" `Quick
      test_overload_shed_and_worker_lost;
    Alcotest.test_case "slow reader disconnected at max_outbuf" `Quick
      test_slow_reader_disconnected;
    Alcotest.test_case "SIGTERM drains gracefully" `Quick
      test_sigterm_graceful;
  ]
