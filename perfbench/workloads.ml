(* The workloads. Two drive a real daemon over its socket with a
   closed-loop client; corpus_batch runs offline corpus batches, each in
   a process forked from this one. Each returns its end-to-end metrics (untraced run) or
   its per-layer metrics (traced run). *)

open Common
module P = Omq.Protocol
module J = P.Json

let nproc = Domain.recommended_domain_count ()
let daemon_jobs = 2

(* One load process with one connection. On a shared 2-vCPU host, two
   clients kept both vCPUs busy, and the host then took up to a third
   of their time: serve_small's eval_p50_ms went from 0.12 to 0.26 ms
   and its throughput fell by two thirds from run to run; in
   serve_mixed, two sessions' solves side by side shared the daemon's
   heap (NOTES.md). *)
let clients = 1

(* Set-ups per untraced run; setup_s is their median. Five, but three
   in serve_mixed and corpus_batch, whose set-ups take seconds. *)
let setups = 5

(* Tail percentile of each workload's latency samples: the highest that
   leaves at least ten samples above it in a 20 s run (serve_small:
   ~50000 evals; serve_mixed: ~57 evals and ~38 updates). Tails do not
   repeat within a tenth on a shared 2-vCPU host, so they are per-layer
   figures (NOTES.md). *)
let serve_small_tail = 0.9998
let serve_mixed_eval_tail = 0.8
let serve_mixed_update_tail = 0.7

(* ------------------------------------------------------------------ *)
(* Inputs *)

let fact_line (f : Structure.Instance.fact) =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat ", " (List.map Replay.element_name f.args))

let render facts = String.concat "" (List.map (fun f -> fact_line f ^ "\n") facts)

(* The served instance: 10^4 binary-fact draws over 300 constants
   (Randgen.large), plus exactly six facts of each unary concept C0..C3
   on distinct random constants — the count Randgen.large's default
   unary probability gives on average. Drawn independently, the counts
   range from 3 to 11 from seed to seed, and the cost of a first eval
   follows the number of C0 facts (the disjunction). *)
let nfacts = 10_000
let nconst = 300
let per_concept = 6

let instance seed =
  let rng = Random.State.make [| seed |] in
  let inst = Structure.Randgen.large ~rng ~nconst ~nfacts ~unary_p:0. () in
  let rec distinct k acc =
    if k = 0 then acc
    else
      let c = Random.State.int rng nconst in
      if List.mem c acc then distinct k acc else distinct (k - 1) (c :: acc)
  in
  List.fold_left
    (fun inst u ->
      List.fold_left
        (fun inst c ->
          Structure.Instance.add_fact
            (Structure.Instance.fact (Printf.sprintf "C%d" u)
               [ Structure.Element.Const (Printf.sprintf "c%d" c) ])
            inst)
        inst
        (distinct per_concept []))
    inst [ 0; 1; 2; 3 ]

(* An update batch: five facts over the instance's constants, none
   already in it, always of the same shape so that every batch asks the
   same kind of work: C0 (the disjunction), C1 (the existential), C2
   (an answer), and two binary facts. *)
let batch rng inst =
  let dom = Array.of_list (Structure.Instance.domain_list inst) in
  let pick () = dom.(Random.State.int rng (Array.length dom)) in
  let shape = [ ("C0", 1); ("C1", 1); ("C2", 1); ("r0", 2); ("r1", 2) ] in
  let rec draw acc (rel, arity) =
    let f = Structure.Instance.fact rel (List.init arity (fun _ -> pick ())) in
    if Structure.Instance.mem f inst || List.mem f acc then draw acc (rel, arity)
    else f :: acc
  in
  List.rev (List.fold_left draw [] shape)

(* ------------------------------------------------------------------ *)
(* Per-layer figures *)

let stats_delta (a : Reasoner.Stats.t) (b : Reasoner.Stats.t) =
  let ratio h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
  let n f = float_of_int (f b - f a) in
  let open Reasoner.Stats in
  [
    ("engine.groundings", n (fun s -> s.groundings), "count");
    ("engine.ground_s", b.ground_seconds -. a.ground_seconds, "s");
    ("engine.solves", n (fun s -> s.solves), "count");
    ("engine.solve_s", b.solve_seconds -. a.solve_seconds, "s");
    ( "engine.cache_hit_ratio",
      ratio (b.cache_hits - a.cache_hits) (b.cache_misses - a.cache_misses),
      "ratio" );
    ( "ground.memo_hit_ratio",
      ratio (b.memo_hits - a.memo_hits) (b.memo_misses - a.memo_misses),
      "ratio" );
    ("dpll.decisions", n (fun s -> s.decisions), "count");
    ("dpll.propagations", n (fun s -> s.propagations), "count");
    ("dpll.conflicts", n (fun s -> s.conflicts), "count");
  ]

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  [
    ("gc.top_heap_mb", mb g1.top_heap_words, "MB");
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections), "count");
  ]

(* Engine counters and this process's GC figures over [f]. *)
let measured f =
  let s0 = Reasoner.Stats.copy (Reasoner.Stats.global ()) in
  let g0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Reasoner.Stats.copy (Reasoner.Stats.global ()) in
  (r, stats_delta s0 s1 @ gc_delta g0 (Gc.quick_stat ()))

(* Figures read off the replay's spans; a layer the workload does not
   reach has no spans and reports nothing. *)
let span_metrics recs =
  let med name metric =
    match Span.durations recs name with
    | [] -> []
    | ds -> [ (metric, median ds *. 1000., "ms") ]
  in
  let per_op name metric =
    match Span.durations recs name with
    | [] -> []
    | ds -> [ (metric, mean ds *. 1e6, "us") ]
  in
  List.concat
    [
      per_op "protocol.decode" "protocol.decode_us";
      per_op "protocol.encode" "protocol.encode_us";
      med "parse.tbox" "parse.tbox_ms";
      med "parse.instance" "parse.instance_ms";
      med "parse.query" "parse.query_ms";
      med "session.open" "session.open_ms";
      med "session.first_eval" "session.first_eval_ms";
      med "session.hot_eval" "session.hot_eval_ms";
      med "session.post_update_eval" "session.post_update_eval_ms";
      med "session.insert" "session.insert_ms";
      med "session.retract" "session.retract_ms";
      med "journal.append" "journal.append_ms";
      med "journal.load" "journal.load_ms";
    ]

let trace_metrics ~overhead recs =
  [
    ("trace.overhead_pct", overhead, "%");
    ("trace.unattributed_pct", Span.unattributed_pct recs, "%");
  ]

(* ------------------------------------------------------------------ *)
(* The served path *)

type served = {
  daemon : Wire.daemon;
  cs : Wire.client array;
  retired : Wire.client array list;  (** clients of discarded set-ups *)
  setup_s : float;
  rate : float;  (** requests per second, untraced run *)
  overhead : float;  (** tracing overhead in percent, traced run *)
  recs : Span.t list;  (** the traced run's client spans *)
  rss_mb : float;
  server : int * int * float;  (** served, errors, eval p50 ms *)
}

(* Set up (several times untraced; the median is setup_s), then run the
   closed loop. [warm] opens a client's session and warms it up. *)
let serve ?(setups = setups) ?(rate = Wire.median_rate) ~dir ~trace ~seconds ?journal ~warm
    cycle =
  let retired = ref [] in
  let setup () =
    Option.iter rm_rf journal;
    let d = Wire.spawn ~dir ~jobs:daemon_jobs ?journal () in
    let cs = Array.init clients (fun i -> Wire.client d i) in
    Wire.on_clients cs warm;
    if Wire.errors cs > 0 then failwith "set-up failed";
    (d, cs)
  in
  let discard (d, cs) =
    Wire.close_all cs;
    Wire.stop d;
    retired := cs :: !retired
  in
  let (daemon, cs), setup_s =
    time_n (if trace then 1 else setups) ~discard setup
  in
  Array.iter
    (fun (c : Wire.client) ->
      c.bytes <- 0;
      c.evals <- [];
      c.updates <- [];
      c.all <- [])
    cs;
  let since = now () in
  let rate, overhead, recs =
    if trace then
      let overhead, recs = Wire.traced cs ~seconds ~rate cycle in
      (nan, overhead, recs)
    else (Wire.timed cs ~seconds ~rate cycle, nan, [])
  in
  let rss_mb = Wire.peak_rss_mb daemon in
  let server = Wire.server_figures daemon ~since in
  { daemon; cs; retired = !retired; setup_s; rate; overhead; recs; rss_mb; server }

let samples f s = List.concat_map f (Array.to_list s.cs)

let daemon_metrics s =
  let served, errs, server_p50 = s.server in
  let client_p50 = median (samples (fun c -> c.Wire.evals) s) in
  let ops = List.length (samples (fun c -> c.Wire.all) s) in
  let bytes = Array.fold_left (fun n c -> n + c.Wire.bytes) 0 s.cs in
  [
    ("protocol.bytes_per_op", float_of_int bytes /. float_of_int (max 1 ops), "bytes");
    ("daemon.server_p50_ms", server_p50, "ms");
    ("daemon.wait_p50_ms", client_p50 -. server_p50, "ms");
    ("daemon.served", float_of_int served, "count");
    ("daemon.errors", float_of_int errs, "count");
  ]

let all_clients s = s.cs :: s.retired

let attempted s =
  List.fold_left
    (fun n cs -> Array.fold_left (fun n c -> n + c.Wire.ops) n cs)
    0 (all_clients s)

(* Check every kept response, count client failures, and put the run's
   metrics together. *)
let finish ~trace ~s ~answer ~extra_failed ~e2e ~layer ~meta =
  let mismatches =
    List.fold_left (fun n cs -> n + Wire.verify cs ~answer) 0 (all_clients s)
  in
  let errs = List.fold_left (fun n cs -> n + Wire.errors cs) 0 (all_clients s) in
  let failed = mismatches + errs + extra_failed in
  let attempted = max 1 (attempted s + errs) in
  let common = [ ("error_rate", float_of_int failed /. float_of_int attempted, "ratio") ] in
  {
    attempted;
    failed;
    correct = failed = 0;
    metrics = (if trace then layer @ common else e2e);
    meta;
  }

let run_dir name =
  let dir = Filename.concat run_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  dir

let write_trace name ~meta recs =
  Span.write
    (Filename.concat run_root ("trace-" ^ name ^ ".json"))
    ~meta:(J.Obj meta) recs

let served_meta ~cpus ~name ~seed ~ontology ~query ~dom ~facts ~tails =
  [
    ("workload", J.Str name);
    ("seed", J.Num (float_of_int seed));
    ("nproc", J.Num (float_of_int nproc));
    ("daemon_jobs", J.Num (float_of_int daemon_jobs));
    ("clients", J.Num (float_of_int clients));
    ("cpus", J.Num (float_of_int cpus));
    ("dom", J.Num (float_of_int dom));
    ("facts", J.Num (float_of_int facts));
    ("ontology", J.Str ontology);
    ("query", J.Str query);
    ("tail_percentile", J.Obj (List.map (fun (k, q) -> (k, J.Num (q *. 100.))) tails));
  ]

(* ------------------------------------------------------------------ *)
(* serve_small: back-to-back evals on the committed hand session. *)

let serve_small ~seed ~seconds ~trace =
  (* The benchmark, and so the daemon it starts, on one CPU: a request
     here is a few wake-ups of threads that are idle otherwise, and
     across two vCPUs each wake-up waited on the host. Pinned, five
     seeds' eval_p50_ms spread 0.05; across both vCPUs, ten spread 0.26
     (NOTES.md). *)
  pin_to_one_cpu ();
  let dir = run_dir "serve_small" in
  let ontology = read_file "data/hand.dl" and data = read_file "data/hand_instance.txt" in
  let query = "q(x) <- Hand(x)" in
  let open_req = P.Open_session { ontology; data; query; max_extra = 2 } in
  let warm c =
    ignore (Wire.open_session c open_req);
    for _ = 1 to 2000 do
      Wire.eval c 0
    done
  in
  (* a cycle of 32 evals: a few milliseconds, so that most cycles miss
     a stall of the shared host and their median rate is the program's *)
  let cycle c _ =
    for _ = 1 to 32 do
      Wire.eval c 0
    done
  in
  let s = serve ~dir ~trace ~seconds ~warm cycle in
  Wire.close_all s.cs;
  Wire.stop s.daemon;
  rm_rf dir;
  let tr = if trace then Some (Span.create ()) else None in
  let rp = Replay.create tr in
  let answer, engine =
    measured (fun () ->
        Replay.open_ rp ~id:1 ~sid:0 open_req;
        let a = Replay.eval rp ~id:2 ~sid:0 "first_eval" in
        for i = 1 to 2000 do
          ignore (Replay.eval rp ~id:(2 + i) ~sid:0 "hot_eval")
        done;
        a)
  in
  let inst = Structure.Parse.instance_of_string data in
  let meta =
    served_meta ~cpus:1 ~name:"serve_small" ~seed ~ontology ~query
      ~dom:(Structure.Instance.domain_size inst)
      ~facts:(Structure.Instance.cardinal inst)
      ~tails:[ ("eval_tail_ms", serve_small_tail) ]
  in
  let recs = s.recs @ Option.to_list tr in
  if trace then write_trace "serve_small" ~meta recs;
  let evals = samples (fun c -> c.Wire.evals) s in
  finish ~trace ~s ~answer:(fun _ -> answer) ~extra_failed:0 ~meta
    ~e2e:
      [
        ("setup_s", s.setup_s, "s");
        ("ops_per_s", s.rate, "1/s");
        ("eval_p50_ms", median evals, "ms");
        ("peak_rss_mb", s.rss_mb, "MB");
      ]
    ~layer:
      (span_metrics recs @ daemon_metrics s @ engine
      @ [ ("eval_tail_ms", quantile serve_small_tail evals, "ms") ]
      @ trace_metrics ~overhead:s.overhead recs)

(* ------------------------------------------------------------------ *)
(* serve_mixed: a journaled daemon; each client loops eval, insert,
   eval, retract, eval on its own non-Horn session, and the daemon is
   restarted from its journal at the end. *)

let mixed_ontology = "C0 << C1 or C2\nC1 << exists r0 . C3\n"
let mixed_query = "q(x) <- C2(x)"

(* Update batches per client, taken in turn by the cycles. *)
let mixed_batches = 4

let serve_mixed ~seed ~seconds ~trace =
  let nb = mixed_batches in
  let dir = run_dir "serve_mixed" in
  let journal = Filename.concat dir "journal" in
  let inst = instance seed in
  let data = render (Structure.Instance.facts inst) in
  let open_req =
    P.Open_session { ontology = mixed_ontology; data; query = mixed_query; max_extra = 2 }
  in
  (* nb update batches per client; data state 0 is the instance, state
     1 + nb c + j the instance with client c's batch j. *)
  let rng = Random.State.make [| seed; 1 |] in
  let batches = Array.init clients (fun _ -> Array.init nb (fun _ -> batch rng inst)) in
  let card = Structure.Instance.cardinal inst in
  let state c j = 1 + (nb * c) + j in
  let update (c : Wire.client) j ~insert =
    let facts = render batches.(c.ix).(j) in
    let req, resp =
      if insert then
        ( P.Insert_facts { session = c.sid; facts },
          P.Inserted { session = c.sid; total_facts = card + 5 } )
      else
        ( P.Retract_facts { session = c.sid; facts },
          P.Retracted { session = c.sid; total_facts = card } )
    in
    let _, _, ms = Wire.request c (if insert then "insert" else "retract") req (Exactly resp) in
    c.updates <- ms :: c.updates
  in
  let cycle (c : Wire.client) k =
    let j = k mod nb in
    Wire.eval c 0;
    update c j ~insert:true;
    Wire.eval c (state c.ix j);
    update c j ~insert:false;
    Wire.eval c 0
  in
  let warm c =
    ignore (Wire.open_session c open_req);
    cycle c 0
  in
  (* cycles differ in the batch they update, hence the total rate *)
  let s = serve ~setups:3 ~rate:Wire.total_rate ~dir ~trace ~seconds ~journal ~warm cycle in
  (* A last acknowledged insert, and the answer the restarted daemon
     must give again. *)
  let before = Array.make clients ("", 0) in
  Wire.on_clients s.cs (fun c ->
      update c 0 ~insert:true;
      let id, raw, _ =
        Wire.request c "eval"
          (P.Eval { session = c.sid; budget = P.no_budget; want_stats = false })
          (Answer (state c.ix 0))
      in
      before.(c.ix) <- (raw, id));
  Wire.close_all s.cs;
  Wire.stop s.daemon;
  (* Restart from the journal: recovery_s is the time until every
     session has answered again, byte for byte as before. *)
  let lost = ref 0 and restarted = ref [] in
  let restart () =
    let d = Wire.spawn ~dir ~jobs:daemon_jobs ~journal () in
    let again = Array.init clients (fun i -> Wire.client d i) in
    Wire.on_clients again (fun c ->
        c.sid <- s.cs.(c.ix).sid;
        let raw0, id = before.(c.ix) in
        let _, raw, _ =
          Wire.request ~id c "eval"
            (P.Eval { session = c.sid; budget = P.no_budget; want_stats = false })
            (Answer (state c.ix 0))
        in
        if not (String.equal raw raw0) then begin
          Printf.eprintf "client %d: answer after restart differs: %s\n%!" c.ix raw;
          incr lost
        end);
    restarted := again :: !restarted;
    (d, again)
  in
  let t0 = now () in
  let d, again = restart () in
  let recovery_s = now () -. t0 in
  Wire.close_all again;
  Wire.stop d;
  (* The in-process reference, which is also the traced replay. *)
  let tr = if trace then Some (Span.create ()) else None in
  let rjournal = Filename.concat dir "replay-journal" in
  let j = Omqd.Journal.open_ rjournal in
  let rp = Replay.create ~journal:j tr in
  let answers = Array.make (1 + (nb * clients)) P.Shutdown_ack in
  let drift = ref 0 in
  let bytes_per_update, engine =
    measured (fun () ->
        Replay.open_ rp ~id:1 ~sid:0 open_req;
        let opened = Omqd.Journal.size j in
        answers.(0) <- Replay.eval rp ~id:2 ~sid:0 "first_eval";
        ignore (Replay.eval rp ~id:3 ~sid:0 "hot_eval");
        Array.iteri
          (fun c bs ->
            Array.iteri
              (fun jx b ->
                let facts = render b in
                Replay.update rp ~id:4 ~sid:0 ~insert:true facts;
                answers.(state c jx) <-
                  Replay.eval rp ~id:5 ~sid:0 "post_update_eval";
                Replay.update rp ~id:6 ~sid:0 ~insert:false facts;
                (* back on the instance: the answer must be state 0's *)
                let back = Replay.eval rp ~id:7 ~sid:0 "post_update_eval" in
                if not (P.equal_response back answers.(0)) then incr drift)
              bs)
          batches;
        let appended = Omqd.Journal.size j - opened in
        Omqd.Journal.close j;
        Span.with_ tr "op.recover" (fun () ->
            Span.with_ tr "journal.load" (fun () ->
                match Omqd.Journal.load rjournal with
                | entries, `Ok when List.length entries = 1 + rp.Replay.updates ->
                    ignore (Omqd.Journal.live_sessions entries)
                | _ -> failwith "replay journal did not load back"));
        float_of_int appended /. float_of_int rp.Replay.updates)
  in
  let meta =
    served_meta ~cpus:nproc ~name:"serve_mixed" ~seed ~ontology:mixed_ontology
      ~query:mixed_query
      ~dom:(Structure.Instance.domain_size inst)
      ~facts:card
      ~tails:
        [ ("eval_tail_ms", serve_mixed_eval_tail); ("update_tail_ms", serve_mixed_update_tail) ]
  in
  let recs = s.recs @ Option.to_list tr in
  if trace then write_trace "serve_mixed" ~meta recs;
  rm_rf dir;
  let evals = samples (fun c -> c.Wire.evals) s
  and updates = samples (fun c -> c.Wire.updates) s in
  let s = { s with retired = !restarted @ s.retired } in
  finish ~trace ~s ~answer:(Array.get answers) ~extra_failed:(!lost + !drift) ~meta
    ~e2e:
      [
        ("setup_s", s.setup_s, "s");
        ("ops_per_s", s.rate, "1/s");
        ("eval_p50_ms", median evals, "ms");
        ("peak_rss_mb", s.rss_mb, "MB");
      ]
    ~layer:
      (span_metrics recs @ daemon_metrics s @ engine
      @ [
          ("recovery_s", recovery_s, "s");
          ( "session.delta_ratio",
            float_of_int rp.Replay.deltas /. float_of_int rp.Replay.updates,
            "ratio" );
          ("journal.bytes_per_update", bytes_per_update, "bytes");
          ("update_p50_ms", median updates, "ms");
          ("eval_tail_ms", quantile serve_mixed_eval_tail evals, "ms");
          ("update_tail_ms", quantile serve_mixed_update_tail updates, "ms");
        ]
      @ trace_metrics ~overhead:s.overhead recs)

(* ------------------------------------------------------------------ *)
(* corpus_batch: the offline corpus batch (Eval, then Classify) on a
   pool of nproc domains; no daemon. *)

let corpus_query = "q(x) <- r0(x,y), C1(y)"

(* The seed-2017 corpus of the parallel-corpus table, in the order
   Omq.Corpus.generate gives, as omq_tool corpus submits it. Other corpus
   seeds hold items that do not finish, and a submission order drawn
   from the run's seed made the batch's makespan follow the seed
   (NOTES.md), so the run's seed does not change this workload. *)
let corpus_items () = Omq.Corpus.generate ~seed:2017 ~n:24 ()

(* A verdict as text, without the schedule-dependent parts (timings, a
   tripped item's partial answers). *)
let verdict (r : Omq.Corpus.result_one) =
  r.item_name ^ ": "
  ^
  match r.outcome with
  | Ok (Omq.Corpus.Evaluated ev) ->
      let tuple t = String.concat "," (List.map Replay.element_name t) in
      Fmt.str "%b %s" ev.consistent (String.concat ";" (List.map tuple ev.answers))
  | Ok (Omq.Corpus.Classified c) ->
      Fmt.str "%s %d %s %a %s %s" c.dl_name c.depth
        (Option.fold ~none:"-" ~some:Gf.Fragment.name c.fragment)
        Classify.Landscape.pp_status c.evidence.Classify.Landscape.status
        c.evidence.Classify.Landscape.fragment c.evidence.Classify.Landscape.source
  | Error f -> Reasoner.Budget.(Fmt.str "tripped %a" pp_reason f.reason)

let corpus_batch ~seed ~seconds ~trace =
  let jobs = nproc in
  let prepare () =
    let items = corpus_items () in
    let data = Structure.Parse.instance_of_string (read_file "data/corpus_instance.txt") in
    let query = Query.Parse.ucq_of_string corpus_query in
    (items, Omq.Corpus.Eval { query; data; max_extra = 2 })
  in
  (* One batch as a fresh corpus run pays it, in a process of its own:
     the batch's peak memory is that process's, and every batch starts
     with empty caches and a fresh heap. *)
  let batch ?(jobs = jobs) ~traced (items, task) =
    let (reports, tr, gc, next_op), peak =
      in_child (fun () ->
          let tr = if traced then Some (Span.create ()) else None in
          let g0 = Gc.quick_stat () in
          let reports =
            Span.with_ tr "op.batch" @@ fun () ->
            Span.with_ tr "corpus.clear_caches" Omq.clear_caches;
            let ev =
              Span.with_ tr "corpus.eval" (fun () ->
                  Omq.Corpus.run ~max_clauses:600_000 ~jobs task items)
            in
            let cl =
              Span.with_ tr "corpus.classify" (fun () ->
                  Omq.Corpus.run ~jobs Omq.Corpus.Classify items)
            in
            (ev, cl)
          in
          (reports, tr, gc_delta g0 (Gc.quick_stat ()), Atomic.get Span.next_op))
    in
    (* keep operation ids unique across the children's recorders *)
    Atomic.set Span.next_op next_op;
    ((reports, tr, gc), peak)
  in
  (* Set-up generates the corpus, parses its data and query, and runs
     the batch once on one domain, in a process of its own: the
     reference every timed batch's verdicts are checked against.
     setup_s is the median of three. Generating and parsing alone take
     under a millisecond, and their median moved by a third from one
     set of runs to the next (NOTES.md). *)
  let (input, (ref_ev, ref_cl)), setup_s =
    time_n (if trace then 1 else 3) ~discard:ignore (fun () ->
        let input = prepare () in
        let reference, _, _ = fst (batch ~jobs:1 ~traced:false input) in
        (input, reference))
  in
  let reports = ref [] in
  let n = List.length (fst input) in
  let recs = ref [] and peaks = ref [] and evals = ref [] and gc = ref [] in
  (* items per second of the median batch, as for the served loops *)
  let rate ~traced ~seconds =
    let until = now () +. seconds and times = ref [] in
    while now () < until do
      let t0 = now () in
      let (r, tr, g), peak = batch ~traced input in
      times := (now () -. t0) :: !times;
      reports := r :: !reports;
      peaks := peak :: !peaks;
      (* eval latency: the mean wall time of the batch's Eval items on
         their workers *)
      let items = (fst r).Omq.Corpus.results in
      evals := mean (List.map (fun (i : Omq.Corpus.result_one) -> i.seconds *. 1000.) items)
               :: !evals;
      Option.iter (fun t -> recs := t :: !recs) tr;
      if traced then gc := g
    done;
    float_of_int (2 * n) /. median !times
  in
  let ops_per_s, overhead =
    if trace then
      (nan, tracing_overhead (fun traced -> rate ~traced ~seconds:(seconds /. 4.)))
    else (rate ~traced:false ~seconds, nan)
  in
  let verdicts (ev : Omq.Corpus.report) (cl : Omq.Corpus.report) =
    List.sort compare (List.map verdict (ev.results @ cl.results))
  in
  let expected = verdicts ref_ev ref_cl in
  let mismatches =
    List.length
      (List.filter
         (fun ((ev : Omq.Corpus.report), (cl : Omq.Corpus.report)) ->
           verdicts ev cl <> expected)
         !reports)
  in
  if mismatches > 0 then prerr_endline "corpus verdicts differ from the jobs = 1 reference";
  let attempted = 2 * n * (List.length !reports) in
  let failed = mismatches * 2 * n in
  let last_ev, last_cl = List.hd !reports in
  let per_item f = List.map f last_ev.results in
  let items = per_item (fun r -> r.seconds) in
  let workers = List.sort_uniq compare (per_item (fun r -> r.worker)) in
  let trips = List.length (List.filter Fun.id (per_item (fun r -> Result.is_error r.outcome))) in
  let meta =
    [
      ("workload", J.Str "corpus_batch");
      ("seed", J.Num (float_of_int seed));
      ("nproc", J.Num (float_of_int nproc));
      ("jobs", J.Num (float_of_int jobs));
      ("corpus", J.Str "Omq.Corpus.generate ~seed:2017 ~n:24, in that order");
      ("data", J.Str "data/corpus_instance.txt");
      ("query", J.Str corpus_query);
      ("max_clauses", J.Num 600_000.);
    ]
  in
  if trace then write_trace "corpus_batch" ~meta !recs;
  {
    attempted = max 1 attempted;
    failed;
    correct = failed = 0;
    meta;
    metrics =
      (if trace then
         (* the workers' counters, summed per item by the corpus runner *)
         stats_delta (Reasoner.Stats.create ()) last_ev.total
         @ !gc
         @ [
             ("corpus.item_p50_s", median items, "s");
             ( "corpus.busy_frac",
               List.fold_left ( +. ) 0. items /. (float_of_int jobs *. last_ev.seconds),
               "ratio" );
             ("corpus.domains_used", float_of_int (List.length workers), "count");
             ("corpus.budget_trips", float_of_int trips, "count");
             ("classify.ms_per_ontology", last_cl.seconds *. 1000. /. float_of_int n, "ms");
             ("error_rate", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
           ]
         @ trace_metrics ~overhead !recs
       else
         [
           ("setup_s", setup_s, "s");
           ("ops_per_s", ops_per_s, "1/s");
           ("eval_p50_ms", median !evals, "ms");
           ("peak_rss_mb", median !peaks, "MB");
         ]);
  }
