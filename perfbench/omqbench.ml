(* The served-path benchmark; BENCHMARK.json at the root of the source
   tree describes it. Run it through run.sh, from that root:

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --smoke

   A run prints the run's context ("meta"), one line per metric (name,
   value, unit), and as its last line the JSON result. --smoke runs
   every workload briefly, traced and untraced, and checks the results
   against BENCHMARK.json. *)

open Common
module J = Omq.Protocol.Json

let workloads =
  [
    ("serve_small", Workloads.serve_small);
    ("serve_mixed", Workloads.serve_mixed);
    ("corpus_batch", Workloads.corpus_batch);
  ]

(* The commit of a git checkout, read without running git. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.starts_with ~prefix:"ref: " head then
      String.trim
        (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else head
  with Sys_error _ -> "unknown"

(* Digest of the program's sources, which names the code measured when
   the source tree is not a git checkout. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ read_file p) (files "lib" @ files "bin"))))

let declared () =
  let spec =
    match J.parse (read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error m -> failwith ("BENCHMARK.json: " ^ m)
  in
  let list key =
    match J.member key spec with
    | Some (J.Arr ms) ->
        List.map
          (fun m ->
            match (J.member "name" m, J.member "unit" m) with
            | Some (J.Str n), Some (J.Str u) -> (n, u)
            | _ -> failwith ("BENCHMARK.json: bad entry in " ^ key))
          ms
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  (list "end_to_end", list "per_layer")

(* The result's metrics: exactly those BENCHMARK.json declares for the
   mode, in its order and units. Every end-to-end metric must have been
   measured; a per-layer metric of a layer the workload does not reach
   is 0, the work done there. *)
let select ~trace (r : result) =
  let e2e, layer = declared () in
  List.iter
    (fun (k, _, _) ->
      if not (List.mem_assoc k (if trace then layer else e2e)) then
        failwith (Printf.sprintf "metric %s is not declared in BENCHMARK.json" k))
    r.metrics;
  List.map
    (fun (k, u) ->
      match List.find_opt (fun (k', _, _) -> k' = k) r.metrics with
      | Some (_, _, u') when u' <> u ->
          failwith (Printf.sprintf "metric %s has unit %s, declared %s" k u' u)
      | Some (_, v, _) when not (Float.is_finite v) ->
          failwith (Printf.sprintf "metric %s is not a finite number" k)
      | Some m -> m
      | None when trace -> (k, 0., u)
      | None -> failwith (Printf.sprintf "end-to-end metric %s was not measured" k))
    (if trace then layer else e2e)

let print_result ~seconds ~trace (r : result) =
  let metrics = select ~trace r in
  let meta =
    r.meta
    @ [
        ("seconds", J.Num seconds);
        ("trace", J.Bool trace);
        ("ocaml", J.Str Sys.ocaml_version);
        ("commit", J.Str (commit ()));
        ("source_digest", J.Str (source_digest ()));
      ]
  in
  print_endline ("meta " ^ J.render (J.Obj meta));
  List.iter (fun (k, v, u) -> Printf.printf "%-30s %14.6g %s\n" k v u) metrics;
  print_endline
    (J.render
       (J.Obj
          [
            ("correct", J.Bool r.correct);
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v, u) -> (k, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
                   metrics) );
          ]))

(* ------------------------------------------------------------------ *)
(* The smoke check *)

let last_line_of args =
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok !last
  | _ -> Error "exited with an error"

let smoke () =
  let e2e, layer = declared () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun trace ->
          let args =
            [| Sys.executable_name; "--workload"; w; "--seed"; "1"; "--seconds"; "1";
               "--trace"; (if trace then "1" else "0") |]
          in
          let decl = if trace then layer else e2e in
          Printf.printf "smoke: %s trace=%b\n%!" w trace;
          match last_line_of args with
          | Error m -> problem "%s trace=%b: %s" w trace m
          | Ok line -> (
              match J.parse line with
              | Error m -> problem "%s trace=%b: result is not JSON: %s" w trace m
              | Ok r ->
                  if J.member "correct" r <> Some (J.Bool true) then
                    problem "%s trace=%b: not correct" w trace;
                  if J.member "failed" r <> Some (J.Num 0.) then
                    problem "%s trace=%b: failed operations" w trace;
                  let metrics =
                    match J.member "metrics" r with Some (J.Obj ms) -> ms | _ -> []
                  in
                  let names = List.map fst metrics in
                  if names <> List.map fst decl then
                    problem "%s trace=%b: reports [%s], BENCHMARK.json declares [%s]" w trace
                      (String.concat " " names) (String.concat " " (List.map fst decl));
                  List.iter
                    (fun (k, m) ->
                      match (List.assoc_opt k decl, J.member "unit" m, J.member "value" m) with
                      | None, _, _ -> problem "%s: %s is not declared" w k
                      | Some u, Some (J.Str u'), Some (J.Num v) ->
                          if u <> u' then problem "%s: %s has unit %s, declared %s" w k u' u;
                          if (not trace) && v = 0. then problem "%s: %s is 0" w k;
                          if k = "trace.unattributed_pct" && v > 10. then
                            problem "%s: trace.unattributed_pct = %g > 10" w v
                      | Some _, _, _ -> problem "%s: %s is malformed" w k)
                    metrics))
        [ false; true ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (fun p -> print_endline ("smoke: FAIL " ^ p)) ps;
      exit 1

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke_mode, " run every workload briefly and check the results");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "omqbench --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then smoke ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
    | Some run -> (
        mkdir_p run_root;
        match
          print_result ~seconds:!seconds ~trace:(!trace = 1)
            (run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
        with
        | () -> ()
        | exception e ->
            Printf.eprintf "%s failed: %s\n%!" !workload (Printexc.to_string e);
            exit 2)
