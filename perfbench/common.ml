(* Shared helpers: sample statistics, files, process memory, metrics. *)

let now = Obs.Clock.now

(* Linear-interpolated quantile of the samples ([q] in [0, 1]). *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = quantile 0.5 xs
let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* Scratch space for sockets, journals, logs and the span file, inside
   the source tree (ignored by git). *)
let run_root = Filename.concat "perfbench" "_run"

(* Peak resident set size of a process, in MiB, from /proc ("self" for
   this process). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

(* Pin this process, each of its threads and every process it starts
   from now on to one CPU: the first this process may run on. *)
let pin_to_one_cpu () =
  let ic = open_in "/proc/self/status" in
  let rec allowed () =
    match input_line ic with
    | l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
        Scanf.sscanf l "Cpus_allowed_list: %d" Fun.id
    | _ -> allowed ()
  in
  let cpu = Fun.protect ~finally:(fun () -> close_in ic) allowed in
  let pid =
    Unix.create_process "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "taskset could not pin the benchmark to one CPU"

(* [in_child f]: [f ()] in a forked child process, as a fresh process
   runs it; returns its result and the child's peak RSS in MiB. No
   domain but the main one may be running. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      (match f () with
      | v -> Marshal.to_channel oc (Ok (v, peak_rss_mb "self")) []
      | exception e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let got =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            ignore (Unix.waitpid [] pid))
          (fun () -> try Marshal.from_channel ic with End_of_file -> Error "child died")
      in
      match got with Ok r -> r | Error m -> failwith ("child process: " ^ m))

(* One reported metric: name, value, unit. *)
type metric = string * float * string

(* The outcome of one benchmark run. *)
type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  meta : (string * Omq.Protocol.Json.t) list;
}

(* The traced run's tracing overhead, in percent: [block traced] runs
   one quarter of the loop and returns its rate. The blocks go
   untraced, traced, traced, untraced, so that drift over the run
   cancels out of the comparison. *)
let tracing_overhead block =
  let u1 = block false in
  let t1 = block true in
  let t2 = block true in
  let u2 = block false in
  100. *. (((u1 +. u2) /. (t1 +. t2)) -. 1.)

(* [time_n n ~discard f]: run [f] [n] times, passing every result but
   the last to [discard] (untimed); return the last result and the
   median wall time of the runs. *)
let time_n n ~discard f =
  let rec go i acc =
    let t0 = now () in
    let r = f () in
    let acc = (now () -. t0) :: acc in
    if i + 1 >= n then (r, median acc)
    else begin
      discard r;
      go (i + 1) acc
    end
  in
  go 0 []
