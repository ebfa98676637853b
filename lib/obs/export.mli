(** Exporters for a filled {!Trace} collector. *)

type format =
  | Chrome  (** Chrome trace-event JSON: chrome://tracing, Perfetto *)
  | Jsonl  (** one span (then one event) per line *)

(** ["chrome"] / ["jsonl"]. *)
val format_of_string : string -> format option

(** The Chrome trace-event rendering: a JSON object whose
    ["traceEvents"] array holds one complete ("X") event per span —
    [args] carrying [span_id], [parent_id], the span attributes and
    [status] — and one instant ("i") event per retained ring-buffer
    event. Timestamps are microseconds from the collector's earliest
    record. *)
val chrome : Trace.t -> Json.t

(** The JSONL objects, one per output line: spans first (in opening
    order), then the retained events. *)
val jsonl : Trace.t -> Json.t list

(** The file contents: the rendered Chrome object, or one rendered
    JSONL object per newline-terminated line. *)
val render : format -> Trace.t -> string

(** Render and write to [path]. *)
val to_file : format -> Trace.t -> string -> unit

(** {2 Per-phase profile} *)

type profile_row = {
  pname : string;  (** span name *)
  count : int;
  total_s : float;  (** summed span durations *)
  self_s : float;  (** total minus time spent in direct children *)
}

(** Aggregate spans by name, sorted by descending self time. *)
val profile : Trace.t -> profile_row list

val pp_profile : profile_row list Fmt.t
