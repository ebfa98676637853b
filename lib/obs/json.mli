(** The repository's one JSON: a value tree, a compact renderer and a
    total parser (the toolchain ships no JSON library).

    Every JSON the system emits — wire frames and journal lines
    ({!Omq.Protocol} aliases this module), Chrome/JSONL traces, log
    lines, metrics, reasoner stats, telemetry dumps and the CLI's
    [--json] output — is built as a {!t} and rendered by {!render}, so
    there is one escaper and one number format. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** member order is preserved *)

(** [Num] of an integer. *)
val int : int -> t

(** Compact one-line rendering (no spaces). Strings escape the double
    quote, backslash, newline, carriage return and tab with their short
    forms and other control bytes as four-digit [u] escapes; bytes above
    0x7F pass through. Integral numbers below 1e15 in magnitude render
    without a fraction, other finite numbers with ["%.17g"] (round-trip
    exact); NaN and infinities render as [null]. *)
val render : t -> string

(** Parse one JSON document. Trailing garbage, unterminated input,
    nesting deeper than 512 and numbers that overflow a float are errors
    ([Error "offset N: msg"]). A [u] escape takes exactly four hex
    digits; a surrogate pair decodes to its UTF-8 code point and a lone
    surrogate to U+FFFD. *)
val parse : string -> (t, string) result

(** Member of an object, if present ([None] on non-objects too). *)
val member : string -> t -> t option

val equal : t -> t -> bool
