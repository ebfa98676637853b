(* The repository's one JSON: a value tree, a compact renderer and a
   total parser (the toolchain ships no JSON library). Every producer —
   wire frames, journal lines, traces, logs, metrics, stats, telemetry,
   the CLI's --json output — builds a [t] and renders it here, so there
   is one escaper and one number format. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integral floats render without a fraction; the rest with %.17g,
   which round-trips every finite float. JSON has no NaN or infinity,
   so those render as null. *)
let add_number b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let int i = Num (float_of_int i)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> add_number b f
  | Str s -> add_string b s
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj ms ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          add b v)
        ms;
      Buffer.add_char b '}'

let render j =
  let b = Buffer.create 256 in
  add b j;
  Buffer.contents b

let member name = function Obj ms -> List.assoc_opt name ms | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Num x, Num y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Arr x, Arr y -> List.equal equal x y
  | Obj x, Obj y ->
      List.equal
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
        x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

(* A total recursive-descent parser over the raw string. Depth is
   bounded so a hostile frame cannot overflow the stack. *)

exception Bad of int * string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  (* Exactly four hex digits, consumed. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "invalid \\u escape"
    in
    let code =
      String.fold_left
        (fun acc c -> (acc lsl 4) lor digit c)
        0 (String.sub s !pos 4)
    in
    pos := !pos + 4;
    code
  in
  (* The code point of a \u escape ("\u" consumed): a surrogate pair is
     one supplementary code point; a lone surrogate becomes U+FFFD, so
     the decoded string stays valid UTF-8. *)
  let unicode_escape () =
    let code = hex4 () in
    if code >= 0xD800 && code <= 0xDBFF
       && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
    then begin
      let save = !pos in
      pos := !pos + 2;
      let low = hex4 () in
      if low >= 0xDC00 && low <= 0xDFFF then
        Uchar.of_int (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
      else begin
        pos := save;
        Uchar.rep
      end
    end
    else if code >= 0xD800 && code <= 0xDFFF then Uchar.rep
    else Uchar.of_int code
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else begin
        (if c <> '\\' then Buffer.add_char b c
         else if !pos >= n then fail "unterminated escape"
         else
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' | '\\' | '/' -> Buffer.add_char b e
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'n' -> Buffer.add_char b '\n'
           | 'r' -> Buffer.add_char b '\r'
           | 't' -> Buffer.add_char b '\t'
           | 'u' -> Buffer.add_utf_8_uchar b (unicode_escape ())
           | e ->
               decr pos;
               fail (Printf.sprintf "invalid escape '\\%c'" e));
        go ()
      end
    in
    go ()
  in
  (* Numbers that overflow a float are rejected: [render] writes
     non-finite values as null, so accepting them would break
     parse/render round trips. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done
    in
    let skip c = if List.mem (peek ()) c then advance () in
    skip [ Some '-' ];
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    if List.mem (peek ()) [ Some 'e'; Some 'E' ] then begin
      advance ();
      skip [ Some '+'; Some '-' ];
      digits ()
    end;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail "number out of range"
    | None -> fail "invalid number"
  in
  (* Comma-separated [item]s up to [close] (the opener consumed). *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else begin
      let items = ref [ item () ] in
      skip_ws ();
      while peek () = Some ',' do
        advance ();
        items := item () :: !items;
        skip_ws ()
      done;
      expect close;
      List.rev !items
    end
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        Arr (sequence ']' (fun () -> parse_value (depth + 1)))
    | Some '{' ->
        advance ();
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value (depth + 1))))
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)
