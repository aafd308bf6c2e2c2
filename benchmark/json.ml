(* A minimal JSON value, printer and parser: enough for the benchmark's
   result lines, result files and BENCHMARK.json. The repository has no
   JSON dependency, and this one must not add any. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* all the digits a float has; a non-finite value (a percentile that
   landed on a failed operation, which counts as +inf) saturates to the
   largest finite double so the document stays valid JSON *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else if Float.is_nan v then "null"
  else if v > 0.0 then "1.7976931348623157e308"
  else "-1.7976931348623157e308"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num v -> Buffer.add_string b (number v)
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "\"%s\": " (escape k);
          to_buffer b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                skip ();
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (num ())
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let parse_res s = try Ok (parse s) with Error msg -> Error msg

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function Num v -> Some v | _ -> None

let to_str = function Str s -> Some s | _ -> None

let fields = function Obj l -> l | _ -> []
