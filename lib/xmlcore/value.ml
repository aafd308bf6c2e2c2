type t =
  | Null
  | Int of int
  | Float of float
  | Text of string

let is_null = function Null -> true | Int _ | Float _ | Text _ -> false

let as_float = function
  | Null -> None
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Text s -> float_of_string_opt s

let to_string = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Text s -> s

(* Non-finite floats stay text: OCaml's literal grammar reads "nan",
   "inf" and "infinity" (any case, any sign) and overflowing exponents
   as floats, but element text that says "nan" is a word, and a
   [Float nan] would not even equal itself. *)
let of_string s =
  if s = "" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f when Float.is_finite f -> Float f
        | Some _ | None -> Text s)

(* [of_string] over a byte slice without materialising the string for
   the common shapes. The classification must agree with [of_string]
   exactly, so the fast paths only cover cases where OCaml's literal
   grammar is unambiguous:
   - a pure decimal integer (optional sign, <= 18 digits) parses
     manually — same result as [int_of_string];
   - a slice whose first character can start neither an int nor a
     float literal (any letter but the inf/nan starters) is [Text];
   everything else falls back to [of_string] on the extracted slice,
   which also keeps non-finite literals as [Text]. *)
(* One scan rejecting slices no numeric literal can match, so common
   almost-numeric texts (dates, phone numbers, "0417 9931") skip two
   failed parses in [of_slice]. Sound because OCaml int/float literals
   only contain [0-9A-Za-z._+-], with an inner sign legal only right
   after an exponent marker. *)
let rec numericish b i fin prev =
  i >= fin
  ||
  let c = Bytes.unsafe_get b i in
  (match c with
  | '0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' | '.' | '_' -> true
  | '+' | '-' -> prev = 'e' || prev = 'E' || prev = 'p' || prev = 'P'
  | _ -> false)
  && numericish b (i + 1) fin c

let rec all_digits b i fin =
  i >= fin
  ||
  let c = Bytes.unsafe_get b i in
  c >= '0' && c <= '9' && all_digits b (i + 1) fin

let of_slice b ~pos ~len =
  if len = 0 then Null
  else
    let c0 = Bytes.unsafe_get b pos in
    let signed = c0 = '-' || c0 = '+' in
    let i0 = pos + if signed then 1 else 0 in
    let fin = pos + len in
    if i0 < fin && fin - i0 <= 18 && all_digits b i0 fin then begin
      let v = ref 0 in
      for i = i0 to fin - 1 do
        v := (10 * !v) + (Char.code (Bytes.unsafe_get b i) - 48)
      done;
      Int (if c0 = '-' then - !v else !v)
    end
    else
      match c0 with
      | 'a' .. 'z' | 'A' .. 'Z'
        when not
               (c0 = 'i' || c0 = 'I' || c0 = 'n' || c0 = 'N' || c0 = 'x'
              || c0 = 'X' || c0 = 'o' || c0 = 'O' || c0 = 'b' || c0 = 'B') ->
          Text (Bytes.sub_string b pos len)
      | ' ' | '!' .. '*' | ',' | '/' | ':' .. '?' ->
          (* first char already outside every numeric literal *)
          Text (Bytes.sub_string b pos len)
      | _ ->
          if numericish b (pos + 1) fin c0 then
            of_string (Bytes.sub_string b pos len)
          else Text (Bytes.sub_string b pos len)

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Text x, Text y -> String.equal x y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | (Null | Int _ | Float _ | Text _), _ -> false

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Text x, Text y -> String.compare x y
  | Text _, _ -> 1
  | _, Text _ -> -1
  | x, y -> (
      match (as_float x, as_float y) with
      | Some fx, Some fy -> Float.compare fx fy
      | _ -> 0)

let pp ppf v =
  match v with
  | Null -> Format.pp_print_string ppf "null"
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Text s -> Format.fprintf ppf "%S" s
