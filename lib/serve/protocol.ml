module Xerror = Xtwig.Xerror

type update_op =
  | Ins of { parent : int; fragment_xml : string }
  | Del of int

type request =
  | Ping
  | List
  | Metrics
  | Stats of string
  | Reload of string
  | Update of { tenant : string; op : update_op }
  | Estimate of { tenant : string; query : string; trace : int option }
  | Batch of { tenant : string; queries : string list; trace : int option }
  | Explain of { tenant : string; query : string; trace : int option }
  | Optimize of { tenant : string; query : string; trace : int option }

type response = Reply of string | Fail of Xerror.t

let max_frame = 16 * 1024 * 1024

let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.frame: payload over max_frame";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* ---------------- incremental decoder ---------------- *)

type decoder = { mutable buf : Bytes.t; mutable len : int }

let decoder () = { buf = Bytes.create 4096; len = 0 }

let feed d src n =
  let cap = Bytes.length d.buf in
  if d.len + n > cap then begin
    let cap' = max (d.len + n) (2 * cap) in
    let buf' = Bytes.create cap' in
    Bytes.blit d.buf 0 buf' 0 d.len;
    d.buf <- buf'
  end;
  Bytes.blit src 0 d.buf d.len n;
  d.len <- d.len + n

let next_frame d =
  if d.len < 4 then Ok None
  else
    let n = Int32.to_int (Bytes.get_int32_be d.buf 0) in
    if n < 0 || n > max_frame then
      Error (Printf.sprintf "frame length %d out of bounds" n)
    else if d.len < 4 + n then Ok None
    else begin
      let payload = Bytes.sub_string d.buf 4 n in
      Bytes.blit d.buf (4 + n) d.buf 0 (d.len - 4 - n);
      d.len <- d.len - 4 - n;
      Ok (Some payload)
    end

(* ---------------- codec ---------------- *)

let split_header payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i ->
      ( String.sub payload 0 i,
        String.sub payload (i + 1) (String.length payload - i - 1) )

let body_lines body = if body = "" then [] else String.split_on_char '\n' body

(* a client-supplied trace context rides as an optional trailing
   [trace=N] header token — absent, the wire format is byte-identical
   to the pre-trace protocol, so old clients keep working *)
let trace_token = function
  | None -> ""
  | Some tid -> Printf.sprintf " trace=%d" tid

let encode_request ~id req =
  match req with
  | Ping -> Printf.sprintf "%d ping" id
  | List -> Printf.sprintf "%d list" id
  | Metrics -> Printf.sprintf "%d metrics" id
  | Stats t -> Printf.sprintf "%d stats %s" id t
  | Reload t -> Printf.sprintf "%d reload %s" id t
  | Update { tenant; op = Ins { parent; fragment_xml } } ->
      Printf.sprintf "%d update %s\ninsert %d\n%s" id tenant parent fragment_xml
  | Update { tenant; op = Del node } ->
      Printf.sprintf "%d update %s\ndelete %d" id tenant node
  | Estimate { tenant; query; trace } ->
      Printf.sprintf "%d estimate %s%s\n%s" id tenant (trace_token trace) query
  | Batch { tenant; queries; trace } ->
      Printf.sprintf "%d batch %s%s\n%s" id tenant (trace_token trace)
        (String.concat "\n" queries)
  | Explain { tenant; query; trace } ->
      Printf.sprintf "%d explain %s%s\n%s" id tenant (trace_token trace) query
  | Optimize { tenant; query; trace } ->
      Printf.sprintf "%d optimize %s%s\n%s" id tenant (trace_token trace) query

let parse_id s =
  match int_of_string_opt s with
  | Some id when id >= 0 -> Ok id
  | _ -> Error (Printf.sprintf "bad request id %S" s)

(* tenant names travel on the header line, so they cannot contain
   whitespace or newlines; the catalog enforces the same alphabet *)
let valid_tenant t =
  t <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       t

let check_tenant t k = if valid_tenant t then Ok (k t) else Error ("bad tenant name " ^ t)

let parse_trace tok =
  let pfx = "trace=" in
  let lp = String.length pfx in
  if String.length tok > lp && String.sub tok 0 lp = pfx then
    match int_of_string_opt (String.sub tok lp (String.length tok - lp)) with
    | Some tid when tid >= 0 -> Ok (Some tid)
    | _ -> Error (Printf.sprintf "bad trace token %S" tok)
  else Error (Printf.sprintf "bad trace token %S" tok)

(* the update body: an op line ([insert <parent>] with the fragment
   XML as the rest of the body, or [delete <node>]), parsed here so a
   malformed op is a protocol error, not engine work — the fragment
   itself stays opaque text for the server to parse *)
let parse_update_op body =
  let op_line, rest = split_header body in
  match String.split_on_char ' ' op_line with
  | [ "insert"; p ] -> (
      match int_of_string_opt p with
      | Some parent when parent >= 0 ->
          if rest = "" then Error "insert op without a fragment"
          else Ok (Ins { parent; fragment_xml = rest })
      | _ -> Error (Printf.sprintf "bad insert parent %S" p))
  | [ "delete"; n ] -> (
      match int_of_string_opt n with
      | Some node when node >= 0 ->
          if rest <> "" then Error "delete op with trailing body"
          else Ok (Del node)
      | _ -> Error (Printf.sprintf "bad delete node %S" n))
  | _ -> Error (Printf.sprintf "bad update op %S" op_line)

let decode_request payload =
  let header, body = split_header payload in
  match String.split_on_char ' ' header with
  | [ id; "ping" ] -> Result.map (fun id -> (id, Ping)) (parse_id id)
  | [ id; "list" ] -> Result.map (fun id -> (id, List)) (parse_id id)
  | [ id; "metrics" ] -> Result.map (fun id -> (id, Metrics)) (parse_id id)
  | [ id; "stats"; t ] ->
      Result.bind (parse_id id) (fun id -> check_tenant t (fun t -> (id, Stats t)))
  | [ id; "reload"; t ] ->
      Result.bind (parse_id id) (fun id -> check_tenant t (fun t -> (id, Reload t)))
  | [ id; "update"; t ] ->
      Result.bind (parse_id id) (fun id ->
          if not (valid_tenant t) then Error ("bad tenant name " ^ t)
          else
            Result.map
              (fun op -> (id, Update { tenant = t; op }))
              (parse_update_op body))
  | id :: (("estimate" | "batch" | "explain" | "optimize") as verb) :: t
    :: rest -> (
      match
        match rest with
        | [] -> Ok None
        | [ tok ] -> parse_trace tok
        | _ -> Error (Printf.sprintf "bad request header %S" header)
      with
      | Error e -> Error e
      | Ok trace ->
          Result.bind (parse_id id) (fun id ->
              check_tenant t (fun t ->
                  match verb with
                  | "estimate" ->
                      (id, Estimate { tenant = t; query = body; trace })
                  | "batch" ->
                      (id, Batch { tenant = t; queries = body_lines body; trace })
                  | "optimize" ->
                      (id, Optimize { tenant = t; query = body; trace })
                  | _ -> (id, Explain { tenant = t; query = body; trace }))))
  | _ -> Error (Printf.sprintf "bad request header %S" header)

let error_class = function
  | Xerror.Usage _ -> "usage"
  | Xerror.Parse (Xerror.Xml, _) -> "parse-xml"
  | Xerror.Parse (Xerror.Path, _) -> "parse-path"
  | Xerror.Parse (Xerror.Twig, _) -> "parse-twig"
  | Xerror.Io _ -> "io"
  | Xerror.Sketch_format _ -> "sketch-format"
  | Xerror.Corrupt _ -> "corrupt"
  | Xerror.Engine _ -> "engine"
  | Xerror.Overload _ -> "overload"

let error_of_class cls msg =
  match cls with
  | "usage" -> Ok (Xerror.Usage msg)
  | "parse-xml" -> Ok (Xerror.Parse (Xerror.Xml, msg))
  | "parse-path" -> Ok (Xerror.Parse (Xerror.Path, msg))
  | "parse-twig" -> Ok (Xerror.Parse (Xerror.Twig, msg))
  | "io" -> Ok (Xerror.Io msg)
  | "sketch-format" -> Ok (Xerror.Sketch_format msg)
  | "corrupt" -> Ok (Xerror.Corrupt msg)
  | "engine" -> Ok (Xerror.Engine msg)
  | "overload" -> Ok (Xerror.Overload msg)
  | _ -> Error (Printf.sprintf "unknown error class %S" cls)

(* error messages may span lines (parser positions, paths); they ride
   in the body with the class on the header line *)
let encode_response ~id resp =
  match resp with
  | Reply "" -> Printf.sprintf "%d ok" id
  | Reply body -> Printf.sprintf "%d ok\n%s" id body
  | Fail e ->
      Printf.sprintf "%d err %s\n%s" id (error_class e) (Xerror.payload e)

let decode_response payload =
  let header, body = split_header payload in
  match String.split_on_char ' ' header with
  | [ id; "ok" ] -> Result.map (fun id -> (id, Reply body)) (parse_id id)
  | [ id; "err"; cls ] ->
      Result.bind (parse_id id) (fun id ->
          Result.map (fun e -> (id, Fail e)) (error_of_class cls body))
  | _ -> Error (Printf.sprintf "bad response header %S" header)

(* ---------------- answers ---------------- *)

type wire_answer = { estimate : float; fallback : bool; reason : string }

let reason_token = function
  | None -> "-"
  | Some Xtwig.Engine.Timeout -> "timeout"
  | Some Xtwig.Engine.Fault -> "fault"
  | Some Xtwig.Engine.Circuit_open -> "circuit-open"
  | Some Xtwig.Engine.Guard -> "guard"

let encode_answer (a : Xtwig.Engine.answer) =
  Printf.sprintf "%h %d %s" a.Xtwig.Engine.estimate
    (if a.Xtwig.Engine.fallback then 1 else 0)
    (reason_token a.Xtwig.Engine.reason)

(* the explain verb's reply body: one [key value] pair per line. The
   first line is the answer in the exact [encode_answer] wire format,
   so an explain reply's estimate is byte-comparable with an estimate
   reply's. *)
let encode_provenance ~backend (a : Xtwig.Engine.answer) =
  let p = a.Xtwig.Engine.provenance in
  String.concat "\n"
    [
      "answer " ^ encode_answer a;
      "backend " ^ backend;
      "tier " ^ Xtwig.Engine.tier_label p.Xtwig.Engine.pv_tier;
      Printf.sprintf "embeddings %d" p.Xtwig.Engine.pv_embeddings;
      Printf.sprintf "retries %d" a.Xtwig.Engine.retries;
      "fallback_reason " ^ reason_token a.Xtwig.Engine.reason;
      Printf.sprintf "elapsed_us %.1f" (a.Xtwig.Engine.elapsed_s *. 1e6);
      Printf.sprintf "trace_id %d" a.Xtwig.Engine.trace_id;
    ]

(* the optimize verb's reply body: the plan's stable line rendering
   ([cost]/[default_cost]/[changed]/[fallback] plus one [order] line
   per reordered node) — byte-comparable with a direct
   [Xtwig.Opt.to_lines] of the same plan, which is the differential
   oracle of the serve tests *)
let encode_plan (p : Xtwig.Opt.plan) = String.concat "\n" (Xtwig.Opt.to_lines p)

(* field lookup in an explain or optimize reply body; [None] when
   absent *)
let provenance_field body key =
  List.find_map
    (fun line ->
      let pfx = key ^ " " in
      let lp = String.length pfx in
      if String.length line >= lp && String.sub line 0 lp = pfx then
        Some (String.sub line lp (String.length line - lp))
      else None)
    (body_lines body)

let decode_answer line =
  match String.split_on_char ' ' line with
  | [ est; fb; reason ] -> (
      match (float_of_string_opt est, fb) with
      | Some estimate, ("0" | "1") ->
          Ok { estimate; fallback = fb = "1"; reason }
      | _ -> Error (Printf.sprintf "bad answer line %S" line))
  | _ -> Error (Printf.sprintf "bad answer line %S" line)

(* ---------------- client ---------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; dec : decoder; rbuf : Bytes.t }

  let wrap_io f =
    match f () with
    | v -> Ok v
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Xerror.Io (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

  let connect sockaddr domain =
    wrap_io (fun () ->
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        (try Unix.connect fd sockaddr
         with e ->
           Unix.close fd;
           raise e);
        { fd; dec = decoder (); rbuf = Bytes.create 65536 })

  let connect_unix path = connect (Unix.ADDR_UNIX path) Unix.PF_UNIX

  let connect_tcp host port =
    match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | [] -> Error (Xerror.Io (Printf.sprintf "cannot resolve %s:%d" host port))
    | ai :: _ -> connect ai.Unix.ai_addr ai.Unix.ai_family

  let send t ~id req =
    let bytes = frame (encode_request ~id req) in
    wrap_io (fun () ->
        let n = String.length bytes in
        let sent = ref 0 in
        while !sent < n do
          sent :=
            !sent + Unix.write_substring t.fd bytes !sent (n - !sent)
        done)

  let rec recv t =
    match next_frame t.dec with
    | Error msg -> Error (Xerror.Io ("protocol: " ^ msg))
    | Ok (Some payload) -> (
        match decode_response payload with
        | Ok r -> Ok r
        | Error msg -> Error (Xerror.Io ("protocol: " ^ msg)))
    | Ok None -> (
        match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
        | 0 -> Error (Xerror.Io "connection closed by server")
        | n ->
            feed t.dec t.rbuf n;
            recv t
        | exception Unix.Unix_error (e, fn, _) ->
            Error (Xerror.Io (Printf.sprintf "%s: %s" fn (Unix.error_message e))))

  let call t ~id req =
    Result.bind (send t ~id req) (fun () ->
        Result.bind (recv t) (fun (rid, resp) ->
            if rid = id then Ok resp
            else
              Error
                (Xerror.Io
                   (Printf.sprintf "response id %d for request %d (pipelined \
                                    requests need send/recv)" rid id))))

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
