(** The xtwigd wire protocol: framing, request/response codec, and a
    small blocking client.

    {2 Framing}

    A frame is a 4-byte big-endian payload length followed by that
    many bytes of UTF-8 text. Frames larger than {!max_frame} are a
    protocol error — the peer closes the connection rather than
    buffer unboundedly. The incremental {!decoder} turns a TCP byte
    stream back into complete payloads.

    {2 Payloads}

    A request payload is a header line
    [<id> <verb> [<tenant>] [trace=<n>]] followed by an optional body
    ([estimate]/[explain]: one query line; [batch]: one query per
    line). [id] is an arbitrary nonnegative integer the client uses to
    match responses to requests — the server echoes it verbatim, and
    per-tenant responses can overtake each other across tenants, so
    clients must not assume ordering.

    The optional trailing [trace=<n>] token is the client's trace
    context: the server threads it connection → tenant queue → batch →
    {!Xtwig.Engine.estimate_batch}, so the request's server-side spans
    ([serve.queue_wait], [serve.batch], [engine.query], [plan.*])
    carry the client's id in one Chrome trace. Without the token the
    wire format is byte-identical to the pre-trace protocol.

    A response payload is [<id> ok] followed by the body, or
    [<id> err <class> <message>] where [class] is the stable token of
    the {!Xtwig.Xerror} constructor ({!error_class}) — a shed request
    under overload is [err overload ...], a well-formed, typed answer,
    never a closed socket.

    {2 Answers on the wire}

    Each estimate travels as [<estimate> <fallback> <reason>] where
    [estimate] is the hexadecimal float literal ([%h]) of the engine's
    answer — decoding it yields the {e bit-identical} float, which is
    what lets the differential tests compare served answers against
    direct {!Xtwig.Engine} calls byte for byte. *)

type update_op =
  | Ins of { parent : int; fragment_xml : string }
      (** graft the parsed fragment as a new last child of [parent] *)
  | Del of int  (** remove the subtree rooted at this node *)

type request =
  | Ping
  | List  (** one body line per tenant: [name generation backend bytes] *)
  | Metrics  (** body = the Prometheus rendering of the registry *)
  | Stats of string  (** body = [key value] lines of {!Xtwig.Engine.stats} *)
  | Reload of string
      (** re-open the tenant's engine from its source files; body =
          the new generation number. Acts as an ordering barrier in
          the tenant's queue. *)
  | Update of { tenant : string; op : update_op }
      (** apply a subtree insert/delete to the tenant's document and
          swap in the incrementally maintained sketch
          ({!Xtwig.update_session}); body = the new generation number.
          Wire body: [insert <parent>] followed by the fragment XML on
          the remaining lines, or [delete <node>]. Barriers the
          tenant's queue exactly like [Reload]. *)
  | Estimate of { tenant : string; query : string; trace : int option }
  | Batch of { tenant : string; queries : string list; trace : int option }
  | Explain of { tenant : string; query : string; trace : int option }
      (** one query, answered with its provenance (plan tier, embedding
          count, retries, fallback reason) — see {!encode_provenance} *)
  | Optimize of { tenant : string; query : string; trace : int option }
      (** one query, answered with its cost-based branch-order plan —
          see {!encode_plan} *)

type response = Reply of string | Fail of Xtwig.Xerror.t

val max_frame : int
(** 16 MiB. *)

val frame : string -> string
(** [frame payload] is the wire bytes: length prefix + payload.
    Raises [Invalid_argument] on payloads over {!max_frame} (a local
    programming error, not a peer input). *)

(** {1 Incremental frame decoding} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf]. *)

val next_frame : decoder -> (string option, string) result
(** [Ok (Some payload)] per complete frame (call repeatedly),
    [Ok None] when more bytes are needed, [Error _] on an oversized
    length prefix — the connection is poisoned and must be closed. *)

(** {1 Codec} *)

val encode_request : id:int -> request -> string
val decode_request : string -> (int * request, string) result
val encode_response : id:int -> response -> string
val decode_response : string -> (int * response, string) result

val error_class : Xtwig.Xerror.t -> string
(** [usage], [parse-xml], [parse-path], [parse-twig], [io],
    [sketch-format], [corrupt], [engine] or [overload]. *)

type wire_answer = { estimate : float; fallback : bool; reason : string }
(** [reason] is [-] when the answer did not degrade, else [timeout],
    [fault], [circuit-open] or [guard]. *)

val encode_answer : Xtwig.Engine.answer -> string
val decode_answer : string -> (wire_answer, string) result

val encode_provenance : backend:string -> Xtwig.Engine.answer -> string
(** The [explain] reply body, printed from the answer's provenance
    and the session's backend name: one [key value] pair per line —
    [answer] (in the {!encode_answer} wire format, so estimates stay
    byte-comparable), [backend], [tier] ({!Xtwig.Engine.tier_label}:
    [cache_hit], [fresh_compile] or [backend]), [embeddings],
    [retries], [fallback_reason], [elapsed_us],
    [trace_id]. *)

val encode_plan : Xtwig.Opt.plan -> string
(** The [optimize] reply body: {!Xtwig.Opt.to_lines} joined with
    newlines — [cost], [default_cost], [changed], [fallback], then one
    [order <node> <i...>] line per reordered twig node. Byte-equal to
    rendering the same plan locally, so served plans diff cleanly
    against direct {!Xtwig.optimize} calls. *)

val provenance_field : string -> string -> string option
(** [provenance_field body key] is the value of [key] in an explain
    (or optimize) reply body, if present. *)

(** {1 Client}

    A blocking client for tests, the load generator and operators.
    One thread may send while another receives (the open-loop bench
    does exactly that); two threads must not share a direction. *)

module Client : sig
  type t

  val connect_unix : string -> (t, Xtwig.Xerror.t) result
  val connect_tcp : string -> int -> (t, Xtwig.Xerror.t) result

  val send : t -> id:int -> request -> (unit, Xtwig.Xerror.t) result

  val recv : t -> (int * response, Xtwig.Xerror.t) result
  (** Blocks for the next complete response frame. [Xerror.Io] on
      EOF or a malformed frame. *)

  val call : t -> id:int -> request -> (response, Xtwig.Xerror.t) result
  (** [send] then [recv], checking the echoed id. Only valid when no
      other requests are in flight on this client. *)

  val close : t -> unit
end
