module Xerror = Xtwig.Xerror
module Engine = Xtwig.Engine

let ( let* ) = Result.bind

type source = {
  doc_path : string;
  sketch_path : string option;
  backend : string;
  budget : int;
  seed : int;
}

let source ?sketch_path ?(backend = "xsketch") ?(budget = 8192) ?(seed = 42)
    doc_path =
  { doc_path; sketch_path; backend; budget; seed }

type tenant = {
  name : string;
  src : source;
  mutable doc : Xtwig.doc;
  mutable engine : Engine.t;
  mutable generation : int;
}

let tenant_name t = t.name
let tenant_generation t = t.generation
let engine t = t.engine
let tenant_doc t = t.doc

type t = {
  jobs : int;
  timeout_s : float;
  tenants : (string, tenant) Hashtbl.t;
  order : string list;
}

(* build-or-load the tenant's session from its source files; shared by
   the initial load and every reload *)
let open_session ~jobs ~timeout_s ~name src =
  let* doc = Xtwig.doc_of_file src.doc_path in
  let* inst =
    match src.sketch_path with
    | Some p -> Xtwig.load_backend ~backend:src.backend doc p
    | None ->
        Xtwig.build_backend ~backend:src.backend ~budget:src.budget
          ~seed:src.seed doc
  in
  let* eng = Xtwig.open_backend_session ~name ~jobs ~timeout_s inst in
  Ok (doc, eng)

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       n

let create ?(jobs = 1) ?(timeout_s = 5.0) specs =
  let tenants = Hashtbl.create 16 in
  let close_all () =
    Hashtbl.iter (fun _ t -> Engine.close t.engine) tenants
  in
  let rec load = function
    | [] -> Ok ()
    | (name, src) :: rest ->
        let* () =
          if not (valid_name name) then
            Error (Xerror.Usage ("bad tenant name " ^ name))
          else if Hashtbl.mem tenants name then
            Error (Xerror.Usage ("duplicate tenant " ^ name))
          else Ok ()
        in
        let* doc, engine = open_session ~jobs ~timeout_s ~name src in
        Hashtbl.add tenants name { name; src; doc; engine; generation = 1 };
        load rest
  in
  match load specs with
  | Ok () -> Ok { jobs; timeout_s; tenants; order = List.map fst specs }
  | Error e ->
      close_all ();
      Error e

let names t = t.order

let find t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> Ok tn
  | None ->
      Error
        (Xerror.Usage
           (Printf.sprintf "unknown tenant %s (have: %s)" name
              (String.concat ", " t.order)))

let update t name delta =
  let* tn = find t name in
  (* the engine swaps its core only on success, so a failed update
     leaves the tenant serving its current document *)
  let* () = Engine.update tn.engine delta in
  tn.doc <- Xtwig.sketch_doc (Engine.sketch tn.engine);
  tn.generation <- tn.generation + 1;
  Ok tn.generation

let reload t name =
  let* tn = find t name in
  (* open the replacement first: any failure leaves the live engine
     untouched and still serving *)
  let* doc, fresh =
    open_session ~jobs:t.jobs ~timeout_s:t.timeout_s ~name tn.src
  in
  let old = tn.engine in
  tn.doc <- doc;
  tn.engine <- fresh;
  tn.generation <- tn.generation + 1;
  Engine.close old;
  Ok tn.generation

let close t = Hashtbl.iter (fun _ tn -> Engine.close tn.engine) t.tenants
