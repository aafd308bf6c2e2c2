module Xerror = Xtwig_util.Xerror
module Doc = Xtwig_xml.Doc
module Sketch = Xtwig_sketch.Sketch
module Sketch_io = Xtwig_sketch.Sketch_io
module Est = Xtwig_sketch.Estimator
module Xbuild = Xtwig_sketch.Xbuild

type doc = Doc.t
type twig = Xtwig_path.Path_types.twig

module type S = sig
  type t

  val name : string
  val build : ?budget:int -> ?seed:int -> doc -> (t, Xerror.t) result
  val load : doc -> string -> (t, Xerror.t) result
  val estimate : t -> twig -> float
  val coarse : t -> twig -> float
  val size_bytes : t -> int
  val sketch : t -> Sketch.t option
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let name_of (Instance ((module M), _)) = M.name
let estimate (Instance ((module M), v)) q = M.estimate v q
let coarse (Instance ((module M), v)) q = M.coarse v q
let size_bytes (Instance ((module M), v)) = M.size_bytes v
let sketch (Instance ((module M), v)) = M.sketch v

(* ------------------------------------------------------------------ *)
(* XSKETCH: the paper's estimator, behind the generic surface every
   other backend uses. Its [estimate] keeps no caches: it enumerates
   the twig's embeddings and compiles, runs and drops a plan for each
   ([Estimator.estimate]). An engine session over an instance that
   exposes its [sketch] answers from its own table of plans and
   recorded answers instead (DESIGN.md §12), and takes only [coarse],
   the name and the size from here. *)

module Xsketch = struct
  (* The label-split floor is built on its first use: [Xtwig.optimize]
     wraps a sketch in a new instance per call and never degrades, and
     a session opened or updated over a sketch may never degrade, so an
     eager floor would cost each of them a build. A pooled session
     degrades on several domains at once, and a domain that forces a
     lazy value another domain is forcing gets [Lazy.Undefined], so the
     instance's own mutex serializes the force. *)
  type t = { sk : Sketch.t; coarse_sk : Sketch.t Lazy.t; coarse_lock : Mutex.t }

  let name = "xsketch"

  let wrap sk =
    {
      sk;
      coarse_sk = lazy (Sketch.default_of_doc (Sketch.doc sk));
      coarse_lock = Mutex.create ();
    }

  let build ?(budget = 8192) ?(seed = 42) doc =
    if budget <= 0 then Error (Xerror.Usage "budget must be positive")
    else
      match Xbuild.build ~seed ~budget doc with
      | sk -> Ok (wrap sk)
      | exception e ->
          Error (Xerror.Engine ("xbuild failed: " ^ Printexc.to_string e))

  let load doc path = Result.map (fun (_, sk) -> wrap sk) (Sketch_io.read_res doc path)
  let estimate t q = Est.estimate t.sk q
  let coarse t q =
    Est.estimate (Mutex.protect t.coarse_lock (fun () -> Lazy.force t.coarse_sk)) q
  let size_bytes t = Sketch.size_bytes t.sk
  let sketch t = Some t.sk
end

module Cst = struct
  type t = Xtwig_cst.Cst.t

  let name = "cst"

  let build ?(budget = 8192) ?seed doc =
    ignore seed;
    if budget <= 0 then Error (Xerror.Usage "budget must be positive")
    else
      match Xtwig_cst.Cst.build ~budget_bytes:budget doc with
      | t -> Ok t
      | exception e ->
          Error (Xerror.Engine ("cst build failed: " ^ Printexc.to_string e))

  let load _doc _path =
    Error (Xerror.Sketch_format "the cst backend has no persistent format")

  let estimate t q = Xtwig_cst.Cst.estimate t q

  (* the trie estimate is already O(query); it is its own floor *)
  let coarse t q = try Xtwig_cst.Cst.estimate t q with _ -> 0.0
  let size_bytes t = Xtwig_cst.Cst.size_bytes t
  let sketch _ = None
end

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry : (string, (module S)) Hashtbl.t = Hashtbl.create 8
let order : string list ref = ref []

let register (module M : S) =
  let key = String.lowercase_ascii M.name in
  if not (Hashtbl.mem registry key) then order := !order @ [ key ];
  Hashtbl.replace registry key (module M : S)

let () =
  register (module Xsketch);
  register (module Cst)

let backends () = List.filter_map (Hashtbl.find_opt registry) !order
let names () = !order

let find name =
  match Hashtbl.find_opt registry (String.lowercase_ascii name) with
  | Some m -> Ok m
  | None ->
      Error
        (Xerror.Usage
           (Printf.sprintf "unknown backend %S (known: %s)" name
              (String.concat ", " (names ()))))

let build (module M : S) ?budget ?seed doc =
  Result.map (fun v -> Instance ((module M), v)) (M.build ?budget ?seed doc)

let load (module M : S) doc path =
  Result.map (fun v -> Instance ((module M), v)) (M.load doc path)

let of_sketch sk = Instance ((module Xsketch), Xsketch.wrap sk)
