module Mesh = Nocmap_noc.Mesh
module Routing = Nocmap_noc.Routing
module Technology = Nocmap_energy.Technology
module Cdcg = Nocmap_model.Cdcg
module Textio = Nocmap_model.Textio
module Json = Nocmap_persist.Json
module Request = Nocmap_mapping.Request

type app =
  | Builtin of string
  | Path of string
  | Inline of string

type model = Request.model = Cwm | Cdcm

type algorithm = Request.algorithm =
  | Sa
  | Local
  | Greedy
  | Greedy_local
  | Random
  | Es
  | Portfolio of Nocmap_mapping.Portfolio.strategy list
  | Decompose of Nocmap_mapping.Decompose.refiner

type budget = Request.budget = Quick | Standard

type t = {
  id : string;
  app : app;
  mesh : Mesh.t;
  routing : Routing.algorithm;
  tech : Technology.t;
  flit_bits : int;
  model : model;
  algorithm : algorithm;
  seed : int;
  budget : budget;
  incremental : bool;
  timeout_ms : int option;
}

(* Job ids become shard keys and reply file names, so the alphabet is
   locked to filesystem-safe characters up front. *)
let max_id_length = 64

let valid_id id =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
    | _ -> false
  in
  String.length id >= 1
  && String.length id <= max_id_length
  && String.for_all ok_char id
  && id.[0] <> '.' && id.[0] <> '-'

let model_to_string = Request.model_to_string
let algorithm_to_string = Request.algorithm_to_string

let app_json = function
  | Builtin name -> Json.Assoc [ ("builtin", Json.Str name) ]
  | Path path -> Json.Assoc [ ("path", Json.Str path) ]
  | Inline text -> Json.Assoc [ ("cdcg", Json.Str text) ]

let to_json t =
  Json.Assoc
    ([
       ("id", Json.Str t.id);
       ("app", app_json t.app);
       ("noc", Json.Str (Mesh.to_string t.mesh));
       ("routing", Json.Str (Routing.algorithm_to_string t.routing));
       ("tech", Json.Str t.tech.Technology.name);
       ("flit", Json.Int t.flit_bits);
       ("model", Json.Str (model_to_string t.model));
       ("algorithm", Json.Str (algorithm_to_string t.algorithm));
     ]
    @ (match t.algorithm with
      | Portfolio strategies ->
        [
          ( "strategies",
            Json.List
              (List.map
                 (fun s ->
                   Json.Str (Nocmap_mapping.Portfolio.strategy_to_string s))
                 strategies) );
        ]
      | Decompose refiner ->
        [
          ( "refiner",
            Json.Str (Nocmap_mapping.Decompose.refiner_to_string refiner) );
        ]
      | Sa | Local | Greedy | Greedy_local | Random | Es -> [])
    @ [
       ("seed", Json.Int t.seed);
       ("budget", Json.Str (Request.budget_to_string t.budget));
       ("incremental", Json.Bool t.incremental);
     ]
    @
    match t.timeout_ms with
    | None -> []
    | Some ms -> [ ("timeout_ms", Json.Int ms) ])

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

(* Typed field accessors that never raise: every shape mismatch is an
   [Error] naming the field, so a hostile spec fails loudly per job and
   can never take the daemon down. *)
let str_field ?default j name =
  match Json.find name j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S: expected a string" name)
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing required field %S" name))

let int_field ~default j name =
  match Json.find name j with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S: expected an integer" name)
  | None -> Ok default

let bool_field ~default j name =
  match Json.find name j with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S: expected a boolean" name)
  | None -> Ok default

let parse_app j =
  match Json.find "app" j with
  | None -> Error "missing required field \"app\""
  | Some app -> (
    match
      (Json.find "builtin" app, Json.find "path" app, Json.find "cdcg" app)
    with
    | Some (Json.Str name), None, None -> Ok (Builtin name)
    | None, Some (Json.Str path), None -> Ok (Path path)
    | None, None, Some (Json.Str text) -> Ok (Inline text)
    | _ ->
      Error
        "field \"app\": expected exactly one of {\"builtin\": name}, \
         {\"path\": file} or {\"cdcg\": text}")

let parse_mesh s =
  match Mesh.of_string s with
  | mesh -> Ok mesh
  | exception Invalid_argument msg -> Error (Printf.sprintf "field \"noc\": %s" msg)
  | exception _ -> Error (Printf.sprintf "field \"noc\": bad NoC size %S" s)

(* A torus on a mesh too narrow to wrap is refused here, at admission,
   not when the job runs. *)
let parse_routing ~mesh s =
  match Routing.algorithm_of_string s with
  | algo -> (
    match Routing.check_mesh mesh algo with
    | Ok () -> Ok algo
    | Error msg -> Error (Printf.sprintf "field \"routing\": %s" msg))
  | exception Invalid_argument msg ->
    Error (Printf.sprintf "field \"routing\": %s" msg)
  | exception _ -> Error (Printf.sprintf "field \"routing\": bad algorithm %S" s)

let fields =
  [
    "id"; "app"; "noc"; "routing"; "tech"; "flit"; "model"; "algorithm";
    "strategies"; "refiner"; "seed"; "budget"; "incremental"; "timeout_ms";
  ]

let of_json j =
  match j with
  | Json.Assoc pairs ->
    (* A misspelt field would otherwise fall back to its default and the
       job would silently run something else. *)
    let* () =
      match List.find_opt (fun (name, _) -> not (List.mem name fields)) pairs with
      | None -> Ok ()
      | Some (name, _) ->
        Error
          (Printf.sprintf "unknown field %S (known fields: %s)" name
             (String.concat ", " fields))
    in
    let* id = str_field j "id" in
    let* () =
      if valid_id id then Ok ()
      else
        Error
          (Printf.sprintf
             "field \"id\": %S is not a valid job id (1-%d characters from \
              [A-Za-z0-9._-], not starting with '.' or '-')"
             id max_id_length)
    in
    let* app = parse_app j in
    let* mesh_s = str_field ~default:"3x3" j "noc" in
    let* mesh = parse_mesh mesh_s in
    let* routing_s = str_field ~default:"xy" j "routing" in
    let* routing = parse_routing ~mesh routing_s in
    let* tech_s = str_field ~default:"0.07um" j "tech" in
    let* tech =
      match Technology.of_name tech_s with
      | Some t -> Ok t
      | None -> Error (Printf.sprintf "field \"tech\": unknown technology %S" tech_s)
    in
    let* flit_bits = int_field ~default:16 j "flit" in
    let* () =
      if flit_bits >= 1 && flit_bits <= 4096 then Ok ()
      else Error (Printf.sprintf "field \"flit\": %d is out of range 1-4096" flit_bits)
    in
    let* model_s = str_field ~default:"cdcm" j "model" in
    let* model = Request.model_of_string model_s in
    let* algorithm_s = str_field ~default:"sa" j "algorithm" in
    let* algorithm = Request.algorithm_of_string algorithm_s in
    let* algorithm =
      match (algorithm, Json.find "strategies" j) with
      | Portfolio _, Some (Json.List entries) -> (
        let names =
          List.filter_map (function Json.Str name -> Some name | _ -> None) entries
        in
        if List.compare_lengths names entries <> 0 then
          Error "field \"strategies\": expected a list of strings"
        else
          let names = String.concat "," names in
          match Nocmap_mapping.Portfolio.strategies_of_string names with
          | Ok strategies -> Ok (Portfolio strategies)
          | Error e -> Error ("field \"strategies\": " ^ e))
      | Portfolio _, Some _ -> Error "field \"strategies\": expected a list of strings"
      | _, Some _ ->
        Error "field \"strategies\": only meaningful with \"algorithm\": \"portfolio\""
      | _, None -> Ok algorithm
    in
    let* algorithm =
      match (algorithm, Json.find "refiner" j) with
      | Decompose _, Some (Json.Str name) -> (
        match Nocmap_mapping.Decompose.refiner_of_string name with
        | Some r -> Ok (Decompose r)
        | None ->
          Error
            (Printf.sprintf
               "field \"refiner\": unknown refiner %S (want sa, tabu or local)" name))
      | Decompose _, Some _ -> Error "field \"refiner\": expected a string"
      | _, Some _ ->
        Error "field \"refiner\": only meaningful with \"algorithm\": \"decompose\""
      | _, None -> Ok algorithm
    in
    let* seed = int_field ~default:1 j "seed" in
    let* budget_s = str_field ~default:"standard" j "budget" in
    let* budget = Request.budget_of_string budget_s in
    let* incremental = bool_field ~default:false j "incremental" in
    let* () =
      if incremental && model <> Cdcm then
        Error "field \"incremental\": requires \"model\": \"cdcm\""
      else Ok ()
    in
    let* timeout_ms =
      match Json.find "timeout_ms" j with
      | None | Some Json.Null -> Ok None
      | Some (Json.Int ms) when ms >= 0 -> Ok (Some ms)
      | Some (Json.Int ms) ->
        Error (Printf.sprintf "field \"timeout_ms\": %d is negative" ms)
      | Some _ -> Error "field \"timeout_ms\": expected an integer"
    in
    Ok
      {
        id;
        app;
        mesh;
        routing;
        tech;
        flit_bits;
        model;
        algorithm;
        seed;
        budget;
        incremental;
        timeout_ms;
      }
  | _ -> Error "job spec must be a JSON object"

let max_spec_bytes = 1024 * 1024

let of_string text =
  if String.length text > max_spec_bytes then
    Error
      (Printf.sprintf "job spec too large (%d bytes, limit %d)"
         (String.length text) max_spec_bytes)
  else
    match Json.of_string text with
    | Error e -> Error ("malformed JSON: " ^ e)
    | Ok j -> (
      match of_json j with
      | (Ok _ | Error _) as r -> r
      | exception e -> Error ("invalid job spec: " ^ Printexc.to_string e))

let resolve_app t =
  let* cdcg =
    match t.app with
    | Builtin name -> (
      match Nocmap_apps.Catalog.find name with
      | Some cdcg -> Ok cdcg
      | None -> Error (Printf.sprintf "unknown built-in application %S" name))
    | Path path -> Textio.load_cdcg ~path
    | Inline text -> Textio.cdcg_of_string text
  in
  let cores = Cdcg.core_count cdcg in
  let tiles = Mesh.tile_count t.mesh in
  if cores > tiles then
    Error
      (Printf.sprintf "%d cores do not fit on %s" cores (Mesh.to_string t.mesh))
  else Ok cdcg

let to_request t =
  let* cdcg = resolve_app t in
  let { mesh; routing; tech; flit_bits; model; algorithm; seed; budget; incremental; _ } =
    t
  in
  Ok
    { Request.cdcg; mesh; routing; tech; flit_bits; model; algorithm; seed;
      budget; incremental; cache = true }
