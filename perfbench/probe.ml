(* probe: the in-process half of the benchmark driven by run.py.

     probe check ITEMS
       Re-evaluates every placement a run returned, one JSON item per
       line of ITEMS, and prints one verdict per line.
     probe trace (map | serve) DIR LIST
       Replays the fixed job list LIST in this process, timing the calls
       into each layer's public functions, and prints one JSON object of
       per-layer values.  Spans (name, start, end, parent, job) are kept
       in memory and written to DIR/spans.json at the end.

   The map replay builds objectives exactly as `nocmap map` does, so
   its placements and evaluation counts must equal the binary's; run.py
   checks that.  Floats that must compare bit-for-bit travel as
   hexadecimal literals. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Textio = Nocmap_model.Textio
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Mapping = Nocmap_mapping
module Metrics = Nocmap_obs.Metrics
module Json = Nocmap_persist.Json
module Journal = Nocmap_persist.Journal
module Job_spec = Nocmap_serve.Job_spec
module Engine = Nocmap_serve.Engine

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("probe: " ^ s);
      exit 2)
    fmt

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let parse line =
  match Json.of_string line with Ok j -> j | Error e -> die "bad JSON line: %s" e

let str name j = Json.to_str (Json.get name j)
let int name j = Json.to_int (Json.get name j)
let hex f = Json.Str (Printf.sprintf "%h" f)

(* The `nocmap map` defaults the benchmark relies on. *)
let tech =
  match Technology.of_name "0.07um" with Some t -> t | None -> die "no 0.07um technology"

let params = Noc_params.make ~flit_bits:16 ()
let xy = Routing.algorithm_of_string "xy"

let load_app path =
  match Textio.load_cdcg ~path with Ok c -> c | Error e -> failwith e

let placement_json p = Json.List (Array.to_list (Array.map (fun t -> Json.Int t) p))

let valid_placement ~cdcg ~mesh p =
  Array.length p = Cdcg.core_count cdcg
  && Mapping.Placement.is_valid ~tiles:(Mesh.tile_count mesh) p

(* ------------------------------------------------------------------ *)
(* check                                                               *)

(* `nocmap map` prints its evaluation through [pp_evaluation], so the
   re-evaluation must print the same line. *)
let check_map item =
  let cdcg = load_app (str "app" item) in
  let mesh = Mesh.of_string (str "noc" item) in
  match
    Mapping.Placement_io.load ~path:(str "placement" item)
      ~core_names:cdcg.Cdcg.core_names
  with
  | Error e -> Error e
  | Ok (saved, _) when Mesh.to_string saved <> Mesh.to_string mesh ->
    Error "placement saved for another mesh"
  | Ok (_, p) when not (valid_placement ~cdcg ~mesh p) ->
    Error "placement is not a valid permutation"
  | Ok (_, p) ->
    let crg = Crg.create ~routing:xy mesh in
    let ev = Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg p in
    let shown = Format.asprintf "%a" Mapping.Cost_cdcm.pp_evaluation ev in
    let reported = str "reported" item in
    if shown <> reported then
      Error (Printf.sprintf "reported %S, re-evaluated %S" reported shown)
    else Ok (p, ev)

(* A serve reply carries exact (hex) floats: every field must be
   bit-equal to a fresh evaluation of the returned placement. *)
let check_serve item =
  match Job_spec.of_string (str "spec" item) with
  | Error e -> Error ("spec: " ^ e)
  | Ok spec -> (
    let reply = parse (str "reply" item) in
    match Json.find "status" reply with
    | Some (Json.Str "done") -> (
      let result = Json.get "result" reply in
      match Job_spec.resolve_app spec with
      | Error e -> Error e
      | Ok cdcg ->
        let p = Mapping.Search_persist.placement_of_json (Json.get "placement" result) in
        if not (valid_placement ~cdcg ~mesh:spec.Job_spec.mesh p) then
          Error "placement is not a valid permutation"
        else begin
          let crg = Crg.create ~routing:spec.Job_spec.routing spec.Job_spec.mesh in
          let params = Noc_params.make ~flit_bits:spec.Job_spec.flit_bits () in
          let ev =
            Mapping.Cost_cdcm.evaluate ~tech:spec.Job_spec.tech ~params ~crg ~cdcg p
          in
          let energy = Json.get "energy" result in
          let fields =
            [
              ("energy.dynamic_j", Json.get "dynamic_j" energy, Json.float_ ev.dynamic);
              ("energy.static_j", Json.get "static_j" energy, Json.float_ ev.static_);
              ("energy.total_j", Json.get "total_j" energy, Json.float_ ev.total);
              ("texec_ns", Json.get "texec_ns" result, Json.float_ ev.texec_ns);
              ("texec_cycles", Json.get "texec_cycles" result, Json.Int ev.texec_cycles);
            ]
          in
          match
            List.find_opt
              (fun (_, got, want) -> Json.to_string got <> Json.to_string want)
              fields
          with
          | Some (name, got, want) ->
            Error
              (Printf.sprintf "%s: reported %s, re-evaluated %s" name
                 (Json.to_string got) (Json.to_string want))
          | None -> Ok (p, ev)
        end)
    | Some status -> Error ("job ended with status " ^ Json.to_string status)
    | None -> Error "reply has no status")

let check items =
  List.iter
    (fun line ->
      let verdict =
        match
          let item = parse line in
          match str "kind" item with
          | "map" -> check_map item
          | "serve" -> check_serve item
          | other -> Error ("unknown item kind " ^ other)
        with
        | v -> v
        | exception e -> Error (Printexc.to_string e)
      in
      let fields =
        match verdict with
        | Ok (p, ev) ->
          [
            ("ok", Json.Bool true);
            ("placement", placement_json p);
            ("total_j", hex ev.Mapping.Cost_cdcm.total);
            ("texec_ns", hex ev.Mapping.Cost_cdcm.texec_ns);
          ]
        | Error why -> [ ("ok", Json.Bool false); ("why", Json.Str why) ]
      in
      print_endline (Json.to_string (Json.Assoc fields)))
    (read_lines items)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* -1 for a root *)
  job : string;
}

let spans = ref []
let next_span = ref 0

(* [span name f] times [f id]; [id] parents the spans [f] opens. *)
let span ?(parent = -1) ?(job = "") name f =
  let id = !next_span in
  incr next_span;
  let start = now () in
  let r = f id in
  spans := { id; name; start; stop = now (); parent; job } :: !spans;
  r

let write_spans ~dir =
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  let oc = open_out (Filename.concat dir "spans.json") in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\":%d,\"name\":%s,\"start\":%.7f,\"end\":%.7f,\"parent\":%d,\"job\":%s}\n"
        (if i = 0 then "" else ",")
        s.id (Json.to_string (Json.Str s.name)) (s.start -. origin) (s.stop -. origin)
        s.parent (Json.to_string (Json.Str s.job)))
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    !spans

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Mean seconds per call of [f], repeated until [budget] seconds. *)
let time_per_call ?(budget = 0.02) f =
  let t0 = now () in
  let n = ref 0 in
  while !n < 3 || now () -. t0 < budget do
    f ();
    incr n
  done;
  (now () -. t0) /. float_of_int !n

let counter name =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Counter n when s.Metrics.name = name -> n
      | _ -> acc)
    0 (Metrics.snapshot ())

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Timed cost closures, one accumulator per domain                     *)

(* CWM objectives have no bound_fn, so only cost_fn is wrapped. *)
type acc = {
  mutable calls : int;
  mutable seconds : float;
}

let accs = ref []
let accs_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = { calls = 0; seconds = 0. } in
      Mutex.protect accs_lock (fun () -> accs := a :: !accs);
      a)

let timed (o : Mapping.Objective.t) =
  let cost_fn p =
    let a = Domain.DLS.get acc_key in
    let t0 = now () in
    let c = o.Mapping.Objective.cost_fn p in
    a.seconds <- a.seconds +. (now () -. t0);
    a.calls <- a.calls + 1;
    c
  in
  { o with Mapping.Objective.cost_fn }

let acc_totals () =
  List.fold_left (fun (n, s) a -> (n + a.calls, s +. a.seconds)) (0, 0.) !accs

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type out = {
  mutable values : (string * float) list;
  mutable results : Json.t list;
}

let out = { values = []; results = [] }
let set name v = out.values <- (name, v) :: out.values

let print_out ~jobs ~lanes ~pass_wall ~job_ms =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"values\":{";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s%s:%.17g" (if i = 0 then "" else ",")
        (Json.to_string (Json.Str k))
        (if Float.is_finite v then v else 0.))
    (List.rev out.values);
  Printf.bprintf b "},\"jobs\":%d,\"lanes\":%d,\"pass_wall_s\":%.9f,\"job_ms\":[%s],\"results\":[%s]}"
    jobs lanes pass_wall
    (String.concat "," (List.map (Printf.sprintf "%.6f") job_ms))
    (String.concat "," (List.rev_map Json.to_string out.results));
  print_endline (Buffer.contents b)

(* Layers a workload bypasses still report, as 0. *)
let zero names = List.iter (fun n -> set n 0.) names

let search_counters ~jobs =
  let per_job n = float_of_int n /. float_of_int (max 1 jobs) in
  let hits = counter "cache.hits" + counter "cache.bound_hits" in
  let lookups = hits + counter "cache.misses" in
  let delta = counter "sim.incremental.delta_hits" in
  let fallbacks = counter "sim.incremental.full_sim_fallbacks" in
  set "mapping.cache_hit_ratio" (ratio hits lookups);
  set "mapping.cache_lookups" (per_job lookups);
  set "mapping.incremental_delta_hit_ratio" (ratio delta (delta + fallbacks));
  set "mapping.incremental_queries" (per_job (delta + fallbacks));
  set "mapping.incremental_fallbacks" (per_job fallbacks);
  set "sim.runs" (per_job (counter "sim.runs"));
  set "sim.runs_truncated" (per_job (counter "sim.runs_truncated"));
  set "sim.events_processed" (per_job (counter "sim.events_processed"));
  set "persist.appends" (per_job (counter "persist.snapshots"));
  set "persist.bytes" (per_job (counter "persist.bytes"))

(* ------------------------------------------------------------------ *)
(* map replay                                                          *)

type finished = {
  f_cdcg : Cdcg.t;
  f_crg : Crg.t;
  f_placement : Mapping.Placement.t;
}

(* `nocmap map --model cwm --algorithm decompose --jobs 2`, objective
   for objective. *)
let trace_map ~dir list =
  let items = List.map parse (read_lines list) in
  let lanes = 2 in
  let finished = ref [] in
  let search_wall = ref 0. and search_cpu = ref 0. in
  Metrics.reset ();
  Metrics.set_enabled true;
  let pass_start = now () in
  span "pass" (fun pass ->
      List.iter
        (fun item ->
          let job = str "id" item in
          span ~parent:pass ~job "job" (fun parent ->
              let sp name f = span ~parent ~job name (fun _ -> f ()) in
              let cdcg = sp "model.app_load" (fun () -> load_app (str "app" item)) in
              let mesh = Mesh.of_string (str "noc" item) in
              let crg = sp "noc.crg_create" (fun () -> Crg.create ~routing:xy mesh) in
              let cwg = Cwg.of_cdcg cdcg in
              let tiles = Mesh.tile_count mesh and cores = Cdcg.core_count cdcg in
              let rng = Rng.create ~seed:(int "seed" item) in
              let symmetry =
                sp "noc.symmetry_of_crg" (fun () -> Symmetry.of_crg ~level:Symmetry.Hops crg)
              in
              let base () = Mapping.Objective.cwm ~tech ~crg ~cwg in
              let cache ?support symmetry =
                Mapping.Eval_cache.create ~symmetry ~cores ?support ~discriminator:"cwm" ()
              in
              let region_objective_for ~cores:support ~tiles:_ =
                timed
                  (Mapping.Objective.with_cache
                     (cache ~support (Symmetry.identity_only mesh))
                     (base ()))
              in
              let config = Mapping.Decompose.default_config ~tiles in
              let c0 = cpu () and w0 = now () in
              let result =
                sp "mapping.search" (fun () ->
                    Domain_pool.with_pool ~jobs:lanes (fun pool ->
                        (Mapping.Decompose.search ~rng ~config ~crg ~cwg
                           ~objective_for:(fun () ->
                             timed (Mapping.Objective.with_cache (cache symmetry) (base ())))
                           ~region_objective_for ~pool ())
                          .Mapping.Decompose.result))
              in
              search_wall := !search_wall +. (now () -. w0);
              search_cpu := !search_cpu +. (cpu () -. c0);
              let p = result.Mapping.Objective.placement in
              let ev =
                sp "sim.final_evaluate" (fun () ->
                    Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg p)
              in
              finished := { f_cdcg = cdcg; f_crg = crg; f_placement = p } :: !finished;
              out.results <-
                Json.Assoc
                  [
                    ("id", Json.Str job);
                    ("placement", placement_json p);
                    ("evaluations", Json.Int result.Mapping.Objective.evaluations);
                    ("total_j", hex ev.Mapping.Cost_cdcm.total);
                  ]
                :: out.results))
        items);
  let pass_wall = now () -. pass_start in
  Metrics.set_enabled false;
  let jobs = List.length items in
  let per_job x = x /. float_of_int (max 1 jobs) in
  search_counters ~jobs;
  let cost_n, cost_s = acc_totals () in
  set "mapping.cost_calls" (per_job (float_of_int cost_n));
  set "mapping.cost_us" (if cost_n = 0 then 0. else cost_s /. float_of_int cost_n *. 1e6);
  (* Per-domain call time is CPU-parallel: spread it over the lanes. *)
  set "mapping.search_self_ms"
    (per_job (Float.max 0. (!search_wall -. (cost_s /. float_of_int lanes))) *. 1e3);
  set "mapping.evaluations"
    (per_job
       (float_of_int
          (List.fold_left
             (fun acc r -> acc + Json.to_int (Json.get "evaluations" r))
             0 out.results)));
  set "model.app_load_ms" (mean (durations "model.app_load") *. 1e3);
  set "noc.crg_create_ms" (mean (durations "noc.crg_create") *. 1e3);
  set "noc.symmetry_of_crg_ms" (mean (durations "noc.symmetry_of_crg") *. 1e3);
  set "noc.symmetry_builds" 1.;
  set "util.pool_cpu_ratio" (!search_cpu /. (!search_wall *. float_of_int lanes));
  (* Side measurements, outside the pass wall. *)
  span "side" (fun side ->
      set "sim.run_us"
        (mean
           (List.map
              (fun f ->
                span ~parent:side "sim.run" (fun _ ->
                    time_per_call (fun () ->
                        ignore
                          (Mapping.Cost_cdcm.evaluate ~tech ~params ~crg:f.f_crg
                             ~cdcg:f.f_cdcg f.f_placement)))
                *. 1e6)
              !finished));
      List.iter
        (fun f ->
          let mesh = Crg.mesh f.f_crg in
          let config = Mapping.Decompose.default_config ~tiles:(Mesh.tile_count mesh) in
          span ~parent:side "mapping.decompose_partition" (fun _ ->
              ignore
                (Mapping.Decompose.partition ~cwg:(Cwg.of_cdcg f.f_cdcg) ~mesh
                   ~max_region:config.Mapping.Decompose.max_region
                   ~kl_passes:config.Mapping.Decompose.kl_passes ())))
        !finished;
      set "mapping.decompose_partition_ms"
        (mean (durations "mapping.decompose_partition") *. 1e3));
  zero
    [
      "serve.spec_parse_us"; "serve.submit_us"; "serve.run_ms"; "persist.append_us";
      "persist.sync_ms"; "serve.shared_cache_reuse_ratio";
    ];
  write_spans ~dir;
  let job_ms =
    List.filter_map
      (fun s -> if s.name = "job" then Some ((s.stop -. s.start) *. 1e3) else None)
      (List.rev !spans)
  in
  print_out ~jobs ~lanes ~pass_wall ~job_ms

(* ------------------------------------------------------------------ *)
(* serve replay                                                        *)

(* The engine's shared-cache key (see Engine.cache_for): jobs with the
   same key reuse one symmetry group and evaluation cache. *)
let shape_key (s : Job_spec.t) ~cores =
  String.concat "|"
    [
      Mesh.to_string s.Job_spec.mesh; Job_spec.model_to_string s.Job_spec.model;
      s.Job_spec.tech.Technology.name; string_of_int s.Job_spec.flit_bits;
      Routing.algorithm_to_string s.Job_spec.routing; string_of_bool s.Job_spec.incremental;
      string_of_int cores;
    ]

let trace_serve ~dir list =
  let lines = List.map (fun l -> str "spec" (parse l)) (read_lines list) in
  let specs =
    List.map
      (fun l ->
        match Job_spec.of_string l with
        | Ok s -> s
        | Error e -> die "spec rejected: %s" e)
      lines
  in
  let completed = Hashtbl.create 64 in
  let failures = ref 0 in
  let emit = function
    | Engine.Completed { id; result; _ } -> Hashtbl.replace completed id result
    | Engine.Failed _ | Engine.Rejected _ | Engine.Shed _ -> incr failures
    | Engine.Accepted _ | Engine.Started _ | Engine.Retrying _ -> ()
  in
  let engine =
    match Engine.create ~emit ~dir:(Filename.concat dir "probe-state") () with
    | Ok e -> e
    | Error e -> die "%s" e
  in
  let run_wall = ref 0. and run_cpu = ref 0. in
  let job_ms = ref [] in
  Metrics.reset ();
  Metrics.set_enabled true;
  let pass_start = now () in
  span "pass" (fun pass ->
      List.iter2
        (fun line (spec : Job_spec.t) ->
          let job = spec.Job_spec.id in
          span ~parent:pass ~job "job" (fun parent ->
              let t0 = now () in
              (match
                 span ~parent ~job "serve.submit" (fun _ ->
                     Engine.submit engine ~source:"probe" line)
               with
              | Engine.Submitted -> ()
              | _ -> incr failures);
              let c0 = cpu () and w0 = now () in
              span ~parent ~job "serve.run" (fun _ -> Engine.run_pending engine);
              run_wall := !run_wall +. (now () -. w0);
              run_cpu := !run_cpu +. (cpu () -. c0);
              job_ms := ((now () -. t0) *. 1e3) :: !job_ms))
        lines specs);
  let pass_wall = now () -. pass_start in
  Metrics.set_enabled false;
  let appends = counter "persist.snapshots" and bytes = counter "persist.bytes" in
  Engine.close engine;
  let jobs = List.length specs in
  search_counters ~jobs;
  set "serve.submit_us" (mean (durations "serve.submit") *. 1e6);
  set "serve.run_ms" (mean (durations "serve.run") *. 1e3);
  set "util.pool_cpu_ratio" (if !run_wall > 0. then !run_cpu /. !run_wall else 0.);
  let evaluations = ref 0 and placements = ref [] in
  List.iter
    (fun (spec : Job_spec.t) ->
      match Hashtbl.find_opt completed spec.Job_spec.id with
      | None -> incr failures
      | Some result ->
        let p = Mapping.Search_persist.placement_of_json (Json.get "placement" result) in
        let n = Json.to_int (Json.get "evaluations" result) in
        evaluations := !evaluations + n;
        placements := (spec, p) :: !placements;
        out.results <-
          Json.Assoc
            [
              ("id", Json.Str spec.Job_spec.id);
              ("placement", placement_json p);
              ("evaluations", Json.Int n);
              ("total_j", Json.get "total_j" (Json.get "energy" result));
            ]
          :: out.results)
    specs;
  set "mapping.evaluations" (float_of_int !evaluations /. float_of_int (max 1 jobs));
  (* The wrapped closures live inside the engine, out of reach. *)
  zero
    [
      "mapping.cost_calls"; "mapping.cost_us"; "mapping.search_self_ms";
      "mapping.decompose_partition_ms";
    ];
  (* Side measurements: the same public functions the engine calls,
     timed outside the pass. *)
  let cdcgs = Hashtbl.create 16 in
  let keys = Hashtbl.create 16 in
  let symmetry_builds = ref 0 in
  span "side" (fun side ->
      List.iter2
        (fun line (spec : Job_spec.t) ->
          let job = spec.Job_spec.id in
          ignore (span ~parent:side ~job "serve.spec_parse" (fun _ -> Job_spec.of_string line));
          match span ~parent:side ~job "model.app_load" (fun _ -> Job_spec.resolve_app spec) with
          | Error e -> die "%s" e
          | Ok cdcg ->
            Hashtbl.replace cdcgs job cdcg;
            let crg =
              span ~parent:side ~job "noc.crg_create" (fun _ ->
                  Crg.create ~routing:spec.Job_spec.routing spec.Job_spec.mesh)
            in
            let key = shape_key spec ~cores:(Cdcg.core_count cdcg) in
            let private_group =
              match spec.Job_spec.algorithm with
              | Job_spec.Portfolio _ | Job_spec.Es | Job_spec.Decompose _ -> true
              | _ -> false
            in
            let fresh_key = not (Hashtbl.mem keys key) in
            if fresh_key then Hashtbl.replace keys key ();
            if private_group then incr symmetry_builds;
            if fresh_key then begin
              incr symmetry_builds;
              let level =
                match spec.Job_spec.model with
                | Job_spec.Cwm -> Symmetry.Hops
                | Job_spec.Cdcm -> Symmetry.Paths
              in
              ignore
                (span ~parent:side ~job "noc.symmetry_of_crg" (fun _ ->
                     Symmetry.of_crg ~level crg))
            end)
        lines specs;
      set "sim.run_us"
        (mean
           (List.map
              (fun ((spec : Job_spec.t), p) ->
                let cdcg = Hashtbl.find cdcgs spec.Job_spec.id in
                let crg = Crg.create ~routing:spec.Job_spec.routing spec.Job_spec.mesh in
                let params = Noc_params.make ~flit_bits:spec.Job_spec.flit_bits () in
                span ~parent:side ~job:spec.Job_spec.id "sim.run" (fun _ ->
                    time_per_call ~budget:0.005 (fun () ->
                        ignore
                          (Mapping.Cost_cdcm.evaluate ~tech:spec.Job_spec.tech ~params
                             ~crg ~cdcg p)))
                *. 1e6)
              !placements));
      (* Journal.append and Journal.sync on records of the pass's mean
         size, in a journal of their own. *)
      let size = if appends = 0 then 256 else bytes / appends in
      let journal =
        Journal.create ~path:(Filename.concat dir "probe-journal.jsonl")
          ~meta:(Json.Assoc [ ("kind", Json.Str "perfbench") ])
      in
      let pad = Json.Assoc [ ("pad", Json.Str (String.make (max 1 (size - 48)) 'x')) ] in
      for _ = 1 to 50 do
        span ~parent:side "persist.append" (fun _ ->
            match Journal.append journal pad with Ok () -> () | Error e -> die "%s" e.Journal.reason);
        span ~parent:side "persist.sync" (fun _ -> Journal.sync journal)
      done;
      Journal.close journal);
  set "serve.spec_parse_us" (mean (durations "serve.spec_parse") *. 1e6);
  set "model.app_load_ms" (mean (durations "model.app_load") *. 1e3);
  set "noc.crg_create_ms" (mean (durations "noc.crg_create") *. 1e3);
  set "noc.symmetry_of_crg_ms" (mean (durations "noc.symmetry_of_crg") *. 1e3);
  set "noc.symmetry_builds" (float_of_int !symmetry_builds /. float_of_int (max 1 jobs));
  set "serve.shared_cache_reuse_ratio"
    (1. -. (float_of_int (Hashtbl.length keys) /. float_of_int (max 1 jobs)));
  set "persist.append_us" (mean (durations "persist.append") *. 1e6);
  set "persist.sync_ms" (mean (durations "persist.sync") *. 1e3);
  set "serve.failures" (float_of_int !failures);
  write_spans ~dir;
  print_out ~jobs ~lanes:1 ~pass_wall ~job_ms:(List.rev !job_ms)

let () =
  match Array.to_list Sys.argv with
  | [ _; "check"; items ] -> check items
  | [ _; "trace"; "map"; dir; list ] -> trace_map ~dir list
  | [ _; "trace"; "serve"; dir; list ] -> trace_serve ~dir list
  | _ ->
    prerr_endline "usage: probe check ITEMS | probe trace (map | serve) DIR LIST";
    exit 2
