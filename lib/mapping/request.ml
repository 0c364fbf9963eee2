module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Json = Nocmap_persist.Json

type model = Cwm | Cdcm

type algorithm =
  | Sa
  | Local
  | Greedy
  | Greedy_local
  | Random
  | Es
  | Portfolio of Portfolio.strategy list
  | Decompose of Decompose.refiner

type budget = Quick | Standard

type t = {
  cdcg : Cdcg.t;
  mesh : Mesh.t;
  routing : Routing.algorithm;
  tech : Technology.t;
  flit_bits : int;
  model : model;
  algorithm : algorithm;
  seed : int;
  budget : budget;
  incremental : bool;
  cache : bool;
}

let model_to_string = function Cwm -> "cwm" | Cdcm -> "cdcm"

let model_of_string = function
  | "cwm" -> Ok Cwm
  | "cdcm" -> Ok Cdcm
  | other -> Error (Printf.sprintf "unknown model %S (want cwm or cdcm)" other)

let algorithm_to_string = function
  | Sa -> "sa"
  | Local -> "local"
  | Greedy -> "greedy"
  | Greedy_local -> "greedy+local"
  | Random -> "random"
  | Es -> "es"
  | Portfolio _ -> "portfolio"
  | Decompose _ -> "decompose"

let algorithm_of_string = function
  | "sa" -> Ok Sa
  | "local" -> Ok Local
  | "greedy" -> Ok Greedy
  | "greedy+local" -> Ok Greedy_local
  | "random" -> Ok Random
  | "es" -> Ok Es
  | "portfolio" -> Ok (Portfolio Portfolio.all_strategies)
  | "decompose" -> Ok (Decompose Decompose.Sa)
  | other ->
    Error
      (Printf.sprintf
         "unknown algorithm %S (want sa, local, greedy, greedy+local, random, \
          es, portfolio or decompose)"
         other)

let budget_to_string = function Quick -> "quick" | Standard -> "standard"

let budget_of_string = function
  | "quick" -> Ok Quick
  | "standard" -> Ok Standard
  | other -> Error (Printf.sprintf "unknown budget %S (want quick or standard)" other)

let journals = function
  | Sa | Local | Greedy_local | Portfolio _ | Decompose _ -> true
  | Greedy | Random | Es -> false

type persist = {
  store : Nocmap_persist.Store.t;
  scope : string;
  every : int;
}

type details =
  | Single
  | Race of Portfolio.report
  | Regions of Decompose.report

type outcome = {
  result : Objective.search_result;
  evaluation : Cost_cdcm.evaluation;
  details : details;
  cache : Eval_cache.t option;
}

let run ?(jobs = 1) ?stop ?persist ?shared ?convergence r =
  let tech = r.tech and cdcg = r.cdcg in
  let crg = Crg.create ~routing:r.routing r.mesh in
  let params = Noc_params.make ~flit_bits:r.flit_bits () in
  let cwg = Cwg.of_cdcg cdcg in
  let tiles = Mesh.tile_count r.mesh and cores = Cdcg.core_count cdcg in
  let rng = Rng.create ~seed:r.seed in
  let budgeted quick standard =
    (match r.budget with Quick -> quick | Standard -> standard) ~tiles
  in
  (* Also the name both objectives carry, which journal shards record. *)
  let model = model_to_string r.model in
  let base () =
    match r.model with
    | Cwm -> Objective.cwm ~tech ~crg ~cwg
    | Cdcm -> Objective.cdcm ~incremental:r.incremental ~tech ~params ~crg ~cdcg ()
  in
  (* Only the simulation-backed CDCM objective is memoized: a CWM
     evaluation is a flat fold that costs less than the canonicalization
     behind a cache probe.  CWM only reads per-pair hop counts, so its
     exhaustive search may use the larger hop-exact group; CDCM needs
     path-exact.  The group is built on first use, at most once. *)
  let memoize = r.cache && r.model = Cdcm in
  let symmetry =
    lazy
      (Symmetry.of_crg
         ~level:(match r.model with Cwm -> Symmetry.Hops | Cdcm -> Symmetry.Paths)
         crg)
  in
  let new_cache ?support ?(discriminator = model) symmetry =
    Eval_cache.create ~symmetry ~cores ?support ~discriminator ()
  in
  (* Sequential requests for one application and NoC may share a cache,
     so repeats reuse each other's evaluations; the key covers every
     input of the cost, so a result never depends on what ran before. *)
  let shared_cache table =
    let discriminator =
      Printf.sprintf "%s|%s|%d|%s|%b" model tech.Technology.name r.flit_bits
        (Routing.algorithm_to_string r.routing) r.incremental
    in
    let app = Digest.to_hex (Digest.string (Nocmap_model.Textio.cdcg_to_string cdcg)) in
    let key = Printf.sprintf "%s|%s|%s" (Mesh.to_string r.mesh) discriminator app in
    match Hashtbl.find_opt table key with
    | Some cache -> cache
    | None ->
      let cache = new_cache ~discriminator (Lazy.force symmetry) in
      Hashtbl.replace table key cache;
      cache
  in
  let cache =
    lazy
      (if not memoize then None
       else
         match shared with
         | Some table -> Some (shared_cache table)
         | None -> Some (new_cache (Lazy.force symmetry)))
  in
  (* The objective of a single-objective search. *)
  let objective () =
    match Lazy.force cache with
    | Some cache -> Objective.with_cache cache (base ())
    | None -> base ()
  in
  (* Portfolio racers and decompose regions run on their own domains and
     Eval_cache is single-domain, so each gets a fresh objective and
     private cache per call, all over one group — forced here, on the
     calling domain, since two domains must not force one lazy value. *)
  let parallel search =
    let symmetry = if memoize then Some (Lazy.force symmetry) else None in
    let fresh () =
      match symmetry with
      | Some symmetry -> Objective.with_cache (new_cache symmetry) (base ())
      | None -> base ()
    in
    if jobs <= 1 then search ~fresh None
    else Domain_pool.with_pool ~jobs (fun pool -> search ~fresh (Some pool))
  in
  (* A decompose region only moves its own cluster, so its cache keys
     just those cores (and drops the mesh group, which the frozen context
     breaks anyway): the dominant cache allocation shrinks by ~[cores /
     region] compared to a full-key cache per region. *)
  let region_objective_for ~cores:support ~tiles:_ =
    if memoize then
      Objective.with_cache (new_cache ~support (Symmetry.identity_only r.mesh)) (base ())
    else base ()
  in
  let store = Option.map (fun p -> p.store) persist in
  let every = Option.map (fun p -> p.every) persist in
  let key suffix = match persist with Some p -> p.scope ^ "." ^ suffix | None -> suffix in
  let local initial =
    Search_persist.local_search ?store ~key:(key "local") ?every
      ~objective:(objective ()) ~tiles ~initial
      ?max_evaluations:(match r.budget with Quick -> Some 10_000 | Standard -> None)
      ?stop ?convergence ()
  in
  let result, details =
    match r.algorithm with
    | Sa ->
      (* Without a prune margin the annealer never consults the bound
         function, so the incremental evaluator would have nothing to
         reject. *)
      let config = budgeted Annealing.quick_config Annealing.default_config in
      let config =
        if r.incremental then { config with Annealing.prune = Some 20.0 } else config
      in
      ( Search_persist.annealing ?store ~key:(key "sa") ?every ~rng ~config ~tiles
          ~objective:(objective ()) ?stop ?convergence ~cores (),
        Single )
    | Local -> (local (Placement.random rng ~cores ~tiles), Single)
    | Greedy_local ->
      (local (Greedy.search ~tech ~crg ~cwg ()).Objective.placement, Single)
    | Greedy ->
      (* Constructed on the CWM heuristic, scored under the request's
         objective like {!Portfolio}'s greedy seed. *)
      let greedy = Greedy.search ~tech ~crg ~cwg () in
      let scored =
        {
          greedy with
          Objective.cost = (objective ()).Objective.cost_fn greedy.Objective.placement;
          evaluations = greedy.Objective.evaluations + 1;
        }
      in
      Objective.count_evaluations scored.Objective.evaluations;
      (scored, Single)
    | Random ->
      let samples = match r.budget with Quick -> 100 | Standard -> 1000 in
      (Random_search.search ~rng ~objective:(objective ()) ~cores ~tiles ~samples, Single)
    | Es ->
      ( Exhaustive.search ~objective:(objective ()) ~cores ~tiles
          ?symmetry:(if r.cache then Some (Lazy.force symmetry) else None)
          ?convergence (),
        Single )
    | Portfolio strategies ->
      let report =
        parallel @@ fun ~fresh pool ->
        Search_persist.portfolio ?store ~key:(key "portfolio") ?every ~rng
          ~config:(budgeted Portfolio.quick_config Portfolio.default_config)
          ~strategies ~tech ~crg ~cwg ~objective_name:model
          ~objective_for:(fun _ -> fresh ()) ?pool ?stop ()
      in
      (report.Portfolio.result, Race report)
    | Decompose refiner ->
      let report =
        parallel @@ fun ~fresh pool ->
        Search_persist.decompose ?store ~key:(key "decompose") ?every ~rng
          ~config:
            { (budgeted Decompose.quick_config Decompose.default_config) with
              Decompose.refiner }
          ~crg ~cwg ~objective_name:model ~objective_for:fresh
          ~region_objective_for ?pool ?stop ()
      in
      (report.Decompose.result, Regions report)
  in
  {
    result;
    evaluation = Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg result.Objective.placement;
    details;
    cache = (if Lazy.is_val cache then Lazy.force cache else None);
  }

let result_json { result; evaluation; _ } =
  Json.Assoc
    [
      ("placement", Search_persist.placement_json result.Objective.placement);
      ("cost", Json.float_ result.Objective.cost);
      ("evaluations", Json.Int result.Objective.evaluations);
      ( "energy",
        Json.Assoc
          [
            ("dynamic_j", Json.float_ evaluation.Cost_cdcm.dynamic);
            ("static_j", Json.float_ evaluation.Cost_cdcm.static_);
            ("total_j", Json.float_ evaluation.Cost_cdcm.total);
          ] );
      ("texec_cycles", Json.Int evaluation.Cost_cdcm.texec_cycles);
      ("texec_ns", Json.float_ evaluation.Cost_cdcm.texec_ns);
    ]
