module Rng = Nocmap_util.Rng
module Metrics = Nocmap_obs.Metrics
module Json = Nocmap_persist.Json
module Journal = Nocmap_persist.Journal
module Store = Nocmap_persist.Store

let default_every = 10_000

let m_resumes =
  Metrics.counter "persist.resume_events"
    ~help:"Searches resumed from a journal checkpoint"

let m_replayed =
  Metrics.counter "persist.replayed_results"
    ~help:"Completed shard results replayed instead of recomputed"

(* --- encodings --- *)

let placement_json p =
  Json.List (Array.to_list (Array.map (fun t -> Json.Int t) p))

let placement_of_json j =
  Array.of_list (List.map Json.to_int (Json.to_list j))

let result_json (r : Objective.search_result) =
  Json.Assoc
    [
      ("placement", placement_json r.Objective.placement);
      ("cost", Json.float_ r.Objective.cost);
      ("evaluations", Json.Int r.Objective.evaluations);
    ]

let result_of_json j =
  {
    Objective.placement = placement_of_json (Json.get "placement" j);
    cost = Json.to_float (Json.get "cost" j);
    evaluations = Json.to_int (Json.get "evaluations" j);
  }

let sa_config_json (c : Annealing.config) =
  Json.Assoc
    [
      ( "initial_temperature",
        match c.Annealing.initial_temperature with
        | `Auto -> Json.Str "auto"
        | `Fixed t -> Json.float_ t );
      ("cooling", Json.float_ c.Annealing.cooling);
      ("moves_per_temperature", Json.Int c.Annealing.moves_per_temperature);
      ("patience", Json.Int c.Annealing.patience);
      ("max_evaluations", Json.Int c.Annealing.max_evaluations);
      ( "prune",
        match c.Annealing.prune with
        | None -> Json.Null
        | Some m -> Json.float_ m );
    ]

let sa_checkpoint_json (c : Annealing.checkpoint) =
  Json.Assoc
    [
      ("rng", Json.int64 c.Annealing.rng_state);
      ("evaluations", Json.Int c.Annealing.evaluations);
      ("current", placement_json c.Annealing.current);
      ("current_cost", Json.float_ c.Annealing.current_cost);
      ("best", placement_json c.Annealing.best);
      ("best_cost", Json.float_ c.Annealing.best_cost);
      ("temperature", Json.float_ c.Annealing.temperature);
      ("floor", Json.float_ c.Annealing.floor);
      ("stale_levels", Json.Int c.Annealing.stale_levels);
      ("moves", Json.Int c.Annealing.moves);
      ("improved", Json.Bool c.Annealing.improved_this_level);
      ("accepted", Json.Int c.Annealing.accepted);
      ("rejected", Json.Int c.Annealing.rejected);
      ("cutoff_hits", Json.Int c.Annealing.cutoff_hits);
    ]

let sa_checkpoint_of_json j =
  {
    Annealing.rng_state = Json.to_int64 (Json.get "rng" j);
    evaluations = Json.to_int (Json.get "evaluations" j);
    current = placement_of_json (Json.get "current" j);
    current_cost = Json.to_float (Json.get "current_cost" j);
    best = placement_of_json (Json.get "best" j);
    best_cost = Json.to_float (Json.get "best_cost" j);
    temperature = Json.to_float (Json.get "temperature" j);
    floor = Json.to_float (Json.get "floor" j);
    stale_levels = Json.to_int (Json.get "stale_levels" j);
    moves = Json.to_int (Json.get "moves" j);
    improved_this_level = Json.to_bool (Json.get "improved" j);
    accepted = Json.to_int (Json.get "accepted" j);
    rejected = Json.to_int (Json.get "rejected" j);
    cutoff_hits = Json.to_int (Json.get "cutoff_hits" j);
  }

let ls_checkpoint_json (c : Local_search.checkpoint) =
  Json.Assoc
    [
      ("current", placement_json c.Local_search.current);
      ("current_cost", Json.float_ c.Local_search.current_cost);
      ("evaluations", Json.Int c.Local_search.evaluations);
      ("cutoff_hits", Json.Int c.Local_search.cutoff_hits);
    ]

let ls_checkpoint_of_json j =
  {
    Local_search.current = placement_of_json (Json.get "current" j);
    current_cost = Json.to_float (Json.get "current_cost" j);
    evaluations = Json.to_int (Json.get "evaluations" j);
    cutoff_hits = Json.to_int (Json.get "cutoff_hits" j);
  }

let tabu_config_json (c : Tabu.config) =
  Json.Assoc
    [
      ("tenure", Json.Int c.Tabu.tenure);
      ("neighborhood", Json.Int c.Tabu.neighborhood);
      ("patience", Json.Int c.Tabu.patience);
      ("max_evaluations", Json.Int c.Tabu.max_evaluations);
    ]

let tabu_checkpoint_json (c : Tabu.checkpoint) =
  Json.Assoc
    [
      ("rng", Json.int64 c.Tabu.rng_state);
      ("evaluations", Json.Int c.Tabu.evaluations);
      ("iteration", Json.Int c.Tabu.iteration);
      ("current", placement_json c.Tabu.current);
      ("current_cost", Json.float_ c.Tabu.current_cost);
      ("best", placement_json c.Tabu.best);
      ("best_cost", Json.float_ c.Tabu.best_cost);
      ("stale", Json.Int c.Tabu.stale);
      ( "tabu",
        Json.List
          (List.map
             (fun (core, tile, expiry) ->
               Json.List [ Json.Int core; Json.Int tile; Json.Int expiry ])
             c.Tabu.tabu) );
      ("cutoff_hits", Json.Int c.Tabu.cutoff_hits);
    ]

let tabu_checkpoint_of_json j =
  {
    Tabu.rng_state = Json.to_int64 (Json.get "rng" j);
    evaluations = Json.to_int (Json.get "evaluations" j);
    iteration = Json.to_int (Json.get "iteration" j);
    current = placement_of_json (Json.get "current" j);
    current_cost = Json.to_float (Json.get "current_cost" j);
    best = placement_of_json (Json.get "best" j);
    best_cost = Json.to_float (Json.get "best_cost" j);
    stale = Json.to_int (Json.get "stale" j);
    tabu =
      List.map
        (fun entry ->
          match Json.to_list entry with
          | [ core; tile; expiry ] ->
            (Json.to_int core, Json.to_int tile, Json.to_int expiry)
          | _ -> failwith "malformed tabu attribute")
        (Json.to_list (Json.get "tabu" j));
    cutoff_hits = Json.to_int (Json.get "cutoff_hits" j);
  }

let genetic_config_json (c : Genetic.config) =
  Json.Assoc
    [
      ("population", Json.Int c.Genetic.population);
      ("elite", Json.Int c.Genetic.elite);
      ("tournament", Json.Int c.Genetic.tournament);
      ("crossover", Json.float_ c.Genetic.crossover);
      ("mutation", Json.float_ c.Genetic.mutation);
      ("patience", Json.Int c.Genetic.patience);
      ("max_evaluations", Json.Int c.Genetic.max_evaluations);
    ]

let genetic_checkpoint_json (c : Genetic.checkpoint) =
  Json.Assoc
    [
      ("rng", Json.int64 c.Genetic.rng_state);
      ("evaluations", Json.Int c.Genetic.evaluations);
      ("generation", Json.Int c.Genetic.generation);
      ( "population",
        Json.List
          (Array.to_list (Array.map placement_json c.Genetic.population)) );
      ( "fitness",
        Json.List
          (Array.to_list (Array.map Json.float_ c.Genetic.fitness)) );
      ("best", placement_json c.Genetic.best);
      ("best_cost", Json.float_ c.Genetic.best_cost);
      ("stale", Json.Int c.Genetic.stale);
      ("cutoff_hits", Json.Int c.Genetic.cutoff_hits);
    ]

let genetic_checkpoint_of_json j =
  {
    Genetic.rng_state = Json.to_int64 (Json.get "rng" j);
    evaluations = Json.to_int (Json.get "evaluations" j);
    generation = Json.to_int (Json.get "generation" j);
    population =
      Array.of_list
        (List.map placement_of_json (Json.to_list (Json.get "population" j)));
    fitness =
      Array.of_list
        (List.map Json.to_float (Json.to_list (Json.get "fitness" j)));
    best = placement_of_json (Json.get "best" j);
    best_cost = Json.to_float (Json.get "best_cost" j);
    stale = Json.to_int (Json.get "stale" j);
    cutoff_hits = Json.to_int (Json.get "cutoff_hits" j);
  }

let strategy_json s = Json.Str (Portfolio.strategy_to_string s)

let strategy_of_json j =
  let name = Json.to_str j in
  match Portfolio.strategy_of_string name with
  | Some s -> s
  | None -> failwith (Printf.sprintf "unknown portfolio strategy %S" name)

let portfolio_config_json (c : Portfolio.config) =
  Json.Assoc
    [
      ("slice", Json.Int c.Portfolio.slice);
      ("ceiling_factor", Json.float_ c.Portfolio.ceiling_factor);
      ("sa", sa_config_json c.Portfolio.sa);
      ("tabu", tabu_config_json c.Portfolio.tabu);
      ("genetic", genetic_config_json c.Portfolio.genetic);
    ]

(* One codec for every searcher's live state.  The tag doubles as a
   single search's [algorithm] fingerprint: a journaled single search
   records the bare value, racers and regions the tagged pair. *)
let state_value = function
  | Refiner.Sa_running c -> ("sa", sa_checkpoint_json c)
  | Refiner.Tabu_running c -> ("tabu", tabu_checkpoint_json c)
  | Refiner.Genetic_running c -> ("ga", genetic_checkpoint_json c)
  | Refiner.Local_running c -> ("ls", ls_checkpoint_json c)
  | Refiner.Done r -> ("done", result_json r)

let state_of_value tag value =
  match tag with
  | "sa" -> Refiner.Sa_running (sa_checkpoint_of_json value)
  | "tabu" -> Refiner.Tabu_running (tabu_checkpoint_of_json value)
  | "ga" -> Refiner.Genetic_running (genetic_checkpoint_of_json value)
  | "ls" -> Refiner.Local_running (ls_checkpoint_of_json value)
  | "done" -> Refiner.Done (result_of_json value)
  | tag -> failwith (Printf.sprintf "unknown refiner state %S" tag)

let state_json state =
  let tag, value = state_value state in
  Json.Assoc [ ("state", Json.Str tag); ("value", value) ]

let state_of_json j =
  state_of_value (Json.to_str (Json.get "state" j)) (Json.get "value" j)

let strategy_pairs_json value_json pairs =
  Json.List
    (List.map
       (fun (s, v) ->
         Json.Assoc [ ("strategy", strategy_json s); ("value", value_json v) ])
       pairs)

let strategy_pairs_of_json value_of_json j =
  List.map
    (fun entry ->
      ( strategy_of_json (Json.get "strategy" entry),
        value_of_json (Json.get "value" entry) ))
    (Json.to_list j)

let portfolio_checkpoint_json (c : Portfolio.checkpoint) =
  Json.Assoc
    [
      ("round", Json.Int c.Portfolio.round);
      ("in_round", Json.Bool c.Portfolio.in_round);
      ("seeds", strategy_pairs_json result_json c.Portfolio.seeds);
      ("legs", strategy_pairs_json state_json c.Portfolio.legs);
      ("best", placement_json c.Portfolio.best);
      ("best_cost", Json.float_ c.Portfolio.best_cost);
      ("best_by", strategy_json c.Portfolio.best_by);
      ("seed_evaluations", Json.Int c.Portfolio.seed_evaluations);
      ("incumbent_updates", Json.Int c.Portfolio.incumbent_updates);
      ("cutoff_tightenings", Json.Int c.Portfolio.cutoff_tightenings);
      ( "wins",
        strategy_pairs_json (fun w -> Json.Int w) c.Portfolio.wins );
      ( "ceilings",
        strategy_pairs_json (fun f -> Json.float_ f) c.Portfolio.ceilings );
      ( "round_starts",
        strategy_pairs_json (fun n -> Json.Int n) c.Portfolio.round_starts );
    ]

let portfolio_checkpoint_of_json j =
  {
    Portfolio.round = Json.to_int (Json.get "round" j);
    in_round = Json.to_bool (Json.get "in_round" j);
    seeds = strategy_pairs_of_json result_of_json (Json.get "seeds" j);
    legs = strategy_pairs_of_json state_of_json (Json.get "legs" j);
    best = placement_of_json (Json.get "best" j);
    best_cost = Json.to_float (Json.get "best_cost" j);
    best_by = strategy_of_json (Json.get "best_by" j);
    seed_evaluations = Json.to_int (Json.get "seed_evaluations" j);
    incumbent_updates = Json.to_int (Json.get "incumbent_updates" j);
    cutoff_tightenings = Json.to_int (Json.get "cutoff_tightenings" j);
    wins = strategy_pairs_of_json Json.to_int (Json.get "wins" j);
    ceilings = strategy_pairs_of_json Json.to_float (Json.get "ceilings" j);
    round_starts = strategy_pairs_of_json Json.to_int (Json.get "round_starts" j);
  }

let report_json (r : Portfolio.report) =
  Json.Assoc
    [
      ("result", result_json r.Portfolio.result);
      ("winner", strategy_json r.Portfolio.winner);
      ("rounds", Json.Int r.Portfolio.rounds);
      ("updates", Json.Int r.Portfolio.updates);
      ("tightenings", Json.Int r.Portfolio.tightenings);
      ( "per_strategy",
        Json.List
          (List.map
             (fun (s : Portfolio.strategy_report) ->
               Json.Assoc
                 [
                   ("strategy", strategy_json s.Portfolio.strategy);
                   ("cost", Json.float_ s.Portfolio.cost);
                   ("evaluations", Json.Int s.Portfolio.evaluations);
                   ("rounds_won", Json.Int s.Portfolio.rounds_won);
                 ])
             r.Portfolio.per_strategy) );
    ]

let report_of_json j =
  {
    Portfolio.result = result_of_json (Json.get "result" j);
    winner = strategy_of_json (Json.get "winner" j);
    rounds = Json.to_int (Json.get "rounds" j);
    updates = Json.to_int (Json.get "updates" j);
    tightenings = Json.to_int (Json.get "tightenings" j);
    per_strategy =
      List.map
        (fun entry ->
          {
            Portfolio.strategy = strategy_of_json (Json.get "strategy" entry);
            cost = Json.to_float (Json.get "cost" entry);
            evaluations = Json.to_int (Json.get "evaluations" entry);
            rounds_won = Json.to_int (Json.get "rounds_won" entry);
          })
        (Json.to_list (Json.get "per_strategy" j));
  }

(* --- journal protocol --- *)

let progress_record state =
  Json.Assoc [ ("type", Json.Str "progress"); ("state", state) ]

let done_record result =
  Json.Assoc [ ("type", Json.Str "done"); ("value", result) ]

let record_type r =
  match Json.find "type" r with Some (Json.Str t) -> t | _ -> ""

let find_done records =
  List.find_map
    (fun r ->
      if record_type r = "done" then Some (Json.get "value" r) else None)
    records

let last_progress records =
  List.fold_left
    (fun acc r ->
      if record_type r = "progress" then Some (Json.get "state" r) else acc)
    None records

(* Opens (or reopens) the [key] shard, decides between replay / resume /
   fresh start, runs the search, and records the outcome.  [run] gets
   the journal-backed checkpoint hook and the decoded resume state; a
   [done] record is only written when [stop] did not cut the run short,
   so interrupted journals stay resumable.

   Without a [store], or when [stop] is already set on entry, the search
   runs with no persistence at all.  In the second case the caller is
   winding down and this leg's inputs may derive from an upstream search
   that was itself cut short (e.g. a warm start from an interrupted CWM
   leg), so journaling them would poison the store with state the
   resumed run can never reproduce. *)
let run_leg ?store ~key ~meta ~every ~encode ~decode ~encode_result
    ~decode_result ~stop ~run =
  match store with
  | None -> run ?checkpoint:None ?resume:None ()
  | Some _ when stop () -> run ?checkpoint:None ?resume:None ()
  | Some store ->
    let path = Store.shard_path store ~key in
    let entry =
      if not (Sys.file_exists path) then
        `Run (Journal.create ~path ~meta, None)
      else
        match Journal.reopen ~path with
        | Error msg -> failwith msg
        | Ok (j, loaded) ->
          if loaded.Journal.meta <> meta then begin
            Journal.close j;
            failwith
              (Printf.sprintf
                 "%s: checkpoint does not match this run (recorded %s, \
                  expected %s)"
                 path
                 (Json.to_string loaded.Journal.meta)
                 (Json.to_string meta))
          end
          else (
            match find_done loaded.Journal.records with
            | Some value ->
              Journal.close j;
              `Replay (decode_result value)
            | None ->
              let resume =
                Option.map decode (last_progress loaded.Journal.records)
              in
              if Option.is_some resume then Metrics.incr m_resumes;
              `Run (j, resume))
    in
    match entry with
    | `Replay result ->
      Metrics.incr m_replayed;
      result
    | `Run (journal, resume) ->
      Fun.protect
        ~finally:(fun () -> Journal.close journal)
        (fun () ->
          let hook ckpt =
            Journal.append_exn journal (progress_record (encode ckpt))
          in
          let result = run ?checkpoint:(Some (every, hook)) ?resume () in
          if not (stop ()) then
            Journal.append_exn journal (done_record (encode_result result));
          result)

(* A single search's header.  The rng state on entry identifies the
   substream, so resuming with a different seed is rejected rather than
   blended in; local search draws no randomness and records none. *)
let refine_meta refiner ~objective ~rng ~tiles ~cores ~initial =
  let algorithm, substream, budget =
    let substream = [ ("rng", Json.int64 (Rng.state rng)) ] in
    match refiner with
    | Refiner.Sa c -> ("sa", substream, ("config", sa_config_json c))
    | Refiner.Tabu c -> ("tabu", substream, ("config", tabu_config_json c))
    | Refiner.Genetic c -> ("ga", substream, ("config", genetic_config_json c))
    | Refiner.Local n -> ("ls", [], ("max_evaluations", Json.Int n))
  in
  ( algorithm,
    Json.Assoc
      ([
         ("algorithm", Json.Str algorithm);
         ("objective", Json.Str objective.Objective.name);
       ]
      @ substream
      @ [
          ("tiles", Json.Int tiles);
          ("cores", Json.Int cores);
          budget;
          ( "initial",
            match initial with None -> Json.Null | Some p -> placement_json p );
        ]) )

let refine ?store ~key ?(every = default_every) ~rng refiner ~tiles ~objective
    ?initial ?(stop = fun () -> false) ?convergence ~cores () =
  let algorithm, meta = refine_meta refiner ~objective ~rng ~tiles ~cores ~initial in
  run_leg ?store ~key ~meta ~every
    ~encode:(fun state -> snd (state_value state))
    ~decode:(state_of_value algorithm) ~encode_result:result_json
    ~decode_result:result_of_json ~stop
    ~run:(fun ?checkpoint ?resume () ->
      Refiner.run refiner ~rng ~tiles ~objective ?initial ~stop ?convergence
        ?checkpoint ?resume ~cores ())

let portfolio ?store ~key ?(every = default_every) ~rng ~config ~strategies
    ~tech ~crg ~cwg ~objective_name ~objective_for ?pool
    ?(stop = fun () -> false) ?target () =
  let meta =
    Json.Assoc
      [
        ("algorithm", Json.Str "portfolio");
        ("strategies", Json.List (List.map strategy_json strategies));
        ("objective", Json.Str objective_name);
        ("rng", Json.int64 (Rng.state rng));
        ("tiles", Json.Int (Nocmap_noc.Crg.tile_count crg));
        ("cores", Json.Int (Nocmap_model.Cwg.core_count cwg));
        ("config", portfolio_config_json config);
        ( "target",
          match target with None -> Json.Null | Some t -> Json.float_ t );
      ]
  in
  run_leg ?store ~key ~meta ~every ~encode:portfolio_checkpoint_json
    ~decode:portfolio_checkpoint_of_json ~encode_result:report_json
    ~decode_result:report_of_json ~stop
    ~run:(fun ?checkpoint ?resume () ->
      Portfolio.search ~rng ~config ~strategies ~tech ~crg ~cwg ~objective_for
        ?pool ~stop ?target ?checkpoint ?resume ())

(* --- decompose --- *)

let decompose_config_json (c : Decompose.config) =
  Json.Assoc
    [
      ("max_region", Json.Int c.Decompose.max_region);
      ("kl_passes", Json.Int c.Decompose.kl_passes);
      ("refiner", Json.Str (Decompose.refiner_to_string c.Decompose.refiner));
      ("slice", Json.Int c.Decompose.slice);
      ("sa", sa_config_json c.Decompose.sa);
      ("tabu", tabu_config_json c.Decompose.tabu);
      ("local_evaluations", Json.Int c.Decompose.local_evaluations);
      ("polish", Json.Int c.Decompose.polish);
    ]

let decompose_checkpoint_json (c : Decompose.checkpoint) =
  Json.Assoc
    [
      ( "regions",
        Json.List (List.map state_json c.Decompose.region_states) );
      ("seed", result_json c.Decompose.seed);
      ( "base",
        match c.Decompose.base with
        | None -> Json.Null
        | Some r -> result_json r );
      ( "polish",
        match c.Decompose.polish with
        | None -> Json.Null
        | Some ck -> ls_checkpoint_json ck );
    ]

let decompose_checkpoint_of_json j =
  {
    Decompose.region_states =
      List.map state_of_json (Json.to_list (Json.get "regions" j));
    seed = result_of_json (Json.get "seed" j);
    base =
      (match Json.get "base" j with
      | Json.Null -> None
      | v -> Some (result_of_json v));
    polish =
      (match Json.get "polish" j with
      | Json.Null -> None
      | v -> Some (ls_checkpoint_of_json v));
  }

(* Planar rectangles serialize without the z/d fields so 2-D checkpoint
   files keep their historical byte-for-byte shape; missing fields read
   back as the planar defaults. *)
let rect_json (r : Decompose.rect) =
  Json.Assoc
    ([
       ("x", Json.Int r.Decompose.x);
       ("y", Json.Int r.Decompose.y);
       ("w", Json.Int r.Decompose.w);
       ("h", Json.Int r.Decompose.h);
     ]
    @
    if r.Decompose.z = 0 && r.Decompose.d = 1 then []
    else [ ("z", Json.Int r.Decompose.z); ("d", Json.Int r.Decompose.d) ])

let rect_of_json j =
  {
    Decompose.x = Json.to_int (Json.get "x" j);
    y = Json.to_int (Json.get "y" j);
    z = (match Json.find "z" j with Some v -> Json.to_int v | None -> 0);
    w = Json.to_int (Json.get "w" j);
    h = Json.to_int (Json.get "h" j);
    d = (match Json.find "d" j with Some v -> Json.to_int v | None -> 1);
  }

let region_report_json (r : Decompose.region_report) =
  Json.Assoc
    [
      ( "cores",
        Json.List (List.map (fun c -> Json.Int c) r.Decompose.region_cores) );
      ("rect", rect_json r.Decompose.region_rect);
      ("cost", Json.float_ r.Decompose.region_cost);
      ("evaluations", Json.Int r.Decompose.region_evaluations);
    ]

let region_report_of_json j =
  {
    Decompose.region_cores =
      List.map Json.to_int (Json.to_list (Json.get "cores" j));
    region_rect = rect_of_json (Json.get "rect" j);
    region_cost = Json.to_float (Json.get "cost" j);
    region_evaluations = Json.to_int (Json.get "evaluations" j);
  }

let decompose_report_json (r : Decompose.report) =
  Json.Assoc
    [
      ("result", result_json r.Decompose.result);
      ("regions", Json.List (List.map region_report_json r.Decompose.regions));
      ("cut", Json.Int r.Decompose.cut);
      ("total", Json.Int r.Decompose.total);
      ("seed_cost", Json.float_ r.Decompose.seed_cost);
      ("polish_evaluations", Json.Int r.Decompose.polish_evaluations);
    ]

let decompose_report_of_json j =
  {
    Decompose.result = result_of_json (Json.get "result" j);
    regions =
      List.map region_report_of_json (Json.to_list (Json.get "regions" j));
    cut = Json.to_int (Json.get "cut" j);
    total = Json.to_int (Json.get "total" j);
    seed_cost = Json.to_float (Json.get "seed_cost" j);
    polish_evaluations = Json.to_int (Json.get "polish_evaluations" j);
  }

let decompose ?store ~key ?(every = default_every) ~rng ~config ~crg ~cwg
    ~objective_name ~objective_for ?region_objective_for ?pool
    ?(stop = fun () -> false) () =
  let meta =
    Json.Assoc
      [
        ("algorithm", Json.Str "decompose");
        ("objective", Json.Str objective_name);
        ("rng", Json.int64 (Rng.state rng));
        ("tiles", Json.Int (Nocmap_noc.Crg.tile_count crg));
        ("cores", Json.Int (Nocmap_model.Cwg.core_count cwg));
        ("config", decompose_config_json config);
      ]
  in
  run_leg ?store ~key ~meta ~every ~encode:decompose_checkpoint_json
    ~decode:decompose_checkpoint_of_json ~encode_result:decompose_report_json
    ~decode_result:decompose_report_of_json ~stop
    ~run:(fun ?checkpoint ?resume () ->
      Decompose.search ~rng ~config ~crg ~cwg ~objective_for
        ?region_objective_for ?pool ~stop ?checkpoint ?resume ())
