module Rng = Nocmap_util.Rng
module Metrics = Nocmap_obs.Metrics
module Series = Nocmap_obs.Series

let m_runs = Metrics.counter ~help:"genetic searches executed" "search.ga_runs"

let m_cutoff =
  Metrics.counter ~help:"candidate evaluations truncated by a prune cutoff"
    "search.cutoff_hits"

type config = {
  population : int;
  elite : int;
  tournament : int;
  crossover : float;
  mutation : float;
  patience : int;
  max_evaluations : int;
}

let default_config ~tiles =
  {
    population = max 16 tiles;
    elite = 2;
    tournament = 3;
    crossover = 0.9;
    mutation = 0.4;
    patience = 15;
    max_evaluations = 200_000;
  }

let quick_config ~tiles:_ =
  {
    population = 12;
    elite = 2;
    tournament = 3;
    crossover = 0.9;
    mutation = 0.5;
    patience = 6;
    max_evaluations = 8_000;
  }

type checkpoint = {
  rng_state : int64;
  evaluations : int;
  generation : int;
  population : Placement.t array;
  fitness : float array;
  best : Placement.t;
  best_cost : float;
  stale : int;
  cutoff_hits : int;
}

(* Uniform injection-preserving crossover: each core keeps parent A's
   tile with probability 1/2; the rest take parent B's tile when still
   free, and conflicting cores fall back to the lowest-index free tile.
   The child is a valid placement for any cores <= tiles. *)
let crossover_placements rng ~tiles a b =
  let cores = Array.length a in
  let child = Array.make cores (-1) in
  let used = Array.make tiles false in
  let from_a = Array.init cores (fun _ -> Rng.bool rng) in
  for i = 0 to cores - 1 do
    if from_a.(i) then begin
      child.(i) <- a.(i);
      used.(a.(i)) <- true
    end
  done;
  for i = 0 to cores - 1 do
    if (not from_a.(i)) && not used.(b.(i)) then begin
      child.(i) <- b.(i);
      used.(b.(i)) <- true
    end
  done;
  let next_free = ref 0 in
  for i = 0 to cores - 1 do
    if child.(i) < 0 then begin
      while used.(!next_free) do
        incr next_free
      done;
      child.(i) <- !next_free;
      used.(!next_free) <- true
    end
  done;
  child

let search ~rng ~(config : config) ~tiles ~objective ?initial
    ?(ceiling = infinity)
    ?(stop = fun () -> false) ?convergence ?checkpoint ?resume ~cores () =
  if cores > tiles then invalid_arg "Genetic.search: more cores than tiles";
  if config.population < 2 then
    invalid_arg "Genetic.search: population must be at least 2";
  if config.elite < 0 || config.elite >= config.population then
    invalid_arg "Genetic.search: elite must lie in [0, population)";
  if config.tournament < 1 then
    invalid_arg "Genetic.search: tournament must be positive";
  let evals = ref 0 and cutoff_hits = ref 0 in
  let cost_of p =
    incr evals;
    objective.Objective.cost_fn p
  in
  (* Offspring provably above the racing ceiling get infinite fitness:
     they are culled from selection without a completed evaluation.
     With the default infinite ceiling every child is scored exactly. *)
  let fitness_of p =
    match objective.Objective.bound_fn with
    | Some bound_fn when ceiling < infinity -> (
      incr evals;
      match bound_fn ~cutoff:ceiling p with
      | Objective.Exact c -> c
      | Objective.At_least _ ->
        incr cutoff_hits;
        infinity)
    | Some _ | None -> cost_of p
  in
  let generation = ref 0 and stale = ref 0 in
  let population = ref [||] and fitness = ref [||] in
  let best = ref [||] and best_cost = ref infinity in
  let record_best () =
    match convergence with
    | Some series -> Series.add series ~x:(float_of_int !evals) ~y:!best_cost
    | None -> ()
  in
  let consider p cost =
    if cost < !best_cost then begin
      best := Array.copy p;
      best_cost := cost;
      record_best ()
    end
  in
  (match resume with
  | Some c ->
    Rng.set_state rng c.rng_state;
    evals := c.evaluations;
    generation := c.generation;
    population := Array.map Array.copy c.population;
    fitness := Array.copy c.fitness;
    best := Array.copy c.best;
    best_cost := c.best_cost;
    stale := c.stale;
    cutoff_hits := c.cutoff_hits;
    record_best ()
  | None ->
    population :=
      Array.init config.population (fun i ->
          match initial with
          | Some p when i = 0 -> Array.copy p
          | Some _ | None -> Placement.random rng ~cores ~tiles);
    (* The founding population is always scored exactly (never culled by
       the ceiling) so the search has a finite best to improve on. *)
    fitness := Array.map cost_of !population;
    Array.iteri (fun i p -> consider p !fitness.(i)) !population);
  (* Counters are flushed as this call's own work: a resumed search
     does not count its checkpoint's totals again. *)
  let evals0, cutoff_hits0 =
    match resume with Some c -> (c.evaluations, c.cutoff_hits) | None -> (0, 0)
  in
  let snapshot () =
    {
      rng_state = Rng.state rng;
      evaluations = !evals;
      generation = !generation;
      population = Array.map Array.copy !population;
      fitness = Array.copy !fitness;
      best = Array.copy !best;
      best_cost = !best_cost;
      stale = !stale;
      cutoff_hits = !cutoff_hits;
    }
  in
  let last_flush =
    ref (match resume with Some c -> c.evaluations | None -> 0)
  in
  let maybe_flush () =
    match checkpoint with
    | Some (every, hook) when !evals - !last_flush >= every ->
      last_flush := !evals;
      hook (snapshot ())
    | Some _ | None -> ()
  in
  (* Indices of the [elite] fittest individuals, ties by lower index. *)
  let elite_indices () =
    let ranked = Array.init config.population Fun.id in
    Array.sort
      (fun i j ->
        match Float.compare !fitness.(i) !fitness.(j) with
        | 0 -> Int.compare i j
        | c -> c)
      ranked;
    Array.sub ranked 0 config.elite
  in
  let tournament_select () =
    let winner = ref (Rng.int rng config.population) in
    for _ = 2 to config.tournament do
      let i = Rng.int rng config.population in
      if !fitness.(i) < !fitness.(!winner) then winner := i
    done;
    !winner
  in
  let next_generation () =
    let next_pop = Array.make config.population [||] in
    let next_fit = Array.make config.population infinity in
    let elites = elite_indices () in
    Array.iteri
      (fun slot i ->
        next_pop.(slot) <- Array.copy !population.(i);
        next_fit.(slot) <- !fitness.(i))
      elites;
    for slot = config.elite to config.population - 1 do
      let a = tournament_select () in
      let b = tournament_select () in
      let child =
        if Rng.float rng 1.0 < config.crossover then
          crossover_placements rng ~tiles !population.(a) !population.(b)
        else Array.copy !population.(a)
      in
      let child =
        if Rng.float rng 1.0 < config.mutation then
          Placement.random_neighbor rng ~tiles child
        else child
      in
      let f = fitness_of child in
      next_pop.(slot) <- child;
      next_fit.(slot) <- f;
      consider child f
    done;
    population := next_pop;
    fitness := next_fit
  in
  let improved_before = ref !best_cost in
  while
    !stale < config.patience
    && !evals < config.max_evaluations
    && tiles > 1
    && not (stop ())
  do
    improved_before := !best_cost;
    next_generation ();
    if !best_cost < !improved_before then stale := 0 else incr stale;
    incr generation;
    maybe_flush ()
  done;
  (match checkpoint with
  | Some (_, hook) when stop () -> hook (snapshot ())
  | Some _ | None -> ());
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Objective.count_evaluations (!evals - evals0);
    Metrics.add m_cutoff (!cutoff_hits - cutoff_hits0)
  end;
  { Objective.placement = !best; cost = !best_cost; evaluations = !evals }
