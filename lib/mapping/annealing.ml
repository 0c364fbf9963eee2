module Rng = Nocmap_util.Rng
module Metrics = Nocmap_obs.Metrics
module Series = Nocmap_obs.Series

(* Search observability.  Counters are accumulated in locals and flushed
   once per descent; neither they nor the optional convergence series
   touch the RNG, so instrumented and plain runs are bit-identical. *)
let m_runs = Metrics.counter ~help:"annealing descents executed" "search.sa_runs"

let m_cutoff =
  Metrics.counter ~help:"candidate evaluations truncated by a prune cutoff"
    "search.cutoff_hits"

let m_accepted = Metrics.counter ~help:"Metropolis-accepted moves" "search.sa_accepted"

let m_rejected =
  Metrics.counter ~help:"rejected moves, including pruned candidates"
    "search.sa_rejected"

type config = {
  initial_temperature : [ `Auto | `Fixed of float ];
  cooling : float;
  moves_per_temperature : int;
  patience : int;
  max_evaluations : int;
  prune : float option;
}

let default_config ~tiles =
  {
    initial_temperature = `Auto;
    cooling = 0.95;
    moves_per_temperature = 10 * tiles;
    patience = 12;
    max_evaluations = 200_000;
    prune = None;
  }

let quick_config ~tiles =
  {
    initial_temperature = `Auto;
    cooling = 0.90;
    moves_per_temperature = 4 * tiles;
    patience = 6;
    max_evaluations = 8_000;
    prune = None;
  }

type checkpoint = {
  rng_state : int64;
  evaluations : int;
  current : Placement.t;
  current_cost : float;
  best : Placement.t;
  best_cost : float;
  temperature : float;
  floor : float;
  stale_levels : int;
  moves : int;
  improved_this_level : bool;
  accepted : int;
  rejected : int;
  cutoff_hits : int;
}

(* Mean |delta| over a handful of random moves; a start temperature of
   twice that accepts most uphill moves initially. *)
let calibrate_temperature rng ~tiles ~(objective : Objective.t) ~placement ~cost ~evals =
  let samples = 16 in
  let total = ref 0.0 in
  for _ = 1 to samples do
    let neighbor = Placement.random_neighbor rng ~tiles placement in
    incr evals;
    total := !total +. abs_float (objective.Objective.cost_fn neighbor -. cost)
  done;
  let mean = !total /. float_of_int samples in
  if mean > 0.0 then 2.0 *. mean else 1.0

let search ~rng ~config ~tiles ~objective ?initial ?(ceiling = infinity)
    ?(stop = fun () -> false) ?convergence ?checkpoint ?resume ~cores () =
  if cores > tiles then invalid_arg "Annealing.search: more cores than tiles";
  if not (config.cooling > 0.0 && config.cooling < 1.0) then
    invalid_arg "Annealing.search: cooling must lie in (0,1)";
  (match config.prune with
  | Some margin when not (margin > 0.0) ->
    invalid_arg "Annealing.search: prune margin must be positive"
  | Some _ | None -> ());
  let evals = ref 0 in
  let cost_of p =
    incr evals;
    objective.Objective.cost_fn p
  in
  let accepted = ref 0 and rejected = ref 0 and cutoff_hits = ref 0 in
  let current = ref [||] and current_cost = ref 0.0 in
  let best = ref [||] and best_cost = ref 0.0 in
  let temperature = ref 0.0 and stale_levels = ref 0 in
  (* Inner-loop position lives outside the level loop so a checkpoint
     can re-enter a temperature level mid-way. *)
  let moves = ref 0 and improved_this_level = ref false in
  let record_best () =
    match convergence with
    | Some series -> Series.add series ~x:(float_of_int !evals) ~y:!best_cost
    | None -> ()
  in
  (match resume with
  | Some c ->
    Rng.set_state rng c.rng_state;
    evals := c.evaluations;
    current := Array.copy c.current;
    current_cost := c.current_cost;
    best := Array.copy c.best;
    best_cost := c.best_cost;
    temperature := c.temperature;
    stale_levels := c.stale_levels;
    moves := c.moves;
    improved_this_level := c.improved_this_level;
    accepted := c.accepted;
    rejected := c.rejected;
    cutoff_hits := c.cutoff_hits;
    record_best ()
  | None ->
    current :=
      (match initial with
      | Some p -> Array.copy p
      | None -> Placement.random rng ~cores ~tiles);
    current_cost := cost_of !current;
    best := !current;
    best_cost := !current_cost;
    record_best ();
    temperature :=
      (match config.initial_temperature with
      | `Fixed t -> t
      | `Auto ->
        calibrate_temperature rng ~tiles ~objective ~placement:!current
          ~cost:!current_cost ~evals));
  let floor =
    match resume with
    | Some c -> c.floor
    | None -> !temperature *. 1e-9
  in
  (* Counters are flushed as this call's own work: a resumed descent
     does not count its checkpoint's totals again. *)
  let evals0, accepted0, rejected0, cutoff_hits0 =
    match resume with
    | Some c -> (c.evaluations, c.accepted, c.rejected, c.cutoff_hits)
    | None -> (0, 0, 0, 0)
  in
  let snapshot () =
    {
      rng_state = Rng.state rng;
      evaluations = !evals;
      current = Array.copy !current;
      current_cost = !current_cost;
      best = Array.copy !best;
      best_cost = !best_cost;
      temperature = !temperature;
      floor;
      stale_levels = !stale_levels;
      moves = !moves;
      improved_this_level = !improved_this_level;
      accepted = !accepted;
      rejected = !rejected;
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
  (* With a prune margin [m], a candidate whose cost exceeds
     [current + m*T] would be accepted with probability < exp(-m) —
     negligible for the margins in use — so the bound function may stop
     simulating it at that cutoff.  A truncated verdict is a rejection:
     since [bound > cutoff > current >= best], the candidate can beat
     neither the incumbent nor the best, and no acceptance randomness is
     consumed for it.

     [ceiling] (default infinity, which leaves the cutoff untouched)
     additionally caps the cutoff from outside: a portfolio driver
     passes a rival-derived ceiling so candidates provably worse than
     the published incumbent are rejected without full simulation. *)
  let evaluate_candidate neighbor =
    match (config.prune, objective.Objective.bound_fn) with
    | Some margin, Some bound_fn ->
      incr evals;
      let cutoff =
        Float.min (!current_cost +. (margin *. !temperature)) ceiling
      in
      (match bound_fn ~cutoff neighbor with
      | Objective.Exact c -> Some c
      | Objective.At_least _ ->
        incr cutoff_hits;
        None)
    | (Some _ | None), _ -> Some (cost_of neighbor)
  in
  while
    !stale_levels < config.patience
    && !evals < config.max_evaluations
    && !temperature > floor
    && tiles > 1
    && not (stop ())
  do
    while
      !moves < config.moves_per_temperature
      && !evals < config.max_evaluations
      && not (stop ())
    do
      incr moves;
      let neighbor = Placement.random_neighbor rng ~tiles !current in
      (match evaluate_candidate neighbor with
      | None -> incr rejected
      | Some neighbor_cost ->
        let delta = neighbor_cost -. !current_cost in
        let accept =
          delta <= 0.0
          || Rng.float rng 1.0 < exp (-.delta /. !temperature)
        in
        if accept then begin
          incr accepted;
          current := neighbor;
          current_cost := neighbor_cost;
          if neighbor_cost < !best_cost then begin
            best := neighbor;
            best_cost := neighbor_cost;
            improved_this_level := true;
            record_best ()
          end
        end
        else incr rejected);
      maybe_flush ()
    done;
    (* Only a completed level cools; when the inner loop bails out early
       (budget or stop) the flushed checkpoint must keep the pre-update
       temperature, or a resumed run would cool the same level twice. *)
    if !moves >= config.moves_per_temperature then begin
      if !improved_this_level then stale_levels := 0 else incr stale_levels;
      temperature := !temperature *. config.cooling;
      moves := 0;
      improved_this_level := false
    end
  done;
  (* An interrupted descent leaves a final checkpoint so the kill point
     never costs more than the flush cadence. *)
  (match checkpoint with
  | Some (_, hook) when stop () -> hook (snapshot ())
  | Some _ | None -> ());
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Objective.count_evaluations (!evals - evals0);
    Metrics.add m_cutoff (!cutoff_hits - cutoff_hits0);
    Metrics.add m_accepted (!accepted - accepted0);
    Metrics.add m_rejected (!rejected - rejected0)
  end;
  { Objective.placement = !best; cost = !best_cost; evaluations = !evals }
