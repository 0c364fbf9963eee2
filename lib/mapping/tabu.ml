module Rng = Nocmap_util.Rng
module Metrics = Nocmap_obs.Metrics
module Series = Nocmap_obs.Series

let m_runs = Metrics.counter ~help:"tabu searches executed" "search.tabu_runs"

let m_cutoff =
  Metrics.counter ~help:"candidate evaluations truncated by a prune cutoff"
    "search.cutoff_hits"

type config = {
  tenure : int;
  neighborhood : int;
  patience : int;
  max_evaluations : int;
}

let default_config ~tiles =
  {
    tenure = max 4 (tiles / 2);
    neighborhood = 2 * tiles;
    patience = 40;
    max_evaluations = 200_000;
  }

let quick_config ~tiles =
  {
    tenure = max 3 (tiles / 3);
    neighborhood = max 4 tiles;
    patience = 15;
    max_evaluations = 8_000;
  }

type checkpoint = {
  rng_state : int64;
  evaluations : int;
  iteration : int;
  current : Placement.t;
  current_cost : float;
  best : Placement.t;
  best_cost : float;
  stale : int;
  tabu : (int * int * int) list;
  cutoff_hits : int;
}

let search ~rng ~config ~tiles ~objective ?initial ?(ceiling = infinity)
    ?(stop = fun () -> false) ?convergence ?checkpoint ?resume ~cores () =
  if cores > tiles then invalid_arg "Tabu.search: more cores than tiles";
  if config.tenure < 1 then invalid_arg "Tabu.search: tenure must be positive";
  if config.neighborhood < 1 then
    invalid_arg "Tabu.search: neighborhood must be positive";
  let evals = ref 0 and cutoff_hits = ref 0 in
  let cost_of p =
    incr evals;
    objective.Objective.cost_fn p
  in
  (* [None] means the candidate was provably above [threshold] and its
     evaluation was truncated — it can never be the move taken. *)
  let eval_below ~threshold p =
    match objective.Objective.bound_fn with
    | None -> Some (cost_of p)
    | Some bound_fn ->
      incr evals;
      (match bound_fn ~cutoff:threshold p with
      | Objective.Exact c -> Some c
      | Objective.At_least _ ->
        incr cutoff_hits;
        None)
  in
  let iteration = ref 0 and stale = ref 0 in
  let current = ref [||] and current_cost = ref 0.0 in
  let best = ref [||] and best_cost = ref 0.0 in
  (* The tabu list maps a (core, tile) move attribute to the iteration
     it expires at: moving a core back onto a tile it recently left is
     forbidden unless the move beats the best cost ever seen
     (aspiration).  Kept as a short assoc list — tenures are small. *)
  let tabu = ref [] in
  let record_best () =
    match convergence with
    | Some series -> Series.add series ~x:(float_of_int !evals) ~y:!best_cost
    | None -> ()
  in
  (match resume with
  | Some c ->
    Rng.set_state rng c.rng_state;
    evals := c.evaluations;
    iteration := c.iteration;
    current := Array.copy c.current;
    current_cost := c.current_cost;
    best := Array.copy c.best;
    best_cost := c.best_cost;
    stale := c.stale;
    tabu := c.tabu;
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
    record_best ());
  (* Counters are flushed as this call's own work: a resumed search
     does not count its checkpoint's totals again. *)
  let evals0, cutoff_hits0 =
    match resume with Some c -> (c.evaluations, c.cutoff_hits) | None -> (0, 0)
  in
  let snapshot () =
    {
      rng_state = Rng.state rng;
      evaluations = !evals;
      iteration = !iteration;
      current = Array.copy !current;
      current_cost = !current_cost;
      best = Array.copy !best;
      best_cost = !best_cost;
      stale = !stale;
      tabu = !tabu;
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
  let is_tabu ~core ~tile =
    List.exists
      (fun (c, t, expiry) -> c = core && t = tile && expiry > !iteration)
      !tabu
  in
  (* One iteration: sample [neighborhood] single-core moves, pick the
     cheapest admissible one, and take it even when it is uphill (the
     memory in the tabu list is what prevents cycling back).  The first
     admissible candidate is always evaluated exactly so the scan has an
     anchor; later candidates are evaluated under a cutoff at the best
     cost seen in the scan (never selected anyway when truncated) capped
     by the portfolio [ceiling]. *)
  let step () =
    let chosen = ref None in
    let forced = ref None in
    for _ = 1 to config.neighborhood do
      let core = Rng.int rng cores in
      let tile =
        let rec fresh () =
          let t = Rng.int rng tiles in
          if t = !current.(core) then fresh () else t
        in
        fresh ()
      in
      if !evals < config.max_evaluations then
        if is_tabu ~core ~tile then begin
          (* Aspiration: a tabu move is admissible only when it beats
             the best cost ever seen, so the cutoff is the best cost. *)
          match eval_below ~threshold:!best_cost (Placement.move_to_tile !current ~core ~tile) with
          | Some c when c < !best_cost -> (
            let candidate = (core, tile, c) in
            match !chosen with
            | Some (_, _, cc) when cc <= c -> ()
            | Some _ | None -> chosen := Some candidate)
          | Some _ | None ->
            (* Remember one tabu fallback so a fully-tabu neighborhood
               still moves somewhere instead of stalling forever. *)
            if !forced = None then forced := Some (core, tile)
        end
        else begin
          let threshold =
            match !chosen with
            | None -> ceiling
            | Some (_, _, cc) -> Float.min cc ceiling
          in
          match
            if threshold = infinity then
              Some (cost_of (Placement.move_to_tile !current ~core ~tile))
            else eval_below ~threshold (Placement.move_to_tile !current ~core ~tile)
          with
          | Some c -> (
            let candidate = (core, tile, c) in
            match !chosen with
            | Some (_, _, cc) when cc <= c -> ()
            | Some _ | None -> chosen := Some candidate)
          | None -> ()
        end
    done;
    let take core tile cost =
      let previous = !current.(core) in
      current := Placement.move_to_tile !current ~core ~tile;
      current_cost := cost;
      tabu :=
        (core, previous, !iteration + config.tenure)
        :: List.filter (fun (_, _, expiry) -> expiry > !iteration) !tabu;
      if cost < !best_cost then begin
        best := !current;
        best_cost := cost;
        stale := 0;
        record_best ()
      end
      else incr stale
    in
    (match (!chosen, !forced) with
    | Some (core, tile, cost), _ -> take core tile cost
    | None, Some (core, tile) ->
      (* Every sampled move was tabu (or truncated): take the remembered
         fallback exactly — a deterministic diversification kick. *)
      if !evals < config.max_evaluations then
        take core tile (cost_of (Placement.move_to_tile !current ~core ~tile))
      else incr stale
    | None, None -> incr stale);
    incr iteration
  in
  while
    !stale < config.patience
    && !evals < config.max_evaluations
    && tiles > 1
    && not (stop ())
  do
    step ();
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
