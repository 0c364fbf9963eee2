module Metrics = Nocmap_obs.Metrics
module Series = Nocmap_obs.Series

let m_runs =
  Metrics.counter ~help:"steepest-descent searches executed" "search.ls_runs"

(* Registration is idempotent, so this resolves to the same counter the
   annealer flushes into. *)
let m_cutoff =
  Metrics.counter ~help:"candidate evaluations truncated by a prune cutoff"
    "search.cutoff_hits"

type checkpoint = {
  current : Placement.t;
  current_cost : float;
  evaluations : int;
  cutoff_hits : int;
}

let search ~objective ~tiles ~initial ?(max_evaluations = 100_000) ?convergence
    ?(stop = fun () -> false) ?checkpoint ?resume () =
  (match Placement.validate ~tiles initial with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Local_search.search: " ^ msg));
  let evals = ref 0 in
  let cutoff_hits = ref 0 in
  let cost_of p =
    incr evals;
    objective.Objective.cost_fn p
  in
  (* Lossless pruning: only candidates strictly below [threshold] can be
     taken, and a truncated bound is strictly above its cutoff — so
     cutting evaluation off at the threshold never changes the chosen
     move, it only skips the tail of doomed simulations. *)
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
  let cores = Array.length initial in
  let current = ref (Array.copy initial) in
  let current_cost = ref 0.0 in
  (match resume with
  | Some c ->
    evals := c.evaluations;
    cutoff_hits := c.cutoff_hits;
    current := Array.copy c.current;
    current_cost := c.current_cost
  | None -> current_cost := cost_of !current);
  (* Counters are flushed as this call's own work: a resumed descent
     does not count its checkpoint's totals again. *)
  let evals0, cutoff_hits0 =
    match resume with Some c -> (c.evaluations, c.cutoff_hits) | None -> (0, 0)
  in
  let record () =
    match convergence with
    | Some series -> Series.add series ~x:(float_of_int !evals) ~y:!current_cost
    | None -> ()
  in
  record ();
  let snapshot () =
    {
      current = Array.copy !current;
      current_cost = !current_cost;
      evaluations = !evals;
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
  (* One pass: the best strictly-improving move among all core->tile
     relocations (swapping with the occupant when taken).  [occupant]
     holds the first core on each tile of the pass's placement, or -1,
     as {!Placement.move_to_tile} would find it. *)
  let occupant = Array.make (max 0 tiles) (-1) in
  let best_move () =
    let base = !current in
    Array.fill occupant 0 (Array.length occupant) (-1);
    for core = Array.length base - 1 downto 0 do
      let tile = base.(core) in
      if tile >= 0 && tile < tiles then occupant.(tile) <- core
    done;
    let best = ref None in
    for core = 0 to cores - 1 do
      for tile = 0 to tiles - 1 do
        if tile <> base.(core) && !evals < max_evaluations then begin
          let candidate =
            Placement.relocate base ~core ~tile ~other:occupant.(tile)
          in
          let threshold =
            match !best with
            | Some (_, best_cost) -> Float.min !current_cost best_cost
            | None -> !current_cost
          in
          match eval_below ~threshold candidate with
          | None -> ()
          | Some cost ->
            (match !best with
            | Some (_, best_cost) when best_cost <= cost -> ()
            | Some _ | None ->
              if cost < !current_cost then best := Some (candidate, cost))
        end
      done
    done;
    !best
  in
  (* Checkpoints land on pass boundaries only: the state between passes
     is exactly (current, cost, evals), so a resumed descent replays the
     next pass move-for-move. *)
  let converged = ref false in
  let rec descend () =
    if !evals < max_evaluations && not (stop ()) then begin
      match best_move () with
      | None -> converged := true
      | Some (placement, cost) ->
        current := placement;
        current_cost := cost;
        record ();
        maybe_flush ();
        descend ()
    end
  in
  descend ();
  (* A stop that lands during the pass proving the local optimum leaves
     nothing to resume: recording that boundary would make the resumed
     descent pay for the same pass again. *)
  (match checkpoint with
  | Some (_, hook) when stop () && not !converged -> hook (snapshot ())
  | Some _ | None -> ());
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Objective.count_evaluations (!evals - evals0);
    Metrics.add m_cutoff (!cutoff_hits - cutoff_hits0)
  end;
  { Objective.placement = !current; cost = !current_cost; evaluations = !evals }
