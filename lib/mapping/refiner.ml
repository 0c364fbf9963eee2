type t =
  | Sa of Annealing.config
  | Tabu of Tabu.config
  | Genetic of Genetic.config
  | Local of int

type state =
  | Sa_running of Annealing.checkpoint
  | Tabu_running of Tabu.checkpoint
  | Genetic_running of Genetic.checkpoint
  | Local_running of Local_search.checkpoint
  | Done of Objective.search_result

let best_cost = function
  | Sa_running c -> c.Annealing.best_cost
  | Tabu_running c -> c.Tabu.best_cost
  | Genetic_running c -> c.Genetic.best_cost
  | Local_running c -> c.Local_search.current_cost
  | Done r -> r.Objective.cost

let best = function
  | Sa_running c -> c.Annealing.best
  | Tabu_running c -> c.Tabu.best
  | Genetic_running c -> c.Genetic.best
  | Local_running c -> c.Local_search.current
  | Done r -> r.Objective.placement

let evaluations = function
  | Sa_running c -> c.Annealing.evaluations
  | Tabu_running c -> c.Tabu.evaluations
  | Genetic_running c -> c.Genetic.evaluations
  | Local_running c -> c.Local_search.evaluations
  | Done r -> r.Objective.evaluations

let run refiner ~rng ~tiles ~objective ?initial ?ceiling ?stop ?convergence
    ?checkpoint ?resume ~cores () =
  let hook wrap =
    Option.map (fun (every, hook) -> (every, fun c -> hook (wrap c))) checkpoint
  in
  let resumed project =
    Option.map
      (fun state ->
        match project state with
        | Some c -> c
        | None -> invalid_arg "Refiner.run: resume state is not this searcher's")
      resume
  in
  match refiner with
  | Sa config ->
    Annealing.search ~rng ~config ~tiles ~objective ?initial ?ceiling ?stop
      ?convergence
      ?checkpoint:(hook (fun c -> Sa_running c))
      ?resume:(resumed (function Sa_running c -> Some c | _ -> None))
      ~cores ()
  | Tabu config ->
    Tabu.search ~rng ~config ~tiles ~objective ?initial ?ceiling ?stop
      ?convergence
      ?checkpoint:(hook (fun c -> Tabu_running c))
      ?resume:(resumed (function Tabu_running c -> Some c | _ -> None))
      ~cores ()
  | Genetic config ->
    Genetic.search ~rng ~config ~tiles ~objective ?initial ?ceiling ?stop
      ?convergence
      ?checkpoint:(hook (fun c -> Genetic_running c))
      ?resume:(resumed (function Genetic_running c -> Some c | _ -> None))
      ~cores ()
  | Local max_evaluations ->
    let initial =
      match initial with
      | Some p -> p
      | None -> invalid_arg "Refiner.run: local search needs ~initial"
    in
    Local_search.search ~objective ~tiles ~initial ~max_evaluations
      ?convergence ?stop
      ?checkpoint:(hook (fun c -> Local_running c))
      ?resume:(resumed (function Local_running c -> Some c | _ -> None))
      ()

(* A cost-call counting view of an objective: transparent to the search
   (same values, same bound verdicts), it only lets a slice meter its
   budget from outside. *)
let counted n (objective : Objective.t) =
  {
    objective with
    Objective.cost_fn =
      (fun p ->
        incr n;
        objective.Objective.cost_fn p);
    bound_fn =
      Option.map
        (fun bound_fn ~cutoff p ->
          incr n;
          bound_fn ~cutoff p)
        objective.Objective.bound_fn;
  }

(* The slice ends through the sticky stop contract, so the state the
   final flush captures resumes bit-identically; no flush means the
   search ended on its own, and it comes back [Done]. *)
let slice refiner ~rng ~tiles ~objective ?initial ?ceiling ~stop ~budget ~cores
    state =
  let n = ref 0 in
  let captured = ref None in
  let result =
    run refiner ~rng ~tiles ~objective:(counted n objective) ?initial ?ceiling
      ~stop:(fun () -> stop () || !n >= budget)
      ~checkpoint:(max_int, fun s -> captured := Some s)
      ?resume:state ~cores ()
  in
  match !captured with Some s -> s | None -> Done result
