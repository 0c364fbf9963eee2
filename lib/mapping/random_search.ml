let search ~rng ~objective ~cores ~tiles ~samples =
  if samples < 1 then invalid_arg "Random_search.search: need at least one sample";
  if cores > tiles then invalid_arg "Random_search.search: more cores than tiles";
  let rec loop i best =
    if i >= samples then best
    else begin
      let placement = Placement.random rng ~cores ~tiles in
      let cost = objective.Objective.cost_fn placement in
      let best =
        match best with
        | Some (_, best_cost) when best_cost <= cost -> best
        | Some _ | None -> Some (placement, cost)
      in
      loop (i + 1) best
    end
  in
  let best = loop 0 None in
  Objective.count_evaluations samples;
  match best with
  | Some (placement, cost) -> { Objective.placement; cost; evaluations = samples }
  | None -> assert false
