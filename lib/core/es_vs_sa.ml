module Mesh = Nocmap_noc.Mesh
module Rng = Nocmap_util.Rng
module Mapping = Nocmap_mapping
module Tablefmt = Nocmap_util.Tablefmt

type verdict = {
  app : string;
  mesh : Mesh.t;
  objective_name : string;
  es_cost : float;
  sa_cost : float;
  sa_reached_optimum : bool;
  es_evaluations : int;
  sa_evaluations : int;
}

let certify ~rng ?sa_config ?(restarts = 3) ~mesh ~objective ~cores ~app () =
  if restarts < 1 then invalid_arg "Es_vs_sa.certify: restarts must be >= 1";
  let tiles = Mesh.tile_count mesh in
  let sa_config =
    match sa_config with
    | Some c -> c
    | None -> Mapping.Annealing.default_config ~tiles
  in
  let es = Mapping.Exhaustive.search ~objective ~cores ~tiles () in
  let anneal () =
    Mapping.Annealing.search ~rng:(Rng.split rng) ~config:sa_config ~tiles
      ~objective ~cores ()
  in
  let rec best_sa i (best : Mapping.Objective.search_result) evals =
    if i >= restarts then (best, evals)
    else begin
      let r = anneal () in
      let evals = evals + r.Mapping.Objective.evaluations in
      if best.Mapping.Objective.cost <= r.Mapping.Objective.cost then
        best_sa (i + 1) best evals
      else best_sa (i + 1) r evals
    end
  in
  let first = anneal () in
  let sa, sa_evaluations = best_sa 1 first first.Mapping.Objective.evaluations in
  {
    app;
    mesh;
    objective_name = objective.Mapping.Objective.name;
    es_cost = es.Mapping.Objective.cost;
    sa_cost = sa.Mapping.Objective.cost;
    sa_reached_optimum =
      sa.Mapping.Objective.cost <= es.Mapping.Objective.cost *. (1.0 +. 1e-9);
    es_evaluations = es.Mapping.Objective.evaluations;
    sa_evaluations;
  }

let render verdicts =
  let table =
    Tablefmt.create ~title:"Exhaustive search vs simulated annealing"
      ~columns:
        [
          ("App", Tablefmt.Left);
          ("NoC", Tablefmt.Left);
          ("Objective", Tablefmt.Left);
          ("ES cost", Tablefmt.Right);
          ("SA cost", Tablefmt.Right);
          ("SA optimal?", Tablefmt.Center);
          ("ES evals", Tablefmt.Right);
          ("SA evals", Tablefmt.Right);
        ]
      ()
  in
  List.iter
    (fun v ->
      Tablefmt.add_row table
        [
          v.app;
          Mesh.to_string v.mesh;
          v.objective_name;
          Printf.sprintf "%.6g" v.es_cost;
          Printf.sprintf "%.6g" v.sa_cost;
          (if v.sa_reached_optimum then "yes" else "NO");
          string_of_int v.es_evaluations;
          string_of_int v.sa_evaluations;
        ])
    verdicts;
  Tablefmt.render table
