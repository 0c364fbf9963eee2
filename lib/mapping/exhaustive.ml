module Metrics = Nocmap_obs.Metrics
module Series = Nocmap_obs.Series

let m_runs = Metrics.counter ~help:"exhaustive enumerations executed" "search.ex_runs"

let m_symmetry_skipped =
  Metrics.counter
    ~help:"exhaustive leaves skipped as non-canonical under mesh symmetry"
    "search.ex_symmetry_skipped"

let arrangement_count ~cores ~tiles =
  if cores > tiles then Some 0
  else begin
    let rec loop i acc =
      if i >= cores then Some acc
      else
        let factor = tiles - i in
        if acc > max_int / factor then None else loop (i + 1) (acc * factor)
    in
    loop 0 1
  end

let search ~objective ~cores ~tiles ?(max_arrangements = 2_000_000) ?symmetry
    ?convergence () =
  if cores = 0 then invalid_arg "Exhaustive.search: no cores";
  if cores > tiles then invalid_arg "Exhaustive.search: more cores than tiles";
  (match symmetry with
  | Some sym
    when Nocmap_noc.Mesh.tile_count (Nocmap_noc.Symmetry.mesh sym) <> tiles ->
    invalid_arg "Exhaustive.search: symmetry group is over a different mesh"
  | Some _ | None -> ());
  (match arrangement_count ~cores ~tiles with
  | Some n when n <= max_arrangements -> ()
  | Some n ->
    invalid_arg
      (Printf.sprintf "Exhaustive.search: %d arrangements exceed the budget of %d" n
         max_arrangements)
  | None -> invalid_arg "Exhaustive.search: arrangement count overflows");
  let placement = Array.make cores 0 in
  let used = Array.make tiles false in
  let best = ref None in
  let evals = ref 0 in
  let skipped = ref 0 in
  let consider () =
    incr evals;
    let cost = objective.Objective.cost_fn placement in
    match !best with
    | Some (_, best_cost) when best_cost <= cost -> ()
    | Some _ | None ->
      best := Some (Array.copy placement, cost);
      (match convergence with
      | Some series -> Series.add series ~x:(float_of_int !evals) ~y:cost
      | None -> ())
  in
  (* The lexicographically first minimum-cost placement is its own
     canonical form (a lex-smaller orbit mate would have the same cost
     and come earlier), so evaluating only canonical representatives
     returns the same placement and cost as the full enumeration. *)
  let consider =
    match symmetry with
    | None -> consider
    | Some sym ->
      fun () ->
        if Nocmap_noc.Symmetry.is_canonical sym placement then consider ()
        else incr skipped
  in
  let rec assign core =
    if core = cores then consider ()
    else
      for tile = 0 to tiles - 1 do
        if not used.(tile) then begin
          used.(tile) <- true;
          placement.(core) <- tile;
          assign (core + 1);
          used.(tile) <- false
        end
      done
  in
  assign 0;
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Objective.count_evaluations !evals;
    Metrics.add m_symmetry_skipped !skipped
  end;
  match !best with
  | Some (placement, cost) -> { Objective.placement; cost; evaluations = !evals }
  | None -> assert false
