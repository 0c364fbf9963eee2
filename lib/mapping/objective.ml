module Wormhole = Nocmap_sim.Wormhole
module Metrics = Nocmap_obs.Metrics

type bound =
  | Exact of float
  | At_least of float

type t = {
  name : string;
  cost_fn : Placement.t -> float;
  bound_fn : (cutoff:float -> Placement.t -> bound) option;
}

type search_result = {
  placement : Placement.t;
  cost : float;
  evaluations : int;
}

let m_evaluations =
  Metrics.counter ~help:"objective evaluations across all search algorithms"
    "search.evaluations"

let count_evaluations n = Metrics.add m_evaluations n

(* Below this many cores a move re-prices a large share of the terms,
   and the incremental evaluator's bookkeeping costs more than the fold
   it saves: on annealing streams over the catalog apps and the small
   Table 2 instances (5-12 cores) a call cost 1.2-2.4x the full fold's,
   on generated 32-96-core apps and the 62-99-core Table 2 ones
   0.6-0.9x (EXPERIMENTS.md). *)
let incremental_cores = 32

let cwm ~tech ~crg ~cwg =
  {
    name = "cwm";
    cost_fn =
      (if Nocmap_model.Cwg.core_count cwg < incremental_cores then
         Cost_cwm.dynamic_energy ~tech ~crg ~cwg
       else Cost_cwm.incremental_energy ~tech ~crg ~cwg);
    bound_fn = None;
  }

let cwm_region ~tech ~crg ~cwg ~cores =
  {
    name = "cwm";
    cost_fn = Cost_cwm.region_energy ~tech ~crg ~cwg ~cores;
    bound_fn = None;
  }

let cdcm ?(incremental = false) ~tech ~params ~crg ~cdcg () =
  if not incremental then
    let scratch = Wormhole.Scratch.create ~crg cdcg in
    {
      name = "cdcm";
      cost_fn = (fun p -> Cost_cdcm.total_energy ~scratch ~tech ~params ~crg ~cdcg p);
      bound_fn =
        Some
          (fun ~cutoff p ->
            match Cost_cdcm.evaluate_bound ~scratch ~tech ~params ~crg ~cdcg ~cutoff p with
            | Cost_cdcm.Exact e -> Exact e.Cost_cdcm.total
            | Cost_cdcm.At_least b -> At_least b);
    }
  else begin
    (* The evaluator anchors at the first placement it sees — which is
       also how a checkpoint resume reconstructs it: incremental state
       is a pure function of the placement, never serialized. *)
    let inc = ref None in
    let get p =
      match !inc with
      | Some i -> i
      | None ->
        let i =
          Cost_cdcm_incremental.create ~tech ~params ~crg ~cdcg ~placement:p ()
        in
        inc := Some i;
        i
    in
    {
      name = "cdcm";
      cost_fn =
        (fun p ->
          (Cost_cdcm_incremental.evaluate_for (get p) p).Cost_cdcm.total);
      bound_fn =
        Some
          (fun ~cutoff p ->
            match Cost_cdcm_incremental.bound_for (get p) ~cutoff p with
            | Cost_cdcm.Exact e -> Exact e.Cost_cdcm.total
            | Cost_cdcm.At_least b -> At_least b);
    }
  end

let cdcm_expected ?fault_policy ~tech ~params ~scenarios ~cdcg () =
  if scenarios = [] then
    invalid_arg "Objective.cdcm_expected: need at least one scenario";
  List.iter
    (fun (_, w) ->
      if not (w > 0.0) then
        invalid_arg
          (Printf.sprintf
             "Objective.cdcm_expected: scenario weight %g is not positive" w))
    scenarios;
  let tiles = Nocmap_noc.Crg.tile_count (fst (List.hd scenarios)) in
  List.iter
    (fun (crg, _) ->
      if Nocmap_noc.Crg.tile_count crg <> tiles then
        invalid_arg "Objective.cdcm_expected: scenarios span different meshes")
    scenarios;
  let total_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 scenarios in
  let scenarios =
    List.map (fun (crg, w) -> (crg, w /. total_weight)) scenarios
  in
  (* All scenario CRGs share the tile count, so one arena serves them all. *)
  let scratch =
    Wormhole.Scratch.create ~crg:(fst (List.hd scenarios)) cdcg
  in
  let cost_fn p =
    List.fold_left
      (fun acc (crg, w) ->
        acc
        +. (w *. Cost_cdcm.total_energy ~scratch ?fault_policy ~tech ~params ~crg ~cdcg p))
      0.0 scenarios
  in
  let bound_fn ~cutoff p =
    (* Evaluate scenarios in order, tightening each scenario's private
       cutoff by what the previous ones already spent.  Energies are
       non-negative, so once the running expectation provably exceeds
       [cutoff] the remaining scenarios can only push it higher and
       [At_least acc] is sound. *)
    let rec go acc = function
      | [] -> Exact acc
      | (crg, w) :: rest -> (
        let scenario_cutoff = (cutoff -. acc) /. w in
        match
          Cost_cdcm.evaluate_bound ~scratch ?fault_policy ~tech ~params ~crg
            ~cdcg ~cutoff:scenario_cutoff p
        with
        | Cost_cdcm.Exact e -> go (acc +. (w *. e.Cost_cdcm.total)) rest
        | Cost_cdcm.At_least b -> At_least (acc +. (w *. b)))
    in
    go 0.0 scenarios
  in
  { name = "cdcm-expected"; cost_fn; bound_fn = Some bound_fn }

let with_cache cache t =
  let cost_fn p =
    match Eval_cache.find_exact cache p with
    | Some c -> c
    | None ->
      let c = t.cost_fn p in
      Eval_cache.add_exact cache p c;
      c
  in
  let bound_fn =
    Option.map
      (fun bound_fn ~cutoff p ->
        match Eval_cache.find_bound cache ~cutoff p with
        | Eval_cache.Known_exact c -> Exact c
        | Eval_cache.Known_at_least b -> At_least b
        | Eval_cache.Unknown -> (
          match bound_fn ~cutoff p with
          | Exact c ->
            Eval_cache.add_exact cache p c;
            Exact c
          | At_least b ->
            Eval_cache.add_bound cache ~cutoff p b;
            At_least b))
      t.bound_fn
  in
  { t with cost_fn; bound_fn }

(* Largest cycle cutoff safely representable in the simulator's
   packed-event time field. *)
let no_cutoff_threshold = 1e15

let texec ~params ~crg ~cdcg =
  let scratch = Wormhole.Scratch.create ~crg cdcg in
  {
    name = "texec";
    cost_fn =
      (fun placement ->
        float_of_int
          (Wormhole.texec_cycles ~scratch ~params ~crg ~placement cdcg));
    bound_fn =
      Some
        (fun ~cutoff placement ->
          let cutoff_cycles =
            if cutoff >= no_cutoff_threshold then None
            else Some (max 0 (int_of_float (Float.floor cutoff)))
          in
          let s =
            Wormhole.run_summary ~scratch ?cutoff:cutoff_cycles ~params ~crg
              ~placement cdcg
          in
          let cycles = float_of_int s.Wormhole.texec_cycles in
          if s.Wormhole.truncated then At_least cycles else Exact cycles);
  }
