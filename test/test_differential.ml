(* Differential properties: independent implementations of the same
   quantity must agree.  Scratch-arena simulation vs fresh allocation,
   metrics-enabled vs metrics-disabled runs, the analytic critical path
   vs the simulator on contention-free traffic, and pruned vs unpruned
   search objectives. *)

module Metrics = Nocmap_obs.Metrics
module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Wormhole = Nocmap_sim.Wormhole
module Analytic = Nocmap_sim.Analytic
module Rng = Nocmap_util.Rng
module Mapping = Nocmap_mapping
module Generator = Nocmap_tgff.Generator

let params = Noc_params.make ~flit_bits:8 ()

let gen_scenario =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* cols = int_range 2 4 in
    let* rows = int_range 2 4 in
    let mesh = Mesh.create ~cols ~rows in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let* cores = int_range 2 (min 8 tiles) in
    let* packets = int_range 1 40 in
    let spec =
      Generator.default_spec ~name:"diff" ~cores ~packets
        ~total_bits:(max packets (packets * 60))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Mapping.Placement.random rng ~cores ~tiles in
    return (mesh, cdcg, placement))

let summaries_equal (a : Wormhole.summary) (b : Wormhole.summary) = a = b

let prop_scratch_equals_fresh =
  QCheck2.Test.make ~name:"scratch arena run equals fresh-allocation run"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let scratch = Wormhole.Scratch.create ~crg cdcg in
      let fresh = Wormhole.run_summary ~params ~crg ~placement cdcg in
      let reused = Wormhole.run_summary ~scratch ~params ~crg ~placement cdcg in
      (* Run the scratch twice: reset bugs would show on the second use. *)
      let reused2 = Wormhole.run_summary ~scratch ~params ~crg ~placement cdcg in
      summaries_equal fresh reused && summaries_equal fresh reused2)

let prop_metrics_do_not_change_sim =
  QCheck2.Test.make ~name:"simulation is bit-identical with metrics on or off"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let run () = Wormhole.run_summary ~params ~crg ~placement cdcg in
      let off = Metrics.with_enabled false run in
      let on_ = Metrics.with_enabled true run in
      let metered =
        let meter = Wormhole.Meter.create ~crg in
        Metrics.with_enabled true (fun () ->
            Wormhole.run_summary ~meter ~params ~crg ~placement cdcg)
      in
      summaries_equal off on_ && summaries_equal off metered)

let prop_metrics_do_not_change_search =
  QCheck2.Test.make ~name:"annealing result is identical with metrics on or off"
    ~count:(Test_util.prop_count 20) gen_scenario (fun (mesh, cdcg, _) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let objective =
        Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
      in
      let descend enabled =
        Metrics.with_enabled enabled (fun () ->
            Mapping.Annealing.search ~rng:(Rng.create ~seed:11)
              ~config:(Mapping.Annealing.quick_config ~tiles)
              ~tiles ~objective ~cores ())
      in
      let off = descend false and on_ = descend true in
      off.Mapping.Objective.placement = on_.Mapping.Objective.placement
      && off.Mapping.Objective.cost = on_.Mapping.Objective.cost
      && off.Mapping.Objective.evaluations = on_.Mapping.Objective.evaluations)

let prop_pruned_sa_cost_consistent =
  (* Cutoff pruning may only reject candidates; the cost reported for
     the returned placement must equal an exact re-evaluation. *)
  QCheck2.Test.make ~name:"pruned annealing reports the exact cost of its result"
    ~count:(Test_util.prop_count 20) gen_scenario (fun (mesh, cdcg, _) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let objective =
        Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
      in
      let config =
        { (Mapping.Annealing.quick_config ~tiles) with
          Mapping.Annealing.prune = Some 20.0
        }
      in
      let result =
        Mapping.Annealing.search ~rng:(Rng.create ~seed:23) ~config ~tiles
          ~objective ~cores ()
      in
      objective.Mapping.Objective.cost_fn result.Mapping.Objective.placement
      = result.Mapping.Objective.cost)

let prop_local_search_prune_lossless =
  (* The local-search bound check is an exact accept/reject test, so
     stripping the bound function must not change the trajectory. *)
  QCheck2.Test.make ~name:"local search with and without bound_fn is identical"
    ~count:(Test_util.prop_count 20) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let objective = Mapping.Objective.texec ~params ~crg ~cdcg in
      let unbounded = { objective with Mapping.Objective.bound_fn = None } in
      let run objective =
        Mapping.Local_search.search ~objective ~tiles ~initial:placement ()
      in
      let pruned = run objective and exact = run unbounded in
      pruned.Mapping.Objective.placement = exact.Mapping.Objective.placement
      && pruned.Mapping.Objective.cost = exact.Mapping.Objective.cost)

(* --- Incremental CDCM vs fresh evaluation --- *)

module Fault = Nocmap_noc.Fault
module Routing = Nocmap_noc.Routing
module Cost_cdcm = Mapping.Cost_cdcm
module Inc = Mapping.Cost_cdcm_incremental

(* Like [gen_scenario], but over one- and two-layer meshes up to 4x4
   under all four routings (torus only when both planar sides are at
   least 3), flit widths of 1, 8 or 16 bits, bounded 1- to 4-flit
   buffers on a quarter of the draws, and four fault kinds: none, one
   or two failed links, or one failed router.  One failed link never
   severs a pair, because the reroute always finds a detour; a failed
   router severs every pair that starts or ends on it, so the packets
   of a core placed there exercise the severed and cascade-drop
   accounting ([prop_fault_mix_drops] checks that some draws drop
   packets).  The stacked draws exercise the TSV-priced energy
   table.  Bounded buffers can deadlock on a detoured route: two failed
   links on a small mesh closed a cycle of waits in 4 of 200 000 draws,
   which leaves no texec to check.  The incremental walks, which
   simulate dozens of placements per draw, keep the drawn flit width
   with unbounded buffers, where the simulator cannot deadlock. *)
let gen_cdcm_scenario =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* cols = int_range 2 4 in
    let* rows = int_range 2 4 in
    let* layers = int_range 1 2 in
    let* routing =
      oneofl
        (if cols >= 3 && rows >= 3 then
           Routing.[ Xy; Yx; Torus_xy; Torus_yx ]
         else Routing.[ Xy; Yx ])
    in
    let* fault_kind = int_range 0 3 in
    let* flit_bits = oneofl [ 1; 8; 16 ] in
    let* buffering =
      frequency
        [
          (3, return Noc_params.Unbounded);
          (1, map (fun c -> Noc_params.Bounded c) (int_range 1 4));
        ]
    in
    let mesh = Mesh.create3 ~cols ~rows ~layers in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let crg =
      let wrap = Routing.uses_wrap_links routing in
      match fault_kind with
      | 0 -> Crg.create ~routing mesh
      | 3 ->
        Crg.create ~routing
          ~faults:(Fault.make ~wrap ~routers:[ Rng.int rng tiles ] mesh)
          mesh
      | k -> (
        match Fault.sample_link_scenarios ~wrap ~rng ~k ~count:1 mesh with
        | [ faults ] -> Crg.create ~routing ~faults mesh
        | _ -> Crg.create ~routing mesh)
    in
    let* cores = int_range 2 (min 8 tiles) in
    let* packets = int_range 1 40 in
    let spec =
      Generator.default_spec ~name:"cdcm-diff" ~cores ~packets
        ~total_bits:(max packets (packets * 60))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Mapping.Placement.random rng ~cores ~tiles in
    let params = Noc_params.make ~flit_bits ~buffering () in
    return (params, crg, cdcg, placement, seed))

(* The drawn scenario's simulation, [None] when it deadlocks. *)
let simulate (params, crg, cdcg, placement, _) =
  match Wormhole.run_summary ~params ~crg ~placement cdcg with
  | s -> Some s
  | exception Wormhole.Deadlock _ -> None

let unbounded (params : Noc_params.t) =
  Noc_params.make ~flit_bits:params.Noc_params.flit_bits ()

let prop_fault_mix_drops =
  QCheck2.Test.make ~name:"some CDCM scenarios drop packets" ~count:1
    (QCheck2.Gen.list_repeat 200 gen_cdcm_scenario)
    (List.exists (fun draw ->
         match simulate draw with
         | Some s -> s.Wormhole.dropped_packets > 0
         | None -> false))

let prop_contention_free_matches_analytic =
  (* Whenever the simulator reports zero contention the analytic
     critical path is exact, not just a lower bound. *)
  QCheck2.Test.make ~name:"contention-free sim equals analytic critical path"
    ~count:(Test_util.prop_count 200) gen_cdcm_scenario
    (fun ((params, crg, cdcg, placement, _) as draw) ->
      match simulate draw with
      | None -> true
      | Some s ->
        s.Wormhole.contention_cycles > 0
        ||
        let est = Analytic.estimate ~params ~crg ~placement cdcg in
        s.Wormhole.texec_cycles = est.Analytic.critical_path_cycles)

let prop_analytic_is_lower_bound =
  QCheck2.Test.make ~name:"analytic estimate never exceeds simulated texec"
    ~count:(Test_util.prop_count 100) gen_cdcm_scenario
    (fun ((params, crg, cdcg, placement, _) as draw) ->
      match simulate draw with
      | None -> true
      | Some s ->
        let est = Analytic.estimate ~params ~crg ~placement cdcg in
        est.Analytic.lower_bound_cycles <= s.Wormhole.texec_cycles)

let prop_cdcm_incremental_matches_fresh =
  (* A random walk of [bound_for] queries, the only query a search
     makes: single moves, swaps and fresh re-placements of the anchor,
     each under an infinite cutoff, the anchor's own cost (a descent's
     budget), a tight one just below the candidate's true cost or a
     loose one well below it.  Every [Exact] verdict is bit-identical to
     a fresh evaluation and re-anchors there (a re-query of the new
     anchor under a zero budget is a memo hit); every [At_least] lies in
     [cutoff, true cost]; and every verdict equals the one an evaluator
     freshly created at the walk's anchor gives, so re-anchoring leaves
     no stale state behind. *)
  QCheck2.Test.make
    ~name:"incremental CDCM walk agrees with fresh evaluation"
    ~count:(Test_util.prop_count 15) gen_cdcm_scenario
    (fun (params, crg, cdcg, placement, seed) ->
      let params = unbounded params in
      let tech = Technology.t007 in
      let tiles = Crg.tile_count crg in
      let cores = Cdcg.core_count cdcg in
      let fresh p = Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg p in
      let create placement = Inc.create ~tech ~params ~crg ~cdcg ~placement () in
      let rng = Rng.create ~seed:(seed + 7) in
      let inc = create placement in
      let anchor = ref placement and anchor_cost = ref (fresh placement).Cost_cdcm.total in
      let ok = ref true in
      for _ = 1 to 25 do
        let cand =
          match Rng.int rng 3 with
          | 0 ->
            Mapping.Placement.move_to_tile !anchor ~core:(Rng.int rng cores)
              ~tile:(Rng.int rng tiles)
          | 1 ->
            Mapping.Placement.swap_cores !anchor (Rng.int rng cores)
              (Rng.int rng cores)
          | _ -> Mapping.Placement.random rng ~cores ~tiles
        in
        let truth = fresh cand in
        let cutoff =
          match Rng.int rng 4 with
          | 0 -> infinity
          | 1 -> !anchor_cost
          | 2 -> truth.Cost_cdcm.total *. 0.99
          | _ -> truth.Cost_cdcm.total *. 0.8
        in
        let verdict = Inc.bound_for inc ~cutoff cand in
        if cand <> !anchor then
          ok := !ok && verdict = Inc.bound_for (create !anchor) ~cutoff cand;
        match verdict with
        | Cost_cdcm.Exact ev ->
          ok :=
            !ok && ev = truth
            && Inc.bound_for inc ~cutoff:0.0 cand = Cost_cdcm.Exact truth;
          anchor := cand;
          anchor_cost := truth.Cost_cdcm.total
        | Cost_cdcm.At_least lb ->
          ok := !ok && lb <= truth.Cost_cdcm.total && lb >= cutoff
      done;
      let s = Inc.stats inc in
      !ok && s.Inc.queries = s.Inc.delta_hits + s.Inc.full_sim_fallbacks)

let prop_cdcm_incremental_ls_identical =
  (* Local search consumes bound verdicts in a fixed candidate order
     and re-anchors only at accepted candidates, so the incremental
     objective must retrace the plain objective exactly. *)
  QCheck2.Test.make
    ~name:"local search trajectory is identical with incremental CDCM"
    ~count:(Test_util.prop_count 10) gen_cdcm_scenario
    (fun (params, crg, cdcg, placement, _) ->
      let params = unbounded params in
      let tiles = Crg.tile_count crg in
      let run incremental =
        let objective =
          Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg
            ~incremental ()
        in
        Mapping.Local_search.search ~objective ~tiles ~initial:placement ()
      in
      let plain = run false and inc = run true in
      plain.Mapping.Objective.placement = inc.Mapping.Objective.placement
      && plain.Mapping.Objective.cost = inc.Mapping.Objective.cost
      && plain.Mapping.Objective.evaluations
         = inc.Mapping.Objective.evaluations)

let suite =
  ( "differential",
    [
      QCheck_alcotest.to_alcotest prop_scratch_equals_fresh;
      QCheck_alcotest.to_alcotest prop_metrics_do_not_change_sim;
      QCheck_alcotest.to_alcotest prop_metrics_do_not_change_search;
      QCheck_alcotest.to_alcotest prop_contention_free_matches_analytic;
      QCheck_alcotest.to_alcotest prop_analytic_is_lower_bound;
      QCheck_alcotest.to_alcotest prop_pruned_sa_cost_consistent;
      QCheck_alcotest.to_alcotest prop_local_search_prune_lossless;
      QCheck_alcotest.to_alcotest prop_cdcm_incremental_matches_fresh;
      QCheck_alcotest.to_alcotest prop_cdcm_incremental_ls_identical;
      QCheck_alcotest.to_alcotest prop_fault_mix_drops;
    ] )
