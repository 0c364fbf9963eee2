module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Mapping = Nocmap_mapping
module Fig1 = Nocmap_apps.Fig1
module Rng = Nocmap_util.Rng

let crg = Crg.create (Mesh.create ~cols:2 ~rows:2)
let params = Noc_params.paper_example

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

let cdcm_objective = Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg:Fig1.cdcg ()

let test_arrangement_count () =
  Alcotest.(check (option int)) "4 cores on 4 tiles" (Some 24)
    (Mapping.Exhaustive.arrangement_count ~cores:4 ~tiles:4);
  Alcotest.(check (option int)) "5 on 6" (Some 720)
    (Mapping.Exhaustive.arrangement_count ~cores:5 ~tiles:6);
  Alcotest.(check (option int)) "too many cores" (Some 0)
    (Mapping.Exhaustive.arrangement_count ~cores:3 ~tiles:2);
  Alcotest.(check (option int)) "overflow" None
    (Mapping.Exhaustive.arrangement_count ~cores:30 ~tiles:30)

let test_exhaustive_finds_fig1_optimum () =
  (* 399 pJ is the proven optimum of the worked example (mapping (d)
     achieves it; ES must find a mapping at least as good). *)
  let r = Mapping.Exhaustive.search ~objective:cdcm_objective ~cores:4 ~tiles:4 () in
  Alcotest.(check (float 1e-18)) "optimum" 399.0e-12 r.Mapping.Objective.cost;
  Alcotest.(check int) "visited all 24" 24 r.Mapping.Objective.evaluations

let test_exhaustive_budget_guard () =
  Alcotest.(check bool) "budget exceeded raises" true
    (match
       Mapping.Exhaustive.search ~objective:cdcm_objective ~cores:4 ~tiles:4
         ~max_arrangements:10 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exhaustive_more_cores_than_tiles () =
  Alcotest.(check bool) "raises" true
    (match Mapping.Exhaustive.search ~objective:cdcm_objective ~cores:5 ~tiles:4 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let sa_result seed =
  Mapping.Annealing.search
    ~rng:(Rng.create ~seed)
    ~config:(Mapping.Annealing.default_config ~tiles:4)
    ~tiles:4 ~objective:cdcm_objective ~cores:4 ()

let test_sa_reaches_optimum_on_fig1 () =
  let r = sa_result 17 in
  Alcotest.(check (float 1e-18)) "SA = ES optimum" 399.0e-12 r.Mapping.Objective.cost;
  Alcotest.(check bool) "placement valid" true
    (Mapping.Placement.is_valid ~tiles:4 r.Mapping.Objective.placement)

let test_sa_deterministic () =
  let a = sa_result 123 and b = sa_result 123 in
  Alcotest.(check (float 1e-30)) "same cost" a.Mapping.Objective.cost
    b.Mapping.Objective.cost;
  Alcotest.(check (array int)) "same placement" a.Mapping.Objective.placement
    b.Mapping.Objective.placement

let test_sa_respects_budget () =
  let config =
    {
      (Mapping.Annealing.quick_config ~tiles:4) with
      Mapping.Annealing.max_evaluations = 50;
    }
  in
  let r =
    Mapping.Annealing.search ~rng:(Rng.create ~seed:1) ~config ~tiles:4
      ~objective:cdcm_objective ~cores:4 ()
  in
  Alcotest.(check bool) "within budget" true (r.Mapping.Objective.evaluations <= 50)

let test_sa_bad_config () =
  let config =
    { (Mapping.Annealing.quick_config ~tiles:4) with Mapping.Annealing.cooling = 1.5 }
  in
  Alcotest.check_raises "cooling must be in (0,1)"
    (Invalid_argument "Annealing.search: cooling must lie in (0,1)") (fun () ->
      ignore
        (Mapping.Annealing.search ~rng:(Rng.create ~seed:1) ~config ~tiles:4
           ~objective:cdcm_objective ~cores:4 ()))

let test_sa_initial_placement_kept_as_best () =
  (* Warm-started from the global optimum, SA can never return worse. *)
  let config = Mapping.Annealing.quick_config ~tiles:4 in
  let r =
    Mapping.Annealing.search ~rng:(Rng.create ~seed:3) ~config ~tiles:4
      ~objective:cdcm_objective ~initial:Fig1.mapping_d ~cores:4 ()
  in
  Alcotest.(check bool) "never worse than the warm start" true
    (r.Mapping.Objective.cost <= 399.0e-12 +. 1e-24)

let test_random_search () =
  let r =
    Mapping.Random_search.search ~rng:(Rng.create ~seed:9) ~objective:cdcm_objective
      ~cores:4 ~tiles:4 ~samples:200
  in
  Alcotest.(check int) "evaluations" 200 r.Mapping.Objective.evaluations;
  Alcotest.(check bool) "valid" true
    (Mapping.Placement.is_valid ~tiles:4 r.Mapping.Objective.placement);
  (* 200 samples over 24 arrangements certainly hit the optimum. *)
  Alcotest.(check (float 1e-18)) "found optimum" 399.0e-12 r.Mapping.Objective.cost

let test_random_search_validation () =
  Alcotest.check_raises "samples >= 1"
    (Invalid_argument "Random_search.search: need at least one sample") (fun () ->
      ignore
        (Mapping.Random_search.search ~rng:(Rng.create ~seed:1)
           ~objective:cdcm_objective ~cores:4 ~tiles:4 ~samples:0))

let test_greedy () =
  let r = Mapping.Greedy.search ~tech ~crg ~cwg:Fig1.cwg () in
  Alcotest.(check bool) "valid" true
    (Mapping.Placement.is_valid ~tiles:4 r.Mapping.Objective.placement);
  (* On the 2x2 example every sensible mapping costs 390 pJ of dynamic
     energy; greedy must reach that optimum. *)
  Alcotest.(check (float 1e-18)) "dynamic optimum" 390.0e-12 r.Mapping.Objective.cost

let test_greedy_more_cores_than_tiles () =
  let cwg =
    Nocmap_model.Cwg.create_exn ~name:"big" ~core_names:[| "a"; "b"; "c"; "d"; "e" |]
      ~edges:[ (0, 1, 5) ]
  in
  Alcotest.(check bool) "raises" true
    (match Mapping.Greedy.search ~tech ~crg ~cwg () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- search.evaluations counts each call's own work --- *)

module Request = Mapping.Request
module Metrics = Nocmap_obs.Metrics

(* What [f] adds to each named counter, with metrics on. *)
let counting names f =
  let counters = List.map Metrics.counter names in
  Metrics.with_enabled true (fun () ->
      let before = List.map Metrics.counter_value counters in
      let r = f () in
      (r, List.map2 (fun c b -> Metrics.counter_value c - b) counters before))

let request ?(budget = Request.Quick) ~cdcg ~noc ~model ~incremental algorithm =
  {
    Request.cdcg;
    mesh = Mesh.of_string noc;
    routing = Nocmap_noc.Routing.Xy;
    tech = Option.get (Technology.of_name "0.07um");
    flit_bits = 16;
    model;
    algorithm;
    seed = 5;
    budget;
    incremental;
    cache = true;
  }

(* Every algorithm adds exactly the evaluations it reports, including
   the ones its driver makes outside any searcher (decompose seed and
   composition, portfolio seeds, greedy's construction and scoring,
   random samples), and every decompose slice or portfolio round counts
   only its own work: the 60-core rows run regions and racers over
   several slices each. *)
let test_counter_matches_reported () =
  let app name = Option.get (Nocmap_apps.Catalog.find name) in
  let generated =
    Nocmap_tgff.Generator.generate (Rng.create ~seed:20)
      (Nocmap_tgff.Generator.default_spec ~name:"gen60" ~cores:60 ~packets:480
         ~total_bits:6_000_000)
  in
  let all =
    Request.
      [
        Sa; Local; Greedy; Greedy_local; Random; Es;
        Portfolio Mapping.Portfolio.all_strategies;
        Decompose Mapping.Decompose.Sa;
      ]
  in
  let rows =
    List.map (fun a -> ("fft8", app "fft8", "3x3", Request.Cwm, false, 1, a)) all
    @ List.map
        (fun a -> ("romberg", app "romberg", "3x2", Request.Cdcm, true, 2, a))
        (all
        @ Request.[ Decompose Mapping.Decompose.Tabu; Decompose Mapping.Decompose.Local ])
    @ List.map
        (fun a -> ("gen60", generated, "8x8", Request.Cwm, false, 2, a))
        Request.
          [
            Portfolio Mapping.Portfolio.all_strategies;
            Decompose Mapping.Decompose.Sa;
          ]
  in
  List.iter
    (fun (name, cdcg, noc, model, incremental, jobs, algorithm) ->
      let budget = if noc = "8x8" then Request.Standard else Request.Quick in
      let outcome, counted =
        counting [ "search.evaluations" ] (fun () ->
            Request.run ~jobs (request ~budget ~cdcg ~noc ~model ~incremental algorithm))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s %s %s %s" name noc (Request.model_to_string model)
           (Request.algorithm_to_string algorithm))
        [ outcome.Request.result.Mapping.Objective.evaluations ]
        counted)
    rows

(* A descent interrupted and resumed from its checkpoint: the resumed
   call adds only what it did after the checkpoint to every counter. *)
let test_resumed_sa_counts_own_work () =
  let cdcg = Option.get (Nocmap_apps.Catalog.find "fft8") in
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:3) in
  let objective =
    Mapping.Objective.cdcm ~incremental:true
      ~tech:(Option.get (Technology.of_name "0.07um"))
      ~params ~crg ~cdcg ()
  in
  (* A cool start makes the prune cutoff bite, so every counter moves. *)
  let config =
    {
      (Mapping.Annealing.quick_config ~tiles:9) with
      Mapping.Annealing.prune = Some 20.0;
      initial_temperature = `Fixed 1e-13;
    }
  in
  let names =
    [
      "search.evaluations"; "search.sa_accepted"; "search.sa_rejected";
      "search.cutoff_hits";
    ]
  in
  let totals (c : Mapping.Annealing.checkpoint) =
    Mapping.Annealing.[ c.evaluations; c.accepted; c.rejected; c.cutoff_hits ]
  in
  (* Stops after [moves] stop polls, capturing the final checkpoint. *)
  let leg ?resume moves =
    let polls = ref 0 and captured = ref None in
    let _, counted =
      counting names (fun () ->
          Mapping.Annealing.search ~rng:(Rng.create ~seed:4) ~config ~tiles:9 ~objective
            ~stop:(fun () ->
              incr polls;
              !polls > moves)
            ~checkpoint:(max_int, fun c -> captured := Some c)
            ?resume ~cores:(Nocmap_model.Cdcg.core_count cdcg) ())
    in
    (Option.get !captured, counted)
  in
  let first, first_counted = leg 80 in
  Alcotest.(check (list int)) "interrupted call" (totals first) first_counted;
  let second, second_counted = leg ~resume:first 120 in
  Alcotest.(check (list int)) "resumed call counts only its own work"
    (List.map2 ( - ) (totals second) (totals first))
    second_counted;
  Alcotest.(check bool) "the resumed call moved every counter" true
    (List.for_all (fun n -> n > 0) second_counted)

let suite =
  ( "search",
    [
      Alcotest.test_case "arrangement count" `Quick test_arrangement_count;
      Alcotest.test_case "ES optimum on fig1" `Quick test_exhaustive_finds_fig1_optimum;
      Alcotest.test_case "ES budget guard" `Quick test_exhaustive_budget_guard;
      Alcotest.test_case "ES cores > tiles" `Quick test_exhaustive_more_cores_than_tiles;
      Alcotest.test_case "SA reaches ES optimum" `Quick test_sa_reaches_optimum_on_fig1;
      Alcotest.test_case "SA deterministic" `Quick test_sa_deterministic;
      Alcotest.test_case "SA respects budget" `Quick test_sa_respects_budget;
      Alcotest.test_case "SA bad config" `Quick test_sa_bad_config;
      Alcotest.test_case "SA warm start kept" `Quick test_sa_initial_placement_kept_as_best;
      Alcotest.test_case "random search" `Quick test_random_search;
      Alcotest.test_case "random search validation" `Quick test_random_search_validation;
      Alcotest.test_case "greedy" `Quick test_greedy;
      Alcotest.test_case "greedy cores > tiles" `Quick test_greedy_more_cores_than_tiles;
      Alcotest.test_case "counter matches reported evaluations" `Quick
        test_counter_matches_reported;
      Alcotest.test_case "resumed SA counts its own work" `Quick
        test_resumed_sa_counts_own_work;
    ] )
