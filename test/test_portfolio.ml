(* The racing portfolio: constructive seeds stay valid on every mesh
   shape, the race never loses to its own seeds, pooled races are
   bit-identical to sequential ones, a race killed at an arbitrary
   point resumes bit-identically, and a portfolio reduced to SA alone
   replays plain annealing exactly. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Cwg = Nocmap_model.Cwg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Store = Nocmap_persist.Store
module Fsutil = Nocmap_persist.Fsutil
module Fig1 = Nocmap_apps.Fig1

let prop_count = Test_util.prop_count

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".ckpt" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

(* A sticky eval-budget stop: false for the first [n] polls, true ever
   after — the deterministic stand-in for a SIGKILL mid-race. *)
let stop_after n =
  let calls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add calls 1 >= n

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_result msg (expected : Mapping.Objective.search_result) actual =
  Alcotest.(check (array int))
    (msg ^ ": placement") expected.Mapping.Objective.placement
    actual.Mapping.Objective.placement;
  Alcotest.(check bool)
    (msg ^ ": cost bit-identical") true
    (same_float expected.Mapping.Objective.cost actual.Mapping.Objective.cost);
  Alcotest.(check int)
    (msg ^ ": evaluations") expected.Mapping.Objective.evaluations
    actual.Mapping.Objective.evaluations

let check_report msg (expected : Mapping.Portfolio.report) actual =
  check_result msg expected.Mapping.Portfolio.result
    actual.Mapping.Portfolio.result;
  Alcotest.(check bool)
    (msg ^ ": winner") true
    (expected.Mapping.Portfolio.winner = actual.Mapping.Portfolio.winner);
  Alcotest.(check int)
    (msg ^ ": rounds") expected.Mapping.Portfolio.rounds
    actual.Mapping.Portfolio.rounds;
  Alcotest.(check int)
    (msg ^ ": incumbent updates") expected.Mapping.Portfolio.updates
    actual.Mapping.Portfolio.updates;
  Alcotest.(check int)
    (msg ^ ": cutoff tightenings") expected.Mapping.Portfolio.tightenings
    actual.Mapping.Portfolio.tightenings;
  List.iter2
    (fun (e : Mapping.Portfolio.strategy_report)
         (a : Mapping.Portfolio.strategy_report) ->
      Alcotest.(check bool) (msg ^ ": strategy") true
        (e.Mapping.Portfolio.strategy = a.Mapping.Portfolio.strategy);
      Alcotest.(check bool)
        (msg ^ ": strategy cost bit-identical") true
        (same_float e.Mapping.Portfolio.cost a.Mapping.Portfolio.cost);
      Alcotest.(check int)
        (msg ^ ": strategy evaluations") e.Mapping.Portfolio.evaluations
        a.Mapping.Portfolio.evaluations;
      Alcotest.(check int)
        (msg ^ ": strategy wins") e.Mapping.Portfolio.rounds_won
        a.Mapping.Portfolio.rounds_won)
    expected.Mapping.Portfolio.per_strategy
    actual.Mapping.Portfolio.per_strategy

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

(* --- the Fig1 instance every race below runs on --- *)

let crg = Crg.create (Mesh.create ~cols:2 ~rows:2)

let fresh_objective () =
  Mapping.Objective.cdcm ~tech ~params:Noc_params.paper_example ~crg
    ~cdcg:Fig1.cdcg ()

let all = Mapping.Portfolio.all_strategies

let race ?pool ?stop ?seed:(s = 1) ?(strategies = all) () =
  Mapping.Portfolio.search ~rng:(Rng.create ~seed:s)
    ~config:(Mapping.Portfolio.quick_config ~tiles:4)
    ~strategies ~tech ~crg ~cwg:Fig1.cwg
    ~objective_for:(fun _ -> fresh_objective ())
    ?pool ?stop ()

(* --- constructive seeds on arbitrary mesh shapes --- *)

(* cols x rows in 1..6 (non-square shapes included), xy or torus-xy
   routing, and a chain-shaped application of up to 6 cores with random
   communication weights. *)
let instance_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun cols ->
    int_range 1 6 >>= fun rows ->
    int_range 1 (min 6 (cols * rows)) >>= fun cores ->
    bool >>= fun torus ->
    list_size (return (max 0 (cores - 1))) (int_range 1 100) >>= fun weights ->
    return (cols, rows, cores, torus, weights))

let instance_print (cols, rows, cores, torus, weights) =
  Printf.sprintf "%dx%d, %d cores, torus:%b, weights:[%s]" cols rows cores
    torus
    (String.concat ";" (List.map string_of_int weights))

let cwg_of_weights cores weights =
  Cwg.create_exn ~name:"chain"
    ~core_names:(Array.init cores (Printf.sprintf "c%d"))
    ~edges:(List.mapi (fun i w -> (i, i + 1, w)) weights)

let prop_seeds_valid_on_every_mesh =
  QCheck2.Test.make
    ~name:"spiral and greedy seeds are valid on every mesh shape"
    ~count:(prop_count 100) ~print:instance_print instance_gen
    (fun (cols, rows, cores, torus, weights) ->
      let mesh = Mesh.create ~cols ~rows in
      (* Torus routing requires both dimensions >= 3. *)
      let torus = torus && cols >= 3 && rows >= 3 in
      let routing =
        Routing.algorithm_of_string (if torus then "torus-xy" else "xy")
      in
      let crg = Crg.create ~routing mesh in
      let tiles = cols * rows in
      let order = Mapping.Spiral.tile_order mesh in
      let sorted = Array.copy order in
      Array.sort compare sorted;
      if sorted <> Array.init tiles Fun.id then
        QCheck2.Test.fail_report "spiral order is not a tile permutation";
      let cwg = cwg_of_weights cores weights in
      let spiral = Mapping.Spiral.search ~tech ~crg ~cwg () in
      let greedy = Mapping.Greedy.search ~tech ~crg ~cwg () in
      Mapping.Placement.is_valid ~tiles spiral.Mapping.Objective.placement
      && Mapping.Placement.is_valid ~tiles greedy.Mapping.Objective.placement
      && spiral.Mapping.Objective.cost >= 0.0
      && greedy.Mapping.Objective.cost >= 0.0)

(* --- the race never loses to its own seeds --- *)

let prop_race_beats_seeds =
  QCheck2.Test.make
    ~name:"portfolio cost <= every strategy's own best (seeds included)"
    ~count:(prop_count 8) ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let report = race ~seed () in
      let best = report.Mapping.Portfolio.result.Mapping.Objective.cost in
      List.for_all
        (fun (s : Mapping.Portfolio.strategy_report) ->
          best <= s.Mapping.Portfolio.cost)
        report.Mapping.Portfolio.per_strategy)

(* --- pooled race is bit-identical to the sequential race --- *)

let prop_race_jobs_invariant =
  QCheck2.Test.make
    ~name:"portfolio is bit-identical sequentially and on a 4-domain pool"
    ~count:(prop_count 5) ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let sequential = race ~seed () in
      Domain_pool.with_pool ~jobs:4 (fun pool ->
          check_report "jobs=4 vs jobs=1" sequential (race ~pool ~seed ()));
      true)

(* --- kill + resume --- *)

let persisted_race ~store ?stop seed =
  Mapping.Search_persist.portfolio ~store ~key:"portfolio" ~every:200
    ~rng:(Rng.create ~seed)
    ~config:(Mapping.Portfolio.quick_config ~tiles:4)
    ~strategies:all ~tech ~crg ~cwg:Fig1.cwg ~objective_name:"cdcm"
    ~objective_for:(fun _ -> fresh_objective ())
    ?stop ()

let prop_race_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"portfolio killed at any point resumes bit-identically"
    ~count:(prop_count 8)
    ~print:(fun (seed, kill_at) -> Printf.sprintf "seed %d, kill %d" seed kill_at)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 6_000))
    (fun (seed, kill_at) ->
      let reference = race ~seed () in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (persisted_race ~store ~stop:(stop_after kill_at) seed);
      let resumed = persisted_race ~store seed in
      let replayed = persisted_race ~store seed in
      check_report "resumed vs uninterrupted" reference resumed;
      check_report "replayed vs uninterrupted" reference replayed;
      true)

let tabu_reference seed =
  Mapping.Tabu.search ~rng:(Rng.create ~seed)
    ~config:(Mapping.Tabu.quick_config ~tiles:4)
    ~tiles:4 ~objective:(fresh_objective ()) ~cores:4 ()

let tabu_persisted ~store ?stop seed =
  Mapping.Search_persist.refine ~store ~key:"tabu" ~every:100
    ~rng:(Rng.create ~seed)
    (Mapping.Refiner.Tabu (Mapping.Tabu.quick_config ~tiles:4))
    ~tiles:4 ~objective:(fresh_objective ()) ?stop ~cores:4 ()

let prop_tabu_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"tabu killed at any point resumes bit-identically"
    ~count:(prop_count 10)
    ~print:(fun (seed, kill_at) -> Printf.sprintf "seed %d, kill %d" seed kill_at)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 3_000))
    (fun (seed, kill_at) ->
      let reference = tabu_reference seed in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (tabu_persisted ~store ~stop:(stop_after kill_at) seed);
      let resumed = tabu_persisted ~store seed in
      check_result "resumed vs uninterrupted" reference resumed;
      true)

let genetic_reference seed =
  Mapping.Genetic.search ~rng:(Rng.create ~seed)
    ~config:(Mapping.Genetic.quick_config ~tiles:4)
    ~tiles:4 ~objective:(fresh_objective ()) ~cores:4 ()

let genetic_persisted ~store ?stop seed =
  Mapping.Search_persist.refine ~store ~key:"ga" ~every:100
    ~rng:(Rng.create ~seed)
    (Mapping.Refiner.Genetic (Mapping.Genetic.quick_config ~tiles:4))
    ~tiles:4 ~objective:(fresh_objective ()) ?stop ~cores:4 ()

let prop_genetic_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"genetic killed at any point resumes bit-identically"
    ~count:(prop_count 10)
    ~print:(fun (seed, kill_at) -> Printf.sprintf "seed %d, kill %d" seed kill_at)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 3_000))
    (fun (seed, kill_at) ->
      let reference = genetic_reference seed in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (genetic_persisted ~store ~stop:(stop_after kill_at) seed);
      let resumed = genetic_persisted ~store seed in
      check_result "resumed vs uninterrupted" reference resumed;
      true)

(* --- only-SA portfolio is trajectory-identical to plain annealing --- *)

let prop_only_sa_matches_plain_annealing =
  QCheck2.Test.make
    ~name:"a portfolio of SA alone replays plain annealing exactly"
    ~count:(prop_count 10) ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let config = Mapping.Portfolio.quick_config ~tiles:4 in
      let report =
        Mapping.Portfolio.search ~rng:(Rng.create ~seed) ~config
          ~strategies:[ Mapping.Portfolio.Sa ] ~tech ~crg ~cwg:Fig1.cwg
          ~objective_for:(fun _ -> fresh_objective ())
          ()
      in
      (* The portfolio hands its single racer the first split substream
         of the driver rng; with no rivals every round ceiling is
         infinite, so the sliced run must retrace the plain one. *)
      let plain =
        let root = Rng.create ~seed in
        Mapping.Annealing.search ~rng:(Rng.split root)
          ~config:config.Mapping.Portfolio.sa ~tiles:4
          ~objective:(fresh_objective ()) ~cores:4 ()
      in
      check_result "only-SA portfolio vs plain annealing" plain
        report.Mapping.Portfolio.result;
      true)

(* --- fingerprints pin the strategy set --- *)

let test_persist_rejects_strategy_mismatch () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  let run strategies =
    Mapping.Search_persist.portfolio ~store ~key:"race" ~every:200
      ~rng:(Rng.create ~seed:5)
      ~config:(Mapping.Portfolio.quick_config ~tiles:4)
      ~strategies ~tech ~crg ~cwg:Fig1.cwg ~objective_name:"cdcm"
      ~objective_for:(fun _ -> fresh_objective ())
      ()
  in
  ignore (run [ Mapping.Portfolio.Sa; Mapping.Portfolio.Tabu ]);
  Alcotest.(check bool)
    "renamed strategy list is refused" true
    (match run [ Mapping.Portfolio.Sa; Mapping.Portfolio.Genetic ] with
    | exception Failure _ -> true
    | _ -> false)

let test_persist_rejects_cross_algorithm_shard () =
  (* A tabu shard resumed as a genetic search must fail loudly — the
     algorithm name is part of the fingerprint. *)
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (tabu_persisted ~store ~stop:(stop_after 500) 3);
  Alcotest.(check bool)
    "tabu shard refused by genetic" true
    (match
       Mapping.Search_persist.refine ~store ~key:"tabu" ~every:100
         ~rng:(Rng.create ~seed:3)
         (Mapping.Refiner.Genetic (Mapping.Genetic.quick_config ~tiles:4))
         ~tiles:4 ~objective:(fresh_objective ()) ~cores:4 ()
     with
    | exception Failure _ -> true
    | _ -> false)

(* --- driver plumbing --- *)

let test_race_rejects_bad_strategy_lists () =
  Alcotest.(check bool) "empty list raises" true
    (match race ~strategies:[] () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate raises" true
    (match
       race ~strategies:[ Mapping.Portfolio.Sa; Mapping.Portfolio.Sa ] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_strategies_of_string () =
  Alcotest.(check bool) "parses a mixed list" true
    (Mapping.Portfolio.strategies_of_string "spiral, sa,tabu"
    = Ok [ Mapping.Portfolio.Spiral; Mapping.Portfolio.Sa; Mapping.Portfolio.Tabu ]);
  Alcotest.(check bool) "unknown name rejected" true
    (match Mapping.Portfolio.strategies_of_string "sa,warp" with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "duplicate rejected" true
    (match Mapping.Portfolio.strategies_of_string "sa,sa" with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "empty rejected" true
    (match Mapping.Portfolio.strategies_of_string "" with
    | Error _ -> true
    | Ok _ -> false)

let test_seeds_only_portfolio () =
  let report =
    race ~strategies:[ Mapping.Portfolio.Spiral; Mapping.Portfolio.Greedy ] ()
  in
  Alcotest.(check int) "no racing rounds" 0 report.Mapping.Portfolio.rounds;
  Alcotest.(check bool) "winner is a seed" true
    (Mapping.Portfolio.is_seed report.Mapping.Portfolio.winner);
  Alcotest.(check bool) "finite best" true
    (Float.is_finite report.Mapping.Portfolio.result.Mapping.Objective.cost)

let test_race_reaches_fig1_optimum () =
  (* 399 pJ is the proven optimum of the worked example; the full
     portfolio must find it on this 24-arrangement instance. *)
  let report = race ~seed:17 () in
  Alcotest.(check (float 1e-18))
    "optimum" 399.0e-12
    report.Mapping.Portfolio.result.Mapping.Objective.cost

let suite =
  ( "portfolio",
    [
      QCheck_alcotest.to_alcotest prop_seeds_valid_on_every_mesh;
      QCheck_alcotest.to_alcotest prop_race_beats_seeds;
      QCheck_alcotest.to_alcotest prop_race_jobs_invariant;
      QCheck_alcotest.to_alcotest prop_race_kill_resume_bit_identical;
      QCheck_alcotest.to_alcotest prop_tabu_kill_resume_bit_identical;
      QCheck_alcotest.to_alcotest prop_genetic_kill_resume_bit_identical;
      QCheck_alcotest.to_alcotest prop_only_sa_matches_plain_annealing;
      Alcotest.test_case "persist rejects strategy mismatch" `Quick
        test_persist_rejects_strategy_mismatch;
      Alcotest.test_case "persist rejects cross-algorithm shard" `Quick
        test_persist_rejects_cross_algorithm_shard;
      Alcotest.test_case "bad strategy lists rejected" `Quick
        test_race_rejects_bad_strategy_lists;
      Alcotest.test_case "strategy list parsing" `Quick
        test_strategies_of_string;
      Alcotest.test_case "seeds-only portfolio" `Quick
        test_seeds_only_portfolio;
      Alcotest.test_case "portfolio reaches fig1 optimum" `Quick
        test_race_reaches_fig1_optimum;
    ] )
