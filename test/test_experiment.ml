module Experiment = Nocmap.Experiment
module Mesh = Nocmap_noc.Mesh
module Rng = Nocmap_util.Rng
module Generator = Nocmap_tgff.Generator
module Mapping = Nocmap_mapping

let small_instance seed =
  let spec = Generator.default_spec ~name:"exp" ~cores:5 ~packets:24 ~total_bits:6_000 in
  (Mesh.create ~cols:3 ~rows:2, Generator.generate (Rng.create ~seed) spec)

let run seed =
  let mesh, cdcg = small_instance seed in
  Experiment.compare_models ~rng:(Rng.create ~seed) ~config:Experiment.quick_config
    ~mesh cdcg

let test_outcome_consistency () =
  let o = run 31 in
  let red baseline improved = 100.0 *. (baseline -. improved) /. baseline in
  Alcotest.(check (float 1e-6)) "ETR formula"
    (red o.Experiment.cwm_high.Mapping.Cost_cdcm.texec_ns
       o.Experiment.cdcm_high.Mapping.Cost_cdcm.texec_ns)
    o.Experiment.etr_percent;
  Alcotest.(check (float 1e-6)) "ECS high formula"
    (red o.Experiment.cwm_high.Mapping.Cost_cdcm.total
       o.Experiment.cdcm_high.Mapping.Cost_cdcm.total)
    o.Experiment.ecs_high_percent;
  Alcotest.(check bool) "evaluations counted" true
    (o.Experiment.cwm_evaluations > 0 && o.Experiment.cdcm_evaluations > 0)

let test_warm_start_guarantee () =
  (* The CDCM searches are warm-started from the CWM winner, so the
     CDCM mapping can never be worse under its own objective: ECS >= 0
     at both technology points. *)
  List.iter
    (fun seed ->
      let o = run seed in
      Alcotest.(check bool) "ECS low >= 0" true (o.Experiment.ecs_low_percent >= -1e-9);
      Alcotest.(check bool) "ECS high >= 0" true (o.Experiment.ecs_high_percent >= -1e-9))
    [ 1; 2; 3; 4; 5 ]

let test_deterministic () =
  let a = run 77 and b = run 77 in
  Alcotest.(check (float 1e-9)) "same ETR" a.Experiment.etr_percent b.Experiment.etr_percent;
  Alcotest.(check (float 1e-9)) "same ECS" a.Experiment.ecs_high_percent
    b.Experiment.ecs_high_percent

let test_too_many_cores () =
  let spec = Generator.default_spec ~name:"big" ~cores:10 ~packets:20 ~total_bits:500 in
  let cdcg = Generator.generate (Rng.create ~seed:1) spec in
  Alcotest.(check bool) "raises" true
    (match
       Experiment.compare_models ~rng:(Rng.create ~seed:1)
         ~config:Experiment.quick_config
         ~mesh:(Mesh.create ~cols:3 ~rows:3)
         cdcg
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sa_config_budgets () =
  let quick = Experiment.sa_config Experiment.quick_config ~tiles:9 in
  let standard = Experiment.sa_config Experiment.default_config ~tiles:9 in
  Alcotest.(check bool) "standard explores more" true
    (standard.Mapping.Annealing.max_evaluations
    > quick.Mapping.Annealing.max_evaluations)

let test_table2_on_custom_instances () =
  let instances = [ small_instance 41; small_instance 42 ] in
  let t =
    Nocmap.Table2.run ~config:Experiment.quick_config ~instances ~seed:41 ()
  in
  Alcotest.(check int) "one size group" 1 (List.length t.Nocmap.Table2.sizes);
  let s = List.hd t.Nocmap.Table2.sizes in
  Alcotest.(check int) "two outcomes" 2 (List.length s.Nocmap.Table2.outcomes);
  Alcotest.(check string) "method label" "ES and SA" s.Nocmap.Table2.search_method;
  let rendered = Nocmap.Table2.render t in
  Test_util.check_contains ~msg:"title" ~needle:"Table 2" rendered;
  Test_util.check_contains ~msg:"average row" ~needle:"Average" rendered

let outcome_fingerprint (o : Experiment.outcome) =
  ( o.Experiment.app,
    o.Experiment.etr_percent,
    o.Experiment.ecs_low_percent,
    o.Experiment.ecs_high_percent,
    o.Experiment.cwm_high.Mapping.Cost_cdcm.total,
    o.Experiment.cdcm_high.Mapping.Cost_cdcm.total,
    o.Experiment.cwm_evaluations,
    o.Experiment.cdcm_evaluations )

let test_parallel_restarts_bit_identical () =
  (* Restarts fanned out on a domain pool must reproduce the sequential
     outcome exactly: same pre-split RNG substreams, one scratch per
     restart. *)
  let mesh, cdcg = small_instance 63 in
  let config = { Experiment.quick_config with Experiment.restarts = 4 } in
  let outcome_with pool =
    Experiment.compare_models ?pool ~rng:(Rng.create ~seed:63) ~config ~mesh cdcg
  in
  let sequential = outcome_with None in
  let parallel =
    Nocmap_util.Domain_pool.with_pool ~jobs:4 (fun pool ->
        outcome_with (Some pool))
  in
  Alcotest.(check bool) "bit-identical outcome" true
    (outcome_fingerprint sequential = outcome_fingerprint parallel)

let test_table2_parallel_bit_identical () =
  let instances = [ small_instance 81; small_instance 82; small_instance 83 ] in
  let run pool =
    Nocmap.Table2.run ~config:Experiment.quick_config ~instances ?pool ~seed:81 ()
  in
  let fingerprint (t : Nocmap.Table2.t) =
    List.concat_map
      (fun (s : Nocmap.Table2.size_summary) ->
        List.map outcome_fingerprint s.Nocmap.Table2.outcomes)
      t.Nocmap.Table2.sizes
  in
  let sequential = run None in
  let parallel =
    Nocmap_util.Domain_pool.with_pool ~jobs:3 (fun pool -> run (Some pool))
  in
  Alcotest.(check bool) "bit-identical table" true
    (fingerprint sequential = fingerprint parallel);
  Alcotest.(check (float 1e-12)) "same average ETR"
    sequential.Nocmap.Table2.average_etr parallel.Nocmap.Table2.average_etr

let test_cpu_time_measurement () =
  let mesh, cdcg = small_instance 55 in
  let m = Nocmap.Cpu_time.measure ~evaluations:20 ~seed:55 ~mesh cdcg in
  Alcotest.(check bool) "positive timings" true
    (m.Nocmap.Cpu_time.cwm_ns_per_eval > 0.0 && m.Nocmap.Cpu_time.cdcm_ns_per_eval > 0.0);
  Alcotest.(check int) "ndp consistent"
    (Nocmap_model.Cdcg.ndp cdcg)
    m.Nocmap.Cpu_time.ndp;
  let rendered = Nocmap.Cpu_time.render [ m ] in
  Test_util.check_contains ~msg:"header" ~needle:"NDP/NCC" rendered

let test_robustness () =
  let instances_of seed = [ small_instance seed; small_instance (seed + 1) ] in
  let r =
    Nocmap.Robustness.run ~config:Experiment.quick_config ~instances_of
      ~seeds:[ 10; 11; 12 ] ()
  in
  Alcotest.(check int) "three seeds" 3 (List.length r.Nocmap.Robustness.seeds);
  let s = r.Nocmap.Robustness.etr in
  Alcotest.(check bool) "min <= mean <= max" true
    (s.Nocmap.Robustness.minimum <= s.Nocmap.Robustness.mean +. 1e-9
    && s.Nocmap.Robustness.mean <= s.Nocmap.Robustness.maximum +. 1e-9);
  Alcotest.(check bool) "ECS never negative (warm start)" true
    (r.Nocmap.Robustness.ecs_high.Nocmap.Robustness.minimum >= -1e-9);
  let rendered = Nocmap.Robustness.render r in
  Test_util.check_contains ~msg:"title" ~needle:"Seed robustness" rendered;
  Alcotest.(check bool) "empty seeds rejected" true
    (match Nocmap.Robustness.run ~seeds:[] () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_es_vs_sa_on_fig1 () =
  let crg = Nocmap_noc.Crg.create (Mesh.create ~cols:2 ~rows:2) in
  let tech = Nocmap_energy.Technology.t007 in
  let params = Nocmap_energy.Noc_params.paper_example in
  let objective =
    Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg:Nocmap_apps.Fig1.cdcg ()
  in
  let verdict =
    Nocmap.Es_vs_sa.certify ~rng:(Rng.create ~seed:8)
      ~mesh:(Mesh.create ~cols:2 ~rows:2)
      ~objective ~cores:4 ~app:"fig1" ()
  in
  Alcotest.(check bool) "SA reaches the optimum" true
    verdict.Nocmap.Es_vs_sa.sa_reached_optimum;
  Alcotest.(check int) "ES enumerated 24" 24 verdict.Nocmap.Es_vs_sa.es_evaluations;
  let rendered = Nocmap.Es_vs_sa.render [ verdict ] in
  Test_util.check_contains ~msg:"verdict" ~needle:"yes" rendered;
  Alcotest.check_raises "no restarts rejected"
    (Invalid_argument "Es_vs_sa.certify: restarts must be >= 1") (fun () ->
      ignore
        (Nocmap.Es_vs_sa.certify ~rng:(Rng.create ~seed:8) ~restarts:0
           ~mesh:(Mesh.create ~cols:2 ~rows:2)
           ~objective ~cores:4 ~app:"fig1" ()))

(* Golden Table 2 oracle: a digest of every number a Table 2 row is
   built from (ETR, both ECS values, the four CDCM evaluation totals in
   hex and both evaluation counts) on one planar and one stacked
   instance at the quick budget.  Any change to the searches, the
   objectives or the simulator that moves a Table 2 number fails here. *)
let test_table2_golden () =
  let instances =
    [
      ( Mesh.create ~cols:3 ~rows:2,
        Generator.default_spec ~name:"golden-3x2" ~cores:6 ~packets:24
          ~total_bits:6_000 );
      ( Mesh.create3 ~cols:2 ~rows:2 ~layers:2,
        Generator.default_spec ~name:"golden-2x2x2" ~cores:7 ~packets:28
          ~total_bits:8_000 );
    ]
  in
  let digest =
    List.mapi
      (fun i (mesh, spec) ->
        let cdcg = Generator.generate (Rng.create ~seed:(90 + i)) spec in
        let o =
          Experiment.compare_models ~rng:(Rng.create ~seed:(90 + i))
            ~config:Experiment.quick_config ~mesh cdcg
        in
        let total (ev : Mapping.Cost_cdcm.evaluation) = ev.Mapping.Cost_cdcm.total in
        Printf.sprintf "%h %h %h %h %h %h %h %d %d" o.Experiment.etr_percent
          o.Experiment.ecs_low_percent o.Experiment.ecs_high_percent
          (total o.Experiment.cwm_low) (total o.Experiment.cwm_high)
          (total o.Experiment.cdcm_low) (total o.Experiment.cdcm_high)
          o.Experiment.cwm_evaluations o.Experiment.cdcm_evaluations)
      instances
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "Table 2 outcomes" "6c62c554af6a0a0c25bc3211f753c6f5"
    digest

let suite =
  ( "experiment",
    [
      Alcotest.test_case "outcome consistency" `Quick test_outcome_consistency;
      Alcotest.test_case "warm start guarantee" `Quick test_warm_start_guarantee;
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "too many cores" `Quick test_too_many_cores;
      Alcotest.test_case "sa config budgets" `Quick test_sa_config_budgets;
      Alcotest.test_case "table2 custom instances" `Quick test_table2_on_custom_instances;
      Alcotest.test_case "parallel restarts bit-identical" `Quick
        test_parallel_restarts_bit_identical;
      Alcotest.test_case "table2 parallel bit-identical" `Quick
        test_table2_parallel_bit_identical;
      Alcotest.test_case "robustness" `Quick test_robustness;
      Alcotest.test_case "cpu time measurement" `Quick test_cpu_time_measurement;
      Alcotest.test_case "es vs sa on fig1" `Quick test_es_vs_sa_on_fig1;
      Alcotest.test_case "table2 golden outcomes" `Quick test_table2_golden;
    ] )
