(* Benchmark and reproduction harness.

   Regenerates every table and figure of the paper's evaluation:

     fig1    the example application (features summary)
     fig2    CWM energy annotation of the two example mappings (390 pJ)
     fig3    CDCM cost-variable lists, ENoC and texec (400/100 vs 399/90)
     fig4/5  timing diagrams for both mappings
     table1  the 18-application suite features
     table2  ETR / ECS0.35 / ECS0.07 per NoC size
     cputime CDCM-vs-CWM cost-evaluation CPU comparison (the "+23 %" claim)
     es-sa   SA certified against exhaustive search on small instances
     ablations: routing XY vs YX, buffer capacity, annealing budget

   Each artifact also gets a Bechamel micro-benchmark measuring the cost
   of regenerating it.  Environment knobs:
     NOCMAP_BENCH_BUDGET=quick|standard|thorough|scale   (default standard)
     NOCMAP_BENCH_SEED=<int>                             (default 2005)

   `scale` is not a fourth search budget: it skips the paper artifacts
   and runs the large-mesh profiling suite ([scale_profile], writing
   SCALE_profile.csv and SCALE_heatmap.csv) followed by the
   machine-readable benchmark at quick knobs. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Rng = Nocmap_util.Rng
module Stats = Nocmap_util.Stats
module Tablefmt = Nocmap_util.Tablefmt
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Wormhole = Nocmap_sim.Wormhole
module Trace = Nocmap_sim.Trace
module Fig1 = Nocmap_apps.Fig1
module Experiment = Nocmap.Experiment

let seed =
  match Sys.getenv_opt "NOCMAP_BENCH_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 2005)
  | None -> 2005

let scale_mode, budget =
  match Sys.getenv_opt "NOCMAP_BENCH_BUDGET" with
  | Some "quick" -> (false, Experiment.Quick)
  | Some "thorough" -> (false, Experiment.Thorough)
  | Some "scale" -> (true, Experiment.Quick)
  | Some _ | None -> (false, Experiment.Standard)

let experiment_config =
  {
    Experiment.default_config with
    Experiment.budget;
    restarts = (match budget with Experiment.Quick -> 1 | Experiment.Standard
      | Experiment.Thorough -> 2);
  }

let banner title =
  Printf.printf "\n==================== %s ====================\n" title

(* --- the paper's worked example --- *)

let example_crg = Crg.create (Mesh.create ~cols:2 ~rows:2)
let example_params = Noc_params.paper_example

let example_tech =
  Technology.make ~name:"fig1" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

let fig1 () =
  banner "Figure 1: example application";
  Format.printf "CDCG: %a@." Nocmap_model.Features.pp
    (Nocmap_model.Features.of_cdcg Fig1.cdcg);
  Format.printf "mapping (c): %s@."
    (Mapping.Placement.to_string ~core_names:Fig1.cdcg.Cdcg.core_names Fig1.mapping_c);
  Format.printf "mapping (d): %s@."
    (Mapping.Placement.to_string ~core_names:Fig1.cdcg.Cdcg.core_names Fig1.mapping_d)

let fig2_energy placement =
  Mapping.Cost_cwm.dynamic_energy ~tech:example_tech ~crg:example_crg ~cwg:Fig1.cwg
    placement

let fig2 () =
  banner "Figure 2: CWM evaluation (both mappings look identical)";
  Printf.printf "EDyNoC mapping (c): %.0f pJ\n" (fig2_energy Fig1.mapping_c *. 1e12);
  Printf.printf "EDyNoC mapping (d): %.0f pJ   (paper: 390 pJ for both)\n"
    (fig2_energy Fig1.mapping_d *. 1e12)

let fig3_run placement =
  Wormhole.run ~params:example_params ~crg:example_crg ~placement Fig1.cdcg

let fig3 () =
  banner "Figure 3: CDCM evaluation distinguishes the mappings";
  let show name placement expected =
    let e =
      Mapping.Cost_cdcm.evaluate ~tech:example_tech ~params:example_params
        ~crg:example_crg ~cdcg:Fig1.cdcg placement
    in
    Printf.printf "mapping %s: ENoC = %.0f pJ, texec = %.0f ns   (paper: %s)\n" name
      (e.Mapping.Cost_cdcm.total *. 1e12)
      e.Mapping.Cost_cdcm.texec_ns expected;
    print_string
      (Nocmap_sim.Annotation_report.render ~cdcg:Fig1.cdcg ~crg:example_crg
         (fig3_run placement))
  in
  show "(c)" Fig1.mapping_c "400 pJ, 100 ns";
  show "(d)" Fig1.mapping_d "399 pJ, 90 ns"

let fig4_5 () =
  banner "Figures 4 and 5: timing diagrams";
  Printf.printf "--- mapping (c), with contention ---\n";
  print_string
    (Nocmap_sim.Gantt.render ~params:example_params ~cdcg:Fig1.cdcg
       (fig3_run Fig1.mapping_c));
  Printf.printf "--- mapping (d), contention-free ---\n";
  print_string
    (Nocmap_sim.Gantt.render ~params:example_params ~cdcg:Fig1.cdcg
       (fig3_run Fig1.mapping_d))

(* --- tables --- *)

let table1 () =
  banner "Table 1: NoC/application features";
  print_string (Nocmap.Table1.render ~seed)

let table2 () =
  banner
    (Printf.sprintf "Table 2: CDCM vs CWM (budget: %s, seed %d)"
       (match budget with
       | Experiment.Quick -> "quick"
       | Experiment.Standard -> "standard"
       | Experiment.Thorough -> "thorough")
       seed);
  let result =
    Nocmap.Table2.run ~config:experiment_config
      ~progress:(fun line -> Printf.eprintf "%s\n%!" line)
      ~seed ()
  in
  print_string (Nocmap.Table2.render result);
  (* The paper's CPU-time claim is about whole mapping runs: report the
     search CPU of both models per NoC size (the CDCM time is halved
     because our flow runs the CDCM search once per technology). *)
  banner "Section 5: whole mapping-run CPU time (from the Table 2 searches)";
  let table =
    Tablefmt.create
      ~columns:
        [ ("NoC size", Tablefmt.Left); ("CWM search (s)", Tablefmt.Right);
          ("CDCM search (s)", Tablefmt.Right); ("overhead", Tablefmt.Right) ]
      ()
  in
  let overheads =
    List.map
      (fun (s_ : Nocmap.Table2.size_summary) ->
        let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 s_.Nocmap.Table2.outcomes in
        let cwm = sum (fun o -> o.Experiment.cwm_cpu_seconds) in
        let cdcm = sum (fun o -> o.Experiment.cdcm_cpu_seconds) /. 2.0 in
        let overhead = if cwm > 0.0 then 100.0 *. (cdcm -. cwm) /. cwm else 0.0 in
        Tablefmt.add_row table
          [
            Mesh.to_string s_.Nocmap.Table2.mesh;
            Printf.sprintf "%.2f" cwm;
            Printf.sprintf "%.2f" cdcm;
            Printf.sprintf "%+.0f %%" overhead;
          ];
        overhead)
      result.Nocmap.Table2.sizes
  in
  Tablefmt.add_summary_row table
    [ "average"; ""; ""; Printf.sprintf "%+.0f %%" (Stats.mean overheads) ];
  Tablefmt.print table

(* 2-D vs stacked 3-D at equal tile budget: the same 12-core application
   mapped on the planar 4x4 and on a 4x2x2 two-layer stack (16 tiles
   each, TSV vertical links), reported at the paper's own metrics via
   [Table2.run].  The table reads as "what does folding the mesh into
   two layers buy in ETR/ECS terms"; EXPERIMENTS.md quotes these
   numbers.  The traffic shape mirrors the suite's heaviest 12-core row
   (few packets, millions of bits — long wormhole bursts that actually
   contend), because contention-free traffic makes CWM and CDCM agree
   and the table degenerate to zeros.  Deterministic per seed. *)
let noc3d_instances () =
  let cdcg =
    Nocmap_tgff.Generator.generate
      (Rng.create ~seed:(seed + 61))
      (Nocmap_tgff.Generator.default_spec ~name:"noc3d" ~cores:12 ~packets:25
         ~total_bits:2_578_920)
  in
  let mesh2d = Mesh.create ~cols:4 ~rows:4 in
  let mesh3d = Mesh.create3 ~cols:4 ~rows:2 ~layers:2 in
  (cdcg, mesh2d, mesh3d)

let table2_3d () =
  banner "Table 2 (3-D): 2-D vs stacked 3-D at equal tile budget (4x4 vs 4x2x2)";
  let cdcg, mesh2d, mesh3d = noc3d_instances () in
  let result =
    Nocmap.Table2.run ~config:experiment_config
      ~progress:(fun line -> Printf.eprintf "%s\n%!" line)
      ~instances:[ (mesh2d, cdcg); (mesh3d, cdcg) ]
      ~seed ()
  in
  print_string (Nocmap.Table2.render result)

let cputime () =
  banner "Section 5: CPU time per cost evaluation (CDCM vs CWM)";
  print_string (Nocmap.Cpu_time.render (Nocmap.Cpu_time.over_suite ~evaluations:60 ~seed ()))

let related_work () =
  banner "Related work anchor: mapping vs random (Hu & Marculescu [4])";
  let rng = Rng.create ~seed:(seed + 21) in
  let comparisons =
    Nocmap_tgff.Suite.instances ~seed
    |> List.filteri (fun i _ -> i < 6)
    |> List.map (fun (mesh, cdcg) ->
           Nocmap.Related_work.compare_random_vs_cwm ~rng:(Rng.split rng) ~mesh cdcg)
  in
  print_string (Nocmap.Related_work.render comparisons)

let es_vs_sa () =
  banner "Section 5: SA certified against exhaustive search (small NoCs)";
  let rng = Rng.create ~seed in
  let verdicts =
    (* Exhaustive CDCM search is tractable for the 2x2 example and a
       generated 5-core application on 3x2. *)
    let fig1_objective =
      Mapping.Objective.cdcm ~tech:Technology.t007 ~params:example_params
        ~crg:example_crg ~cdcg:Fig1.cdcg ()
    in
    let small_mesh = Mesh.create ~cols:3 ~rows:2 in
    let small_cdcg =
      Nocmap_tgff.Generator.generate (Rng.split rng)
        (Nocmap_tgff.Generator.default_spec ~name:"es-sa" ~cores:5 ~packets:20
           ~total_bits:4_000)
    in
    let small_objective =
      Mapping.Objective.cdcm ~tech:Technology.t007 ~params:example_params
        ~crg:(Crg.create small_mesh) ~cdcg:small_cdcg ()
    in
    [
      Nocmap.Es_vs_sa.certify ~rng:(Rng.split rng)
        ~mesh:(Mesh.create ~cols:2 ~rows:2)
        ~objective:fig1_objective ~cores:4 ~app:"fig1" ();
      Nocmap.Es_vs_sa.certify ~rng:(Rng.split rng) ~mesh:small_mesh
        ~objective:small_objective ~cores:5 ~app:"es-sa-3x2" ();
    ]
  in
  print_string (Nocmap.Es_vs_sa.render verdicts)

(* --- ablations --- *)

let ablation_instance () =
  let rng = Rng.create ~seed:(seed + 13) in
  let spec =
    Nocmap_tgff.Generator.default_spec ~name:"ablation" ~cores:9 ~packets:48
      ~total_bits:60_000
  in
  (Mesh.create ~cols:3 ~rows:3, Nocmap_tgff.Generator.generate rng spec)

let ablation_routing () =
  banner "Ablation: XY vs YX routing (CDCM evaluation of the same mappings)";
  let mesh, cdcg = ablation_instance () in
  let rng = Rng.create ~seed:(seed + 14) in
  let placement = Mapping.Placement.random rng ~cores:(Cdcg.core_count cdcg)
      ~tiles:(Mesh.tile_count mesh)
  in
  let table =
    Tablefmt.create
      ~columns:
        [ ("routing", Tablefmt.Left); ("texec (ns)", Tablefmt.Right);
          ("contention (cycles)", Tablefmt.Right) ]
      ()
  in
  let leg algo =
    let crg = Crg.create ~routing:algo mesh in
    let t = Wormhole.run ~trace:false ~params:example_params ~crg ~placement cdcg in
    Tablefmt.add_row table
      [
        Routing.algorithm_to_string algo;
        Printf.sprintf "%.0f" t.Trace.texec_ns;
        string_of_int t.Trace.contention_cycles;
      ]
  in
  leg Routing.Xy;
  leg Routing.Yx;
  leg Routing.Torus_xy;
  leg Routing.Torus_yx;
  Tablefmt.print table

let ablation_buffers () =
  banner "Ablation: router input-buffer capacity (backpressure model)";
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let rng = Rng.create ~seed:(seed + 15) in
  let placement = Mapping.Placement.random rng ~cores:(Cdcg.core_count cdcg)
      ~tiles:(Mesh.tile_count mesh)
  in
  let table =
    Tablefmt.create
      ~columns:[ ("buffering", Tablefmt.Left); ("texec (ns)", Tablefmt.Right) ]
      ()
  in
  let leg label buffering =
    let params = Noc_params.make ~flit_bits:16 ~buffering () in
    match Wormhole.run ~trace:false ~params ~crg ~placement cdcg with
    | t -> Tablefmt.add_row table [ label; Printf.sprintf "%.0f" t.Trace.texec_ns ]
    | exception Wormhole.Deadlock _ -> Tablefmt.add_row table [ label; "deadlock" ]
  in
  leg "unbounded (paper)" Noc_params.Unbounded;
  List.iter
    (fun c -> leg (Printf.sprintf "%d flits" c) (Noc_params.Bounded c))
    [ 64; 16; 4; 2; 1 ];
  Tablefmt.print table

let ablation_strategies () =
  banner "Ablation: mapping strategies on the same instance (CDCM evaluation)";
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let cwg = Cwg.of_cdcg cdcg in
  let tiles = Mesh.tile_count mesh in
  let cores = Cdcg.core_count cdcg in
  let tech = Technology.t007 in
  let objective = Mapping.Objective.cdcm ~tech ~params:example_params ~crg ~cdcg () in
  let rng = Rng.create ~seed:(seed + 19) in
  let strategies =
    [
      ( "random best-of-200",
        fun () ->
          Mapping.Random_search.search ~rng:(Rng.split rng) ~objective ~cores ~tiles
            ~samples:200 );
      ("greedy (CWM partial)", fun () -> Mapping.Greedy.search ~tech ~crg ~cwg ());
      ( "greedy + local search",
        fun () ->
          let greedy = Mapping.Greedy.search ~tech ~crg ~cwg () in
          Mapping.Local_search.search ~objective ~tiles
            ~initial:greedy.Mapping.Objective.placement () );
      ( "simulated annealing",
        fun () ->
          Mapping.Annealing.search ~rng:(Rng.split rng)
            ~config:(Mapping.Annealing.default_config ~tiles)
            ~tiles ~objective ~cores () );
    ]
  in
  let table =
    Tablefmt.create
      ~columns:
        [ ("strategy", Tablefmt.Left); ("texec (ns)", Tablefmt.Right);
          ("ENoC (nJ)", Tablefmt.Right); ("peak link util", Tablefmt.Right);
          ("cost evals", Tablefmt.Right) ]
      ()
  in
  let leg (name, search) =
    let r = search () in
    let placement = r.Mapping.Objective.placement in
    let e = Mapping.Cost_cdcm.evaluate ~tech ~params:example_params ~crg ~cdcg placement in
    let trace = Wormhole.run ~params:example_params ~crg ~placement cdcg in
    Tablefmt.add_row table
      [
        name;
        Printf.sprintf "%.0f" e.Mapping.Cost_cdcm.texec_ns;
        Printf.sprintf "%.3f" (e.Mapping.Cost_cdcm.total *. 1e9);
        Printf.sprintf "%.0f %%" (100.0 *. Nocmap_sim.Hotspot.peak_utilization ~crg trace);
        string_of_int r.Mapping.Objective.evaluations;
      ]
  in
  List.iter leg strategies;
  Tablefmt.print table

let contention_study () =
  banner "Workload study: how much of texec is contention (analytic vs simulated)";
  let table =
    Tablefmt.create
      ~columns:
        [ ("app", Tablefmt.Left); ("structure", Tablefmt.Left);
          ("simulated texec", Tablefmt.Right); ("analytic bound", Tablefmt.Right);
          ("contention share", Tablefmt.Right) ]
      ()
  in
  let rng = Rng.create ~seed:(seed + 23) in
  let study (mesh, cdcg) =
    let tiles = Mesh.tile_count mesh in
    let cores = Cdcg.core_count cdcg in
    if cores <= tiles then begin
      let crg = Crg.create mesh in
      let placement = Mapping.Placement.random (Rng.split rng) ~cores ~tiles in
      let t = Wormhole.run ~trace:false ~params:example_params ~crg ~placement cdcg in
      let e = Nocmap_sim.Analytic.estimate ~params:example_params ~crg ~placement cdcg in
      let metrics = Nocmap_model.Metrics.of_cdcg cdcg in
      Tablefmt.add_row table
        [
          cdcg.Cdcg.name;
          Printf.sprintf "depth %d width %d" metrics.Nocmap_model.Metrics.depth
            metrics.Nocmap_model.Metrics.width;
          string_of_int t.Trace.texec_cycles;
          string_of_int e.Nocmap_sim.Analytic.lower_bound_cycles;
          Printf.sprintf "%.0f %%"
            (100.0
            *. Nocmap_sim.Analytic.contention_share e
                 ~simulated_cycles:t.Trace.texec_cycles);
        ]
    end
  in
  List.iteri (fun i inst -> if i < 9 then study inst) (Nocmap_tgff.Suite.instances ~seed);
  Tablefmt.print table

let ablation_pareto () =
  banner "Extension: energy/time Pareto sweep (weighted objective)";
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let points =
    Mapping.Weighted.pareto_sweep
      ~rng:(Rng.create ~seed:(seed + 27))
      ~config:(Mapping.Annealing.default_config ~tiles:(Mesh.tile_count mesh))
      ~tech:Technology.t007 ~params:example_params ~crg ~cdcg
      ~alphas:[ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  let table =
    Tablefmt.create
      ~columns:
        [ ("alpha (energy weight)", Tablefmt.Right); ("texec (ns)", Tablefmt.Right);
          ("ENoC (nJ)", Tablefmt.Right) ]
      ()
  in
  List.iter
    (fun (alpha, e) ->
      Tablefmt.add_row table
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.0f" e.Mapping.Cost_cdcm.texec_ns;
          Printf.sprintf "%.3f" (e.Mapping.Cost_cdcm.total *. 1e9);
        ])
    points;
  Tablefmt.print table

let ablation_packetization () =
  banner "Ablation: packetization (Ye et al. [7] style message splitting)";
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let rng = Rng.create ~seed:(seed + 29) in
  let placement = Mapping.Placement.random rng ~cores:(Cdcg.core_count cdcg)
      ~tiles:(Mesh.tile_count mesh)
  in
  let table =
    Tablefmt.create
      ~columns:
        [ ("max packet size (bits)", Tablefmt.Left); ("packets", Tablefmt.Right);
          ("texec (ns)", Tablefmt.Right); ("contention (cycles)", Tablefmt.Right) ]
      ()
  in
  let leg label c =
    let t = Wormhole.run ~trace:false ~params:example_params ~crg ~placement c in
    Tablefmt.add_row table
      [
        label;
        string_of_int (Cdcg.packet_count c);
        Printf.sprintf "%.0f" t.Trace.texec_ns;
        string_of_int t.Trace.contention_cycles;
      ]
  in
  leg "unsplit (paper)" cdcg;
  List.iter
    (fun max_bits ->
      leg (string_of_int max_bits)
        (Nocmap_model.Transform.split_packets ~max_bits cdcg))
    [ 8192; 2048; 512 ];
  Tablefmt.print table

let ablation_sa_budget () =
  banner "Ablation: annealing budget vs mapping quality (CDCM objective)";
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let tiles = Mesh.tile_count mesh in
  let cores = Cdcg.core_count cdcg in
  let objective =
    Mapping.Objective.cdcm ~tech:Technology.t007 ~params:example_params ~crg ~cdcg ()
  in
  let table =
    Tablefmt.create
      ~columns:
        [ ("budget", Tablefmt.Left); ("best ENoC (nJ)", Tablefmt.Right);
          ("cost evals", Tablefmt.Right) ]
      ()
  in
  let leg label config =
    let r =
      Mapping.Annealing.search ~rng:(Rng.create ~seed:(seed + 16)) ~config ~tiles
        ~objective ~cores ()
    in
    Tablefmt.add_row table
      [
        label;
        Printf.sprintf "%.3f" (r.Mapping.Objective.cost *. 1e9);
        string_of_int r.Mapping.Objective.evaluations;
      ]
  in
  leg "random (1 sample)"
    { (Mapping.Annealing.quick_config ~tiles) with Mapping.Annealing.max_evaluations = 1 };
  leg "quick" (Mapping.Annealing.quick_config ~tiles);
  leg "default" (Mapping.Annealing.default_config ~tiles);
  Tablefmt.print table

(* --- machine-readable benchmark: BENCH_nocmap.json --- *)

(* Throughput of the cost evaluations that dominate every search, plus
   the sequential-vs-parallel wall time of a small Table 2 slice.  The
   numbers land in BENCH_nocmap.json so tooling can track the
   arena/cutoff speedup and the NOCMAP_JOBS scaling across commits. *)
let bench_json () =
  banner "Machine-readable benchmark (BENCH_nocmap.json)";
  let wall = Unix.gettimeofday in
  let window, suite_size =
    match budget with
    | Experiment.Quick -> (0.1, 3)
    | Experiment.Standard -> (0.4, 6)
    | Experiment.Thorough -> (1.0, 9)
  in
  let ops_per_sec_in window f =
    f 0;
    (* warmup: fill caches, trigger first allocations *)
    let t0 = wall () in
    let stop = t0 +. window in
    let n = ref 0 in
    while wall () < stop do
      f !n;
      incr n
    done;
    float_of_int !n /. (wall () -. t0)
  in
  let ops_per_sec f = ops_per_sec_in window f in
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let cwg = Cwg.of_cdcg cdcg in
  let tiles = Mesh.tile_count mesh in
  let cores = Cdcg.core_count cdcg in
  let tech = Technology.t007 in
  let params = example_params in
  let rng = Rng.create ~seed:(seed + 31) in
  let n_placements = 64 in
  let placements = Array.make n_placements [||] in
  for i = 0 to n_placements - 1 do
    placements.(i) <- Mapping.Placement.random (Rng.split rng) ~cores ~tiles
  done;
  let pick i = placements.(i mod n_placements) in
  let cwm_ops =
    let cwm = Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg in
    ops_per_sec (fun i -> ignore (cwm (pick i)))
  in
  (* The perf trajectory is tracked against a frozen copy of the seed
     simulator (record events, per-call allocation of every structure) —
     see [Baseline_sim].  Speedups below are relative to it.

     The CI gate checks ratios of these throughputs, so they are measured
     interleaved round-robin with best-of-five windows per metric: a
     multi-second interference burst then slows every metric of a rep
     instead of one side of a ratio, and the max discards slowed reps. *)
  let scratch = Wormhole.Scratch.create ~crg cdcg in
  let incumbent =
    (* cutoff for the bound throughput: best cost over the sample set *)
    let best = ref infinity in
    for i = 0 to n_placements - 1 do
      best :=
        Float.min !best
          (Mapping.Cost_cdcm.total_energy ~scratch ~tech ~params ~crg ~cdcg (pick i))
    done;
    !best
  in
  (* Swap-move candidate stream: random non-noop moves around the
     anchor [pick 0], exactly the proposals a descent bounds against its
     best cost, materialized as full placements for the arena+cutoff
     simulator. *)
  let n_moves = 256 in
  let move_candidates = Array.make n_moves [||] in
  (let anchor = pick 0 in
   let occupant = Array.make tiles (-1) in
   Array.iteri (fun core tile -> occupant.(tile) <- core) anchor;
   let move_rng = Rng.create ~seed:(seed + 43) in
   for m = 0 to n_moves - 1 do
     let core = Rng.int move_rng cores in
     let tile = ref (Rng.int move_rng tiles) in
     while !tile = anchor.(core) do
       tile := Rng.int move_rng tiles
     done;
     let cand = Array.copy anchor in
     cand.(core) <- !tile;
     if occupant.(!tile) >= 0 then cand.(occupant.(!tile)) <- anchor.(core);
     move_candidates.(m) <- cand
   done);
  let cdcm_inc =
    Mapping.Cost_cdcm_incremental.create ~tech ~params ~crg ~cdcg
      ~placement:(pick 0) ()
  in
  let cdcm_measures =
    [|
      (* seed-simulator baseline *)
      (fun () ->
        ops_per_sec (fun i ->
            ignore (Baseline_sim.total_energy ~tech ~params ~crg ~cdcg (pick i))));
      (* current simulator, fresh allocations per call *)
      (fun () ->
        ops_per_sec (fun i ->
            ignore (Mapping.Cost_cdcm.total_energy ~tech ~params ~crg ~cdcg (pick i))));
      (* arena-backed *)
      (fun () ->
        ops_per_sec (fun i ->
            ignore
              (Mapping.Cost_cdcm.total_energy ~scratch ~tech ~params ~crg ~cdcg
                 (pick i))));
      (* observability tax: same arena path with the metrics registry on
         (per-run flush of the sim.* counters); budget <= 5% *)
      (fun () ->
        Nocmap_obs.Metrics.with_enabled true (fun () ->
            ops_per_sec (fun i ->
                ignore
                  (Mapping.Cost_cdcm.total_energy ~scratch ~tech ~params ~crg ~cdcg
                     (pick i)))));
      (* cutoff: the local-search / SA-descent scenario — every candidate
         is bounded against the best cost seen so far *)
      (fun () ->
        ops_per_sec (fun i ->
            ignore
              (Mapping.Cost_cdcm.evaluate_bound ~scratch ~tech ~params ~crg ~cdcg
                 ~cutoff:incumbent (pick i))));
      (* the same arena+cutoff path on the swap-move candidate stream:
         what a descent pays per proposed move without incrementality
         (the simulator cannot exploit the single-move diff, so it
         re-simulates the whole placement) *)
      (fun () ->
        ops_per_sec (fun i ->
            ignore
              (Mapping.Cost_cdcm.evaluate_bound ~scratch ~tech ~params ~crg ~cdcg
                 ~cutoff:incumbent move_candidates.(i mod n_moves))));
      (* anchor-oblivious robustness: arbitrary-placement candidates
         through [bound_for], where every query diffs against a drifting
         anchor and the affected cone is essentially the whole graph *)
      (fun () ->
        ops_per_sec (fun i ->
            ignore (Mapping.Cost_cdcm_incremental.bound_for cdcm_inc
                      ~cutoff:incumbent (pick i))));
    |]
  in
  let reps = 5 in
  let cdcm_reps =
    Array.init reps (fun _ -> Array.map (fun measure -> measure ()) cdcm_measures)
  in
  let best metric =
    Array.fold_left (fun acc rep -> Float.max acc rep.(metric)) 0.0 cdcm_reps
  in
  (* Gated ratios are formed within each rep (numerator and denominator
     measured back to back under the same machine state) and summarised
     by the median rep, so a single interference burst cannot move
     them. *)
  let median_ratio num den =
    let ratios = Array.map (fun rep -> rep.(num) /. rep.(den)) cdcm_reps in
    Array.sort compare ratios;
    ratios.(reps / 2)
  in
  let cdcm_baseline_ops = best 0 in
  let cdcm_fresh_ops = best 1 in
  let cdcm_arena_ops = best 2 in
  let cdcm_arena_metrics_ops = best 3 in
  let cdcm_cutoff_ops = best 4 in
  let cdcm_cutoff_move_ops = best 5 in
  let cdcm_inc_bound_ops = best 6 in
  let arena_speedup = median_ratio 2 0 in
  let cutoff_speedup = median_ratio 4 0 in
  (* The tentpole ratio: bounding candidates against the incumbent
     through the incremental evaluator vs the arena+cutoff simulation
     path it replaces, on the identical candidate stream.  This is the
     pruning regime the evaluator serves — most candidates sit well
     above the best known cost, and the analytic bound rejects them
     without entering the simulator. *)
  let incremental_speedup = median_ratio 6 4 in
  let inc_delta_hit_percent =
    let s = Mapping.Cost_cdcm_incremental.stats cdcm_inc in
    100.0
    *. float_of_int s.Mapping.Cost_cdcm_incremental.delta_hits
    /. float_of_int (max 1 s.Mapping.Cost_cdcm_incremental.queries)
  in
  (* Local search must be trajectory-identical with and without the
     incremental evaluator: its bound threshold is an exact accept test,
     and the analytic bound only rejects candidates the plain objective
     would also have discarded. *)
  let ls_identical =
    let initial = pick 0 in
    let run objective =
      Mapping.Local_search.search ~objective ~tiles ~initial ()
    in
    let plain = run (Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg ()) in
    let inc =
      run (Mapping.Objective.cdcm ~incremental:true ~tech ~params ~crg ~cdcg ())
    in
    plain.Mapping.Objective.placement = inc.Mapping.Objective.placement
    && plain.Mapping.Objective.cost = inc.Mapping.Objective.cost
    && plain.Mapping.Objective.evaluations = inc.Mapping.Objective.evaluations
  in
  (* Instrumentation tax from the cleanest window of each side.  On a
     busy machine this estimate still carries several points of noise, so
     the CI gate checks it against a fixed ceiling rather than a delta
     from the baseline; the <= 5% budget claim holds on quiet machines. *)
  let metrics_overhead =
    100.0 *. (1.0 -. (cdcm_arena_metrics_ops /. Float.max cdcm_arena_ops 1e-9))
  in
  (* Evaluation cache: converged annealing on the ablation instance,
     cached vs uncached.  Results must be bit-identical; the hit rate
     and the wall-clock ratio land in the JSON. *)
  let sa_config =
    {
      (Mapping.Annealing.default_config ~tiles) with
      Mapping.Annealing.prune = Some 20.0;
      patience = 40;
    }
  in
  let sa_run objective =
    Mapping.Annealing.search
      ~rng:(Rng.create ~seed:(seed + 37))
      ~config:sa_config ~tiles ~objective ~cores ()
  in
  let t0 = wall () in
  let sa_plain = sa_run (Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg ()) in
  let sa_plain_seconds = wall () -. t0 in
  let symmetry =
    Nocmap_noc.Symmetry.of_crg ~level:Nocmap_noc.Symmetry.Paths crg
  in
  let sa_cache = Mapping.Eval_cache.create ~symmetry ~cores () in
  let t0 = wall () in
  let sa_cached =
    sa_run
      (Mapping.Objective.with_cache sa_cache
         (Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg ()))
  in
  let sa_cached_seconds = wall () -. t0 in
  let sa_identical =
    sa_plain.Mapping.Objective.placement = sa_cached.Mapping.Objective.placement
    && sa_plain.Mapping.Objective.cost = sa_cached.Mapping.Objective.cost
    && sa_plain.Mapping.Objective.evaluations
       = sa_cached.Mapping.Objective.evaluations
  in
  let sa_hit_rate = 100.0 *. Mapping.Eval_cache.hit_rate sa_cache in
  (* Checkpointed annealing at the default journal cadence: the cost of
     crash-safety must stay in the noise, and a run killed mid-search
     then resumed over the same store must land bit-identical on the
     plain result.  Both sides take the best of three runs so machine
     noise does not read as checkpoint overhead. *)
  let plain_objective () = Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg () in
  let min_of_3 f =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to 3 do
      let t0 = wall () in
      let r = f () in
      best := Float.min !best (wall () -. t0);
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let temp_store () =
    let path = Filename.temp_file "nocmap" ".ckpt" in
    Sys.remove path;
    Nocmap_persist.Store.open_ ~dir:path
  in
  let persisted_sa ?(every = Mapping.Search_persist.default_every) ?stop store =
    Mapping.Search_persist.refine ~store ~key:"bench-sa" ~every
      ~rng:(Rng.create ~seed:(seed + 37))
      (Mapping.Refiner.Sa sa_config) ~tiles ~objective:(plain_objective ()) ?stop
      ~cores ()
  in
  let sa_unjournaled, plain_seconds =
    min_of_3 (fun () -> sa_run (plain_objective ()))
  in
  let _, journaled_seconds =
    (* A fresh store per rep, or the second rep would just replay. *)
    min_of_3 (fun () -> persisted_sa (temp_store ()))
  in
  let checkpoint_overhead =
    100.0 *. ((journaled_seconds /. Float.max plain_seconds 1e-9) -. 1.0)
  in
  let kill_store = temp_store () in
  let stop =
    let polls = ref 0 in
    fun () ->
      incr polls;
      !polls > 900
  in
  ignore (persisted_sa ~every:200 ~stop kill_store);
  let sa_resumed = persisted_sa ~every:200 kill_store in
  let checkpoint_identical =
    sa_resumed.Mapping.Objective.placement
    = sa_unjournaled.Mapping.Objective.placement
    && sa_resumed.Mapping.Objective.cost = sa_unjournaled.Mapping.Objective.cost
    && sa_resumed.Mapping.Objective.evaluations
       = sa_unjournaled.Mapping.Objective.evaluations
  in
  (* Racing portfolio: cost evaluations for a spiral/greedy/SA/tabu
     portfolio to reach the converged cost of a solo quick-SA run, vs
     that solo run's own evaluation count.  The solo reference burns
     the exact RNG substream the portfolio hands its SA leg
     ([Rng.split] of the same root), so the target is the quality a
     lone racer reaches and the ratio measures what constructive
     seeding plus racing buys.  Evaluations are the unit that
     dominates wall time and they are deterministic for a fixed seed,
     so the gate on this ratio holds across machines. *)
  let pf_config = Mapping.Portfolio.quick_config ~tiles in
  let pf_root () = Rng.create ~seed:(seed + 47) in
  let sa_ref =
    Mapping.Annealing.search
      ~rng:(Rng.split (pf_root ()))
      ~config:pf_config.Mapping.Portfolio.sa ~tiles
      ~objective:(plain_objective ()) ~cores ()
  in
  let pf_report =
    Mapping.Portfolio.search ~rng:(pf_root ()) ~config:pf_config
      ~strategies:Mapping.Portfolio.[ Spiral; Greedy; Sa; Tabu ]
      ~tech ~crg ~cwg
      ~objective_for:(fun _ -> plain_objective ())
      ~target:sa_ref.Mapping.Objective.cost ()
  in
  let portfolio_reached =
    pf_report.Mapping.Portfolio.result.Mapping.Objective.cost
    <= sa_ref.Mapping.Objective.cost
  in
  let portfolio_speedup =
    float_of_int sa_ref.Mapping.Objective.evaluations
    /. float_of_int
         (max 1 pf_report.Mapping.Portfolio.result.Mapping.Objective.evaluations)
  in
  (* Decomposition quality: flat quick-SA vs the divide-and-conquer
     mapper on the 12x12/132-core scaling instance (CWM objective), same
     root seed — the first rung where a monolithic move space visibly
     stalls.  Both searches are evaluation-deterministic for a fixed
     seed, so the ratio is machine-stable: the relative gate tracks
     algorithmic drift, and the baseline floor asserts the repository
     never ships a decompose that maps worse than the flat search it
     exists to beat at scale. *)
  let d_mesh, d_cwg = List.nth (Nocmap_tgff.Scale.instances ~seed) 1 in
  let d_crg = Crg.create d_mesh in
  let d_tiles = Mesh.tile_count d_mesh in
  let d_cores = Cwg.core_count d_cwg in
  let d_objective () = Mapping.Objective.cwm ~tech ~crg:d_crg ~cwg:d_cwg in
  let d_flat =
    Mapping.Annealing.search
      ~rng:(Rng.create ~seed:(seed + 53))
      ~config:(Mapping.Annealing.quick_config ~tiles:d_tiles)
      ~tiles:d_tiles ~objective:(d_objective ()) ~cores:d_cores ()
  in
  let d_report =
    Mapping.Decompose.search
      ~rng:(Rng.create ~seed:(seed + 53))
      ~config:(Mapping.Decompose.quick_config ~tiles:d_tiles)
      ~crg:d_crg ~cwg:d_cwg ~objective_for:d_objective ()
  in
  let decompose_quality =
    d_flat.Mapping.Objective.cost
    /. Float.max d_report.Mapping.Decompose.result.Mapping.Objective.cost
         1e-300
  in
  (* The scale wall: CDCM evaluation throughput on the flagship 256-core
     pipeline (16x16 mesh, 2048 packets), arena-backed exactly as a
     search would run it.  Raw evals/sec are machine-bound, so the gate
     holds (a) the committed baseline above an absolute floor and (b)
     the within-run cost of a 256-core evaluation relative to the small
     ablation instance below a fixed ceiling — per-evaluation work that
     grows with the mesh shows up in that ratio on any machine. *)
  let mesh256, cdcg256 = Nocmap_tgff.Scale.pipeline_256 () in
  let crg256 = Crg.create mesh256 in
  let scratch256 = Wormhole.Scratch.create ~crg:crg256 cdcg256 in
  let tiles256 = Mesh.tile_count mesh256 in
  let cores256 = Cdcg.core_count cdcg256 in
  let rng256 = Rng.create ~seed:(seed + 59) in
  let placements256 =
    Array.init 8 (fun _ ->
        Mapping.Placement.random (Rng.split rng256) ~cores:cores256
          ~tiles:tiles256)
  in
  let scale_ops =
    ops_per_sec_in
      (Float.max window 0.5)
      (fun i ->
        ignore
          (Mapping.Cost_cdcm.total_energy ~scratch:scratch256 ~tech ~params
             ~crg:crg256 ~cdcg:cdcg256
             placements256.(i mod Array.length placements256)))
  in
  let scale_eval_cost_ratio = cdcm_arena_ops /. Float.max scale_ops 1e-9 in
  (* Symmetry-reduced exhaustive search: a 5-core CDCM instance on the
     3x3 mesh, full enumeration vs canonical representatives only. *)
  let es_cdcg =
    Nocmap_tgff.Generator.generate
      (Rng.create ~seed:(seed + 41))
      (Nocmap_tgff.Generator.default_spec ~name:"es-cache" ~cores:5 ~packets:20
         ~total_bits:4_000)
  in
  let es_objective = Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg:es_cdcg () in
  let es_full = Mapping.Exhaustive.search ~objective:es_objective ~cores:5 ~tiles () in
  let es_reduced =
    Mapping.Exhaustive.search ~objective:es_objective ~cores:5 ~tiles ~symmetry ()
  in
  let es_identical =
    es_full.Mapping.Objective.placement = es_reduced.Mapping.Objective.placement
    && es_full.Mapping.Objective.cost = es_reduced.Mapping.Objective.cost
  in
  let es_fraction =
    float_of_int es_reduced.Mapping.Objective.evaluations
    /. float_of_int es_full.Mapping.Objective.evaluations
  in
  (* Sequential vs parallel wall time over a Table 2 slice. *)
  let instances =
    Nocmap_tgff.Suite.instances ~seed |> List.filteri (fun i _ -> i < suite_size)
  in
  let table2_slice pool =
    Nocmap.Table2.run ~config:Experiment.quick_config ~instances ?pool ~seed ()
  in
  let fingerprint (t : Nocmap.Table2.t) =
    List.concat_map
      (fun (s_ : Nocmap.Table2.size_summary) ->
        List.map
          (fun (o : Experiment.outcome) ->
            ( o.Experiment.app,
              o.Experiment.etr_percent,
              o.Experiment.ecs_low_percent,
              o.Experiment.ecs_high_percent,
              o.Experiment.cdcm_high.Mapping.Cost_cdcm.total ))
          s_.Nocmap.Table2.outcomes)
      t.Nocmap.Table2.sizes
  in
  let t0 = wall () in
  let sequential = table2_slice None in
  let seq_seconds = wall () -. t0 in
  let jobs = Nocmap_util.Domain_pool.default_jobs () in
  let t0 = wall () in
  let parallel =
    Nocmap_util.Domain_pool.with_pool ~jobs (fun pool -> table2_slice (Some pool))
  in
  let par_seconds = wall () -. t0 in
  let identical = fingerprint sequential = fingerprint parallel in
  (* 3-D generalization gates: a CxRx1 stack must be the planar CxR bit
     for bit — same CWM costs over a random sample and the same CDCM SA
     trajectory — and the equal-tile-budget 2-D vs 3-D comparison
     behind the EXPERIMENTS.md worked example lands in the JSON as info
     metrics. *)
  let n3d_cdcg, n3d_mesh2d, n3d_mesh3d = noc3d_instances () in
  let n3d_mesh_folded = Mesh.create3 ~cols:4 ~rows:4 ~layers:1 in
  let n3d_cores = Cdcg.core_count n3d_cdcg in
  let n3d_sa mesh =
    let crg = Crg.create mesh in
    let tiles = Mesh.tile_count mesh in
    Mapping.Annealing.search
      ~rng:(Rng.create ~seed:(seed + 61))
      ~config:(Mapping.Annealing.quick_config ~tiles)
      ~tiles
      ~objective:(Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg:n3d_cdcg ())
      ~cores:n3d_cores ()
  in
  let n3d_flat = n3d_sa n3d_mesh2d in
  let n3d_folded = n3d_sa n3d_mesh_folded in
  let n3d_cwm_identical =
    let crg2d = Crg.create n3d_mesh2d in
    let crg3d = Crg.create n3d_mesh_folded in
    let cwg3d = Cwg.of_cdcg n3d_cdcg in
    let rng = Rng.create ~seed:(seed + 62) in
    let ok = ref true in
    for _ = 1 to 32 do
      let p =
        Mapping.Placement.random (Rng.split rng) ~cores:n3d_cores
          ~tiles:(Mesh.tile_count n3d_mesh2d)
      in
      if
        Mapping.Cost_cwm.dynamic_energy ~tech ~crg:crg2d ~cwg:cwg3d p
        <> Mapping.Cost_cwm.dynamic_energy ~tech ~crg:crg3d ~cwg:cwg3d p
      then ok := false
    done;
    !ok
  in
  let table2_3d_identical =
    n3d_cwm_identical
    && n3d_flat.Mapping.Objective.placement
       = n3d_folded.Mapping.Objective.placement
    && n3d_flat.Mapping.Objective.cost = n3d_folded.Mapping.Objective.cost
    && n3d_flat.Mapping.Objective.evaluations
       = n3d_folded.Mapping.Objective.evaluations
  in
  let n3d_table =
    Nocmap.Table2.run ~config:Experiment.quick_config
      ~instances:[ (n3d_mesh2d, n3d_cdcg); (n3d_mesh3d, n3d_cdcg) ]
      ~seed ()
  in
  let n3d_row mesh =
    List.find
      (fun (s_ : Nocmap.Table2.size_summary) -> s_.Nocmap.Table2.mesh = mesh)
      n3d_table.Nocmap.Table2.sizes
  in
  let n3d_2d = n3d_row n3d_mesh2d in
  let n3d_3d = n3d_row n3d_mesh3d in
  let json =
    Printf.sprintf
      {|{
  "bench": "nocmap",
  "seed": %d,
  "budget": %S,
  "cwm_eval_ops_per_sec": %.1f,
  "cdcm_eval_seed_baseline_ops_per_sec": %.1f,
  "cdcm_eval_fresh_ops_per_sec": %.1f,
  "cdcm_eval_arena_ops_per_sec": %.1f,
  "cdcm_eval_arena_metrics_ops_per_sec": %.1f,
  "cdcm_eval_arena_cutoff_ops_per_sec": %.1f,
  "cdcm_eval_arena_cutoff_move_ops_per_sec": %.1f,
  "cdcm_incremental_bound_ops_per_sec": %.1f,
  "cdcm_incremental_delta_hit_percent": %.1f,
  "cdcm_arena_speedup": %.2f,
  "cdcm_arena_cutoff_speedup": %.2f,
  "cdcm_incremental_speedup": %.2f,
  "cdcm_incremental_ls_identical": %b,
  "metrics_overhead_percent": %.2f,
  "cache_sa_hit_rate_percent": %.1f,
  "cache_sa_speedup": %.2f,
  "cache_sa_identical": %b,
  "checkpoint_overhead_percent": %.2f,
  "checkpoint_sa_identical": %b,
  "portfolio_speedup_to_quality": %.2f,
  "portfolio_reached_quality": %b,
  "decompose_vs_flat_quality": %.4f,
  "scale_256core_eval_ops_per_sec": %.2f,
  "scale_eval_cost_ratio": %.1f,
  "cache_exhaustive_eval_fraction": %.4f,
  "cache_exhaustive_identical": %b,
  "table2_3d_identical": %b,
  "noc3d_2d_etr_percent": %.1f,
  "noc3d_2d_ecs_high_percent": %.1f,
  "noc3d_3d_etr_percent": %.1f,
  "noc3d_3d_ecs_high_percent": %.1f,
  "suite_instances": %d,
  "suite_jobs": %d,
  "suite_sequential_seconds": %.3f,
  "suite_parallel_seconds": %.3f,
  "suite_parallel_speedup": %.2f,
  "suite_parallel_identical": %b
}
|}
      seed
      (if scale_mode then "scale"
       else
         match budget with
         | Experiment.Quick -> "quick"
         | Experiment.Standard -> "standard"
         | Experiment.Thorough -> "thorough")
      cwm_ops cdcm_baseline_ops cdcm_fresh_ops cdcm_arena_ops
      cdcm_arena_metrics_ops cdcm_cutoff_ops cdcm_cutoff_move_ops
      cdcm_inc_bound_ops inc_delta_hit_percent arena_speedup cutoff_speedup
      incremental_speedup ls_identical metrics_overhead sa_hit_rate
      (sa_plain_seconds /. Float.max sa_cached_seconds 1e-9)
      sa_identical checkpoint_overhead checkpoint_identical
      portfolio_speedup portfolio_reached decompose_quality scale_ops
      scale_eval_cost_ratio es_fraction es_identical table2_3d_identical
      n3d_2d.Nocmap.Table2.etr_percent n3d_2d.Nocmap.Table2.ecs_high_percent
      n3d_3d.Nocmap.Table2.etr_percent n3d_3d.Nocmap.Table2.ecs_high_percent
      (List.length instances) jobs seq_seconds par_seconds
      (seq_seconds /. Float.max par_seconds 1e-9)
      identical
  in
  let oc = open_out "BENCH_nocmap.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  Printf.printf "wrote BENCH_nocmap.json\n"

(* --- Bechamel micro-benchmarks: one per table/figure --- *)

let bechamel_report () =
  banner "Bechamel: time to regenerate each artifact";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let mesh, cdcg = ablation_instance () in
  let crg = Crg.create mesh in
  let cwg = Cwg.of_cdcg cdcg in
  let rng = Rng.create ~seed:(seed + 17) in
  let placement = Mapping.Placement.random rng ~cores:(Cdcg.core_count cdcg)
      ~tiles:(Mesh.tile_count mesh)
  in
  let tests =
    [
      Test.make ~name:"fig2-cwm-cost" (Staged.stage (fun () -> fig2_energy Fig1.mapping_c));
      Test.make ~name:"fig3-cdcm-eval"
        (Staged.stage (fun () ->
             Wormhole.run ~trace:false ~params:example_params ~crg:example_crg
               ~placement:Fig1.mapping_c Fig1.cdcg));
      Test.make ~name:"fig4-gantt"
        (Staged.stage (fun () ->
             Nocmap_sim.Gantt.render ~params:example_params ~cdcg:Fig1.cdcg
               (fig3_run Fig1.mapping_c)));
      Test.make ~name:"table1-features"
        (Staged.stage (fun () -> Nocmap_model.Features.of_cdcg cdcg));
      Test.make ~name:"table2-cwm-eval-3x3"
        (let cwm = Mapping.Cost_cwm.dynamic_energy ~tech:Technology.t007 ~crg ~cwg in
         Staged.stage (fun () -> cwm placement));
      Test.make ~name:"table2-cdcm-eval-3x3"
        (Staged.stage (fun () ->
             Wormhole.run ~trace:false ~params:example_params ~crg ~placement cdcg));
      Test.make ~name:"analytic-estimate-3x3"
        (Staged.stage (fun () ->
             Nocmap_sim.Analytic.estimate ~params:example_params ~crg ~placement cdcg));
      Test.make ~name:"tgff-generate"
        (Staged.stage (fun () ->
             Nocmap_tgff.Generator.generate
               (Rng.create ~seed:(seed + 18))
               (Nocmap_tgff.Generator.default_spec ~name:"bench" ~cores:9 ~packets:48
                  ~total_bits:60_000)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let instances = Instance.[ monotonic_clock ] in
  let measure test = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Tablefmt.create
      ~columns:[ ("artifact", Tablefmt.Left); ("time per run", Tablefmt.Right) ]
      ()
  in
  List.iter
    (fun test ->
      let raw = measure test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          let nanos =
            match Analyze.OLS.estimates result with
            | Some (value :: _) -> value
            | Some [] | None -> nan
          in
          let rendered =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
            else Printf.sprintf "%.0f ns" nanos
          in
          Tablefmt.add_row table [ name; rendered ])
        results)
    tests;
  Tablefmt.print table

(* --- `NOCMAP_BENCH_BUDGET=scale`: large-mesh profiling suite --- *)

(* Profiles the known large-mesh suspects along the scaling ladder
   (8x8/60 cores, 12x12/132, 16x16/256): CRG path precomputation (the
   O(tiles^2) route table), CWM and arena-backed CDCM evaluation
   throughput (simulator arena growth with packet count), a quick
   decompose run end to end, and percentile extraction over a large
   latency trace — one sort for all cut points via [Stats.percentiles]
   vs a sort per cut.  Rows land in SCALE_profile.csv; the flagship
   16x16 pipeline also writes SCALE_heatmap.csv, the per-router traffic
   grid under its decompose mapping, so a hot row or column is visible
   at a glance. *)
let scale_profile () =
  banner "Scaling profile (SCALE_profile.csv, SCALE_heatmap.csv)";
  let wall = Unix.gettimeofday in
  let tech = Technology.t007 in
  let params = example_params in
  let ops_per_sec f =
    f 0;
    let t0 = wall () in
    let stop = t0 +. 0.5 in
    let n = ref 0 in
    while wall () < stop do
      f !n;
      incr n
    done;
    float_of_int !n /. (wall () -. t0)
  in
  let table =
    Tablefmt.create
      ~columns:
        [ ("mesh", Tablefmt.Left); ("cores", Tablefmt.Right);
          ("packets", Tablefmt.Right); ("crg ms", Tablefmt.Right);
          ("cwm evals/s", Tablefmt.Right); ("cdcm evals/s", Tablefmt.Right);
          ("decompose s", Tablefmt.Right); ("1-sort p* ms", Tablefmt.Right);
          ("per-cut p* ms", Tablefmt.Right) ]
      ()
  in
  let oc = open_out "SCALE_profile.csv" in
  output_string oc
    "mesh,tiles,cores,packets,crg_build_ms,cwm_eval_ops_per_sec,cdcm_eval_ops_per_sec,decompose_seconds,decompose_cost,percentiles_ms,percentile_per_cut_ms\n";
  List.iteri
    (fun i (row : Nocmap_tgff.Scale.row) ->
      let mesh = row.Nocmap_tgff.Scale.mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = row.Nocmap_tgff.Scale.cores in
      let t0 = wall () in
      let crg = Crg.create mesh in
      let crg_ms = (wall () -. t0) *. 1e3 in
      let rng = Rng.create ~seed:(seed + 61 + i) in
      let cwg =
        Nocmap_tgff.Scale.random_cwg (Rng.split rng)
          ~name:(Printf.sprintf "scale-%s" (Mesh.to_string mesh))
          ~cores ~degree:row.Nocmap_tgff.Scale.degree ~max_volume:100_000
      in
      (* Full-width pipeline: cores = tiles, rounds * tiles packets. *)
      let cdcg =
        Nocmap_tgff.Scale.pipeline
          ~name:(Printf.sprintf "pipe-%s" (Mesh.to_string mesh))
          ~stages:mesh.Mesh.cols ~width:mesh.Mesh.rows ()
      in
      let packets = Cdcg.packet_count cdcg in
      let placements =
        Array.init 8 (fun _ ->
            Mapping.Placement.random (Rng.split rng) ~cores ~tiles)
      in
      let cwm_ops =
        let cwm = Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg in
        ops_per_sec (fun j -> ignore (cwm placements.(j mod Array.length placements)))
      in
      let pipe_cores = Cdcg.core_count cdcg in
      let pipe_placements =
        Array.init 4 (fun _ ->
            Mapping.Placement.random (Rng.split rng) ~cores:pipe_cores ~tiles)
      in
      let scratch = Wormhole.Scratch.create ~crg cdcg in
      let cdcm_ops =
        ops_per_sec (fun j ->
            ignore
              (Mapping.Cost_cdcm.total_energy ~scratch ~tech ~params ~crg ~cdcg
                 pipe_placements.(j mod Array.length pipe_placements)))
      in
      let t0 = wall () in
      let report =
        Mapping.Decompose.search
          ~rng:(Rng.create ~seed:(seed + 71 + i))
          ~config:(Mapping.Decompose.quick_config ~tiles)
          ~crg ~cwg
          ~objective_for:(fun () -> Mapping.Objective.cwm ~tech ~crg ~cwg)
          ()
      in
      let decompose_seconds = wall () -. t0 in
      let decompose_cost =
        report.Mapping.Decompose.result.Mapping.Objective.cost
      in
      (* Percentile extraction over a trace two orders of magnitude past
         the paper's instances; the single-sort path must agree with the
         per-cut path bit for bit. *)
      let trace =
        let t_rng = Rng.create ~seed:(seed + 73 + i) in
        List.init ((50_000 * (i + 1)) + packets) (fun _ ->
            Rng.float t_rng 1.0)
      in
      let cuts = [ 50.0; 90.0; 95.0; 99.0 ] in
      let t0 = wall () in
      let multi = Stats.percentiles cuts trace in
      let percentiles_ms = (wall () -. t0) *. 1e3 in
      let t0 = wall () in
      let per_cut = List.map (fun p -> Stats.percentile p trace) cuts in
      let per_cut_ms = (wall () -. t0) *. 1e3 in
      if multi <> per_cut then
        failwith "scale_profile: percentiles disagree with percentile";
      Tablefmt.add_row table
        [
          Mesh.to_string mesh; string_of_int cores; string_of_int packets;
          Printf.sprintf "%.1f" crg_ms; Printf.sprintf "%.0f" cwm_ops;
          Printf.sprintf "%.1f" cdcm_ops;
          Printf.sprintf "%.2f" decompose_seconds;
          Printf.sprintf "%.1f" percentiles_ms;
          Printf.sprintf "%.1f" per_cut_ms;
        ];
      Printf.fprintf oc "%s,%d,%d,%d,%.3f,%.1f,%.2f,%.3f,%.6g,%.3f,%.3f\n"
        (Mesh.to_string mesh) tiles cores packets crg_ms cwm_ops cdcm_ops
        decompose_seconds decompose_cost percentiles_ms per_cut_ms)
    Nocmap_tgff.Scale.rows;
  close_out oc;
  Tablefmt.print table;
  Printf.printf "wrote SCALE_profile.csv\n";
  (* Per-router traffic heatmap of the flagship 256-core pipeline under
     its decompose mapping: every CWG volume is walked along its
     precomputed route and accumulated on the routers it crosses. *)
  let mesh256, cdcg256 = Nocmap_tgff.Scale.pipeline_256 () in
  let crg256 = Crg.create mesh256 in
  let cwg256 = Cwg.of_cdcg cdcg256 in
  let tiles256 = Mesh.tile_count mesh256 in
  let report256 =
    Mapping.Decompose.search
      ~rng:(Rng.create ~seed:(seed + 79))
      ~config:(Mapping.Decompose.quick_config ~tiles:tiles256)
      ~crg:crg256 ~cwg:cwg256
      ~objective_for:(fun () ->
        Mapping.Objective.cwm ~tech ~crg:crg256 ~cwg:cwg256)
      ()
  in
  let placement =
    report256.Mapping.Decompose.result.Mapping.Objective.placement
  in
  let heat = Array.make tiles256 0.0 in
  List.iter
    (fun (src, dst, bits) ->
      let p = Crg.path crg256 ~src:placement.(src) ~dst:placement.(dst) in
      Array.iter
        (fun r -> heat.(r) <- heat.(r) +. float_of_int bits)
        p.Crg.routers)
    (Cwg.communications cwg256);
  let oc = open_out "SCALE_heatmap.csv" in
  for y = 0 to mesh256.Mesh.rows - 1 do
    for x = 0 to mesh256.Mesh.cols - 1 do
      if x > 0 then output_char oc ',';
      Printf.fprintf oc "%.0f" heat.(Mesh.tile_of_coord mesh256 ~x ~y)
    done;
    output_char oc '\n'
  done;
  close_out oc;
  Printf.printf
    "wrote SCALE_heatmap.csv (16x16 router traffic, %d regions, cut %d of %d bits)\n"
    (List.length report256.Mapping.Decompose.regions)
    report256.Mapping.Decompose.cut report256.Mapping.Decompose.total

(* --- benchmark regression gate: `bench/main.exe --compare BASE CUR` ---

   Compares two BENCH_nocmap.json files and fails (exit 1) when a gated
   metric regresses beyond the tolerance, or (exit 2) when a gated
   metric is missing or malformed in either file.  Raw ops/sec numbers
   are machine-dependent, so the gate covers only within-run ratios
   (speedups vs the frozen seed simulator, the metrics tax, cache hit
   rate, symmetry eval fraction) and the bit-identity booleans; the raw
   throughputs are reported for information only. *)

let parse_flat_json path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "bench-compare: cannot read %s: %s\n" path msg;
      exit 2
  in
  let n = String.length text in
  let fields = ref [] in
  let i = ref 0 in
  let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  while !i < n do
    while !i < n && text.[!i] <> '"' do incr i done;
    if !i < n then begin
      incr i;
      let key_start = !i in
      while !i < n && text.[!i] <> '"' do incr i done;
      if !i >= n then begin
        Printf.eprintf "bench-compare: %s: unterminated string\n" path;
        exit 2
      end;
      let key = String.sub text key_start (!i - key_start) in
      incr i;
      while !i < n && is_blank text.[!i] do incr i done;
      if !i < n && text.[!i] = ':' then begin
        incr i;
        while !i < n && is_blank text.[!i] do incr i done;
        if !i < n && text.[!i] = '"' then begin
          incr i;
          let v_start = !i in
          while !i < n && text.[!i] <> '"' do incr i done;
          fields := (key, String.sub text v_start (!i - v_start)) :: !fields;
          incr i
        end
        else begin
          let v_start = !i in
          while !i < n && text.[!i] <> ',' && text.[!i] <> '}' && text.[!i] <> '\n'
          do incr i done;
          let raw = String.trim (String.sub text v_start (!i - v_start)) in
          if raw <> "" then fields := (key, raw) :: !fields
        end
      end
    end
  done;
  List.rev !fields

let compare_field fields path key =
  match List.assoc_opt key fields with
  | Some raw -> raw
  | None ->
      Printf.eprintf "bench-compare: metric %S missing from %s\n" key path;
      exit 2

let compare_float fields path key =
  let raw = compare_field fields path key in
  match float_of_string_opt raw with
  | Some v -> v
  | None ->
      Printf.eprintf "bench-compare: metric %S in %s is not a number: %s\n" key
        path raw;
      exit 2

let compare_bool fields path key =
  let raw = compare_field fields path key in
  match bool_of_string_opt raw with
  | Some v -> v
  | None ->
      Printf.eprintf "bench-compare: metric %S in %s is not a boolean: %s\n" key
        path raw;
      exit 2

type gate_direction = Higher_better | Lower_better

let run_compare ~baseline_path ~current_path ~tolerance_percent =
  let baseline = parse_flat_json baseline_path in
  let current = parse_flat_json current_path in
  let tol = tolerance_percent /. 100.0 in
  let checks = ref [] in
  (* (key, baseline repr, current repr, status) in insertion order *)
  let record key b c status = checks := (key, b, c, status) :: !checks in
  let failures = ref 0 in
  let gate_ratio key direction =
    let b = compare_float baseline baseline_path key in
    let c = compare_float current current_path key in
    let ok =
      match direction with
      | Higher_better -> c >= b *. (1.0 -. tol)
      | Lower_better -> c <= b *. (1.0 +. tol)
    in
    if not ok then incr failures;
    record key (Printf.sprintf "%.4f" b) (Printf.sprintf "%.4f" c)
      (if ok then "ok" else "regression")
  in
  (* [metrics_overhead_percent] sits near zero and carries several
     points of measurement noise on shared machines, so neither a
     relative tolerance nor a baseline delta is meaningful; gate it
     against a fixed absolute ceiling that still catches a genuine
     instrumentation blow-up (a per-event allocation shows up as tens of
     points).  The baseline value must still be present and is shown for
     context. *)
  let gate_ceiling key ceiling =
    let b = compare_float baseline baseline_path key in
    let c = compare_float current current_path key in
    let ok = c <= ceiling in
    if not ok then incr failures;
    record key (Printf.sprintf "%.2f" b) (Printf.sprintf "%.2f" c)
      (if ok then "ok" else "regression")
  in
  let gate_bool key =
    let b = compare_bool baseline baseline_path key in
    let c = compare_bool current current_path key in
    let ok = c in
    if not ok then incr failures;
    record key (string_of_bool b) (string_of_bool c)
      (if ok then "ok" else "regression")
  in
  let report_only key =
    let b = compare_float baseline baseline_path key in
    let c = compare_float current current_path key in
    record key (Printf.sprintf "%.1f" b) (Printf.sprintf "%.1f" c) "info"
  in
  (* A floor on the committed baseline: unlike [gate_ratio] this is
     deterministic (it reads the checked-in JSON, not this machine's
     run), so it asserts the repository never ships a baseline whose
     key is missing or below the promised value.  The ratio gate then
     holds the current run near that baseline. *)
  let gate_baseline_floor key floor =
    let b = compare_float baseline baseline_path key in
    let c = compare_float current current_path key in
    let ok = b >= floor in
    if not ok then incr failures;
    record key (Printf.sprintf "%.4f" b) (Printf.sprintf "%.4f" c)
      (if ok then "ok" else Printf.sprintf "baseline below %.1f" floor)
  in
  List.iter report_only
    [
      "cwm_eval_ops_per_sec";
      "cdcm_eval_seed_baseline_ops_per_sec"; "cdcm_eval_fresh_ops_per_sec";
      "cdcm_eval_arena_ops_per_sec"; "cdcm_eval_arena_metrics_ops_per_sec";
      "cdcm_eval_arena_cutoff_ops_per_sec";
      "cdcm_eval_arena_cutoff_move_ops_per_sec";
      "cdcm_incremental_bound_ops_per_sec";
      "cdcm_incremental_delta_hit_percent"; "suite_parallel_speedup";
      "cache_sa_speedup"; "noc3d_2d_etr_percent"; "noc3d_2d_ecs_high_percent";
      "noc3d_3d_etr_percent"; "noc3d_3d_ecs_high_percent";
    ];
  gate_ratio "cdcm_arena_speedup" Higher_better;
  gate_ratio "cdcm_arena_cutoff_speedup" Higher_better;
  gate_ratio "cdcm_incremental_speedup" Higher_better;
  gate_baseline_floor "cdcm_incremental_speedup" 3.0;
  gate_bool "cdcm_incremental_ls_identical";
  gate_ratio "cache_sa_hit_rate_percent" Higher_better;
  gate_ratio "cache_exhaustive_eval_fraction" Lower_better;
  gate_ceiling "metrics_overhead_percent" 30.0;
  (* One journal append per 10k evaluations costs well under 2%; the
     fixed ceiling leaves room for shared-machine timing noise while
     still catching a per-evaluation write sneaking in. *)
  gate_ceiling "checkpoint_overhead_percent" 5.0;
  (* The racing portfolio must reach solo-SA quality in no more
     evaluations than solo SA spends getting there; the ratio is
     evaluation-count based, hence deterministic per seed, so the
     relative gate tracks algorithmic drift rather than machine
     noise. *)
  gate_ratio "portfolio_speedup_to_quality" Higher_better;
  gate_baseline_floor "portfolio_speedup_to_quality" 1.0;
  gate_bool "portfolio_reached_quality";
  (* Decompose must map the fixed scaling instance at least as well as
     the flat quick SA it exists to beat; the ratio is
     evaluation-deterministic per seed, so the relative gate tracks
     algorithmic drift rather than machine noise. *)
  gate_ratio "decompose_vs_flat_quality" Higher_better;
  gate_baseline_floor "decompose_vs_flat_quality" 1.0;
  (* 256-core evals/sec is machine-bound, so the committed baseline
     carries the promise (the repository never ships a baseline below
     the floor), while the within-run cost of a 256-core evaluation
     relative to the small ablation instance is held under a fixed
     ceiling — a per-evaluation O(tiles^2) regression blows that ratio
     up on any machine. *)
  gate_baseline_floor "scale_256core_eval_ops_per_sec" 50.0;
  gate_ceiling "scale_eval_cost_ratio" 1000.0;
  gate_bool "suite_parallel_identical";
  gate_bool "cache_sa_identical";
  gate_bool "cache_exhaustive_identical";
  gate_bool "checkpoint_sa_identical";
  (* A CxRx1 stacked mesh must stay bit-identical to the planar CxR:
     same CWM costs and the same CDCM annealing trajectory. *)
  gate_bool "table2_3d_identical";
  let checks = List.rev !checks in
  let table =
    Tablefmt.create
      ~columns:
        [ ("metric", Tablefmt.Left); ("baseline", Tablefmt.Right);
          ("current", Tablefmt.Right); ("status", Tablefmt.Left) ]
      ()
  in
  List.iter (fun (k, b, c, s) -> Tablefmt.add_row table [ k; b; c; s ]) checks;
  banner
    (Printf.sprintf "Benchmark comparison: %s vs %s (tolerance %.0f%%)"
       baseline_path current_path tolerance_percent);
  Tablefmt.print table;
  let json =
    let rows =
      List.map
        (fun (k, b, c, s) ->
          Printf.sprintf
            {|    { "metric": %S, "baseline": %S, "current": %S, "status": %S }|}
            k b c s)
        checks
      |> String.concat ",\n"
    in
    Printf.sprintf
      {|{
  "baseline": %S,
  "current": %S,
  "tolerance_percent": %.1f,
  "regressions": %d,
  "checks": [
%s
  ]
}
|}
      baseline_path current_path tolerance_percent !failures rows
  in
  let oc = open_out "BENCH_comparison.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_comparison.json (%d regression%s)\n" !failures
    (if !failures = 1 then "" else "s");
  if !failures > 0 then exit 1

let compare_dispatch () =
  match Array.to_list Sys.argv with
  | _ :: "--compare" :: rest -> (
      match rest with
      | [ baseline_path; current_path ] ->
          run_compare ~baseline_path ~current_path ~tolerance_percent:15.0;
          true
      | [ baseline_path; current_path; "--tolerance"; pct ] -> (
          match float_of_string_opt pct with
          | Some tolerance_percent when tolerance_percent >= 0.0 ->
              run_compare ~baseline_path ~current_path ~tolerance_percent;
              true
          | Some _ | None ->
              Printf.eprintf "bench-compare: invalid tolerance %S\n" pct;
              exit 2)
      | _ ->
          Printf.eprintf
            "usage: bench/main.exe --compare BASELINE CURRENT [--tolerance PCT]\n";
          exit 2)
  | _ -> false

let () =
  if compare_dispatch () then ()
  else if scale_mode then begin
    scale_profile ();
    bench_json ()
  end
  else begin
  fig1 ();
  fig2 ();
  fig3 ();
  fig4_5 ();
  table1 ();
  table2 ();
  table2_3d ();
  cputime ();
  related_work ();
  es_vs_sa ();
  ablation_routing ();
  ablation_buffers ();
  ablation_strategies ();
  contention_study ();
  ablation_pareto ();
  ablation_packetization ();
  ablation_sa_budget ();
  bench_json ();
  bechamel_report ();
  end;
  print_newline ()
