(* Divide-and-conquer mapping: the recursive bipartition is a true
   partition on every mesh/torus shape, every region stays in bounds,
   the search never loses to its own constructive seed, pooled runs are
   bit-identical to sequential ones, and a run killed at an arbitrary
   point resumes bit-identically. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Cwg = Nocmap_model.Cwg
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Store = Nocmap_persist.Store
module Fsutil = Nocmap_persist.Fsutil
module Scale = Nocmap_tgff.Scale

let prop_count = Test_util.prop_count

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".ckpt" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

(* A sticky eval-budget stop: false for the first [n] polls, true ever
   after — the deterministic stand-in for a SIGKILL mid-search. *)
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

let check_report msg (expected : Mapping.Decompose.report) actual =
  check_result msg expected.Mapping.Decompose.result
    actual.Mapping.Decompose.result;
  Alcotest.(check int) (msg ^ ": cut") expected.Mapping.Decompose.cut
    actual.Mapping.Decompose.cut;
  Alcotest.(check int) (msg ^ ": total") expected.Mapping.Decompose.total
    actual.Mapping.Decompose.total;
  Alcotest.(check bool)
    (msg ^ ": seed cost bit-identical") true
    (same_float expected.Mapping.Decompose.seed_cost
       actual.Mapping.Decompose.seed_cost);
  Alcotest.(check int)
    (msg ^ ": polish evaluations") expected.Mapping.Decompose.polish_evaluations
    actual.Mapping.Decompose.polish_evaluations;
  List.iter2
    (fun (e : Mapping.Decompose.region_report)
         (a : Mapping.Decompose.region_report) ->
      Alcotest.(check (list int))
        (msg ^ ": region cores") e.Mapping.Decompose.region_cores
        a.Mapping.Decompose.region_cores;
      Alcotest.(check bool) (msg ^ ": region rect") true
        (e.Mapping.Decompose.region_rect = a.Mapping.Decompose.region_rect);
      Alcotest.(check bool)
        (msg ^ ": region cost bit-identical") true
        (same_float e.Mapping.Decompose.region_cost
           a.Mapping.Decompose.region_cost);
      Alcotest.(check int)
        (msg ^ ": region evaluations") e.Mapping.Decompose.region_evaluations
        a.Mapping.Decompose.region_evaluations)
    expected.Mapping.Decompose.regions actual.Mapping.Decompose.regions

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

(* --- partition properties on arbitrary mesh/torus shapes --- *)

(* cols x rows in 1..6, xy or torus-xy routing, a connected random CWG
   of up to [tiles] cores, and a max_region in 1..6. *)
let instance_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun cols ->
    int_range 1 6 >>= fun rows ->
    int_range 2 (max 2 (cols * rows)) >>= fun cores ->
    bool >>= fun torus ->
    int_range 1 6 >>= fun max_region ->
    int_range 0 4 >>= fun kl_passes ->
    int_range 0 10_000 >>= fun seed ->
    return (cols, rows, cores, torus, max_region, kl_passes, seed))

let instance_print (cols, rows, cores, torus, max_region, kl_passes, seed) =
  Printf.sprintf "%dx%d, %d cores, torus:%b, max_region:%d, passes:%d, seed:%d"
    cols rows cores torus max_region kl_passes seed

let cwg_for ~cores ~seed =
  Scale.random_cwg
    (Rng.create ~seed:(seed + 1))
    ~name:"prop" ~cores ~degree:3 ~max_volume:1_000

let prop_partition_is_true_partition =
  QCheck2.Test.make
    ~name:"partition covers every core exactly once, every region in bounds"
    ~count:(prop_count 200) ~print:instance_print instance_gen
    (fun (cols, rows, cores, torus, max_region, kl_passes, seed) ->
      QCheck2.assume (cores <= cols * rows);
      let mesh = Mesh.create ~cols ~rows in
      let torus = torus && cols >= 3 && rows >= 3 in
      let _routing =
        Routing.algorithm_of_string (if torus then "torus-xy" else "xy")
      in
      let cwg = cwg_for ~cores ~seed in
      let regions =
        Mapping.Decompose.partition ~cwg ~mesh ~max_region ~kl_passes ()
      in
      let tiles = cols * rows in
      let core_seen = Array.make cores 0 in
      let tile_seen = Array.make tiles 0 in
      List.iter
        (fun (r : Mapping.Decompose.region) ->
          let rect = r.Mapping.Decompose.rect in
          (* Rectangles stay inside the mesh... *)
          if
            rect.Mapping.Decompose.x < 0
            || rect.Mapping.Decompose.y < 0
            || rect.Mapping.Decompose.x + rect.Mapping.Decompose.w > cols
            || rect.Mapping.Decompose.y + rect.Mapping.Decompose.h > rows
          then QCheck2.Test.fail_report "region rectangle out of bounds";
          (* ...the cluster fits its rectangle... *)
          if
            Array.length r.Mapping.Decompose.cores
            > rect.Mapping.Decompose.w * rect.Mapping.Decompose.h
          then QCheck2.Test.fail_report "cluster larger than its rectangle";
          (* ...and the tile list is exactly the rectangle's tiles. *)
          if
            Array.length r.Mapping.Decompose.tiles
            <> rect.Mapping.Decompose.w * rect.Mapping.Decompose.h
          then QCheck2.Test.fail_report "tile list does not cover the rectangle";
          Array.iter
            (fun c -> core_seen.(c) <- core_seen.(c) + 1)
            r.Mapping.Decompose.cores;
          Array.iter
            (fun t ->
              if t < 0 || t >= tiles then
                QCheck2.Test.fail_report "tile id out of range";
              tile_seen.(t) <- tile_seen.(t) + 1)
            r.Mapping.Decompose.tiles)
        regions;
      Array.for_all (fun n -> n = 1) core_seen
      && Array.for_all (fun n -> n = 1) tile_seen)

(* --- the search never loses to its own seed --- *)

(* A 4x4 mesh with 12 cores: big enough to split into several regions
   under max_region = 4, small enough to stay fast under CWM. *)
let mesh = Mesh.create ~cols:4 ~rows:4
let crg = Crg.create mesh
let cwg seed = cwg_for ~cores:12 ~seed

let config ?(refiner = Mapping.Decompose.Sa) () =
  {
    (Mapping.Decompose.quick_config ~tiles:16) with
    Mapping.Decompose.max_region = 4;
    refiner;
  }

let objective_for seed () = Mapping.Objective.cwm ~tech ~crg ~cwg:(cwg seed)

(* The region objective [Request.run] hands a CWM decompose. *)
let cwm_region ~tech ~crg ~cwg ~cores ~tiles:_ =
  Mapping.Objective.cwm_region ~tech ~crg ~cwg ~cores

let run ?refiner ?pool ?stop seed =
  Mapping.Decompose.search ~rng:(Rng.create ~seed) ~config:(config ?refiner ())
    ~crg ~cwg:(cwg seed) ~objective_for:(objective_for seed) ?pool ?stop ()

let prop_beats_seed =
  QCheck2.Test.make
    ~name:"decompose cost <= its constructive seed cost (every refiner)"
    ~count:(prop_count 6)
    ~print:(fun (seed, r) ->
      Printf.sprintf "seed %d, %s" seed (Mapping.Decompose.refiner_to_string r))
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (oneofl
           [ Mapping.Decompose.Sa; Mapping.Decompose.Tabu; Mapping.Decompose.Local ]))
    (fun (seed, refiner) ->
      let report = run ~refiner seed in
      let result = report.Mapping.Decompose.result in
      Mapping.Placement.is_valid ~tiles:16 result.Mapping.Objective.placement
      && result.Mapping.Objective.cost <= report.Mapping.Decompose.seed_cost
      && report.Mapping.Decompose.cut <= report.Mapping.Decompose.total
      && List.length report.Mapping.Decompose.regions >= 2)

(* --- pooled run is bit-identical to the sequential run --- *)

let prop_jobs_invariant =
  QCheck2.Test.make
    ~name:"decompose is bit-identical sequentially and on a 4-domain pool"
    ~count:(prop_count 5) ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let sequential = run seed in
      Domain_pool.with_pool ~jobs:4 (fun pool ->
          check_report "jobs=4 vs jobs=1" sequential (run ~pool seed));
      true)

(* --- kill + resume --- *)

let persisted ?refiner ?region_objective_for ?stop ~store seed =
  Mapping.Search_persist.decompose ~store ~key:"decompose" ~every:200
    ~rng:(Rng.create ~seed) ~config:(config ?refiner ()) ~crg ~cwg:(cwg seed)
    ~objective_name:"cwm" ~objective_for:(objective_for seed)
    ?region_objective_for ?stop ()

(* With [~hook], the killed and the resumed runs price their regions
   through the CWM region evaluator.  A resumed region's first call is
   then a neighbour of the seed, not the seed. *)
let kill_resume ?(hook = false) ~refiner ~seed ~kill_at () =
  let reference = run ~refiner seed in
  let region_objective_for =
    if hook then Some (cwm_region ~tech ~crg ~cwg:(cwg seed)) else None
  in
  let persisted = persisted ~refiner ?region_objective_for in
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (persisted ~store ~stop:(stop_after kill_at) seed);
  let resumed = persisted ~store seed in
  let replayed = persisted ~store seed in
  check_report "resumed vs uninterrupted" reference resumed;
  check_report "replayed vs uninterrupted" reference replayed

let prop_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"decompose killed at any point resumes bit-identically (every refiner)"
    ~count:(prop_count 8)
    ~print:(fun (seed, kill_at, r) ->
      Printf.sprintf "seed %d, kill %d, %s" seed kill_at
        (Mapping.Decompose.refiner_to_string r))
    QCheck2.Gen.(
      triple (int_range 0 1000) (int_range 0 8_000)
        (oneofl
           [ Mapping.Decompose.Sa; Mapping.Decompose.Tabu; Mapping.Decompose.Local ]))
    (fun (seed, kill_at, refiner) ->
      kill_resume ~refiner ~seed ~kill_at ();
      kill_resume ~hook:true ~refiner ~seed ~kill_at ();
      true)

(* Local regions take a few passes each, so a random kill point rarely
   lands inside the pass that proves a region's local optimum; walk
   every early one instead. *)
let test_local_kill_resume_every_point () =
  for kill_at = 0 to 60 do
    kill_resume ~refiner:Mapping.Decompose.Local ~seed:0 ~kill_at ()
  done

(* --- fingerprints pin the configuration --- *)

let test_persist_rejects_config_mismatch () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (persisted ~store ~stop:(stop_after 500) 7);
  Alcotest.(check bool)
    "changed refiner is refused" true
    (match
       Mapping.Search_persist.decompose ~store ~key:"decompose" ~every:200
         ~rng:(Rng.create ~seed:7)
         ~config:(config ~refiner:Mapping.Decompose.Local ())
         ~crg ~cwg:(cwg 7) ~objective_name:"cwm"
         ~objective_for:(objective_for 7) ()
     with
    | exception Failure _ -> true
    | _ -> false)

(* --- driver plumbing --- *)

let test_refiner_strings () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "round-trips" true
        (Mapping.Decompose.refiner_of_string
           (Mapping.Decompose.refiner_to_string r)
        = Some r))
    [ Mapping.Decompose.Sa; Mapping.Decompose.Tabu; Mapping.Decompose.Local ];
  Alcotest.(check bool) "unknown name rejected" true
    (Mapping.Decompose.refiner_of_string "warp" = None)

let test_rejects_oversized_instance () =
  let small = Crg.create (Mesh.create ~cols:2 ~rows:2) in
  Alcotest.(check bool) "5 cores on 4 tiles raises" true
    (match
       Mapping.Decompose.search ~rng:(Rng.create ~seed:1)
         ~config:(Mapping.Decompose.quick_config ~tiles:4)
         ~crg:small
         ~cwg:(cwg_for ~cores:5 ~seed:1)
         ~objective_for:(fun () ->
           Mapping.Objective.cwm ~tech ~crg:small ~cwg:(cwg_for ~cores:5 ~seed:1))
         ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_single_region_degenerate () =
  (* max_region >= cores: one region, the refiner works the whole mesh. *)
  let report =
    Mapping.Decompose.search ~rng:(Rng.create ~seed:3)
      ~config:{ (config ()) with Mapping.Decompose.max_region = 16 }
      ~crg ~cwg:(cwg 3) ~objective_for:(objective_for 3) ()
  in
  Alcotest.(check int) "one region" 1
    (List.length report.Mapping.Decompose.regions);
  Alcotest.(check int) "no cut traffic" 0 report.Mapping.Decompose.cut

(* --- golden CWM reports --- *)

(* MD5 of everything a CWM decompose reports that depends on the cost
   fold and the CRG tables: the placement, the cost, the evaluation
   count, each region's cost and evaluations, and the polish
   evaluations, floats in exact [%h] form. *)
let report_digest (report : Mapping.Decompose.report) =
  let b = Buffer.create 1024 in
  let result = report.Mapping.Decompose.result in
  Array.iter
    (fun t -> Buffer.add_string b (string_of_int t ^ ","))
    result.Mapping.Objective.placement;
  Buffer.add_string b
    (Printf.sprintf "\n%h %d\n" result.Mapping.Objective.cost
       result.Mapping.Objective.evaluations);
  List.iter
    (fun (r : Mapping.Decompose.region_report) ->
      Buffer.add_string b
        (Printf.sprintf "%h %d\n" r.Mapping.Decompose.region_cost
           r.Mapping.Decompose.region_evaluations))
    report.Mapping.Decompose.regions;
  Buffer.add_string b
    (string_of_int report.Mapping.Decompose.polish_evaluations);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The application [nocmap gen --seed SEED --cores CORES --packets
   PACKETS] writes. *)
let generated ~cores ~packets ~seed =
  Nocmap_tgff.Generator.generate (Rng.create ~seed)
    (Nocmap_tgff.Generator.default_spec
       ~name:(Printf.sprintf "random-%d" seed)
       ~cores ~packets ~total_bits:50_000)

(* A CWM decompose of a generated application at the CLI's default
   technology; with [~hook], its regions go through the CWM region
   evaluator, as under [Request.run]. *)
let golden_report ?(routing = Routing.Xy) ~hook ~shape ~cores ~packets ~seed
    ~budget ~jobs () =
  let mesh = Mesh.of_string shape in
  let crg = Crg.create ~routing mesh in
  let cwg = Cwg.of_cdcg (generated ~cores ~packets ~seed) in
  let tech = Technology.t007 in
  let region_objective_for = if hook then Some (cwm_region ~tech ~crg ~cwg) else None in
  let search pool =
    Mapping.Decompose.search ~rng:(Rng.create ~seed)
      ~config:(budget ~tiles:(Mesh.tile_count mesh))
      ~crg ~cwg
      ~objective_for:(fun () -> Mapping.Objective.cwm ~tech ~crg ~cwg)
      ?region_objective_for ?pool ()
  in
  report_digest
    (if jobs <= 1 then search None
     else Domain_pool.with_pool ~jobs (fun pool -> search (Some pool)))

let digest_12x12 = "7da44938bfdf2e4e313356d5d50d932b"

let test_golden_reports () =
  let check = Alcotest.(check string) in
  let default = Mapping.Decompose.default_config
  and quick = Mapping.Decompose.quick_config in
  List.iter
    (fun hook ->
      let via = if hook then ", region evaluator" else "" in
      List.iter
        (fun jobs ->
          check
            (Printf.sprintf "96 cores on 12x12, default config, %d jobs%s" jobs via)
            digest_12x12
            (golden_report ~hook ~shape:"12x12" ~cores:96 ~packets:192 ~seed:1
               ~budget:default ~jobs ()))
        [ 1; 2 ];
      check ("24 cores on 4x4x2, quick config" ^ via) "6f9568f1be36c8d1bf1c002fd73387bd"
        (golden_report ~hook ~shape:"4x4x2" ~cores:24 ~packets:64 ~seed:5
           ~budget:quick ~jobs:1 ());
      check
        ("16 cores on a 5x4 torus, quick config" ^ via)
        "6c055d232fdcfabce743a1b2f1c15b47"
        (golden_report ~hook ~routing:Routing.Torus_xy ~shape:"5x4" ~cores:16
           ~packets:48 ~seed:9 ~budget:quick ~jobs:1 ()))
    [ false; true ]

(* [nocmap map --model cwm --algorithm decompose --jobs 2] of the first
   12x12 application, through [Request.run]. *)
let test_request_golden_report () =
  let request =
    {
      Mapping.Request.cdcg = generated ~cores:96 ~packets:192 ~seed:1;
      mesh = Mesh.of_string "12x12";
      routing = Routing.Xy;
      tech = Technology.t007;
      flit_bits = 16;
      model = Mapping.Request.Cwm;
      algorithm = Mapping.Request.Decompose Mapping.Decompose.Sa;
      seed = 1;
      budget = Mapping.Request.Standard;
      incremental = false;
      cache = true;
    }
  in
  match (Mapping.Request.run ~jobs:2 request).Mapping.Request.details with
  | Mapping.Request.Regions report ->
    Alcotest.(check string) "Request.run CWM decompose" digest_12x12
      (report_digest report)
  | Mapping.Request.Single | Mapping.Request.Race _ ->
    Alcotest.fail "a decompose request reports its regions"

let suite =
  ( "decompose",
    [
      QCheck_alcotest.to_alcotest prop_partition_is_true_partition;
      QCheck_alcotest.to_alcotest prop_beats_seed;
      QCheck_alcotest.to_alcotest prop_jobs_invariant;
      QCheck_alcotest.to_alcotest prop_kill_resume_bit_identical;
      Alcotest.test_case "local refiner resumes from every kill point 0-60"
        `Quick test_local_kill_resume_every_point;
      Alcotest.test_case "persist rejects config mismatch" `Quick
        test_persist_rejects_config_mismatch;
      Alcotest.test_case "refiner strings" `Quick test_refiner_strings;
      Alcotest.test_case "oversized instance rejected" `Quick
        test_rejects_oversized_instance;
      Alcotest.test_case "single-region degenerate" `Quick
        test_single_region_degenerate;
      Alcotest.test_case "golden CWM reports" `Quick test_golden_reports;
      Alcotest.test_case "golden CWM report through Request.run" `Quick
        test_request_golden_report;
    ] )
