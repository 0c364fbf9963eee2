(* The 3-D (stacked-mesh) generalization: tile numbering and parsing,
   TSV link slots and routing, the four-term TSV energy split, 3-D
   automorphism groups and cost invariance under them, per-layer fault
   scenarios, incremental-evaluator agreement on stacked meshes, and the
   planar differential (a CxRx1 mesh is the CxR mesh, bit for bit). *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Fault = Nocmap_noc.Fault
module Link = Nocmap_noc.Link
module Routing = Nocmap_noc.Routing
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Equations = Nocmap_energy.Equations
module Rng = Nocmap_util.Rng
module Mapping = Nocmap_mapping
module Generator = Nocmap_tgff.Generator

let mesh222 = Mesh.create3 ~cols:2 ~rows:2 ~layers:2
let mesh332 = Mesh.create3 ~cols:3 ~rows:3 ~layers:2
let mesh422 = Mesh.create3 ~cols:4 ~rows:2 ~layers:2

(* --- numbering and parsing --- *)

let test_numbering () =
  let m = Mesh.create3 ~cols:2 ~rows:3 ~layers:2 in
  Alcotest.(check int) "tile count" 12 (Mesh.tile_count m);
  Alcotest.(check int) "layer tiles" 6 (Mesh.layer_tiles m);
  Alcotest.(check int) "layer 1 starts after layer 0" 6
    (Mesh.tile_of_coord3 m ~x:0 ~y:0 ~z:1);
  Alcotest.(check int) "z-major, then row-major" 9
    (Mesh.tile_of_coord3 m ~x:1 ~y:1 ~z:1);
  Alcotest.(check int) "layer of tile" 1 (Mesh.layer_of_tile m 9);
  for tile = 0 to 11 do
    let x, y, z = Mesh.coord3_of_tile m tile in
    Alcotest.(check int) "coord3 roundtrip" tile (Mesh.tile_of_coord3 m ~x ~y ~z);
    (* The planar accessors see the within-layer position. *)
    let px, py = Mesh.coord_of_tile m tile in
    Alcotest.(check (pair int int)) "planar view" (x, y) (px, py)
  done;
  Alcotest.(check int) "manhattan counts the z leg" 4
    (Mesh.manhattan m (Mesh.tile_of_coord3 m ~x:0 ~y:0 ~z:0)
       (Mesh.tile_of_coord3 m ~x:1 ~y:2 ~z:1))

let test_parse_3d () =
  let m = Mesh.of_string "2x3x4" in
  Alcotest.(check int) "cols" 2 m.Mesh.cols;
  Alcotest.(check int) "rows" 3 m.Mesh.rows;
  Alcotest.(check int) "layers" 4 m.Mesh.layers;
  Alcotest.(check string) "3-D roundtrip" "2x3x4" (Mesh.to_string m);
  Alcotest.(check string) "upper-case X" "2x3x4"
    (Mesh.to_string (Mesh.of_string " 2X3X4 "))

let test_planar_differential () =
  (* A CxRx1 mesh IS the CxR mesh: same record, same string, same
     numbering — so every downstream computation is bit-identical. *)
  Alcotest.(check bool) "4x4x1 = 4x4" true
    (Mesh.of_string "4x4x1" = Mesh.of_string "4x4");
  Alcotest.(check string) "renders without the layer suffix" "4x4"
    (Mesh.to_string (Mesh.of_string "4x4x1"));
  Alcotest.(check bool) "create3 ~layers:1 = create" true
    (Mesh.create3 ~cols:5 ~rows:3 ~layers:1 = Mesh.create ~cols:5 ~rows:3)

(* --- links and routing --- *)

let test_link_slots () =
  Alcotest.(check int) "planar mesh keeps 4 slots" 4
    (Link.slots_per_tile (Mesh.create ~cols:3 ~rows:3));
  Alcotest.(check int) "stacked mesh has 6" 6 (Link.slots_per_tile mesh222);
  Alcotest.(check int) "slot count" 48 (Link.slot_count mesh222);
  let t0 = Mesh.tile_of_coord3 mesh222 ~x:0 ~y:0 ~z:0 in
  let t4 = Mesh.tile_of_coord3 mesh222 ~x:0 ~y:0 ~z:1 in
  let down = Link.id mesh222 ~src:t0 ~dst:t4 in
  Alcotest.(check (pair int int)) "down link endpoints" (t0, t4)
    (Link.endpoints mesh222 down);
  Alcotest.(check bool) "down link is vertical" true
    (Link.is_vertical mesh222 down);
  Alcotest.(check bool) "planar link is not" false
    (Link.is_vertical mesh222 (Link.id mesh222 ~src:t0 ~dst:1));
  (* z never wraps: the up-slot of the top layer has no physical link. *)
  Alcotest.(check bool) "no vertical wrap" false
    (Link.exists mesh222 (Link.id mesh222 ~src:t4 ~dst:t0 + 1))

let test_routing_xyz () =
  let m = Mesh.create3 ~cols:3 ~rows:2 ~layers:2 in
  let src = Mesh.tile_of_coord3 m ~x:0 ~y:0 ~z:0 in
  let dst = Mesh.tile_of_coord3 m ~x:2 ~y:1 ~z:1 in
  let expected =
    [
      Mesh.tile_of_coord3 m ~x:0 ~y:0 ~z:0;
      Mesh.tile_of_coord3 m ~x:1 ~y:0 ~z:0;
      Mesh.tile_of_coord3 m ~x:2 ~y:0 ~z:0;
      Mesh.tile_of_coord3 m ~x:2 ~y:1 ~z:0;
      Mesh.tile_of_coord3 m ~x:2 ~y:1 ~z:1;
    ]
  in
  Alcotest.(check (list int)) "XY resolves x, then y, then z" expected
    (Routing.router_path m Routing.Xy ~src ~dst);
  Alcotest.(check bool) "xyz is an alias of xy" true
    (Routing.algorithm_of_string "xyz" = Routing.Xy);
  Alcotest.(check bool) "yxz is an alias of yx" true
    (Routing.algorithm_of_string "yxz" = Routing.Yx)

let test_crg_tsv () =
  let crg = Crg.create mesh222 in
  let t0 = Mesh.tile_of_coord3 mesh222 ~x:0 ~y:0 ~z:0 in
  let far = Mesh.tile_of_coord3 mesh222 ~x:1 ~y:1 ~z:1 in
  let flat = Mesh.tile_of_coord3 mesh222 ~x:1 ~y:1 ~z:0 in
  Alcotest.(check int) "one vertical hop corner to corner" 1
    (Crg.tsv_links_on_path crg ~src:t0 ~dst:far);
  Alcotest.(check int) "same-layer path crosses no TSV" 0
    (Crg.tsv_links_on_path crg ~src:t0 ~dst:flat);
  Alcotest.(check int) "self" 0 (Crg.tsv_links_on_path crg ~src:t0 ~dst:t0);
  let planar = Crg.create (Mesh.create ~cols:3 ~rows:3) in
  Alcotest.(check int) "planar CRG always reports 0" 0
    (Crg.tsv_links_on_path planar ~src:0 ~dst:8)

(* --- TSV energy --- *)

let test_energy_tsv () =
  let tech = Technology.t013 in
  let er = tech.Technology.e_rbit
  and el = tech.Technology.e_lbit
  and ert = tech.Technology.e_rbit_tsv
  and elt = tech.Technology.e_lbit_tsv in
  Alcotest.(check bool) "presets make vertical links cheaper" true
    (elt < el);
  let routers = 5 and tsv = 2 in
  let expected =
    (float_of_int (routers - tsv) *. er)
    +. (float_of_int tsv *. ert)
    +. (float_of_int (routers - 1 - tsv) *. el)
    +. (float_of_int tsv *. elt)
  in
  Alcotest.(check (float 0.)) "four-term split" expected
    (Equations.ebit_path ~tsv tech ~routers);
  Alcotest.(check (float 0.)) "tsv:0 is the planar equation (bitwise)"
    (Equations.ebit_path tech ~routers)
    (Equations.ebit_path ~tsv:0 tech ~routers);
  Alcotest.check_raises "tsv hops must fit the path"
    (Invalid_argument "Equations.ebit_path: tsv hops must be within the path")
    (fun () -> ignore (Equations.ebit_path ~tsv:5 tech ~routers:5));
  (* A custom technology without TSV figures inherits the planar ones,
     so 3-D costs degenerate to the 2-D equation. *)
  let plain =
    Technology.make ~name:"plain" ~feature_nm:99 ~e_rbit:1e-12 ~e_lbit:2e-12
      ~p_s_router:1e-6 ()
  in
  Alcotest.(check (float 0.)) "default TSV = planar"
    (Equations.ebit_path plain ~routers:4)
    (Equations.ebit_path ~tsv:2 plain ~routers:4)

(* --- 3-D symmetry --- *)

let test_candidate_counts_3d () =
  let count mesh = List.length (Symmetry.candidates mesh) in
  Alcotest.(check int) "cube: full 48-element box group" 48 (count mesh222);
  Alcotest.(check int) "square cross-section: 16" 16 (count mesh422);
  Alcotest.(check int) "all extents distinct: 8 reflections" 8
    (count (Mesh.create3 ~cols:3 ~rows:4 ~layers:5));
  Alcotest.(check int) "planar meshes keep the dihedral count" 8
    (count (Mesh.create ~cols:3 ~rows:3))

let check_group_axioms sym =
  let perms = Array.to_list (Symmetry.perms sym) in
  let mem p = List.exists (fun q -> q = p) perms in
  List.iter
    (fun p ->
      Alcotest.(check bool) "inverse stays in the group" true
        (mem (Symmetry.invert p));
      List.iter
        (fun q ->
          Alcotest.(check bool) "composition stays in the group" true
            (mem (Symmetry.compose p q)))
        perms)
    perms

let test_group_axioms_3d () =
  List.iter
    (fun (mesh, level) ->
      let sym = Symmetry.of_crg ~level (Crg.create mesh) in
      Alcotest.(check bool) "order is within the box group" true
        (Symmetry.order sym >= 1 && Symmetry.order sym <= 48);
      let id = Array.init (Mesh.tile_count mesh) Fun.id in
      Alcotest.(check bool) "identity heads the group" true
        ((Symmetry.perms sym).(0) = id);
      check_group_axioms sym)
    [
      (mesh222, Symmetry.Hops);
      (mesh222, Symmetry.Paths);
      (mesh422, Symmetry.Hops);
      (mesh422, Symmetry.Paths);
      (mesh332, Symmetry.Paths);
    ]

let test_candidates_are_automorphisms_3d () =
  List.iter
    (fun mesh ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "automorphism of %s" (Mesh.to_string mesh))
            true
            (Symmetry.is_automorphism mesh p))
        (Symmetry.candidates mesh))
    [ mesh222; mesh332; mesh422 ]

let test_hop_exactness_is_tsv_aware () =
  (* Swapping the y and z axes of a cube preserves every hop count but
     trades vertical hops for horizontal ones; with distinct TSV energy
     coefficients that changes CWM cost, so hop-exactness must reject
     the swap.  (It would accept it if only router counts were
     compared.) *)
  let crg = Crg.create mesh222 in
  let swap_yz =
    Array.init (Mesh.tile_count mesh222) (fun tile ->
        let x, y, z = Mesh.coord3_of_tile mesh222 tile in
        Mesh.tile_of_coord3 mesh222 ~x ~y:z ~z:y)
  in
  Alcotest.(check bool) "swap is an automorphism" true
    (Symmetry.is_automorphism mesh222 swap_yz);
  let t0 = Mesh.tile_of_coord3 mesh222 ~x:0 ~y:0 ~z:0 in
  let above = Mesh.tile_of_coord3 mesh222 ~x:0 ~y:0 ~z:1 in
  Alcotest.(check int) "router counts agree under the swap"
    (Crg.router_count_on_path crg ~src:t0 ~dst:above)
    (Crg.router_count_on_path crg ~src:swap_yz.(t0) ~dst:swap_yz.(above));
  Alcotest.(check bool) "but hop-exactness rejects it" false
    (Symmetry.hop_exact crg swap_yz)

(* --- cost invariance under verified 3-D groups --- *)

let gen_cost_scenario_3d =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* mesh = oneofl [ mesh222; mesh332; mesh422 ] in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let* cores = int_range 2 (min 8 tiles) in
    let* packets = int_range 1 30 in
    let spec =
      Generator.default_spec ~name:"sym3d" ~cores ~packets
        ~total_bits:(max packets (packets * 50))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Mapping.Placement.random rng ~cores ~tiles in
    return (mesh, cdcg, placement))

let params = Noc_params.make ~flit_bits:8 ()

let prop_cwm_invariant_3d =
  QCheck2.Test.make
    ~name:"3-D CWM cost is bit-identical under every hop-exact automorphism"
    ~count:(Test_util.prop_count 60) gen_cost_scenario_3d
    (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let cwg = Cwg.of_cdcg cdcg in
      let sym = Symmetry.of_crg ~level:Symmetry.Hops crg in
      let cost p =
        Mapping.Cost_cwm.dynamic_energy ~tech:Technology.t013 ~crg ~cwg p
      in
      let reference = cost placement in
      Array.for_all
        (fun g -> cost (Symmetry.apply g placement) = reference)
        (Symmetry.perms sym))

let prop_cdcm_invariant_3d =
  QCheck2.Test.make
    ~name:"3-D CDCM energy and texec are bit-identical under path-exact \
           automorphisms" ~count:(Test_util.prop_count 40)
    gen_cost_scenario_3d
    (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let sym = Symmetry.of_crg ~level:Symmetry.Paths crg in
      let evaluate p =
        Mapping.Cost_cdcm.evaluate ~tech:Technology.t007 ~params ~crg ~cdcg p
      in
      let reference = evaluate placement in
      Array.for_all
        (fun g ->
          let e = evaluate (Symmetry.apply g placement) in
          e.Mapping.Cost_cdcm.total = reference.Mapping.Cost_cdcm.total
          && e.Mapping.Cost_cdcm.texec_cycles
             = reference.Mapping.Cost_cdcm.texec_cycles)
        (Symmetry.perms sym))

let prop_faulty_cdcm_invariant_3d =
  QCheck2.Test.make
    ~name:"faulted 3-D CDCM cost is invariant under its verified group"
    ~count:(Test_util.prop_count 20) gen_cost_scenario_3d
    (fun (mesh, cdcg, placement) ->
      let t0 = Mesh.tile_of_coord3 mesh ~x:0 ~y:0 ~z:0 in
      let above = Mesh.tile_of_coord3 mesh ~x:0 ~y:0 ~z:1 in
      let faults = Fault.make mesh ~links:[ Link.id mesh ~src:t0 ~dst:above ] in
      let crg = Crg.create ~faults mesh in
      let sym = Symmetry.of_crg ~level:Symmetry.Paths crg in
      let evaluate p =
        Mapping.Cost_cdcm.evaluate ~tech:Technology.t007 ~params ~crg ~cdcg p
      in
      let reference = evaluate placement in
      Array.for_all
        (fun g ->
          let e = evaluate (Symmetry.apply g placement) in
          e.Mapping.Cost_cdcm.total = reference.Mapping.Cost_cdcm.total)
        (Symmetry.perms sym))

(* --- incremental evaluators on stacked meshes --- *)

let test_cdcm_incremental_3d () =
  (* The incremental CDCM objective must agree bitwise with the plain
     one on a stacked mesh — this exercises the TSV-major ebit table. *)
  let crg = Crg.create mesh222 in
  let tiles = Crg.tile_count crg in
  let rng = Rng.create ~seed:23 in
  let spec =
    Generator.default_spec ~name:"cdcm3d" ~cores:6 ~packets:40
      ~total_bits:12_000
  in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let tech = Technology.t013 in
  let plain = Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg () in
  let inc =
    Mapping.Objective.cdcm ~incremental:true ~tech ~params ~crg ~cdcg ()
  in
  for _ = 1 to 60 do
    let p = Mapping.Placement.random (Rng.split rng) ~cores:6 ~tiles in
    Alcotest.(check (float 0.)) "incremental = plain, bitwise"
      (plain.Mapping.Objective.cost_fn p)
      (inc.Mapping.Objective.cost_fn p)
  done

(* --- per-layer faults --- *)

let test_fault_layers () =
  let planar_directed = 24 in
  (* 3x3 grid: 12 undirected planar edges, both directions. *)
  Alcotest.(check int) "layer 0 planar links" planar_directed
    (List.length (Fault.links_in_layer mesh332 ~layer:0));
  Alcotest.(check int) "layer 1 planar links" planar_directed
    (List.length (Fault.links_in_layer mesh332 ~layer:1));
  List.iter
    (fun lid ->
      Alcotest.(check bool) "per-layer links are planar" false
        (Link.is_vertical mesh332 lid);
      let src, _ = Link.endpoints mesh332 lid in
      Alcotest.(check int) "source sits in the layer" 1
        (Mesh.layer_of_tile mesh332 src))
    (Fault.links_in_layer mesh332 ~layer:1);
  Alcotest.(check int) "one scenario per planar link of the layer"
    planar_directed
    (List.length (Fault.single_link_scenarios_in_layer mesh332 ~layer:0));
  (* 9 tile columns, both vertical directions. *)
  Alcotest.(check int) "one scenario per TSV" 18
    (List.length (Fault.single_tsv_scenarios mesh332));
  Alcotest.(check int) "planar meshes have no TSVs" 0
    (List.length (Fault.single_tsv_scenarios (Mesh.create ~cols:3 ~rows:3)))

(* --- searches run on stacked meshes --- *)

let test_search_3d_smoke () =
  let crg = Crg.create mesh222 in
  let rng = Rng.create ~seed:5 in
  let spec =
    Generator.default_spec ~name:"s3d" ~cores:6 ~packets:25 ~total_bits:8_000
  in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let cwg = Cwg.of_cdcg cdcg in
  let tech = Technology.t013 in
  let check_result name (r : Mapping.Objective.search_result) =
    Alcotest.(check bool)
      (name ^ " yields a valid placement")
      true
      (Mapping.Placement.is_valid ~tiles:8 r.Mapping.Objective.placement);
    Alcotest.(check bool) (name ^ " cost is finite") true
      (Float.is_finite r.Mapping.Objective.cost)
  in
  check_result "greedy" (Mapping.Greedy.search ~tech ~crg ~cwg ());
  check_result "spiral" (Mapping.Spiral.search ~tech ~crg ~cwg ());
  let objective = Mapping.Objective.cwm ~tech ~crg ~cwg in
  let config =
    { (Mapping.Annealing.default_config ~tiles:8) with
      Mapping.Annealing.max_evaluations = 2_000
    }
  in
  check_result "sa"
    (Mapping.Annealing.search ~rng:(Rng.split rng) ~config ~tiles:8 ~cores:6
       ~objective ())

let test_decompose_3d_smoke () =
  let mesh = Mesh.create3 ~cols:4 ~rows:4 ~layers:2 in
  let crg = Crg.create mesh in
  let rng = Rng.create ~seed:7 in
  let spec =
    Generator.default_spec ~name:"d3d" ~cores:24 ~packets:60 ~total_bits:20_000
  in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let cwg = Cwg.of_cdcg cdcg in
  let tech = Technology.t013 in
  let objective_for () = Mapping.Objective.cwm ~tech ~crg ~cwg in
  let config = Mapping.Decompose.quick_config ~tiles:32 in
  let report =
    Mapping.Decompose.search ~rng:(Rng.split rng) ~config ~crg ~cwg
      ~objective_for ()
  in
  Alcotest.(check bool) "valid placement on the stacked mesh" true
    (Mapping.Placement.is_valid ~tiles:32
       report.Mapping.Decompose.result.Mapping.Objective.placement);
  List.iter
    (fun (r : Mapping.Decompose.region_report) ->
      Alcotest.(check bool) "cuboids have positive depth" true
        (r.Mapping.Decompose.region_rect.Mapping.Decompose.d >= 1))
    report.Mapping.Decompose.regions

let suite =
  ( "noc3d",
    [
      Alcotest.test_case "3-D tile numbering" `Quick test_numbering;
      Alcotest.test_case "3-D shape parsing" `Quick test_parse_3d;
      Alcotest.test_case "CxRx1 is the planar mesh" `Quick
        test_planar_differential;
      Alcotest.test_case "link slots and TSVs" `Quick test_link_slots;
      Alcotest.test_case "XYZ routing order" `Quick test_routing_xyz;
      Alcotest.test_case "CRG counts TSV hops" `Quick test_crg_tsv;
      Alcotest.test_case "four-term TSV energy" `Quick test_energy_tsv;
      Alcotest.test_case "3-D candidate counts" `Quick test_candidate_counts_3d;
      Alcotest.test_case "3-D groups satisfy the axioms" `Quick
        test_group_axioms_3d;
      Alcotest.test_case "3-D candidates are automorphisms" `Quick
        test_candidates_are_automorphisms_3d;
      Alcotest.test_case "hop-exactness tracks TSV counts" `Quick
        test_hop_exactness_is_tsv_aware;
      Alcotest.test_case "CDCM incremental on a stacked mesh" `Quick
        test_cdcm_incremental_3d;
      Alcotest.test_case "per-layer fault scenarios" `Quick test_fault_layers;
      Alcotest.test_case "searches run on stacked meshes" `Quick
        test_search_3d_smoke;
      Alcotest.test_case "decompose runs on stacked meshes" `Quick
        test_decompose_3d_smoke;
      QCheck_alcotest.to_alcotest prop_cwm_invariant_3d;
      QCheck_alcotest.to_alcotest prop_cdcm_invariant_3d;
      QCheck_alcotest.to_alcotest prop_faulty_cdcm_invariant_3d;
    ] )
