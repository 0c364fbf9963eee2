module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Link = Nocmap_noc.Link
module Fault = Nocmap_noc.Fault
module Routing = Nocmap_noc.Routing
module Equations = Nocmap_energy.Equations
module Cwg = Nocmap_model.Cwg
module Cdcg = Nocmap_model.Cdcg
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

let test_cost_table_sums_to_total () =
  let routers, links =
    Mapping.Cost_cwm.cost_table ~tech ~crg ~cwg:Fig1.cwg Fig1.mapping_c
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check (float 1e-18)) "table total = eq 3" 390.0e-12
    (sum routers +. sum links)

let test_cost_table_values_fig2 () =
  (* Figure 2(a): core F's tile (2) passes A->F (15), B->F (40) and
     F->B (15): 70 pJ of router energy. *)
  let routers, _ =
    Mapping.Cost_cwm.cost_table ~tech ~crg ~cwg:Fig1.cwg Fig1.mapping_c
  in
  Alcotest.(check (float 1e-18)) "router of F" 70.0e-12 routers.(2)

let test_bit_hops () =
  (* mapping (c): A->B 15*2, A->F 15*3, B->F 40*2, E->A 35*2, F->B 15*2
     = 30+45+80+70+30 = 255 bit-routers. *)
  Alcotest.(check int) "bit hops" 255
    (Mapping.Cost_cwm.bit_hops ~crg ~cwg:Fig1.cwg Fig1.mapping_c)

let test_invalid_placement_rejected () =
  Alcotest.(check bool) "raises" true
    (match Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg:Fig1.cwg [| 0; 0; 1; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cdcm_dynamic_equals_cwm () =
  (* Equation (4) sums per packet what equation (3) sums per
     communication: identical totals on the projected CWG. *)
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 20 do
    let spec =
      Nocmap_tgff.Generator.default_spec ~name:"x" ~cores:4 ~packets:12
        ~total_bits:3_000
    in
    let cdcg = Nocmap_tgff.Generator.generate (Rng.split rng) spec in
    let cwg = Cwg.of_cdcg cdcg in
    let placement = Mapping.Placement.random (Rng.split rng) ~cores:4 ~tiles:4 in
    Alcotest.(check (float 1e-18)) "eq3 = eq4"
      (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement)
      (Mapping.Cost_cdcm.dynamic_energy ~tech ~crg ~cdcg placement)
  done

let test_evaluation_consistency () =
  let e =
    Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg:Fig1.cdcg Fig1.mapping_c
  in
  Alcotest.(check (float 1e-18)) "total = dyn + static"
    (e.Mapping.Cost_cdcm.dynamic +. e.Mapping.Cost_cdcm.static_)
    e.Mapping.Cost_cdcm.total;
  Alcotest.(check (float 1e-9)) "texec ns consistent" 100.0 e.Mapping.Cost_cdcm.texec_ns;
  Alcotest.(check int) "texec cycles" 100 e.Mapping.Cost_cdcm.texec_cycles;
  Alcotest.(check int) "contention" 7 e.Mapping.Cost_cdcm.contention_cycles

let test_objectives () =
  let cwm = Mapping.Objective.cwm ~tech ~crg ~cwg:Fig1.cwg in
  let cdcm = Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg:Fig1.cdcg () in
  let texec = Mapping.Objective.texec ~params ~crg ~cdcg:Fig1.cdcg in
  Alcotest.(check string) "cwm name" "cwm" cwm.Mapping.Objective.name;
  Alcotest.(check (float 1e-18)) "cwm cost" 390.0e-12
    (cwm.Mapping.Objective.cost_fn Fig1.mapping_c);
  Alcotest.(check (float 1e-18)) "cdcm cost" 400.0e-12
    (cdcm.Mapping.Objective.cost_fn Fig1.mapping_c);
  Alcotest.(check (float 1e-9)) "texec cost" 90.0
    (texec.Mapping.Objective.cost_fn Fig1.mapping_d)

let test_evaluate_bound () =
  let cdcg = Fig1.cdcg in
  let scratch = Nocmap_sim.Wormhole.Scratch.create ~crg cdcg in
  let evaluate p =
    Mapping.Cost_cdcm.evaluate ~scratch ~tech ~params ~crg ~cdcg p
  in
  let bound ~cutoff p =
    Mapping.Cost_cdcm.evaluate_bound ~scratch ~tech ~params ~crg ~cdcg ~cutoff p
  in
  let exact = evaluate Fig1.mapping_c in
  (* A generous cutoff never truncates and reproduces the evaluation. *)
  (match bound ~cutoff:(exact.Mapping.Cost_cdcm.total *. 2.0) Fig1.mapping_c with
  | Mapping.Cost_cdcm.Exact e ->
    Alcotest.(check (float 1e-18)) "exact under generous cutoff"
      exact.Mapping.Cost_cdcm.total e.Mapping.Cost_cdcm.total
  | Mapping.Cost_cdcm.At_least _ -> Alcotest.fail "truncated under generous cutoff");
  (* A cutoff below the dynamic energy rejects without simulating; any
     truncated verdict is a sound strict lower bound. *)
  (match bound ~cutoff:(exact.Mapping.Cost_cdcm.dynamic /. 2.0) Fig1.mapping_c with
  | Mapping.Cost_cdcm.Exact _ -> Alcotest.fail "expected a rejection"
  | Mapping.Cost_cdcm.At_least b ->
    Alcotest.(check bool) "strictly above cutoff" true
      (b > exact.Mapping.Cost_cdcm.dynamic /. 2.0);
    Alcotest.(check bool) "at most the true total" true
      (b <= exact.Mapping.Cost_cdcm.total +. 1e-18));
  (* Mid-range cutoffs: whatever the verdict, it must be consistent. *)
  List.iter
    (fun frac ->
      let cutoff = exact.Mapping.Cost_cdcm.total *. frac in
      match bound ~cutoff Fig1.mapping_c with
      | Mapping.Cost_cdcm.Exact e ->
        Alcotest.(check (float 1e-18)) "exact verdicts are exact"
          exact.Mapping.Cost_cdcm.total e.Mapping.Cost_cdcm.total
      | Mapping.Cost_cdcm.At_least b ->
        Alcotest.(check bool) "bound in (cutoff, total]" true
          (b > cutoff && b <= exact.Mapping.Cost_cdcm.total +. 1e-18))
    [ 0.5; 0.9; 0.99; 1.01 ]

(* --- the flat CWM fold against the per-communication reference --- *)

(* Eq. (3) as it was first written: one [Equations.communication_energy]
   per communication, over the router count and vertical links read off
   [Crg.path], summed in [Cwg.communications] order. *)
let reference_energy ~tech ~crg ~cwg placement =
  let mesh = Crg.mesh crg in
  List.fold_left
    (fun acc (src, dst, bits) ->
      let path = Crg.path crg ~src:placement.(src) ~dst:placement.(dst) in
      let tsv =
        Array.fold_left
          (fun n l -> if Link.is_vertical mesh l then n + 1 else n)
          0 path.Crg.links
      in
      acc
      +. Equations.communication_energy ~tsv tech
           ~routers:(Array.length path.Crg.routers) ~bits)
    0.0 (Cwg.communications cwg)

(* Vertical links priced apart from planar ones, with decimal energies
   that do not round exactly, so a reordered or refactored sum shows. *)
let tsv_tech =
  Technology.make ~name:"tsv" ~feature_nm:70 ~e_rbit:0.43e-12 ~e_lbit:0.11e-12
    ~e_rbit_tsv:0.29e-12 ~e_lbit_tsv:0.037e-12 ~p_s_router:0.01e-12 ()

(* One instance per (shape, seed): a 2-D mesh under XY or YX routing, a
   torus, a 3-D mesh, or a 3-D mesh with random link and router faults
   (whose detours may climb and descend, and whose dead routers leave
   pairs unreachable). *)
let fold_instance (shape, seed) =
  let rng = Rng.create ~seed in
  let between lo hi = lo + Rng.int rng (hi - lo + 1) in
  let mesh3 () =
    Mesh.create3 ~cols:(between 2 3) ~rows:(between 2 3) ~layers:(between 2 3)
  in
  let crg, tech =
    match shape with
    | 0 -> (Crg.create (Mesh.create ~cols:(between 2 5) ~rows:(between 2 4)), tech)
    | 1 ->
      ( Crg.create ~routing:Routing.Yx
          (Mesh.create ~cols:(between 2 5) ~rows:(between 2 4)),
        tech )
    | 2 ->
      ( Crg.create ~routing:Routing.Torus_xy
          (Mesh.create ~cols:(between 3 5) ~rows:(between 3 4)),
        tech )
    | 3 -> (Crg.create (mesh3 ()), tsv_tech)
    | _ ->
      let mesh = mesh3 () in
      let faults =
        match
          Fault.sample_link_scenarios ~rng ~k:(between 1 4) ~count:1 mesh
        with
        | [ f ] ->
          let routers =
            if Rng.int rng 3 = 0 then [ Rng.int rng (Mesh.tile_count mesh) ]
            else []
          in
          Fault.make ~links:(Fault.failed_links f) ~routers mesh
        | _ -> Fault.none mesh
      in
      (Crg.create ~faults mesh, tsv_tech)
  in
  let tiles = Crg.tile_count crg in
  let cores = between 2 (min tiles 8) in
  let spec =
    Nocmap_tgff.Generator.default_spec ~name:"fold" ~cores
      ~packets:(3 * cores) ~total_bits:(997 * cores)
  in
  let cwg = Cwg.of_cdcg (Nocmap_tgff.Generator.generate rng spec) in
  let placement = Mapping.Placement.random rng ~cores ~tiles in
  (crg, tech, cwg, placement)

let bits_or_invalid f =
  match f () with
  | e -> Some (Int64.bits_of_float e)
  | exception Invalid_argument _ -> None

let prop_cwm_fold_bit_identical =
  QCheck2.Test.make ~name:"CWM flat fold is bit-identical to the reference"
    ~count:(Test_util.prop_count 300)
    ~print:(fun (shape, seed) -> Printf.sprintf "shape %d seed %d" shape seed)
    QCheck2.Gen.(pair (0 -- 4) (0 -- 1_000_000))
    (fun instance ->
      let crg, tech, cwg, placement = fold_instance instance in
      bits_or_invalid (fun () ->
          Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement)
      = bits_or_invalid (fun () -> reference_energy ~tech ~crg ~cwg placement))

(* --- the CWM region evaluator against the full fold --- *)

let outcome f =
  match f () with
  | e -> Ok (Int64.bits_of_float e)
  | exception Invalid_argument msg -> Error msg

(* A placement a region search could hand the evaluator: the cores
   outside [cores] stay where [first] put them, the region's cores take
   distinct free tiles, and three draws in eight then break it the way
   the full check refuses: two region cores on one tile, a region core on a
   frozen core's tile, or a tile out of range. *)
let region_draw rng ~tiles ~first cores =
  let p = Array.copy first in
  let in_region = Array.make (Array.length first) false in
  Array.iter (fun c -> in_region.(c) <- true) cores;
  let taken = Array.make tiles false in
  Array.iteri (fun c t -> if not in_region.(c) then taken.(t) <- true) first;
  let free = List.filter (fun t -> not taken.(t)) (List.init tiles Fun.id) in
  let moved =
    Rng.sample_without_replacement rng (Array.length cores) (Array.of_list free)
  in
  Array.iteri (fun k c -> p.(c) <- moved.(k)) cores;
  let k = Array.length cores and frozen = Array.length first - Array.length cores in
  (match Rng.int rng 8 with
  | 0 when k >= 2 -> p.(cores.(0)) <- p.(cores.(1 + Rng.int rng (k - 1)))
  | 1 when k >= 1 && frozen >= 1 ->
    let outside = List.filter (fun c -> not in_region.(c)) (List.init (Array.length p) Fun.id) in
    p.(cores.(Rng.int rng k)) <- p.(List.nth outside (Rng.int rng frozen))
  | 2 when k >= 1 -> p.(cores.(Rng.int rng k)) <- (if Rng.bool rng then -1 else tiles)
  | _ -> ());
  p

(* Over [fold_instance]'s meshes (2-D XY and YX, a torus, stacked and
   faulted stacked 3-D, where dead routers leave pairs unrouted): a
   random subset of the cores is the region, and every placement of a
   stream that keeps the other cores in place gets the full fold's
   cost, bit for bit, or its [Invalid_argument].  The stream's first
   placement is already a move, as after a resume, and may be refused,
   so a later one primes the evaluator. *)
let prop_cwm_region_bit_identical =
  QCheck2.Test.make ~name:"CWM region evaluator is bit-identical to the full fold"
    ~count:(Test_util.prop_count 300)
    ~print:(fun (shape, seed) -> Printf.sprintf "shape %d seed %d" shape seed)
    QCheck2.Gen.(pair (0 -- 4) (0 -- 1_000_000))
    (fun instance ->
      let crg, tech, cwg, first = fold_instance instance in
      let rng = Rng.create ~seed:(snd instance + 1) in
      let tiles = Crg.tile_count crg in
      let cores =
        Array.of_list
          (List.filter (fun _ -> Rng.bool rng) (List.init (Array.length first) Fun.id))
      in
      let region = Mapping.Cost_cwm.region_energy ~tech ~crg ~cwg ~cores in
      let full = Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg in
      List.for_all
        (fun p -> outcome (fun () -> region p) = outcome (fun () -> full p))
        (List.init 12 (fun _ -> region_draw rng ~tiles ~first cores)))

(* A repeated core would make every call see two region cores on one
   tile, so the evaluator refuses it up front. *)
let test_cwm_region_repeated_core () =
  Alcotest.check_raises "repeated core"
    (Invalid_argument "Cost_cwm.region_energy: core 1 listed twice")
    (fun () ->
      let (_ : Mapping.Placement.t -> float) =
        Mapping.Cost_cwm.region_energy ~tech ~crg ~cwg:Fig1.cwg ~cores:[| 1; 1 |]
      in
      ())

(* Words a warm region-evaluator call allocates on the decompose
   workload's first 96-core application on 12x12, net of the boxed
   float that every [Placement.t -> float] call returns: none.  A call
   that copied or materialized the placement would add about 100. *)
let test_cwm_region_allocation () =
  let mesh = Mesh.create ~cols:12 ~rows:12 in
  let crg = Crg.create mesh in
  let cwg =
    Cwg.of_cdcg
      (Nocmap_tgff.Generator.generate (Rng.create ~seed:1)
         (Nocmap_tgff.Generator.default_spec ~name:"random-1" ~cores:96
            ~packets:192 ~total_bits:50_000))
  in
  let tech = Technology.t007 in
  let config = Mapping.Decompose.default_config ~tiles:(Mesh.tile_count mesh) in
  let region =
    List.hd
      (Mapping.Decompose.partition ~cwg ~mesh
         ~max_region:config.Mapping.Decompose.max_region
         ~kl_passes:config.Mapping.Decompose.kl_passes ())
  in
  let cores = region.Mapping.Decompose.cores in
  let placement = Mapping.Placement.random (Rng.create ~seed:2) ~cores:96 ~tiles:144 in
  let evaluate = Mapping.Cost_cwm.region_energy ~tech ~crg ~cwg ~cores in
  ignore (evaluate placement);
  let a = cores.(0) and b = cores.(1) in
  let ta = placement.(a) in
  placement.(a) <- placement.(b);
  placement.(b) <- ta;
  Alcotest.(check int64) "warm cost is the full fold's"
    (Int64.bits_of_float (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement))
    (Int64.bits_of_float (evaluate placement));
  let call () = ignore (Sys.opaque_identity (evaluate placement)) in
  let boxed = Sys.opaque_identity (fun x -> x +. 1.0) in
  let box () = ignore (Sys.opaque_identity (boxed 0.5)) in
  let words = Test_util.words_allocated call -. Test_util.words_allocated box in
  Alcotest.(check bool)
    (Printf.sprintf "warm call allocates %.0f words besides its result" words)
    true (words <= 0.0)

(* [communications] and its flat arrays list the positive entries of
   [volume], row by row. *)
let prop_communications_scan_volume =
  QCheck2.Test.make ~name:"Cwg communications are the volume scan"
    ~count:(Test_util.prop_count 100)
    QCheck2.Gen.(pair (0 -- 4) (0 -- 1_000_000))
    (fun instance ->
      let _, _, cwg, _ = fold_instance instance in
      let n = Cwg.core_count cwg in
      let scan = ref [] in
      for src = n - 1 downto 0 do
        for dst = n - 1 downto 0 do
          let w = cwg.Cwg.volume.(src).(dst) in
          if w > 0 then scan := (src, dst, w) :: !scan
        done
      done;
      let arrays =
        List.init (Array.length cwg.Cwg.comm_src) (fun i ->
            (cwg.Cwg.comm_src.(i), cwg.Cwg.comm_dst.(i), cwg.Cwg.comm_bits.(i)))
      in
      Cwg.communications cwg = !scan && arrays = !scan
      && Cwg.ncc cwg = List.length !scan)

let test_cwm_unreachable_pair_rejected () =
  (* Tile 0 of a 3x3 mesh loses both outgoing links: core A (on tile 0)
     sends to B and F, so mapping (c) has no route for it. *)
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  let faults =
    Fault.make
      ~links:[ Link.id mesh ~src:0 ~dst:1; Link.id mesh ~src:0 ~dst:3 ]
      mesh
  in
  let crg = Crg.create ~faults mesh in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let placement = [| 0; 1; 2; 4 |] in
  Alcotest.(check bool) "reference raises" true
    (raises (fun () -> reference_energy ~tech ~crg ~cwg:Fig1.cwg placement));
  Alcotest.check_raises "fold names the first pair without a route"
    (Invalid_argument "Cost_cwm: no route from tile 0 to tile 1")
    (fun () ->
      ignore (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg:Fig1.cwg placement));
  (* The fold reads the placement unchecked, so one that leaves a core
     of the CWG unplaced is refused up front. *)
  Alcotest.check_raises "short placement"
    (Invalid_argument "Cost_cwm: placement covers 3 cores, the CWG has 4")
    (fun () ->
      ignore (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg:Fig1.cwg [| 4; 5; 6 |]))

(* Words one warm CDCM cost call allocates on the 8x8 Table 2
   application (344 packets): the arena simulation's closures and
   result records plus the per-bit energy table, about 280.  A fold
   that boxes its accumulator and each term costs eight words per
   packet, about 2 950 in all, so the ceiling of two words per packet
   plus 512 fails if the energy sum allocates per packet again. *)
let test_cdcm_cost_allocation () =
  let mesh, cdcg = List.nth (Nocmap_tgff.Suite.instances ~seed:2005) 15 in
  let crg = Crg.create mesh in
  let params = Noc_params.default_16bit and tech = Technology.t007 in
  let placement =
    Mapping.Placement.random (Rng.create ~seed:1) ~cores:(Cdcg.core_count cdcg)
      ~tiles:(Crg.tile_count crg)
  in
  let scratch = Nocmap_sim.Wormhole.Scratch.create ~crg cdcg in
  let cost () =
    ignore
      (Sys.opaque_identity
         (Mapping.Cost_cdcm.total_energy ~scratch ~tech ~params ~crg ~cdcg placement))
  in
  cost ();
  let words = Test_util.words_allocated cost in
  let ceiling = float_of_int ((2 * Cdcg.packet_count cdcg) + 512) in
  Alcotest.(check bool)
    (Printf.sprintf "cost call allocates %.0f words, at most %.0f" words ceiling)
    true (words <= ceiling)

let suite =
  ( "cost",
    [
      Alcotest.test_case "evaluate_bound" `Quick test_evaluate_bound;
      Alcotest.test_case "cost table sums" `Quick test_cost_table_sums_to_total;
      Alcotest.test_case "cost table values (fig 2)" `Quick test_cost_table_values_fig2;
      Alcotest.test_case "bit hops" `Quick test_bit_hops;
      Alcotest.test_case "invalid placement" `Quick test_invalid_placement_rejected;
      Alcotest.test_case "eq 3 equals eq 4" `Quick test_cdcm_dynamic_equals_cwm;
      Alcotest.test_case "evaluation consistency" `Quick test_evaluation_consistency;
      Alcotest.test_case "objectives" `Quick test_objectives;
      Alcotest.test_case "cwm unreachable pair" `Quick
        test_cwm_unreachable_pair_rejected;
      QCheck_alcotest.to_alcotest prop_cwm_fold_bit_identical;
      QCheck_alcotest.to_alcotest prop_cwm_region_bit_identical;
      Alcotest.test_case "cwm region repeated core" `Quick test_cwm_region_repeated_core;
      Alcotest.test_case "cwm region allocation" `Quick test_cwm_region_allocation;
      QCheck_alcotest.to_alcotest prop_communications_scan_volume;
      Alcotest.test_case "cdcm cost allocation" `Quick test_cdcm_cost_allocation;
    ] )
