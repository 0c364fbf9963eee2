module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cwg = Nocmap_model.Cwg
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Generator = Nocmap_tgff.Generator
module Fig1 = Nocmap_apps.Fig1

(* --- CDCM: the simulation-backed incremental evaluator --- *)

module Noc_params = Nocmap_energy.Noc_params
module Cost_cdcm = Mapping.Cost_cdcm
module Inc = Mapping.Cost_cdcm_incremental

let params = Noc_params.make ~flit_bits:8 ()
let tech7 = Technology.t007

let cdcm_setup ~seed =
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:3) in
  let rng = Rng.create ~seed in
  let spec =
    Generator.default_spec ~name:"cdcm-inc" ~cores:7 ~packets:30
      ~total_bits:9_000
  in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let placement = Mapping.Placement.random (Rng.split rng) ~cores:7 ~tiles:9 in
  (crg, cdcg, placement, rng)

let fresh ~crg ~cdcg p =
  Cost_cdcm.evaluate ~tech:tech7 ~params ~crg ~cdcg p

(* The single-move candidate [core -> tile] with swap semantics. *)
let moved p ~core ~tile =
  let cand = Array.copy p in
  let from_tile = p.(core) in
  cand.(core) <- tile;
  Array.iteri (fun c t -> if c <> core && t = tile then cand.(c) <- from_tile) p;
  cand

let test_cdcm_initial_cost () =
  let crg, cdcg, placement, _ = cdcm_setup ~seed:3 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  Alcotest.(check bool) "bit-identical to fresh evaluation" true
    (Inc.cost inc = (fresh ~crg ~cdcg placement).Cost_cdcm.total)

let test_cdcm_walk_consistency () =
  let crg, cdcg, placement, rng = cdcm_setup ~seed:5 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  for _ = 1 to 40 do
    let core = Rng.int rng 7 and tile = Rng.int rng 9 in
    let before = Inc.cost inc in
    let delta = Inc.move_delta inc ~core ~tile in
    Inc.apply_move inc ~core ~tile;
    let current = Inc.placement inc in
    Alcotest.(check bool) "placement stays valid" true
      (Mapping.Placement.is_valid ~tiles:9 current);
    let truth = (fresh ~crg ~cdcg current).Cost_cdcm.total in
    Alcotest.(check bool) "cost bit-identical to fresh evaluation" true
      (Inc.cost inc = truth);
    Alcotest.(check (float 1e-22)) "delta consistent" truth (before +. delta)
  done

let test_cdcm_move_bound () =
  let crg, cdcg, placement, rng = cdcm_setup ~seed:11 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  for _ = 1 to 60 do
    let core = Rng.int rng 7 and tile = Rng.int rng 9 in
    let truth = fresh ~crg ~cdcg (moved (Inc.placement inc) ~core ~tile) in
    (* An infinite budget can never reject: the answer is the exact,
       bit-identical evaluation. *)
    (match Inc.move_bound inc ~core ~tile ~cutoff:infinity with
    | Cost_cdcm.Exact ev ->
      Alcotest.(check bool) "exact under infinite cutoff" true (ev = truth)
    | Cost_cdcm.At_least _ -> Alcotest.fail "rejected under infinite cutoff");
    (* A tight budget must answer soundly either way. *)
    let cutoff = truth.Cost_cdcm.total *. 0.95 in
    match Inc.move_bound inc ~core ~tile ~cutoff with
    | Cost_cdcm.Exact ev ->
      Alcotest.(check bool) "exact verdict matches" true (ev = truth)
    | Cost_cdcm.At_least lb ->
      Alcotest.(check bool) "lower bound below true cost" true
        (lb <= truth.Cost_cdcm.total);
      Alcotest.(check bool) "lower bound reaches the cutoff" true (lb >= cutoff)
  done

let test_cdcm_noop_and_stats () =
  let crg, cdcg, placement, _ = cdcm_setup ~seed:13 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  let c0 = Inc.cost inc in
  Alcotest.(check (float 1e-22)) "no-op move is free" 0.0
    (Inc.move_delta inc ~core:2 ~tile:placement.(2));
  (* A no-op bound query is a memo hit, not a simulation. *)
  (match Inc.move_bound inc ~core:2 ~tile:placement.(2) ~cutoff:infinity with
  | Cost_cdcm.Exact ev ->
    Alcotest.(check bool) "memoized exact" true (ev.Cost_cdcm.total = c0)
  | Cost_cdcm.At_least _ -> Alcotest.fail "no-op rejected");
  for tile = 0 to 8 do
    ignore (Inc.move_bound inc ~core:4 ~tile ~cutoff:(c0 *. 0.9))
  done;
  let s = Inc.stats inc in
  Alcotest.(check int) "every query is a hit or a fallback" s.Inc.queries
    (s.Inc.delta_hits + s.Inc.full_sim_fallbacks);
  Alcotest.(check bool) "rejections are hits" true
    (s.Inc.bound_rejections <= s.Inc.delta_hits)

let test_cdcm_swap_delta () =
  let crg, cdcg, placement, rng = cdcm_setup ~seed:19 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  Alcotest.(check (float 1e-22)) "self swap is free" 0.0
    (Inc.swap_delta inc ~core_a:5 ~core_b:5);
  for _ = 1 to 25 do
    let a = Rng.int rng 7 and b = Rng.int rng 7 in
    let before = Inc.cost inc in
    let delta = Inc.swap_delta inc ~core_a:a ~core_b:b in
    let swapped = Inc.placement inc in
    let ta = swapped.(a) in
    swapped.(a) <- swapped.(b);
    swapped.(b) <- ta;
    let truth = (fresh ~crg ~cdcg swapped).Cost_cdcm.total in
    Alcotest.(check (float 1e-22)) "swap delta matches full recompute" truth
      (before +. delta)
  done

let test_cdcm_evaluate_for () =
  let crg, cdcg, placement, rng = cdcm_setup ~seed:23 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  for _ = 1 to 10 do
    let p = Mapping.Placement.random (Rng.split rng) ~cores:7 ~tiles:9 in
    let ev = Inc.evaluate_for inc p in
    Alcotest.(check bool) "bit-identical to fresh evaluation" true
      (ev = fresh ~crg ~cdcg p);
    Alcotest.(check bool) "re-anchored at the candidate" true
      (Inc.placement inc = p)
  done

(* Tile 12 of a 3x3x2 mesh loses its in-plane links from 13 and 15, so
   the route 15 -> 12 detours down a layer and back up: two vertical
   links on a two-layer mesh.  The energy table must cover TSV counts
   beyond [layers - 1]. *)
let test_cdcm_faulted_3d_detour () =
  let mesh = Mesh.create3 ~cols:3 ~rows:3 ~layers:2 in
  let faults =
    Nocmap_noc.Fault.make
      ~links:
        [
          Nocmap_noc.Link.id mesh ~src:13 ~dst:12;
          Nocmap_noc.Link.id mesh ~src:15 ~dst:12;
        ]
      mesh
  in
  let crg = Crg.create ~faults mesh in
  Alcotest.(check int) "two vertical links" 2
    (Crg.tsv_links_on_path crg ~src:15 ~dst:12);
  let placement = Array.init (Nocmap_model.Cdcg.core_count Fig1.cdcg) Fun.id in
  placement.(Fig1.core_a) <- 15;
  placement.(Fig1.core_b) <- 12;
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg:Fig1.cdcg ~placement () in
  Alcotest.(check bool) "bit-identical to fresh evaluation" true
    (Inc.cost inc = (fresh ~crg ~cdcg:Fig1.cdcg placement).Cost_cdcm.total)

let test_cdcm_invalid_inputs () =
  let crg, cdcg, placement, _ = cdcm_setup ~seed:29 in
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "invalid placement rejected" true
    (rejects (fun () ->
         Inc.create ~tech:tech7 ~params ~crg ~cdcg
           ~placement:(Array.make 7 0) ()));
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  Alcotest.(check bool) "core out of range" true
    (rejects (fun () -> Inc.move_delta inc ~core:7 ~tile:0));
  Alcotest.(check bool) "tile out of range" true
    (rejects (fun () -> Inc.move_bound inc ~core:0 ~tile:9 ~cutoff:infinity));
  Alcotest.(check bool) "bad candidate length" true
    (rejects (fun () -> Inc.bound_for inc ~cutoff:infinity [| 0; 1 |]))

let suite =
  ( "cdcm-incremental",
    [
      Alcotest.test_case "initial cost" `Quick test_cdcm_initial_cost;
      Alcotest.test_case "walk matches fresh evaluation" `Quick
        test_cdcm_walk_consistency;
      Alcotest.test_case "move bound verdicts" `Quick test_cdcm_move_bound;
      Alcotest.test_case "no-op and stats invariant" `Quick
        test_cdcm_noop_and_stats;
      Alcotest.test_case "swap delta" `Quick test_cdcm_swap_delta;
      Alcotest.test_case "evaluate_for re-anchors" `Quick test_cdcm_evaluate_for;
      Alcotest.test_case "faulted 3-D detour" `Quick test_cdcm_faulted_3d_detour;
      Alcotest.test_case "invalid inputs" `Quick test_cdcm_invalid_inputs;
    ] )
