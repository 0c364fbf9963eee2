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

let total (ev : Cost_cdcm.evaluation) = ev.Cost_cdcm.total

(* [Exact] verdict of a query the evaluator must not reject, failing the
   test otherwise. *)
let exact_of = function
  | Cost_cdcm.Exact ev -> ev
  | Cost_cdcm.At_least _ -> Alcotest.fail "rejected a candidate it must accept"

(* Whether [p] is the evaluator's anchor: only a memo hit answers a
   zero budget with an [Exact] verdict. *)
let anchored_at inc p =
  match Inc.bound_for inc ~cutoff:0.0 p with
  | Cost_cdcm.Exact _ -> true
  | Cost_cdcm.At_least _ -> false

let test_cdcm_initial_cost () =
  let crg, cdcg, placement, _ = cdcm_setup ~seed:3 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  let truth = fresh ~crg ~cdcg placement in
  Alcotest.(check bool) "bit-identical to fresh evaluation" true
    (exact_of (Inc.bound_for inc ~cutoff:infinity placement) = truth);
  Alcotest.(check bool) "memoized at the anchor" true
    (Inc.evaluate_for inc placement = truth && anchored_at inc placement)

(* A [bound_for] walk: [steps] candidates drawn by [next] from the
   current anchor, each queried under every budget [cutoffs] derives
   from its true evaluation (the verdict must be exact and bit-identical,
   or a lower bound between the budget and the true cost), then under an
   infinite budget, which must accept it bit-identically and re-anchor
   there. *)
let walk ~seed ~steps ~next ~cutoffs =
  let crg, cdcg, placement, rng = cdcm_setup ~seed in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  let current = ref placement in
  for _ = 1 to steps do
    let cand = next rng !current in
    let truth = fresh ~crg ~cdcg cand in
    List.iter
      (fun cutoff ->
        match Inc.bound_for inc ~cutoff cand with
        | Cost_cdcm.Exact ev ->
          Alcotest.(check bool) "exact verdict matches" true (ev = truth)
        | Cost_cdcm.At_least lb ->
          Alcotest.(check bool) "lower bound below true cost" true
            (lb <= total truth);
          Alcotest.(check bool) "lower bound reaches the cutoff" true
            (lb >= cutoff))
      (cutoffs truth);
    Alcotest.(check bool) "exact under infinite cutoff" true
      (exact_of (Inc.bound_for inc ~cutoff:infinity cand) = truth);
    Alcotest.(check bool) "re-anchored at the candidate" true
      (anchored_at inc cand);
    current := cand
  done

let single_move rng p =
  Mapping.Placement.move_to_tile p ~core:(Rng.int rng 7) ~tile:(Rng.int rng 9)

let test_cdcm_walk_consistency () =
  walk ~seed:5 ~steps:40 ~next:single_move ~cutoffs:(fun _ -> [])

let test_cdcm_move_verdicts () =
  walk ~seed:11 ~steps:60 ~next:single_move ~cutoffs:(fun truth ->
      [ total truth *. 0.95 ])

let test_cdcm_noop_and_stats () =
  let crg, cdcg, placement, _ = cdcm_setup ~seed:13 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  let c0 = total (Inc.evaluate_for inc placement) in
  (* A no-op bound query is a memo hit, not a simulation. *)
  (match Inc.bound_for inc ~cutoff:infinity placement with
  | Cost_cdcm.Exact ev ->
    Alcotest.(check bool) "memoized exact" true (total ev = c0)
  | Cost_cdcm.At_least _ -> Alcotest.fail "no-op rejected");
  let s = Inc.stats inc in
  Alcotest.(check (list int)) "one query, answered as a hit" [ 1; 1; 0 ]
    [ s.Inc.queries; s.Inc.delta_hits; s.Inc.full_sim_fallbacks ];
  for tile = 0 to 8 do
    ignore
      (Inc.bound_for inc ~cutoff:(c0 *. 0.9)
         (Mapping.Placement.move_to_tile placement ~core:4 ~tile))
  done;
  let s = Inc.stats inc in
  Alcotest.(check int) "every query is a hit or a fallback" s.Inc.queries
    (s.Inc.delta_hits + s.Inc.full_sim_fallbacks);
  Alcotest.(check bool) "rejections are hits" true
    (s.Inc.bound_rejections <= s.Inc.delta_hits)

let test_cdcm_swap_costs () =
  walk ~seed:19 ~steps:25 ~cutoffs:(fun _ -> []) ~next:(fun rng p ->
      Mapping.Placement.swap_cores p (Rng.int rng 7) (Rng.int rng 7))

let test_cdcm_evaluate_for () =
  let crg, cdcg, placement, rng = cdcm_setup ~seed:23 in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  for _ = 1 to 10 do
    let p = Mapping.Placement.random (Rng.split rng) ~cores:7 ~tiles:9 in
    let ev = Inc.evaluate_for inc p in
    Alcotest.(check bool) "bit-identical to fresh evaluation" true
      (ev = fresh ~crg ~cdcg p);
    Alcotest.(check bool) "re-anchored at the candidate" true
      (anchored_at inc p)
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
    (Inc.evaluate_for inc placement = fresh ~crg ~cdcg:Fig1.cdcg placement)

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
  let with_tile tile = Mapping.Placement.move_to_tile placement ~core:0 ~tile in
  Alcotest.(check bool) "tile out of range" true
    (rejects (fun () -> Inc.bound_for inc ~cutoff:infinity (with_tile 9)));
  Alcotest.(check bool) "not injective" true
    (rejects (fun () ->
         let p = Array.copy placement in
         p.(0) <- p.(1);
         Inc.evaluate_for inc p));
  Alcotest.(check bool) "bad candidate length" true
    (rejects (fun () -> Inc.bound_for inc ~cutoff:infinity [| 0; 1 |]))

(* --- Golden contention-free bounds and bound verdicts --- *)

module Analytic = Nocmap_sim.Analytic
module Cdcg = Nocmap_model.Cdcg

(* A seeded [bound_for]/[evaluate_for] walk on one instance, written
   into [buf]: for every candidate, [Analytic.estimate]'s three fields
   and the verdict ([Exact] total and dropped-packet count, or the
   [At_least] value, with floats as [%h]); every fifth step an
   [evaluate_for]; finally the evaluator's stats.  Candidates are single
   moves, swaps and fresh placements of the anchor; budgets are
   infinite, the anchor's cost, or 1 % or 20 % below the candidate's
   true cost.  The [At_least] values are decided by where the cone walk
   stops, so the digest pins the topological order, not only the
   soundness the properties check. *)
let golden_walk buf ~label ~params ~crg ~cdcg ~seed ~steps =
  Printf.bprintf buf "# %s\n" label;
  let tiles = Crg.tile_count crg and cores = Cdcg.core_count cdcg in
  let rng = Rng.create ~seed in
  let fresh p = Cost_cdcm.evaluate ~tech:tech7 ~params ~crg ~cdcg p in
  let placement = Mapping.Placement.random rng ~cores ~tiles in
  let inc = Inc.create ~tech:tech7 ~params ~crg ~cdcg ~placement () in
  let anchor = ref placement and anchor_cost = ref (total (fresh placement)) in
  let dropped = ref 0 in
  let record_exact tag (ev : Cost_cdcm.evaluation) =
    dropped := !dropped + ev.Cost_cdcm.dropped_packets;
    Printf.bprintf buf "%s %h %d\n" tag ev.Cost_cdcm.total
      ev.Cost_cdcm.dropped_packets
  in
  for step = 1 to steps do
    let cand =
      match Rng.int rng 3 with
      | 0 ->
        Mapping.Placement.move_to_tile !anchor ~core:(Rng.int rng cores)
          ~tile:(Rng.int rng tiles)
      | 1 -> Mapping.Placement.swap_cores !anchor (Rng.int rng cores) (Rng.int rng cores)
      | _ -> Mapping.Placement.random rng ~cores ~tiles
    in
    let e = Analytic.estimate ~params ~crg ~placement:cand cdcg in
    Printf.bprintf buf "A %d %d %d\n" e.Analytic.critical_path_cycles
      e.Analytic.link_load_cycles e.Analytic.lower_bound_cycles;
    let truth = fresh cand in
    let cutoff =
      match Rng.int rng 4 with
      | 0 -> infinity
      | 1 -> !anchor_cost
      | 2 -> total truth *. 0.99
      | _ -> total truth *. 0.8
    in
    (match Inc.bound_for inc ~cutoff cand with
    | Cost_cdcm.Exact ev ->
      record_exact "E" ev;
      anchor := cand;
      anchor_cost := total ev
    | Cost_cdcm.At_least lb -> Printf.bprintf buf "L %h\n" lb);
    if step mod 5 = 0 then begin
      record_exact "F" (Inc.evaluate_for inc cand);
      anchor := cand;
      anchor_cost := total truth
    end
  done;
  let s = Inc.stats inc in
  Printf.bprintf buf "S %d %d %d %d\n" s.Inc.queries s.Inc.delta_hits
    s.Inc.bound_rejections s.Inc.full_sim_fallbacks;
  !dropped

(* Fixed instances: the 8x8 Table 2 application (seed 2005) under
   16-bit flits, a 4x3x2 YX stacked mesh with bounded buffers, a 3x3
   torus under the paper's 1-bit flits, and a 4x4 mesh with a failed
   router (tile 5), whose placements sever and cascade-drop packets. *)
let test_golden_bounds () =
  let buf = Buffer.create 65536 in
  let app ~seed ~cores ~packets ~bits =
    Generator.generate (Rng.create ~seed)
      (Generator.default_spec ~name:"golden" ~cores ~packets ~total_bits:bits)
  in
  let mesh8, app8 = List.nth (Nocmap_tgff.Suite.instances ~seed:2005) 15 in
  ignore
    (golden_walk buf ~label:"8x8 table2" ~params:Noc_params.default_16bit
       ~crg:(Crg.create mesh8) ~cdcg:app8 ~seed:1 ~steps:30);
  let stacked = Mesh.create3 ~cols:4 ~rows:3 ~layers:2 in
  ignore
    (golden_walk buf ~label:"4x3x2 yx bounded"
       ~params:(Noc_params.make ~flit_bits:8 ~buffering:(Noc_params.Bounded 3) ())
       ~crg:(Crg.create ~routing:Nocmap_noc.Routing.Yx stacked)
       ~cdcg:(app ~seed:2 ~cores:14 ~packets:60 ~bits:6_000)
       ~seed:3 ~steps:40);
  ignore
    (golden_walk buf ~label:"3x3 torus 1-bit" ~params:Noc_params.paper_example
       ~crg:
         (Crg.create ~routing:Nocmap_noc.Routing.Torus_xy
            (Mesh.create ~cols:3 ~rows:3))
       ~cdcg:(app ~seed:4 ~cores:8 ~packets:40 ~bits:2_400)
       ~seed:5 ~steps:40);
  let mesh44 = Mesh.create ~cols:4 ~rows:4 in
  let dropped =
    golden_walk buf ~label:"4x4 failed router"
      ~params:(Noc_params.make ~flit_bits:16 ())
      ~crg:(Crg.create ~faults:(Nocmap_noc.Fault.make ~routers:[ 5 ] mesh44) mesh44)
      ~cdcg:(app ~seed:6 ~cores:12 ~packets:40 ~bits:8_000)
      ~seed:7 ~steps:40
  in
  Alcotest.(check bool) "the faulted walk drops packets" true (dropped > 0);
  Alcotest.(check string) "golden digest" "8400dc17df004031a6a38871342c9a8f"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  ( "cdcm-incremental",
    [
      Alcotest.test_case "initial cost" `Quick test_cdcm_initial_cost;
      Alcotest.test_case "walk matches fresh evaluation" `Quick
        test_cdcm_walk_consistency;
      Alcotest.test_case "move bound verdicts" `Quick test_cdcm_move_verdicts;
      Alcotest.test_case "no-op and stats invariant" `Quick
        test_cdcm_noop_and_stats;
      Alcotest.test_case "swaps match fresh evaluation" `Quick test_cdcm_swap_costs;
      Alcotest.test_case "evaluate_for re-anchors" `Quick test_cdcm_evaluate_for;
      Alcotest.test_case "faulted 3-D detour" `Quick test_cdcm_faulted_3d_detour;
      Alcotest.test_case "invalid inputs" `Quick test_cdcm_invalid_inputs;
      Alcotest.test_case "golden bounds and verdicts" `Quick test_golden_bounds;
    ] )
