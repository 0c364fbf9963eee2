module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Noc_params = Nocmap_energy.Noc_params
module Analytic = Nocmap_sim.Analytic
module Cdcg = Nocmap_model.Cdcg
module Rng = Nocmap_util.Rng
module Placement = Nocmap_mapping.Placement
module Fig1 = Nocmap_apps.Fig1

let params = Noc_params.paper_example
let crg2x2 = Crg.create (Mesh.create ~cols:2 ~rows:2)

let test_fig1_mapping_d_exact () =
  (* Mapping (d) is contention-free: the critical-path bound equals the
     simulated 90 cycles. *)
  let e = Analytic.estimate ~params ~crg:crg2x2 ~placement:Fig1.mapping_d Fig1.cdcg in
  Alcotest.(check int) "critical path = texec" 90 e.Analytic.critical_path_cycles;
  Alcotest.(check int) "lower bound" 90 e.Analytic.lower_bound_cycles

let test_fig1_mapping_c_gap () =
  (* Mapping (c) simulates to 100 cycles; the contention-free bound is
     93: pFB1 ready at pAF1's uncontended delivery (66) + 6 compute +
     eq(8) delay 21. *)
  let e = Analytic.estimate ~params ~crg:crg2x2 ~placement:Fig1.mapping_c Fig1.cdcg in
  Alcotest.(check int) "critical path without contention" 93
    e.Analytic.critical_path_cycles;
  Alcotest.(check (float 1e-9)) "contention share" 0.07
    (Analytic.contention_share e ~simulated_cycles:100)

let test_link_load_bound () =
  (* Two independent packets share one link on a 1x3 mesh: the link's
     port is granted twice, occupied tr + 10 flit-cycles each time, and
     both packets launch at cycle 0. *)
  let cdcg =
    Cdcg.create_exn ~name:"share" ~core_names:[| "a"; "b"; "c" |]
      ~packets:
        [|
          { Cdcg.src = 0; dst = 2; compute = 0; bits = 10; label = "p" };
          { Cdcg.src = 1; dst = 2; compute = 0; bits = 10; label = "q" };
        |]
      ~deps:[]
  in
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:1) in
  let e = Analytic.estimate ~params ~crg ~placement:[| 0; 1; 2 |] cdcg in
  (* Both packets cross link 1->2: 2 x (tr + 10 x tl) = 24. *)
  Alcotest.(check int) "link load" 24 e.Analytic.link_load_cycles

(* Words one estimate allocates on the 8x8 Table 2 application (344
   packets, 256 link slots) once its routes are built: eight per-packet
   and two per-link arrays, about 3 400.  Building a dependence digraph
   and filtering the dependence list once per packet cost about
   24 600, so the ceiling of 16 words per packet and 4 per link slot,
   plus 1 024, fails if the estimate stops reading the CDCG's DAG. *)
let test_estimate_allocation () =
  let mesh, cdcg = List.nth (Nocmap_tgff.Suite.instances ~seed:2005) 15 in
  let crg = Crg.create mesh in
  let params = Noc_params.default_16bit in
  let placement =
    Placement.random (Rng.create ~seed:1) ~cores:(Cdcg.core_count cdcg)
      ~tiles:(Crg.tile_count crg)
  in
  let estimate () =
    ignore (Sys.opaque_identity (Analytic.estimate ~params ~crg ~placement cdcg))
  in
  estimate ();
  let words = Test_util.words_allocated estimate in
  let ceiling =
    float_of_int
      ((16 * Cdcg.packet_count cdcg) + (4 * Nocmap_noc.Link.slot_count mesh) + 1024)
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate allocates %.0f words, at most %.0f" words ceiling)
    true (words <= ceiling)

let test_invalid_placement () =
  Alcotest.(check bool) "rejected" true
    (match Analytic.estimate ~params ~crg:crg2x2 ~placement:[| 0; 0; 1; 2 |] Fig1.cdcg with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  ( "analytic",
    [
      Alcotest.test_case "fig1 (d) exact" `Quick test_fig1_mapping_d_exact;
      Alcotest.test_case "fig1 (c) contention gap" `Quick test_fig1_mapping_c_gap;
      Alcotest.test_case "link load bound" `Quick test_link_load_bound;
      Alcotest.test_case "invalid placement" `Quick test_invalid_placement;
      Alcotest.test_case "estimate allocation" `Quick test_estimate_allocation;
    ] )
