module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Topo = Nocmap_graph.Topo
module Apps = Nocmap_apps

let test_catalog_well_formed () =
  Alcotest.(check int) "eight embedded applications" 8 (List.length (Apps.Catalog.all ()));
  List.iter
    (fun (name, cdcg) ->
      Alcotest.(check bool) (name ^ " acyclic") true
        (Topo.is_dag (Cdcg.to_digraph cdcg));
      Alcotest.(check bool) (name ^ " has packets") true (Cdcg.packet_count cdcg > 0);
      Alcotest.(check bool) (name ^ " has deps") true (Cdcg.dependence_count cdcg > 0))
    (Apps.Catalog.all ())

(* Each built-in app is built once, on first use, and then shared:
   domains racing on their first lookups neither raise (two domains
   forcing one lazy value would) nor build an app twice. *)
let test_catalog_domains () =
  let lookup () =
    List.init 20 (fun _ -> List.map snd (Apps.Catalog.all ())) |> List.concat
  in
  let racers = List.init 4 (fun _ -> Domain.spawn lookup) in
  let seen = List.concat_map Domain.join racers in
  let built = List.map snd (Apps.Catalog.all ()) in
  Alcotest.(check bool) "one shared build per app" true
    (List.for_all (fun cdcg -> List.exists (( == ) cdcg) built) seen)

let test_catalog_find () =
  Alcotest.(check bool) "find hit" true (Apps.Catalog.find "fft8" <> None);
  Alcotest.(check bool) "find miss" true (Apps.Catalog.find "nope" = None)

let test_romberg_shape () =
  let cdcg = Apps.Romberg.make ~workers:4 ~rounds:4 () in
  Alcotest.(check int) "cores = workers + master" 5 (Cdcg.core_count cdcg);
  Alcotest.(check int) "packets = 2 * workers * rounds" 32 (Cdcg.packet_count cdcg);
  (* Every worker talks to the master both ways; no worker-to-worker
     communication. *)
  let cwg = Cwg.of_cdcg cdcg in
  Alcotest.(check int) "star topology" 8 (Cwg.ncc cwg);
  List.iter
    (fun (s, d, _) ->
      Alcotest.(check bool) "all pairs include the master" true (s = 0 || d = 0))
    (Cwg.communications cwg)

let test_romberg_round_synchronization () =
  (* Round k tasks must depend on every round k-1 estimate: the first
     task of round 2 (packet index 2w) has w predecessors. *)
  let workers = 3 in
  let cdcg = Apps.Romberg.make ~workers ~rounds:2 () in
  let second_round_task = 2 * workers in
  Alcotest.(check int) "full synchronization" workers
    (List.length (Cdcg.predecessors cdcg second_round_task))

let test_romberg_validation () =
  Alcotest.(check bool) "no workers rejected" true
    (match Apps.Romberg.make ~workers:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fft_shape () =
  let cdcg = Apps.Fft.make ~points:8 () in
  (* src + 4 butterfly units + sink *)
  Alcotest.(check int) "six cores" 6 (Cdcg.core_count cdcg);
  Alcotest.(check bool) "scatter present" true
    (Cdcg.packets_from cdcg ~src:0 ~dst:1 <> []);
  (* All four units send results to the sink. *)
  let sink = Cdcg.core_count cdcg - 1 in
  let gather_count =
    List.length
      (List.concat_map
         (fun u -> Cdcg.packets_from cdcg ~src:u ~dst:sink)
         [ 1; 2; 3; 4 ])
  in
  Alcotest.(check int) "four gathers" 4 gather_count

let test_fft_stage_traffic () =
  (* An 8-point FFT has three stages; the shuffle between stages forces
     inter-unit packets. *)
  let cdcg = Apps.Fft.make ~points:8 () in
  let inter_unit =
    Array.to_list cdcg.Cdcg.packets
    |> List.filter (fun (p : Cdcg.packet) ->
           p.Cdcg.src >= 1 && p.Cdcg.src <= 4 && p.Cdcg.dst >= 1 && p.Cdcg.dst <= 4)
  in
  Alcotest.(check bool) "inter-unit shuffles exist" true (List.length inter_unit > 0)

let test_fft_validation () =
  Alcotest.(check bool) "non power of two" true
    (match Apps.Fft.make ~points:6 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_objrec_shape () =
  let cdcg = Apps.Object_recognition.make ~frames:2 ~extractors:3 () in
  (* cam, pre, seg, 3 extractors, cls, sink *)
  Alcotest.(check int) "cores" 8 (Cdcg.core_count cdcg);
  (* per frame: capture + cleaned + 3 regions + 3 descriptors + verdict = 9 *)
  Alcotest.(check int) "packets" 18 (Cdcg.packet_count cdcg)

let test_objrec_pipeline_serialization () =
  let cdcg = Apps.Object_recognition.make ~frames:3 ~extractors:2 () in
  (* The camera emits one capture per frame; captures are chained so the
     second capture depends on the first. *)
  let captures = Cdcg.packets_from cdcg ~src:0 ~dst:1 in
  (match captures with
  | first :: second :: _ ->
    Alcotest.(check (list int)) "camera serialized" [ first ]
      (Cdcg.predecessors cdcg second)
  | _ -> Alcotest.fail "expected at least two captures")

let test_imgenc_shape () =
  let cdcg = Apps.Image_encoder.make ~blocks:4 () in
  Alcotest.(check int) "cores" 6 (Cdcg.core_count cdcg);
  (* five pipeline hops per block *)
  Alcotest.(check int) "packets" 20 (Cdcg.packet_count cdcg);
  (* volumes shrink along the chain: store receives 1/8 of block bits *)
  let last_hop = Cdcg.packets_from cdcg ~src:4 ~dst:5 in
  List.iter
    (fun i ->
      Alcotest.(check int) "compressed output" 64 cdcg.Cdcg.packets.(i).Cdcg.bits)
    last_hop

let test_imgenc_validation () =
  Alcotest.(check bool) "tiny blocks rejected" true
    (match Apps.Image_encoder.make ~block_bits:8 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fig1_matches_paper () =
  Alcotest.(check int) "six packets" 6 (Cdcg.packet_count Apps.Fig1.cdcg);
  Alcotest.(check int) "four cores" 4 (Cdcg.core_count Apps.Fig1.cdcg);
  Alcotest.(check int) "120 bits total" 120 (Cdcg.total_bits Apps.Fig1.cdcg)

let suite =
  ( "apps",
    [
      Alcotest.test_case "catalog across domains" `Quick test_catalog_domains;
      Alcotest.test_case "catalog well-formed" `Quick test_catalog_well_formed;
      Alcotest.test_case "catalog find" `Quick test_catalog_find;
      Alcotest.test_case "romberg shape" `Quick test_romberg_shape;
      Alcotest.test_case "romberg synchronization" `Quick
        test_romberg_round_synchronization;
      Alcotest.test_case "romberg validation" `Quick test_romberg_validation;
      Alcotest.test_case "fft shape" `Quick test_fft_shape;
      Alcotest.test_case "fft stage traffic" `Quick test_fft_stage_traffic;
      Alcotest.test_case "fft validation" `Quick test_fft_validation;
      Alcotest.test_case "objrec shape" `Quick test_objrec_shape;
      Alcotest.test_case "objrec serialization" `Quick test_objrec_pipeline_serialization;
      Alcotest.test_case "imgenc shape" `Quick test_imgenc_shape;
      Alcotest.test_case "imgenc validation" `Quick test_imgenc_validation;
      Alcotest.test_case "fig1 matches the paper" `Quick test_fig1_matches_paper;
    ] )
