module Mesh = Nocmap_noc.Mesh
module Routing = Nocmap_noc.Routing
module Link = Nocmap_noc.Link
module Crg = Nocmap_noc.Crg
module Noc_params = Nocmap_energy.Noc_params
module Wormhole = Nocmap_sim.Wormhole
module Trace = Nocmap_sim.Trace
module Cdcg = Nocmap_model.Cdcg

let mesh = Mesh.create ~cols:4 ~rows:3

let test_wrap_links_exist () =
  (* Every tile of a torus has all four outgoing links. *)
  Alcotest.(check int) "4 links per tile" (4 * 12) (List.length (Link.all ~wrap:true mesh));
  let src, dst = Link.endpoints ~wrap:true mesh (Link.id ~wrap:true mesh ~src:3 ~dst:0) in
  Alcotest.(check (pair int int)) "east wrap from the right edge" (3, 0) (src, dst)

let test_wrap_requires_large_dims () =
  let small = Mesh.create ~cols:2 ~rows:3 in
  Alcotest.(check bool) "2-wide torus rejected" true
    (match Link.all ~wrap:true small with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The CRG walks no route at create time, yet still refuses up front. *)
  List.iter
    (fun (shape, routing) ->
      let mesh = Mesh.of_string shape in
      Alcotest.check_raises
        (shape ^ " " ^ Routing.algorithm_to_string routing)
        (Invalid_argument
           (Printf.sprintf
              "Crg.create: %s routing requires both planar dimensions of the \
               NoC to be at least 3, got %s"
              (Routing.algorithm_to_string routing) shape))
        (fun () -> ignore (Crg.create ~routing mesh)))
    [ ("2x3", Routing.Torus_xy); ("3x2", Routing.Torus_yx); ("3x2x2", Routing.Torus_xy) ]

let test_torus_route_takes_short_way () =
  (* 0 (0,0) -> 3 (3,0): 3 mesh hops east, 1 torus hop west. *)
  Alcotest.(check (list int)) "mesh goes the long way" [ 0; 1; 2; 3 ]
    (Routing.router_path mesh Routing.Xy ~src:0 ~dst:3);
  Alcotest.(check (list int)) "torus wraps west" [ 0; 3 ]
    (Routing.router_path mesh Routing.Torus_xy ~src:0 ~dst:3)

let test_torus_tie_goes_forward () =
  (* 4x3: x distance 2 both ways from column 0 to column 2: forward. *)
  Alcotest.(check (list int)) "tie broken east" [ 0; 1; 2 ]
    (Routing.router_path mesh Routing.Torus_xy ~src:0 ~dst:2)

let test_torus_never_longer_than_mesh () =
  let tiles = Mesh.tile_count mesh in
  for src = 0 to tiles - 1 do
    for dst = 0 to tiles - 1 do
      let mesh_hops = Routing.hop_count mesh Routing.Xy ~src ~dst in
      let torus_hops = Routing.hop_count mesh Routing.Torus_xy ~src ~dst in
      Alcotest.(check bool)
        (Printf.sprintf "%d->%d" src dst)
        true (torus_hops <= mesh_hops)
    done
  done

let test_torus_yx () =
  (* 0 (0,0) -> 8 (0,2) on 3 rows: 2 hops south or 1 hop north (wrap). *)
  Alcotest.(check (list int)) "yx wraps north" [ 0; 8 ]
    (Routing.router_path mesh Routing.Torus_yx ~src:0 ~dst:8)

let test_torus_crg_simulation () =
  (* A packet between opposite corners is delivered faster on the torus. *)
  let cdcg =
    Cdcg.create_exn ~name:"corner" ~core_names:[| "a"; "b" |]
      ~packets:[| { Cdcg.src = 0; dst = 1; compute = 0; bits = 8; label = "p" } |]
      ~deps:[]
  in
  let placement = [| 0; 11 |] in
  let params = Noc_params.paper_example in
  let texec routing =
    (Wormhole.run ~params ~crg:(Crg.create ~routing mesh) ~placement cdcg)
      .Trace.texec_cycles
  in
  (* mesh: K = 6 routers -> 6*3 + 8 = 26; torus wraps west then north:
     0 -> 3 -> 11, K = 3 -> 3*3 + 8 = 17. *)
  Alcotest.(check int) "mesh" 26 (texec Routing.Xy);
  Alcotest.(check int) "torus" 17 (texec Routing.Torus_xy)

let test_torus_digraph_degree () =
  let g = Crg.to_digraph (Crg.create ~routing:Routing.Torus_xy mesh) in
  for tile = 0 to 11 do
    Alcotest.(check int) "out degree 4" 4 (Nocmap_graph.Digraph.out_degree g tile)
  done

let test_algorithm_strings () =
  Alcotest.(check bool) "parse torus-xy" true
    (Routing.algorithm_of_string "Torus-XY" = Routing.Torus_xy);
  Alcotest.(check string) "print" "torus-yx"
    (Routing.algorithm_to_string Routing.Torus_yx);
  Alcotest.(check bool) "wrap flag" true (Routing.uses_wrap_links Routing.Torus_xy);
  Alcotest.(check bool) "no wrap for xy" false (Routing.uses_wrap_links Routing.Xy)

let suite =
  ( "torus",
    [
      Alcotest.test_case "wrap links exist" `Quick test_wrap_links_exist;
      Alcotest.test_case "wrap needs dims >= 3" `Quick test_wrap_requires_large_dims;
      Alcotest.test_case "short way around" `Quick test_torus_route_takes_short_way;
      Alcotest.test_case "tie goes forward" `Quick test_torus_tie_goes_forward;
      Alcotest.test_case "never longer than mesh" `Quick test_torus_never_longer_than_mesh;
      Alcotest.test_case "torus yx" `Quick test_torus_yx;
      Alcotest.test_case "end-to-end simulation" `Quick test_torus_crg_simulation;
      Alcotest.test_case "digraph degree" `Quick test_torus_digraph_degree;
      Alcotest.test_case "algorithm strings" `Quick test_algorithm_strings;
    ] )
