module Mesh = Nocmap_noc.Mesh
module Routing = Nocmap_noc.Routing
module Link = Nocmap_noc.Link

let gen_mesh_pair =
  QCheck2.Gen.(
    let* cols = int_range 1 10 in
    let* rows = int_range 1 10 in
    let mesh = Mesh.create ~cols ~rows in
    let n = Mesh.tile_count mesh in
    let* src = int_range 0 (n - 1) in
    let* dst = int_range 0 (n - 1) in
    return (mesh, src, dst))

let path_is_valid mesh path ~src ~dst =
  match path with
  | [] -> false
  | first :: _ ->
    let rec adjacent = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> Mesh.manhattan mesh a b = 1 && adjacent rest
    in
    let last = List.nth path (List.length path - 1) in
    first = src && last = dst && adjacent path

let prop_xy_valid =
  QCheck2.Test.make ~name:"XY paths are connected minimal routes" ~count:400
    gen_mesh_pair (fun (mesh, src, dst) ->
      let path = Routing.router_path mesh Routing.Xy ~src ~dst in
      path_is_valid mesh path ~src ~dst
      && List.length path = Mesh.manhattan mesh src dst + 1)

let prop_yx_valid =
  QCheck2.Test.make ~name:"YX paths are connected minimal routes" ~count:400
    gen_mesh_pair (fun (mesh, src, dst) ->
      let path = Routing.router_path mesh Routing.Yx ~src ~dst in
      path_is_valid mesh path ~src ~dst
      && List.length path = Mesh.manhattan mesh src dst + 1)

let test_xy_order () =
  (* From tile 0 (0,0) to tile 8 (2,2) on 3x3: X first then Y. *)
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  Alcotest.(check (list int)) "xy" [ 0; 1; 2; 5; 8 ]
    (Routing.router_path mesh Routing.Xy ~src:0 ~dst:8);
  Alcotest.(check (list int)) "yx" [ 0; 3; 6; 7; 8 ]
    (Routing.router_path mesh Routing.Yx ~src:0 ~dst:8)

let test_self_path () =
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  Alcotest.(check (list int)) "self" [ 4 ] (Routing.router_path mesh Routing.Xy ~src:4 ~dst:4);
  Alcotest.(check int) "hop count 1" 1 (Routing.hop_count mesh Routing.Xy ~src:4 ~dst:4)

let test_paper_example_routes () =
  (* 2x2 mesh of Figure 1: A->F in mapping (c) goes W2 -> W1 -> W3,
     i.e. tiles 1 -> 0 -> 2. *)
  let mesh = Mesh.create ~cols:2 ~rows:2 in
  Alcotest.(check (list int)) "W2 to W3" [ 1; 0; 2 ]
    (Routing.router_path mesh Routing.Xy ~src:1 ~dst:2)

let test_links_of_path () =
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  let route = Routing.route mesh Routing.Xy ~src:0 ~dst:2 in
  Alcotest.(check (array int)) "routers" [| 0; 1; 2 |] route.Routing.routers;
  Alcotest.(check (array int)) "links between consecutive routers"
    [| Link.id mesh ~src:0 ~dst:1; Link.id mesh ~src:1 ~dst:2 |]
    route.Routing.links;
  Alcotest.(check (array int)) "singleton" [||]
    (Routing.route mesh Routing.Xy ~src:7 ~dst:7).Routing.links

let test_algorithm_strings () =
  Alcotest.(check string) "xy" "xy" (Routing.algorithm_to_string Routing.Xy);
  Alcotest.(check bool) "parse yx" true (Routing.algorithm_of_string " YX " = Routing.Yx);
  Alcotest.check_raises "unknown"
    (Invalid_argument "Routing.algorithm_of_string: unknown algorithm zz") (fun () ->
      ignore (Routing.algorithm_of_string "zz"))

let suite =
  ( "routing",
    [
      QCheck_alcotest.to_alcotest prop_xy_valid;
      QCheck_alcotest.to_alcotest prop_yx_valid;
      Alcotest.test_case "xy vs yx order" `Quick test_xy_order;
      Alcotest.test_case "self path" `Quick test_self_path;
      Alcotest.test_case "paper example route" `Quick test_paper_example_routes;
      Alcotest.test_case "links of path" `Quick test_links_of_path;
      Alcotest.test_case "algorithm strings" `Quick test_algorithm_strings;
    ] )
