module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Link = Nocmap_noc.Link
module Digraph = Nocmap_graph.Digraph
module Fault = Nocmap_noc.Fault

(* Every route is dimension-ordered and each link is the one
   [Link.id] names between its two routers, on planar, stacked and
   torus meshes alike. *)
let test_paths_match_routing () =
  List.iter
    (fun (shape, routing) ->
      let mesh = Mesh.of_string shape in
      let crg = Crg.create ~routing mesh in
      let wrap = Routing.uses_wrap_links routing in
      let n = Mesh.tile_count mesh in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let path = Crg.path crg ~src ~dst in
          let routers = path.Crg.routers in
          let name =
            Printf.sprintf "%s %s %d->%d" shape
              (Routing.algorithm_to_string routing)
              src dst
          in
          Alcotest.(check (list int)) ("path " ^ name)
            (Routing.router_path mesh routing ~src ~dst)
            (Array.to_list routers);
          Alcotest.(check (array int)) ("links " ^ name)
            (Array.init
               (Array.length routers - 1)
               (fun k -> Link.id ~wrap mesh ~src:routers.(k) ~dst:routers.(k + 1)))
            path.Crg.links
        done
      done)
    [
      ("3x4", Routing.Xy);
      ("3x4", Routing.Yx);
      ("3x3x2", Routing.Xy);
      ("2x3x3", Routing.Yx);
      ("4x3", Routing.Torus_xy);
      ("3x5", Routing.Torus_yx);
    ]

let test_router_count () =
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:3) in
  Alcotest.(check int) "corner to corner" 5 (Crg.router_count_on_path crg ~src:0 ~dst:8);
  Alcotest.(check int) "self" 1 (Crg.router_count_on_path crg ~src:4 ~dst:4)

let test_yx_routing_option () =
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  let crg = Crg.create ~routing:Routing.Yx mesh in
  Alcotest.(check bool) "routing recorded" true (Crg.routing crg = Routing.Yx);
  let path = Crg.path crg ~src:0 ~dst:8 in
  Alcotest.(check (list int)) "yx path" [ 0; 3; 6; 7; 8 ] (Array.to_list path.Crg.routers)

let test_out_of_range () =
  let crg = Crg.create (Mesh.create ~cols:2 ~rows:2) in
  Alcotest.check_raises "src range" (Invalid_argument "Crg.path: tile out of range")
    (fun () -> ignore (Crg.path crg ~src:4 ~dst:0))

let test_to_digraph () =
  let mesh = Mesh.create ~cols:2 ~rows:2 in
  let g = Crg.to_digraph (Crg.create mesh) in
  Alcotest.(check int) "vertices" 4 (Digraph.vertex_count g);
  Alcotest.(check int) "edges = physical links" (List.length (Link.all mesh))
    (Digraph.edge_count g);
  Alcotest.(check bool) "adjacency respected" true (Digraph.mem_edge g ~src:0 ~dst:1);
  Alcotest.(check bool) "no diagonal" false (Digraph.mem_edge g ~src:0 ~dst:3)

(* MD5 of every precomputed route (routers and links, plus the pair's
   detour class) and the flat per-pair tables.  The digests pin the
   routes bit-for-bit, so any change to the route builder shows here
   rather than as a drifted cost three layers up. *)
let route_digest crg =
  let n = Crg.tile_count crg in
  let b = Buffer.create 4096 in
  let ints a =
    Array.iter
      (fun v ->
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ',')
      a;
    Buffer.add_char b '\n'
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let p = Crg.path crg ~src ~dst in
      ints p.Crg.routers;
      ints p.Crg.links;
      ints
        [|
          (match Crg.classify crg ~src ~dst with
          | Crg.Reachable d -> d
          | Crg.Unreachable -> -1);
        |]
    done
  done;
  ints (Crg.router_counts crg);
  ints (Crg.tsv_counts crg);
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_routes =
  [
    ("2x2", "xy", "293f21f412ba25c3e7e8c670456f9246");
    ("2x2", "yx", "8793f48dab4908d252a3aa361493cd28");
    ("3x2", "xy", "c99e9a578fd8cc36fc99b97fde3e0fd9");
    ("3x2", "yx", "17a78bba1a364b8b9a12df118421aae0");
    ("4x4", "xy", "4c7db38cfef58543e5261b63a611b450");
    ("4x4", "yx", "58ff3862b14ad2c479185b0e4c62d9b7");
    ("12x12", "xy", "2775651ff7251ec5f26d34c605b399c1");
    ("12x12", "yx", "8702341d413e59d75d5eab679e7a8b8e");
    ("3x3x2", "xy", "2ad5149510025f9366ab778f6b6b9e2f");
    ("3x3x2", "yx", "4e8fdcb5f4af81353170c856dcd56f09");
    ("4x3x3", "xy", "0bb185a508e73bca9e64ccdcf2a2cc02");
    ("4x3x3", "yx", "6506d7ebb8c2d9f612de8cfed8c421ee");
    ("3x3", "torus-xy", "404d33159ce8d077054bab67014591d0");
    ("3x3", "torus-yx", "ee63748ece92f1d31186b3100c285377");
    ("5x4", "torus-xy", "f9b460ed68fc3301c1813e016c351515");
    ("5x4", "torus-yx", "4f23584028f0da49748ed23fbe58409b");
  ]

let test_golden_routes () =
  List.iter
    (fun (shape, routing, expected) ->
      let crg =
        Crg.create ~routing:(Routing.algorithm_of_string routing) (Mesh.of_string shape)
      in
      Alcotest.(check string) (shape ^ " " ^ routing) expected (route_digest crg))
    golden_routes

let test_golden_faulted_routes () =
  let m44 = Mesh.create ~cols:4 ~rows:4 in
  let link_down = Fault.make m44 ~links:[ Link.id m44 ~src:5 ~dst:6 ] in
  Alcotest.(check string) "4x4 xy, link 5->6 down" "5c2722f90abb2f5de720e7d734fecd37"
    (route_digest (Crg.create ~faults:link_down m44));
  let m54 = Mesh.create ~cols:5 ~rows:4 in
  let router_down = Fault.make m54 ~routers:[ 7 ] in
  Alcotest.(check string) "5x4 yx, router 7 down" "af2c1edfd84d13f6babdc4f16d16caf3"
    (route_digest (Crg.create ~routing:Routing.Yx ~faults:router_down m54))

(* Routes are built on first use, so domains race to build them.  Four
   domains, released together, each ask for every pair of a fresh CRG
   in their own order and then digest it: every digest must be the
   golden one, whichever domain built a route. *)
let test_lazy_routes_race () =
  List.iter
    (fun (shape, routing) ->
      let golden =
        List.find_map
          (fun (s, r, d) -> if s = shape && r = routing then Some d else None)
          golden_routes
        |> Option.get
      in
      let crg =
        Crg.create ~routing:(Routing.algorithm_of_string routing) (Mesh.of_string shape)
      in
      let n = Crg.tile_count crg in
      let pairs = n * n in
      let orders =
        [|
          (fun k -> k);
          (fun k -> pairs - 1 - k);
          (fun k -> ((k mod n) * n) + (k / n));
          (* 7919 is a prime dividing none of these pair counts. *)
          (fun k -> k * 7919 mod pairs);
        |]
      in
      let ready = Atomic.make 0 in
      let walker order () =
        Atomic.incr ready;
        while Atomic.get ready < Array.length orders do
          Domain.cpu_relax ()
        done;
        for k = 0 to pairs - 1 do
          let i = order k in
          ignore (Sys.opaque_identity (Crg.path crg ~src:(i / n) ~dst:(i mod n)))
        done;
        route_digest crg
      in
      let domains = Array.map (fun order -> Domain.spawn (walker order)) orders in
      Array.iteri
        (fun d domain ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s, domain %d" shape routing d)
            golden (Domain.join domain))
        domains)
    [ ("12x12", "xy"); ("5x4", "torus-yx"); ("4x3x3", "yx") ]

(* The closed-form tables of a fault-free CRG against walking every
   pair with [Routing.route]: router counts, vertical-link counts and
   the longest route, on planar and stacked meshes under XY and YX, and
   on tori (even extents too) wherever both planar sides are 3 or more. *)
let prop_closed_form_tables =
  QCheck2.Test.make ~name:"fault-free tables equal walking every route"
    ~count:(Test_util.prop_count 200)
    ~print:(fun (cols, rows, layers, routing) ->
      Printf.sprintf "%dx%dx%d %s" cols rows layers
        (Routing.algorithm_to_string routing))
    QCheck2.Gen.(
      let* cols = int_range 1 7 in
      let* rows = int_range 1 7 in
      let* layers = int_range 1 3 in
      let* routing =
        if cols >= 3 && rows >= 3 then
          oneofl [ Routing.Xy; Routing.Yx; Routing.Torus_xy; Routing.Torus_yx ]
        else oneofl [ Routing.Xy; Routing.Yx ]
      in
      return (cols, rows, layers, routing))
    (fun (cols, rows, layers, routing) ->
      let mesh = Mesh.create3 ~cols ~rows ~layers in
      let crg = Crg.create ~routing mesh in
      let n = Mesh.tile_count mesh in
      let counts = Array.make (n * n) 0 and tsv = Array.make (n * n) 0 in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let p = Routing.route mesh routing ~src ~dst in
          counts.((src * n) + dst) <- Array.length p.Routing.routers;
          tsv.((src * n) + dst) <-
            Array.fold_left
              (fun v l -> if Link.is_vertical mesh l then v + 1 else v)
              0 p.Routing.links
        done
      done;
      Crg.router_counts crg = counts
      && Crg.tsv_counts crg = (if layers = 1 then [||] else tsv)
      && Crg.max_routers crg = Array.fold_left max 0 counts)

(* A fault-free CRG fills only its per-pair tables: at most four words
   per ordered pair (route slots, detours, router counts and, when
   stacked, vertical-link counts) plus a few small arrays.  Walking
   every route at create time costs about thirty words per pair (0.6 M
   at 12x12, 2.4 M at 16x16), so the ceiling fails if routes are built
   eagerly again.  The tables live on the major heap, so the count
   covers both heaps; emptying the minor heap first keeps a collection
   out of the window. *)
let test_create_allocation shape () =
  let mesh = Mesh.of_string shape in
  let n = float_of_int (Mesh.tile_count mesh) in
  ignore (Crg.create mesh);
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Crg.create mesh));
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let ceiling = (4.0 *. n *. n) +. 4096.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%s create allocates %.0f words, at most %.0f" shape words
       ceiling)
    true (words <= ceiling)

let suite =
  ( "crg",
    [
      Alcotest.test_case "paths match routing" `Quick test_paths_match_routing;
      Alcotest.test_case "router count" `Quick test_router_count;
      Alcotest.test_case "yx option" `Quick test_yx_routing_option;
      Alcotest.test_case "out of range" `Quick test_out_of_range;
      Alcotest.test_case "to_digraph" `Quick test_to_digraph;
      Alcotest.test_case "golden routes" `Quick test_golden_routes;
      Alcotest.test_case "golden faulted routes" `Quick test_golden_faulted_routes;
      Alcotest.test_case "12x12 create allocation" `Quick
        (test_create_allocation "12x12");
      Alcotest.test_case "16x16 create allocation" `Quick
        (test_create_allocation "16x16");
      Alcotest.test_case "lazy routes race safely" `Quick test_lazy_routes_race;
      QCheck_alcotest.to_alcotest prop_closed_form_tables;
    ] )
