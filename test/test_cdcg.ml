module Cdcg = Nocmap_model.Cdcg
module Digraph = Nocmap_graph.Digraph

let packet ?(label = "p") ~src ~dst ~compute ~bits () =
  { Cdcg.src; dst; compute; bits; label }

let simple () =
  Cdcg.create_exn ~name:"t" ~core_names:[| "a"; "b"; "c" |]
    ~packets:
      [|
        packet ~label:"p0" ~src:0 ~dst:1 ~compute:5 ~bits:10 ();
        packet ~label:"p1" ~src:1 ~dst:2 ~compute:3 ~bits:20 ();
        packet ~label:"p2" ~src:0 ~dst:2 ~compute:7 ~bits:30 ();
      |]
    ~deps:[ (0, 1); (0, 2) ]

let expect_error ~needle result =
  match result with
  | Ok _ -> Alcotest.fail "expected validation error"
  | Error msg -> Test_util.check_contains ~msg:"error message" ~needle msg

let test_accessors () =
  let t = simple () in
  Alcotest.(check int) "cores" 3 (Cdcg.core_count t);
  Alcotest.(check int) "packets" 3 (Cdcg.packet_count t);
  Alcotest.(check int) "bits" 60 (Cdcg.total_bits t);
  Alcotest.(check int) "deps" 2 (Cdcg.dependence_count t);
  Alcotest.(check int) "ndp" 5 (Cdcg.ndp t)

let test_adjacency () =
  let t = simple () in
  Alcotest.(check (list int)) "preds of p1" [ 0 ] (Cdcg.predecessors t 1);
  Alcotest.(check (list int)) "succs of p0" [ 1; 2 ] (List.sort compare (Cdcg.successors t 0));
  Alcotest.(check (list int)) "start packets" [ 0 ] (Cdcg.start_packets t);
  (* The shared DAG: rows in [deps] order, and the FIFO Kahn order
     seeded with p0, p3, p4 that the incremental bound's early exit
     depends on. *)
  let dag =
    Cdcg.create_exn ~name:"dag" ~core_names:[| "a"; "b" |]
      ~packets:
        (Array.init 5 (fun i ->
             packet ~src:(i mod 2) ~dst:(1 - (i mod 2)) ~compute:1 ~bits:1 ()))
      ~deps:[ (4, 1); (0, 2); (4, 2) ]
  in
  let row off adj i = Array.to_list (Array.sub adj off.(i) (off.(i + 1) - off.(i))) in
  Alcotest.(check (list int)) "preds of p2" [ 0; 4 ]
    (row dag.Cdcg.pred_off dag.Cdcg.pred 2);
  Alcotest.(check (list int)) "succs of p4" [ 1; 2 ]
    (row dag.Cdcg.succ_off dag.Cdcg.succ 4);
  Alcotest.(check (array int)) "topological order" [| 0; 3; 4; 1; 2 |]
    dag.Cdcg.order

let test_packets_from () =
  let t = simple () in
  Alcotest.(check (list int)) "a->c" [ 2 ] (Cdcg.packets_from t ~src:0 ~dst:2);
  Alcotest.(check (list int)) "none" [] (Cdcg.packets_from t ~src:2 ~dst:0)

let test_validation_errors () =
  let mk ?(core_names = [| "a"; "b" |]) ?(packets = [||]) ?(deps = []) () =
    Cdcg.create ~name:"x" ~core_names ~packets ~deps
  in
  expect_error ~needle:"no cores" (mk ~core_names:[||] ());
  expect_error ~needle:"duplicate core name"
    (mk ~core_names:[| "a"; "a" |] ());
  expect_error ~needle:"source equals destination"
    (mk ~packets:[| packet ~src:0 ~dst:0 ~compute:1 ~bits:1 () |] ());
  expect_error ~needle:"out of range"
    (mk ~packets:[| packet ~src:0 ~dst:7 ~compute:1 ~bits:1 () |] ());
  expect_error ~needle:"volume must be positive"
    (mk ~packets:[| packet ~src:0 ~dst:1 ~compute:1 ~bits:0 () |] ());
  expect_error ~needle:"computation time"
    (mk ~packets:[| packet ~src:0 ~dst:1 ~compute:(-1) ~bits:1 () |] ());
  expect_error ~needle:"packet index out of range"
    (mk ~packets:[| packet ~src:0 ~dst:1 ~compute:1 ~bits:1 () |] ~deps:[ (0, 9) ] ())

let test_cycle_rejected () =
  let packets =
    [|
      packet ~label:"x" ~src:0 ~dst:1 ~compute:1 ~bits:1 ();
      packet ~label:"y" ~src:1 ~dst:0 ~compute:1 ~bits:1 ();
    |]
  in
  expect_error ~needle:"dependence cycle"
    (Cdcg.create ~name:"c" ~core_names:[| "a"; "b" |] ~packets
       ~deps:[ (0, 1); (1, 0) ])

let test_to_digraph () =
  let g = Cdcg.to_digraph (simple ()) in
  Alcotest.(check int) "vertices" 3 (Digraph.vertex_count g);
  Alcotest.(check bool) "edge 0->1" true (Digraph.mem_edge g ~src:0 ~dst:1)

let test_create_exn () =
  Alcotest.check_raises "create_exn propagates"
    (Invalid_argument "Cdcg.create_exn: CDCG has no cores") (fun () ->
      ignore (Cdcg.create_exn ~name:"x" ~core_names:[||] ~packets:[||] ~deps:[]))

let suite =
  ( "cdcg",
    [
      Alcotest.test_case "accessors" `Quick test_accessors;
      Alcotest.test_case "adjacency" `Quick test_adjacency;
      Alcotest.test_case "packets_from" `Quick test_packets_from;
      Alcotest.test_case "validation errors" `Quick test_validation_errors;
      Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
      Alcotest.test_case "to_digraph" `Quick test_to_digraph;
      Alcotest.test_case "create_exn" `Quick test_create_exn;
    ] )
