module Placement = Nocmap_mapping.Placement
module Rng = Nocmap_util.Rng

let test_validate () =
  Alcotest.(check bool) "valid" true (Placement.is_valid ~tiles:4 [| 0; 2; 3 |]);
  Alcotest.(check bool) "duplicate tile" false (Placement.is_valid ~tiles:4 [| 0; 0 |]);
  Alcotest.(check bool) "out of range" false (Placement.is_valid ~tiles:4 [| 0; 4 |]);
  Alcotest.(check bool) "too many cores" false (Placement.is_valid ~tiles:2 [| 0; 1; 2 |])

let test_validate_message () =
  match Placement.validate ~tiles:4 [| 1; 1 |] with
  | Ok () -> Alcotest.fail "expected error"
  | Error msg -> Test_util.check_contains ~msg:"names the tile" ~needle:"tile 1" msg

let test_identity () =
  Alcotest.(check (array int)) "identity" [| 0; 1; 2 |] (Placement.identity ~cores:3)

let test_swap_cores () =
  let p = Placement.swap_cores [| 5; 7; 9 |] 0 2 in
  Alcotest.(check (array int)) "swapped" [| 9; 7; 5 |] p

let test_move_to_free_tile () =
  let p = Placement.move_to_tile [| 0; 1 |] ~core:0 ~tile:3 in
  Alcotest.(check (array int)) "moved" [| 3; 1 |] p

let test_move_to_occupied_tile () =
  let p = Placement.move_to_tile [| 0; 1 |] ~core:0 ~tile:1 in
  Alcotest.(check (array int)) "swapped with occupant" [| 1; 0 |] p

let test_occupant () =
  let inv = Placement.occupant [| 2; 0 |] ~tiles:3 in
  Alcotest.(check (array (option int))) "inverse" [| Some 1; None; Some 0 |] inv

let test_to_string () =
  Alcotest.(check string) "rendering" "A@2 B@0"
    (Placement.to_string ~core_names:[| "A"; "B" |] [| 2; 0 |])

let test_random_more_cores_than_tiles () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "refused"
    (Invalid_argument "Placement.random: more cores than tiles") (fun () ->
      ignore (Placement.random rng ~cores:5 ~tiles:4))

let prop_random_valid =
  QCheck2.Test.make ~name:"random placements are valid" ~count:300
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 1 20) (int_range 0 10))
    (fun (seed, cores, slack) ->
      let tiles = cores + slack in
      let rng = Rng.create ~seed in
      Placement.is_valid ~tiles (Placement.random rng ~cores ~tiles))

let prop_neighbor_valid_and_different =
  QCheck2.Test.make ~name:"random neighbors are valid and differ" ~count:300
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 1 15) (int_range 1 10))
    (fun (seed, cores, slack) ->
      let tiles = cores + slack in
      let rng = Rng.create ~seed in
      let p = Placement.random rng ~cores ~tiles in
      let q = Placement.random_neighbor rng ~tiles p in
      Placement.is_valid ~tiles q && q <> p)

(* [validate] runs on every CWM cost call: checking 96 cores on 144
   tiles must not allocate a tiles-long array per call. *)
let test_validate_allocation () =
  let rng = Rng.create ~seed:3 in
  let placement = Placement.random rng ~cores:96 ~tiles:144 in
  let calls () =
    for _ = 1 to 1000 do
      assert (Placement.validate ~tiles:144 placement = Ok ())
    done
  in
  calls ();
  let before = Gc.minor_words () in
  calls ();
  let per_call = (Gc.minor_words () -. before) /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per call" per_call)
    true (per_call <= 16.0);
  (* The per-domain marks never leak between calls. *)
  Alcotest.(check bool) "duplicate still caught" false
    (Placement.is_valid ~tiles:144 (Array.append placement [| placement.(5) |]));
  Alcotest.(check bool) "valid again" true (Placement.is_valid ~tiles:144 placement)

let suite =
  ( "placement",
    [
      Alcotest.test_case "validate" `Quick test_validate;
      Alcotest.test_case "validate message" `Quick test_validate_message;
      Alcotest.test_case "identity" `Quick test_identity;
      Alcotest.test_case "swap cores" `Quick test_swap_cores;
      Alcotest.test_case "move to free tile" `Quick test_move_to_free_tile;
      Alcotest.test_case "move to occupied tile" `Quick test_move_to_occupied_tile;
      Alcotest.test_case "occupant" `Quick test_occupant;
      Alcotest.test_case "to_string" `Quick test_to_string;
      Alcotest.test_case "too many cores" `Quick test_random_more_cores_than_tiles;
      Alcotest.test_case "validate allocation" `Quick test_validate_allocation;
      QCheck_alcotest.to_alcotest prop_random_valid;
      QCheck_alcotest.to_alcotest prop_neighbor_valid_and_different;
    ] )
