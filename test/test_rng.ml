module Rng = Nocmap_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds give different output" false
    (Rng.bits64 a = Rng.bits64 b)

let test_copy () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_split_independent () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  Alcotest.(check bool) "child differs from parent" false
    (Rng.bits64 parent = Rng.bits64 child)

let test_int_in_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 10 20 in
    Alcotest.(check bool) "in [10,20]" true (v >= 10 && v <= 20)
  done

let test_int_covers_range () =
  let rng = Rng.create ~seed:4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all 5 values hit" true (Array.for_all Fun.id seen)

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:6 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:7 in
  let sample = Rng.sample_without_replacement rng 10 (Array.init 30 Fun.id) in
  Alcotest.(check int) "size" 10 (Array.length sample);
  let distinct = List.sort_uniq compare (Array.to_list sample) in
  Alcotest.(check int) "distinct" 10 (List.length distinct)

let test_choose_list_singleton () =
  let rng = Rng.create ~seed:8 in
  Alcotest.(check int) "singleton" 7 (Rng.choose_list rng [ 7 ])

let test_choose_list_empty () =
  let rng = Rng.create ~seed:8 in
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.choose_list: empty list")
    (fun () -> ignore (Rng.choose_list rng []))

let test_float_bounds () =
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let prop_int_bound =
  QCheck2.Test.make ~name:"Rng.int stays below its bound" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 1_000_000))
    (fun (bound, seed) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* Values recorded from the splitmix64 stream.  Checkpoint journals
   store [Rng.state], and every search trajectory is a function of the
   stream, so these pin both replay and resume compatibility. *)
let golden_bits64 =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
        3207296026000306913L; -4214222208109204676L; 4532161160992623299L;
        -884877559730491226L; 7313543279846440201L; -4408136866661146890L;
        -8781561602181964933L; -8205710985559103185L; -5382347917484077799L;
        -8882435919750266709L ] );
    ( 1,
      [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L;
        -846397198931878612L; 3727343498630883515L; -7456765501708208026L;
        8407459800431601144L; 3430088234347965294L; 5808099861970480573L;
        -2172474089950573756L; -8945553099086264698L; -8603295654659979639L;
        -1424582745090185746L; 3723083104817009959L; 2857380782389785691L;
        -8373586259226197282L ] );
    ( 2005,
      [ 8008748081953684746L; 6581132574259296083L; -8795473394048713489L;
        6503400829701937010L; -8415109997821871103L; -7437018867023692648L;
        -5134961276025488747L; 4030706092667132597L; 460402242490754984L;
        -7521658217918233326L; -8922538578651375453L; -6033635018858272528L;
        1202339406745448336L; 8226852728095092773L; 192402200978819322L;
        -7507433484622337849L ] );
    ( -1,
      [ -6523613405836042406L; -5438901102636068674L; 5870046691785176337L;
        527077646590785223L; -3127467600737763982L; 1030865485958021921L;
        8700243434111683171L; -4166297692289072321L; -7520587869948562457L;
        -2309617782818855010L; 6083925211135119573L; 6859762210871753562L;
        897646571190493110L; -6186200914040158061L; 1721862466504951897L;
        1377377747458046369L ] );
  ]

let test_golden_bits64 () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create ~seed in
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %d" seed)
        expected
        (List.map (fun _ -> Rng.bits64 rng) expected))
    golden_bits64

let test_golden_draws () =
  let rng = Rng.create ~seed:42 in
  (* The last bound rejects about half its raw draws. *)
  Alcotest.(check (list int)) "int"
    [ 0; 1; 1; 3; 7; 15; 585; 651492; 679283657933; 4497339579670313847;
      266474476040800532; 1482940387686048950 ]
    (List.map (Rng.int rng)
       [ 1; 2; 3; 7; 10; 100; 1000; 1_000_003; 1 lsl 40; max_int; max_int - 1;
         (1 lsl 61) + 1 ]);
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.36f1f7e8c90ap-5; 0x1.114630d6611dp+1; 0x1.1c33eca37dbc7p-14;
      0x1.b53f02a433b39p+17 ]
    (List.map (Rng.float rng) [ 1.0; 2.5; 1e-3; 1e6 ]);
  Alcotest.(check (list bool)) "bool"
    [ false; true; true; true; false; true; true; false ]
    (List.init 8 (fun _ -> Rng.bool rng));
  Alcotest.(check (list int)) "int_in"
    [ -4; 0; 20; -1000; 275140024926; 1352983010623657644 ]
    (List.map
       (fun (lo, hi) -> Rng.int_in rng lo hi)
       [ (-5, 5); (0, 0); (10, 20); (-1000, -999); (-(1 lsl 40), 1 lsl 40);
         (0, max_int - 1) ])

let test_golden_split () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  Alcotest.(check (list int64)) "child"
    [ -8329645779151318480L; 6560957319516933143L; 3429778984135255602L;
      6144901677373588850L ]
    (List.init 4 (fun _ -> Rng.bits64 child));
  Alcotest.(check int64) "parent advanced" 5573481420429128725L (Rng.bits64 parent)

let test_golden_state_round_trip () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 3 do
    ignore (Rng.bits64 rng)
  done;
  let state = Rng.state rng in
  Alcotest.(check int64) "state word" 6706660203682385686L state;
  let after =
    [ -7911901224880060863L; -6611298779027567543L; -6354532496418769550L;
      1855115956613024549L ]
  in
  let restored = Rng.of_state state in
  Alcotest.(check (list int64)) "of_state" after
    (List.init 4 (fun _ -> Rng.bits64 restored));
  let reset = Rng.create ~seed:0 in
  Rng.set_state reset state;
  Alcotest.(check (list int64)) "set_state" after (List.init 4 (fun _ -> Rng.bits64 reset));
  Alcotest.(check (list int64)) "original continues alike" after
    (List.init 4 (fun _ -> Rng.bits64 rng))

(* The splitmix64 word stays unboxed, so a bounded draw allocates
   nothing (a boxed word plus a closure cost 12 words per draw).  Word
   counts are deterministic for a given binary, unlike timings. *)
let test_int_allocates_nothing () =
  let rng = Rng.create ~seed:11 in
  let sum = ref 0 in
  let draws () =
    for bound = 1 to 10_000 do
      sum := !sum + Rng.int rng bound
    done
  in
  draws ();
  let before = Gc.minor_words () in
  draws ();
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10 000 draws allocate %.0f words" allocated)
    true (allocated < 64.0);
  ignore (Sys.opaque_identity !sum)

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
      Alcotest.test_case "copy" `Quick test_copy;
      Alcotest.test_case "split independent" `Quick test_split_independent;
      Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
      Alcotest.test_case "int covers range" `Quick test_int_covers_range;
      Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
      Alcotest.test_case "sample without replacement" `Quick
        test_sample_without_replacement;
      Alcotest.test_case "choose_list singleton" `Quick test_choose_list_singleton;
      Alcotest.test_case "choose_list empty" `Quick test_choose_list_empty;
      Alcotest.test_case "float bounds" `Quick test_float_bounds;
      Alcotest.test_case "golden bits64" `Quick test_golden_bits64;
      Alcotest.test_case "golden draws" `Quick test_golden_draws;
      Alcotest.test_case "golden split" `Quick test_golden_split;
      Alcotest.test_case "golden state round trip" `Quick test_golden_state_round_trip;
      Alcotest.test_case "int allocates nothing" `Quick test_int_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_int_bound;
    ] )
