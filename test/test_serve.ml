(* The serve subsystem: job-spec validation, backoff, the crash-safe
   engine (overload shedding, per-job timeout, error isolation,
   kill-at-random-point recovery), and the spool endpoint. *)

module Json = Nocmap_persist.Json
module Fsutil = Nocmap_persist.Fsutil
module Metrics = Nocmap_obs.Metrics
module Serve = Nocmap_serve
module Backoff = Serve.Backoff
module Job_spec = Serve.Job_spec
module Engine = Serve.Engine
module Spool = Serve.Spool
module Request = Nocmap_mapping.Request

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".serve" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

let stop_after n =
  let calls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add calls 1 >= n

(* --- backoff --- *)

let test_backoff_schedule () =
  let p = Backoff.default in
  Alcotest.(check (option int)) "first" (Some 50) (Backoff.delay_ms p ~failures:1);
  Alcotest.(check (option int)) "second" (Some 100) (Backoff.delay_ms p ~failures:2);
  Alcotest.(check (option int)) "third" (Some 200) (Backoff.delay_ms p ~failures:3);
  Alcotest.(check (option int)) "budget exhausted" None (Backoff.delay_ms p ~failures:4);
  let capped = { p with Backoff.max_delay_ms = 120; max_attempts = 10 } in
  Alcotest.(check (option int)) "capped" (Some 120) (Backoff.delay_ms capped ~failures:5)

let test_backoff_validation () =
  let p = Backoff.default in
  Alcotest.check_raises "failures >= 1"
    (Invalid_argument "Backoff.delay_ms: failures must be >= 1") (fun () ->
      ignore (Backoff.delay_ms p ~failures:0));
  Alcotest.check_raises "multiplier below 1"
    (Invalid_argument "Backoff: multiplier below 1") (fun () ->
      ignore (Backoff.delay_ms { p with Backoff.multiplier = 0.5 } ~failures:1))

let test_backoff_retry_recovers () =
  let sleeps = ref [] in
  let attempts = ref 0 in
  let result =
    Backoff.retry
      ~sleep_ms:(fun ms -> sleeps := ms :: !sleeps)
      Backoff.default
      (fun () ->
        incr attempts;
        if !attempts < 3 then Error "transient" else Ok !attempts)
  in
  Alcotest.(check (result int string)) "recovers" (Ok 3) result;
  Alcotest.(check (list int)) "deterministic schedule" [ 100; 50 ] !sleeps

let test_backoff_retry_gives_up () =
  let attempts = ref 0 in
  let retries = ref 0 in
  let result =
    Backoff.retry
      ~sleep_ms:(fun _ -> ())
      ~on_retry:(fun ~failures:_ ~delay_ms:_ _ -> incr retries)
      Backoff.default
      (fun () ->
        incr attempts;
        Error "still down")
  in
  Alcotest.(check (result int string)) "final error" (Error "still down") result;
  Alcotest.(check int) "max_attempts tries" Backoff.default.Backoff.max_attempts !attempts;
  Alcotest.(check int) "a retry per sleep" (Backoff.default.Backoff.max_attempts - 1) !retries

(* --- job specs --- *)

let spec_text =
  {|{"id":"t-1","app":{"builtin":"fig1"},"noc":"3x3","routing":"xy",
     "tech":"0.07um","flit":16,"model":"cdcm","algorithm":"sa","seed":7,
     "budget":"quick","timeout_ms":60000}|}

let test_spec_roundtrip () =
  match Job_spec.of_string spec_text with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    Alcotest.(check string) "id" "t-1" spec.Job_spec.id;
    Alcotest.(check int) "seed" 7 spec.Job_spec.seed;
    Alcotest.(check (option int)) "timeout" (Some 60000) spec.Job_spec.timeout_ms;
    let again =
      match Job_spec.of_json (Job_spec.to_json spec) with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check bool) "round-trips" true (spec = again)

let test_spec_defaults () =
  match Job_spec.of_string {|{"id":"d","app":{"builtin":"fft8"}}|} with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    Alcotest.(check string) "mesh" "3x3" (Nocmap_noc.Mesh.to_string spec.Job_spec.mesh);
    Alcotest.(check string) "model" "cdcm" (Job_spec.model_to_string spec.Job_spec.model);
    Alcotest.(check string) "algorithm" "sa"
      (Job_spec.algorithm_to_string spec.Job_spec.algorithm);
    Alcotest.(check (option int)) "no timeout" None spec.Job_spec.timeout_ms

let expect_invalid ~needle text =
  match Job_spec.of_string text with
  | Ok _ -> Alcotest.fail ("accepted: " ^ text)
  | Error msg -> Test_util.check_contains ~msg:"spec error" ~needle msg

(* Stacked 3-D meshes ride the same "noc" field: `CxRxL` parses and
   round-trips through to_json, and malformed stacks are rejected. *)
let test_spec_noc3d () =
  (match
     Job_spec.of_string {|{"id":"v","app":{"builtin":"fig1"},"noc":"2x2x2"}|}
   with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    Alcotest.(check string) "3-D mesh" "2x2x2"
      (Nocmap_noc.Mesh.to_string spec.Job_spec.mesh);
    let again =
      match Job_spec.of_json (Job_spec.to_json spec) with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check bool) "round-trips" true (spec = again));
  expect_invalid ~needle:"noc" {|{"id":"x","app":{"builtin":"fig1"},"noc":"2x2x0"}|};
  expect_invalid ~needle:"noc" {|{"id":"x","app":{"builtin":"fig1"},"noc":"2x2x"}|}

let test_spec_rejections () =
  expect_invalid ~needle:"JSON" "not json at all";
  expect_invalid ~needle:"object" {|[1,2,3]|};
  expect_invalid ~needle:"\"id\"" {|{"app":{"builtin":"fig1"}}|};
  expect_invalid ~needle:"valid job id" {|{"id":"../etc","app":{"builtin":"fig1"}}|};
  expect_invalid ~needle:"valid job id" {|{"id":"-rf","app":{"builtin":"fig1"}}|};
  expect_invalid ~needle:"app" {|{"id":"x","app":{"builtin":"a","path":"b"}}|};
  expect_invalid ~needle:"noc" {|{"id":"x","app":{"builtin":"fig1"},"noc":"wide"}|};
  expect_invalid ~needle:"model" {|{"id":"x","app":{"builtin":"fig1"},"model":"best"}|};
  expect_invalid ~needle:"algorithm"
    {|{"id":"x","app":{"builtin":"fig1"},"algorithm":"magic"}|};
  expect_invalid ~needle:"incremental"
    {|{"id":"x","app":{"builtin":"fig1"},"model":"cwm","incremental":true}|};
  expect_invalid ~needle:"timeout_ms"
    {|{"id":"x","app":{"builtin":"fig1"},"timeout_ms":-5}|};
  expect_invalid ~needle:"tech" {|{"id":"x","app":{"builtin":"fig1"},"tech":"1um"}|};
  expect_invalid ~needle:"field \"routing\": torus-xy routing requires"
    {|{"id":"x","app":{"builtin":"fig1"},"noc":"2x3","routing":"torus-xy"}|};
  expect_invalid ~needle:"field \"routing\": torus-yx routing requires"
    {|{"id":"x","app":{"builtin":"fig1"},"noc":"3x2x2","routing":"torus-yx"}|}

let test_spec_resolve () =
  let spec id app noc =
    match
      Job_spec.of_string
        (Printf.sprintf {|{"id":%S,"app":%s,"noc":%S}|} id app noc)
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (match Job_spec.resolve_app (spec "ok" {|{"builtin":"romberg"}|} "3x3") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Job_spec.resolve_app (spec "missing" {|{"builtin":"nothere"}|} "3x3") with
  | Ok _ -> Alcotest.fail "unknown builtin accepted"
  | Error msg -> Test_util.check_contains ~msg:"names app" ~needle:"nothere" msg);
  (match Job_spec.resolve_app (spec "big" {|{"builtin":"fft16"}|} "2x2") with
  | Ok _ -> Alcotest.fail "oversized app accepted"
  | Error msg -> Test_util.check_contains ~msg:"does not fit" ~needle:"do not fit" msg)

let test_spec_portfolio () =
  (* Explicit strategy list survives the wire round-trip in order. *)
  (match
     Job_spec.of_string
       {|{"id":"p","app":{"builtin":"fig1"},"algorithm":"portfolio",
          "strategies":["sa","tabu"]}|}
   with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    (match spec.Job_spec.algorithm with
    | Job_spec.Portfolio [ Nocmap_mapping.Portfolio.Sa; Nocmap_mapping.Portfolio.Tabu ]
      -> ()
    | _ -> Alcotest.fail "expected Portfolio [Sa; Tabu]");
    let again =
      match Job_spec.of_json (Job_spec.to_json spec) with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check bool) "round-trips" true (spec = again));
  (* No "strategies" field defaults to the full portfolio. *)
  match
    Job_spec.of_string
      {|{"id":"p","app":{"builtin":"fig1"},"algorithm":"portfolio"}|}
  with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
    match spec.Job_spec.algorithm with
    | Job_spec.Portfolio strategies ->
      Alcotest.(check bool) "all strategies" true
        (strategies = Nocmap_mapping.Portfolio.all_strategies)
    | _ -> Alcotest.fail "expected Portfolio")

let test_spec_portfolio_rejections () =
  expect_invalid ~needle:"unknown strategy"
    {|{"id":"x","app":{"builtin":"fig1"},"algorithm":"portfolio",
       "strategies":["sa","warp"]}|};
  expect_invalid ~needle:"duplicate strategy"
    {|{"id":"x","app":{"builtin":"fig1"},"algorithm":"portfolio",
       "strategies":["sa","sa"]}|};
  expect_invalid ~needle:"strategies"
    {|{"id":"x","app":{"builtin":"fig1"},"algorithm":"portfolio",
       "strategies":"sa"}|};
  expect_invalid ~needle:"portfolio"
    {|{"id":"x","app":{"builtin":"fig1"},"algorithm":"sa",
       "strategies":["sa"]}|}

(* A misspelt field must not fall back to its default silently:
   "flit_bits" for "flit" would run the job on 16-bit flits. *)
let test_spec_unknown_fields () =
  expect_invalid ~needle:"unknown field \"flit_bits\""
    {|{"id":"a","app":{"builtin":"fft8"},"flit_bits":64}|};
  expect_invalid ~needle:"\"strategy\""
    {|{"id":"a","app":{"builtin":"fft8"},"algorithm":"portfolio","strategy":["sa"]}|};
  match Job_spec.of_string {|{"id":"a","app":{"builtin":"fft8"},"flit":64}|} with
  | Ok spec -> Alcotest.(check int) "flit read" 64 spec.Job_spec.flit_bits
  | Error e -> Alcotest.fail e

let hostile_spec_prop =
  QCheck2.Test.make ~name:"Job_spec.of_string never raises"
    ~count:(Test_util.prop_count 500)
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 200))
    (fun text ->
      match Job_spec.of_string text with
      | Ok _ | Error _ -> true)

(* --- engine helpers --- *)

let quick_job ?(algorithm = "sa") ?(timeout = "") id =
  Printf.sprintf
    {|{"id":%S,"app":{"builtin":"romberg"},"noc":"3x3","model":"cdcm","algorithm":%S,"budget":"quick","seed":5%s}|}
    id algorithm timeout

let make_engine ?(config = Engine.default_config) dir =
  let events = ref [] in
  let engine =
    match Engine.create ~emit:(fun e -> events := e :: !events) ~config ~dir () with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  (engine, events)

let find_completed events id =
  List.find_map
    (function
      | Engine.Completed { id = id'; result; _ } when id' = id -> Some result
      | _ -> None)
    (List.rev !events)

let find_failed events id =
  List.find_map
    (function
      | Engine.Failed { id = id'; reason; _ } when id' = id -> Some reason
      | _ -> None)
    (List.rev !events)

(* Engine tests sleep-free: retries and timeouts run on injected time. *)
let fast_config =
  { Engine.default_config with Engine.checkpoint_every = 50; sleep_ms = (fun _ -> ()) }

let test_engine_runs_job () =
  let dir = temp_dir () in
  let engine, events = make_engine ~config:fast_config dir in
  (match Engine.submit engine ~source:"test" (quick_job "one") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "expected Submitted");
  Alcotest.(check int) "queued" 1 (Engine.queue_depth engine);
  Engine.run_pending engine;
  Alcotest.(check int) "drained" 0 (Engine.queue_depth engine);
  (match find_completed events "one" with
  | Some result ->
    (match Json.find "cost" result with
    | Some (Json.Str _) -> ()
    | _ -> Alcotest.fail "result has no cost")
  | None -> Alcotest.fail "no Completed event");
  Engine.close engine

let test_engine_portfolio_job () =
  let dir = temp_dir () in
  let engine, events = make_engine ~config:fast_config dir in
  let spec =
    {|{"id":"race","app":{"builtin":"romberg"},"noc":"3x3","model":"cdcm",
       "algorithm":"portfolio","strategies":["spiral","greedy","sa"],
       "budget":"quick","seed":5}|}
  in
  (match Engine.submit engine ~source:"test" spec with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "expected Submitted");
  Engine.run_pending engine;
  (match find_completed events "race" with
  | Some result ->
    (match Json.find "cost" result with
    | Some (Json.Str _) -> ()
    | _ -> Alcotest.fail "result has no cost")
  | None -> Alcotest.fail "no Completed event");
  Engine.close engine

(* Every algorithm under every cost model and budget, on a planar, a
   stacked and a torus mesh, through the engine (seed 3): MD5 digests of
   the result JSON, so any drift in objective, cache or budget wiring
   shows.  Greedy rows score the placement under the job's own
   objective, with one extra evaluation. *)
let pinned =
  [
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "sa",           "101c0b9943d3bc111629828de58ce9a9");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "local",        "848af15141e6eea6c552d3f6ffc0f2d5");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "greedy",       "b118809adfd33c8804a0a51812fc6a2d");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "greedy+local", "fd63cec74b0b143d66607ed122d4b54e");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "random",       "78022f78848e1d29dc2ee9d1b32b0cf9");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "es",           "0a7b9935a42d3787e4bf83092c7ec520");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "portfolio",    "8e35a38f80334dd5767bd8d2159372cb");
    ("quick", "fft8",    "3x2",   "xy",       "cwm",  false, "decompose",    "473e4a05880a33b8c33b697c70014f68");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "sa",           "d014636a925c670516133bd6a3f04cba");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "local",        "50f41d4759db86638a7c16b30250feb7");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "greedy",       "181063af2858563ce76fe32dd58e464c");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "greedy+local", "17239d472acf25d7f0da6565afeffbe1");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "random",       "f982e288f04e5570e5c234afddd966c4");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "es",           "e129002ca94cdbca7527ee2264546201");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "portfolio",    "0e463c4abb84616fbe25451f55f2abc2");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", false, "decompose",    "5d623310a330a6da236d2bf10d7d42bf");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "sa",           "d014636a925c670516133bd6a3f04cba");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "local",        "50f41d4759db86638a7c16b30250feb7");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "greedy",       "181063af2858563ce76fe32dd58e464c");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "greedy+local", "17239d472acf25d7f0da6565afeffbe1");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "random",       "f982e288f04e5570e5c234afddd966c4");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "es",           "e129002ca94cdbca7527ee2264546201");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "portfolio",    "0e463c4abb84616fbe25451f55f2abc2");
    ("quick", "fft8",    "3x2",   "xy",       "cdcm", true,  "decompose",    "5d623310a330a6da236d2bf10d7d42bf");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "sa",           "84c654bee3b0db5d801e3d311720e5d2");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "local",        "0c5f1dd3f3106f00918c22dca8b1e8c6");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "greedy",       "a23a3ee41506978248435aa8bd62e4c7");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "greedy+local", "e1f64f016e43c6de5cfb8a133baa8b4d");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "random",       "af51a02d02a72160f013a0c856ac7a8e");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "es",           "984a30c619e7bc72ab9225d25491a830");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "portfolio",    "2425ef6ca4bbea2de5fd7422ddcf2cf5");
    ("quick", "romberg", "2x2x2", "xy",       "cwm",  false, "decompose",    "cba2ed3539c17bf9a3cfca1d4795e4ea");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "sa",           "c7efebc9f4fd70a78ac60b7d147e56ed");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "local",        "d5b6da41d0a1c4d3e10b01dfd166cfc8");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "greedy",       "88e9e113491758d2a13e52fc7d84f241");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "greedy+local", "b9c328181e52481215e82fa2c8d75758");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "random",       "1a369eda6597e42dab351ce98a7e915a");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "es",           "35004ea4a49c67e2d9a00612f584be21");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "portfolio",    "d165fb3db49665d76efb89cb68745340");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", false, "decompose",    "f1c58154d399353db7e51d22eb22b6a0");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "sa",           "c7efebc9f4fd70a78ac60b7d147e56ed");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "local",        "d5b6da41d0a1c4d3e10b01dfd166cfc8");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "greedy",       "88e9e113491758d2a13e52fc7d84f241");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "greedy+local", "b9c328181e52481215e82fa2c8d75758");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "random",       "1a369eda6597e42dab351ce98a7e915a");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "es",           "35004ea4a49c67e2d9a00612f584be21");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "portfolio",    "d165fb3db49665d76efb89cb68745340");
    ("quick", "romberg", "2x2x2", "xy",       "cdcm", true,  "decompose",    "f1c58154d399353db7e51d22eb22b6a0");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "sa",           "b4770734a69b2c25a2ce5fe3fdf1780b");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "local",        "9959bea9cecf6b4e132de717adde7478");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "greedy",       "c4450b6e94d50ef7636a3146436bf4ef");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "greedy+local", "7d083e6306ce217dcbe58ee85ff4c984");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "random",       "6f0c46eee3cf5a84aaa05f1fb1543b4a");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "es",           "e9f1efd6d8d574a14d3a614646bf0e11");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "portfolio",    "152a5ee6ce96a13341b272dc3d282bb7");
    ("quick", "romberg", "3x3",   "torus-xy", "cwm",  false, "decompose",    "bc785207209e7540c0fe1a71a441133e");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "sa",           "77890f16df6723e321de01dfcc825ed7");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "local",        "13db1c8a529e2e15933b600839cded5e");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "greedy",       "deac17d43122be398e9afee1b10a322a");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "greedy+local", "24fdbf2fd13c1f6bd138a09878c70938");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "random",       "fc4139d12b5537531fb548e6104d5a48");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "es",           "fdb53c1d43aa60bd7955638154747523");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "portfolio",    "20d753032af3a4597c7b5da1053b6c7d");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", false, "decompose",    "118b0fb145042689e64e956d166ed2ee");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "sa",           "77890f16df6723e321de01dfcc825ed7");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "local",        "13db1c8a529e2e15933b600839cded5e");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "greedy",       "deac17d43122be398e9afee1b10a322a");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "greedy+local", "24fdbf2fd13c1f6bd138a09878c70938");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "random",       "fc4139d12b5537531fb548e6104d5a48");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "es",           "fdb53c1d43aa60bd7955638154747523");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "portfolio",    "20d753032af3a4597c7b5da1053b6c7d");
    ("quick", "romberg", "3x3",   "torus-xy", "cdcm", true,  "decompose",    "118b0fb145042689e64e956d166ed2ee");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "sa",           "a04de5abc97fe684fe48c376530edcd2");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "local",        "848af15141e6eea6c552d3f6ffc0f2d5");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "greedy",       "b118809adfd33c8804a0a51812fc6a2d");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "greedy+local", "fd63cec74b0b143d66607ed122d4b54e");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "random",       "64d6c15374ab6c1a0bbec1e47b1271f6");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "es",           "0a7b9935a42d3787e4bf83092c7ec520");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "portfolio",    "08b2b254aec68533710edf21276030c2");
    ("standard", "fft8",    "3x2",   "xy",       "cwm",  false, "decompose",    "86f054fce623cacff25a16c7fb8f9e95");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "sa",           "f8d56a6e8f98e3b0ef4acf1156e95e12");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "local",        "50f41d4759db86638a7c16b30250feb7");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "greedy",       "181063af2858563ce76fe32dd58e464c");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "greedy+local", "17239d472acf25d7f0da6565afeffbe1");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "random",       "6f18cd9eb584f05972dc327c1998024a");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "es",           "e129002ca94cdbca7527ee2264546201");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "portfolio",    "6c2775f03d5d06207408c3150d3a3f47");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", false, "decompose",    "7b3d52dbf584577400a57d1e0efd20e3");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "sa",           "f8d56a6e8f98e3b0ef4acf1156e95e12");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "local",        "50f41d4759db86638a7c16b30250feb7");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "greedy",       "181063af2858563ce76fe32dd58e464c");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "greedy+local", "17239d472acf25d7f0da6565afeffbe1");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "random",       "6f18cd9eb584f05972dc327c1998024a");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "es",           "e129002ca94cdbca7527ee2264546201");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "portfolio",    "6c2775f03d5d06207408c3150d3a3f47");
    ("standard", "fft8",    "3x2",   "xy",       "cdcm", true,  "decompose",    "7b3d52dbf584577400a57d1e0efd20e3");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "sa",           "15df88b18c57cdb0592be8a39dc4f7f0");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "local",        "0c5f1dd3f3106f00918c22dca8b1e8c6");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "greedy",       "a23a3ee41506978248435aa8bd62e4c7");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "greedy+local", "e1f64f016e43c6de5cfb8a133baa8b4d");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "random",       "a52cf5db0622a04440f0024ed2bb4059");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "es",           "984a30c619e7bc72ab9225d25491a830");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "portfolio",    "02aa63266143bf3380253d3b8bbf709f");
    ("standard", "romberg", "2x2x2", "xy",       "cwm",  false, "decompose",    "02547329d8c9827228e4cc86bbf28f9c");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "sa",           "52093f4f52770e68fad2d0664a35f7fb");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "local",        "d5b6da41d0a1c4d3e10b01dfd166cfc8");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "greedy",       "88e9e113491758d2a13e52fc7d84f241");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "greedy+local", "b9c328181e52481215e82fa2c8d75758");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "random",       "2264d7de0d21f6125457eea871036825");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "es",           "35004ea4a49c67e2d9a00612f584be21");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "portfolio",    "ec7e57ee45d6e7c49a88dac19de199cb");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", false, "decompose",    "11a5fce74f77cd2154b5d4579ddd6e85");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "sa",           "52093f4f52770e68fad2d0664a35f7fb");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "local",        "d5b6da41d0a1c4d3e10b01dfd166cfc8");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "greedy",       "88e9e113491758d2a13e52fc7d84f241");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "greedy+local", "b9c328181e52481215e82fa2c8d75758");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "random",       "2264d7de0d21f6125457eea871036825");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "es",           "35004ea4a49c67e2d9a00612f584be21");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "portfolio",    "ec7e57ee45d6e7c49a88dac19de199cb");
    ("standard", "romberg", "2x2x2", "xy",       "cdcm", true,  "decompose",    "11a5fce74f77cd2154b5d4579ddd6e85");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "sa",           "ab1e18b629ee30f213b52e82de510153");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "local",        "9959bea9cecf6b4e132de717adde7478");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "greedy",       "c4450b6e94d50ef7636a3146436bf4ef");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "greedy+local", "7d083e6306ce217dcbe58ee85ff4c984");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "random",       "01c552d9c1e42b8d2e7c7375e370e878");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "es",           "e9f1efd6d8d574a14d3a614646bf0e11");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "portfolio",    "6de7955251963ea56468620fd2d3c901");
    ("standard", "romberg", "3x3",   "torus-xy", "cwm",  false, "decompose",    "089f46c21876d1979f03d143683b8ee2");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "sa",           "6b2a7f500d79517614f6610d872fff6c");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "local",        "13db1c8a529e2e15933b600839cded5e");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "greedy",       "deac17d43122be398e9afee1b10a322a");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "greedy+local", "24fdbf2fd13c1f6bd138a09878c70938");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "random",       "bcd542e54b697b7f3a4e1adad1227a16");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "es",           "fdb53c1d43aa60bd7955638154747523");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "portfolio",    "0950abdcb0c408c4ae9647148c018640");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", false, "decompose",    "57ea7df2ce9764bfe63f7c8c249df94d");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "sa",           "6b2a7f500d79517614f6610d872fff6c");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "local",        "13db1c8a529e2e15933b600839cded5e");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "greedy",       "deac17d43122be398e9afee1b10a322a");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "greedy+local", "24fdbf2fd13c1f6bd138a09878c70938");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "random",       "bcd542e54b697b7f3a4e1adad1227a16");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "es",           "fdb53c1d43aa60bd7955638154747523");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "portfolio",    "0950abdcb0c408c4ae9647148c018640");
    ("standard", "romberg", "3x3",   "torus-xy", "cdcm", true,  "decompose",    "57ea7df2ce9764bfe63f7c8c249df94d");
  ]

let test_engine_pins_every_algorithm () =
  let engine, events = make_engine (temp_dir ()) in
  List.iteri
    (fun i (budget, app, noc, routing, model, incremental, algorithm, digest) ->
      let id = Printf.sprintf "pin-%d" i in
      let spec =
        Printf.sprintf
          {|{"id":%S,"app":{"builtin":%S},"noc":%S,"routing":%S,"model":%S,"algorithm":%S,"budget":%S,"seed":3,"incremental":%b}|}
          id app noc routing model algorithm budget incremental
      in
      (match Engine.submit engine ~source:"pin" spec with
      | Engine.Submitted -> ()
      | _ -> Alcotest.fail ("not admitted: " ^ spec));
      Engine.run_pending engine;
      match find_completed events id with
      | None -> Alcotest.fail ("no reply: " ^ spec)
      | Some result ->
        let json = Json.to_string result in
        Alcotest.(check string) (spec ^ " -> " ^ json) digest
          (Digest.to_hex (Digest.string json)))
    pinned;
  Engine.close engine

(* The result of one job run on a fresh engine. *)
let run_job_json spec =
  let engine, events = make_engine (temp_dir ()) in
  (match Engine.submit engine ~source:"test" spec with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail ("not admitted: " ^ spec));
  Engine.run_pending engine;
  Engine.close engine;
  match
    List.find_map
      (function Engine.Completed { result; _ } -> Some result | _ -> None)
      !events
  with
  | Some result -> result
  | None -> Alcotest.fail ("no reply: " ^ spec)

(* A greedy job reports its cost under the job's model, like every other
   algorithm: under CDCM it is the total energy of the placement. *)
let test_engine_greedy_cost_follows_model () =
  List.iter
    (fun algorithm ->
      let result =
        run_job_json
          (Printf.sprintf
             {|{"id":"g","app":{"builtin":"fft8"},"noc":"3x3","model":"cdcm","algorithm":%S}|}
             algorithm)
      in
      Alcotest.(check string) (algorithm ^ ": cost is the CDCM total")
        (Json.to_string (Json.get "total_j" (Json.get "energy" result)))
        (Json.to_string (Json.get "cost" result)))
    [ "greedy"; "greedy+local" ]

(* The oracle for one dispatch: the request `nocmap map` builds from its
   default flags and the one the engine decodes from the equivalent spec
   are equal, and the reply carries exactly the JSON of running it. *)
let test_cli_and_serve_requests_agree () =
  let cdcg = Option.get (Nocmap_apps.Catalog.find "romberg") in
  List.iter
    (fun (model, incremental) ->
      List.iter
        (fun algorithm ->
          let cli =
            {
              Request.cdcg;
              mesh = Nocmap_noc.Mesh.of_string "3x3";
              routing = Nocmap_noc.Routing.Xy;
              tech = Option.get (Nocmap_energy.Technology.of_name "0.07um");
              flit_bits = 16;
              model;
              algorithm;
              seed = 1;
              budget = Request.Standard;
              incremental;
              cache = true;
            }
          in
          let spec =
            Printf.sprintf
              {|{"id":"c","app":{"builtin":"romberg"},"model":%S,"algorithm":%S,"incremental":%b}|}
              (Request.model_to_string model)
              (Request.algorithm_to_string algorithm)
              incremental
          in
          (match Result.bind (Job_spec.of_string spec) Job_spec.to_request with
          | Ok serve -> Alcotest.(check bool) (spec ^ ": same request") true (cli = serve)
          | Error e -> Alcotest.fail e);
          Alcotest.(check string) (spec ^ ": same result JSON")
            (Json.to_string (Request.result_json (Request.run cli)))
            (Json.to_string (run_job_json spec)))
        Request.
          [
            Sa; Local; Greedy; Greedy_local; Random; Es;
            Portfolio Nocmap_mapping.Portfolio.all_strategies;
            Decompose Nocmap_mapping.Decompose.Sa;
          ])
    [ (Request.Cwm, false); (Request.Cdcm, false); (Request.Cdcm, true) ]

let test_engine_rejects_invalid () =
  let dir = temp_dir () in
  let engine, events = make_engine ~config:fast_config dir in
  (match Engine.submit engine ~source:"bad.json" "{{{" with
  | Engine.Invalid _ -> ()
  | _ -> Alcotest.fail "expected Invalid");
  (match !events with
  | [ Engine.Rejected { source = "bad.json"; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Rejected event");
  (* The engine survives hostile input: a good job still runs. *)
  (match Engine.submit engine ~source:"test" (quick_job "after") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "expected Submitted");
  Engine.run_pending engine;
  Alcotest.(check bool) "good job completed" true
    (find_completed events "after" <> None);
  Engine.close engine

(* A torus on a mesh too narrow to wrap is refused at admission: it is
   never queued or journaled, so it cannot fail later at run time. *)
let test_engine_rejects_narrow_torus () =
  let dir = temp_dir () in
  let engine, events = make_engine ~config:fast_config dir in
  let spec =
    {|{"id":"t","app":{"builtin":"fft8"},"noc":"2x3","routing":"torus-xy","budget":"quick"}|}
  in
  (match Engine.submit engine ~source:"torus.json" spec with
  | Engine.Invalid msg ->
    Test_util.check_contains ~msg:"names the field" ~needle:"field \"routing\"" msg
  | _ -> Alcotest.fail "expected Invalid");
  Alcotest.(check int) "nothing queued" 0 (Engine.queue_depth engine);
  Engine.run_pending engine;
  (match !events with
  | [ Engine.Rejected { source = "torus.json"; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Rejected event");
  Engine.close engine

let test_engine_duplicate () =
  let dir = temp_dir () in
  let engine, _events = make_engine ~config:fast_config dir in
  (match Engine.submit engine ~source:"a" (quick_job "dup") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "expected Submitted");
  (match Engine.submit engine ~source:"b" (quick_job "dup") with
  | Engine.Duplicate -> ()
  | _ -> Alcotest.fail "expected Duplicate");
  Alcotest.(check int) "queued once" 1 (Engine.queue_depth engine);
  Engine.close engine

let test_engine_sheds_overload () =
  let dir = temp_dir () in
  let config = { fast_config with Engine.max_queue = 2 } in
  let engine, events = make_engine ~config dir in
  let shed_before = Metrics.counter_value (Metrics.counter "serve.jobs_shed") in
  (match Engine.submit engine ~source:"t" (quick_job "q1") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "q1");
  (match Engine.submit engine ~source:"t" (quick_job "q2") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "q2");
  (match Engine.submit engine ~source:"t" (quick_job "q3") with
  | Engine.Overloaded -> ()
  | _ -> Alcotest.fail "expected Overloaded");
  Alcotest.(check bool) "shed event" true
    (List.exists (function Engine.Shed { id = "q3" } -> true | _ -> false) !events);
  Metrics.with_enabled true (fun () ->
      match Engine.submit engine ~source:"t" (quick_job "q4") with
      | Engine.Overloaded ->
        Alcotest.(check bool) "serve.jobs_shed bumped" true
          (Metrics.counter_value (Metrics.counter "serve.jobs_shed") > shed_before)
      | _ -> Alcotest.fail "expected Overloaded");
  Alcotest.(check bool) "no capacity" false (Engine.has_capacity engine);
  (* Shedding is not sticky: draining restores capacity. *)
  Engine.run_pending engine;
  Alcotest.(check bool) "capacity restored" true (Engine.has_capacity engine);
  (match Engine.submit engine ~source:"t" (quick_job "q5") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "q5 after drain");
  Engine.close engine

let test_engine_timeout () =
  let dir = temp_dir () in
  (* Virtual clock: every glance at the time costs 10 ms, so a 50 ms
     budget dies deterministically a few stop-polls in. *)
  let clock = ref 0 in
  let config =
    { fast_config with Engine.now_ms = (fun () -> clock := !clock + 10; !clock) }
  in
  let engine, events = make_engine ~config dir in
  (match
     Engine.submit engine ~source:"t"
       (quick_job ~timeout:{|,"timeout_ms":50|} "slow")
   with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "expected Submitted");
  Engine.run_pending engine;
  (match find_failed events "slow" with
  | Some reason -> Test_util.check_contains ~msg:"timeout reason" ~needle:"timeout" reason
  | None -> Alcotest.fail "expected a Failed event");
  Alcotest.(check int) "job consumed" 0 (Engine.queue_depth engine);
  Engine.close engine

let test_engine_isolates_failures () =
  let dir = temp_dir () in
  let engine, events = make_engine ~config:fast_config dir in
  let broken =
    {|{"id":"broken","app":{"path":"/nonexistent/app.cdcg"},"noc":"3x3","budget":"quick"}|}
  in
  (match Engine.submit engine ~source:"t" broken with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "broken admits (failure is at run time)");
  (match Engine.submit engine ~source:"t" (quick_job "healthy") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "healthy admits");
  Engine.run_pending engine;
  (match find_failed events "broken" with
  | Some reason ->
    Test_util.check_contains ~msg:"failure names the file" ~needle:"app.cdcg" reason
  | None -> Alcotest.fail "expected broken to fail");
  Alcotest.(check bool) "healthy job unaffected" true
    (find_completed events "healthy" <> None);
  Engine.close engine

let test_engine_admission_failure () =
  let dir = temp_dir () in
  let engine, _ = make_engine ~config:fast_config dir in
  Engine.close engine;
  (* The journal is gone: admission must fail loudly, not enqueue. *)
  match Engine.submit engine ~source:"t" (quick_job "ghost") with
  | Engine.Admission_failed _ -> ()
  | Engine.Submitted -> Alcotest.fail "admitted a job the journal never saw"
  | _ -> Alcotest.fail "expected Admission_failed"

(* --- crash recovery --- *)

let run_to_completion dir =
  let engine, events = make_engine ~config:fast_config dir in
  (match Engine.submit engine ~source:"t" (quick_job "crashy") with
  | Engine.Submitted | Engine.Duplicate -> ()
  | _ -> Alcotest.fail "submit");
  Engine.run_pending engine;
  Engine.close engine;
  match find_completed events "crashy" with
  | Some result -> Json.to_string result
  | None -> Alcotest.fail "no result"

let interrupted_then_resumed stop_at =
  let dir = temp_dir () in
  let engine, events = make_engine ~config:fast_config dir in
  (match Engine.submit engine ~source:"t" (quick_job "crashy") with
  | Engine.Submitted -> ()
  | _ -> Alcotest.fail "submit");
  Engine.run_pending ~stop:(stop_after stop_at) engine;
  Engine.close engine;
  (* The interrupted job must still be pending, never silently dropped. *)
  (match find_completed events "crashy" with
  | Some r -> Some (Json.to_string r)  (* stop landed after the finish line *)
  | None ->
    let engine2, _ = make_engine ~config:fast_config dir in
    Alcotest.(check (list string)) "job survived the crash" [ "crashy" ]
      (Engine.pending engine2);
    Engine.close engine2;
    None)
  |> function
  | Some early -> early
  | None ->
    (* Second incarnation over the same state directory. *)
    let engine2, events2 = make_engine ~config:fast_config dir in
    Engine.run_pending engine2;
    Engine.close engine2;
    (match find_completed events2 "crashy" with
    | Some result -> Json.to_string result
    | None -> Alcotest.fail "resumed run did not complete")

let test_engine_resumes_bit_identically () =
  let reference = run_to_completion (temp_dir ()) in
  List.iter
    (fun stop_at ->
      Alcotest.(check string)
        (Printf.sprintf "stop at poll %d" stop_at)
        reference
        (interrupted_then_resumed stop_at))
    [ 1; 3; 10 ]

let crash_recovery_prop =
  QCheck2.Test.make ~name:"kill at a random poll resumes bit-identically"
    ~count:(Test_util.prop_count 6)
    QCheck2.Gen.(1 -- 60)
    (fun stop_at ->
      let reference = run_to_completion (temp_dir ()) in
      String.equal reference (interrupted_then_resumed stop_at))

let test_engine_replays_finished () =
  let dir = temp_dir () in
  let first = run_to_completion dir in
  (* Same directory again: nothing pending, result replayed verbatim. *)
  let engine, events = make_engine ~config:fast_config dir in
  Alcotest.(check (list string)) "nothing pending" [] (Engine.pending engine);
  Alcotest.(check bool) "known id replays" true (Engine.emit_finished engine "crashy");
  Alcotest.(check bool) "unknown id does not" false (Engine.emit_finished engine "nope");
  (match List.rev !events with
  | [ Engine.Completed { id = "crashy"; replayed = true; result } ] ->
    Alcotest.(check string) "bit-identical replay" first (Json.to_string result)
  | _ -> Alcotest.fail "expected one replayed Completed event");
  Engine.close engine

(* fft8, imgenc and imgenc-long all place 6 cores on a 3x2 mesh, so
   the engine's shared caches once served one application the costs of
   another: a job's reply must not depend on the jobs run before it. *)
let reply_after ~history job =
  let engine, events = make_engine ~config:fast_config (temp_dir ()) in
  List.iter
    (fun text ->
      match Engine.submit engine ~source:"t" text with
      | Engine.Submitted -> ()
      | _ -> Alcotest.fail "submit")
    (history @ [ job ]);
  Engine.run_pending engine;
  Engine.close engine;
  match find_completed events "last" with
  | Some result -> Json.to_string result
  | None -> Alcotest.fail "job did not complete"

let test_engine_history_independent () =
  List.iter
    (fun (model, algorithm) ->
      let job ~id ~app ~seed =
        Printf.sprintf
          {|{"id":%S,"app":{"builtin":%S},"noc":"3x2","model":%S,"algorithm":%S,"budget":"quick","seed":%d}|}
          id app model algorithm seed
      in
      let last = job ~id:"last" ~app:"imgenc" ~seed:7 in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s reply after other apps" model algorithm)
        (reply_after ~history:[] last)
        (reply_after
           ~history:
             [ job ~id:"a" ~app:"fft8" ~seed:3; job ~id:"b" ~app:"imgenc-long" ~seed:5 ]
           last))
    [ ("cwm", "local"); ("cdcm", "sa") ]

let test_engine_rejects_foreign_journal () =
  let dir = temp_dir () in
  let store = Nocmap_persist.Store.open_ ~dir in
  let path = Nocmap_persist.Store.shard_path store ~key:"serve.jobs" in
  let j =
    Nocmap_persist.Journal.create ~path
      ~meta:(Json.Assoc [ ("kind", Json.Str "something-else") ])
  in
  Nocmap_persist.Journal.close j;
  (* Open descriptors, where the platform lists them. *)
  let open_fds () =
    match Sys.readdir "/proc/self/fd" with
    | fds -> Some (Array.length fds)
    | exception Sys_error _ -> None
  in
  let rejected ~needle dir =
    let before = open_fds () in
    for _ = 1 to 3 do
      match Engine.create ~config:fast_config ~dir () with
      | Ok _ -> Alcotest.fail "opened an unusable journal"
      | Error msg -> Test_util.check_contains ~msg:"names the problem" ~needle msg
    done;
    Alcotest.(check (option int)) "no descriptor left open" before (open_fds ())
  in
  rejected ~needle:"serve" dir;
  (* A serve journal whose records do not replay is closed too. *)
  let dir = temp_dir () in
  let engine, _ = make_engine ~config:fast_config dir in
  Engine.close engine;
  let path =
    Nocmap_persist.Store.shard_path (Nocmap_persist.Store.open_ ~dir) ~key:"serve.jobs"
  in
  (match Nocmap_persist.Journal.reopen ~path with
  | Ok (j, _) ->
    Nocmap_persist.Journal.append_exn j (Json.Assoc [ ("type", Json.Str "bogus") ]);
    Nocmap_persist.Journal.close j
  | Error msg -> Alcotest.fail msg);
  rejected ~needle:"unknown record type" dir

let test_serve_metrics_registered () =
  Metrics.with_enabled true (fun () ->
      let dir = temp_dir () in
      let engine, _ = make_engine ~config:fast_config dir in
      ignore (Engine.submit engine ~source:"t" (quick_job "m1"));
      Engine.run_pending engine;
      Engine.close engine;
      let names = List.map (fun s -> s.Metrics.name) (Metrics.snapshot ()) in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [
          "serve.jobs_accepted"; "serve.jobs_completed"; "serve.jobs_failed";
          "serve.jobs_rejected"; "serve.jobs_shed"; "serve.jobs_retried";
          "serve.jobs_replayed"; "serve.queue_depth"; "serve.job_latency_ms";
        ])

(* --- spool --- *)

let make_spool dir =
  match Spool.create ~dir with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_spool_ingest () =
  let dir = temp_dir () in
  let spool = make_spool (Filename.concat dir "spool") in
  let engine, events = make_engine ~config:fast_config (Filename.concat dir "state") in
  write_file (Filename.concat (Spool.incoming_dir spool) "a.json") (quick_job "sp-a");
  write_file (Filename.concat (Spool.incoming_dir spool) "b.json") "binary\000garbage";
  let stats = Spool.ingest spool engine in
  Alcotest.(check int) "submitted" 1 stats.Spool.submitted;
  Alcotest.(check int) "rejected" 1 stats.Spool.rejected_;
  Alcotest.(check bool) "bad file moved aside" true
    (Sys.file_exists (Filename.concat (Spool.rejected_dir spool) "b.json"));
  Alcotest.(check bool) "reason recorded" true
    (Sys.file_exists (Filename.concat (Spool.rejected_dir spool) "b.json.error"));
  Alcotest.(check bool) "incoming consumed" true
    (not (Sys.file_exists (Filename.concat (Spool.incoming_dir spool) "a.json")));
  Engine.run_pending engine;
  Alcotest.(check bool) "spool job completed" true
    (find_completed events "sp-a" <> None);
  Engine.close engine

let test_spool_backpressure () =
  let dir = temp_dir () in
  let spool = make_spool (Filename.concat dir "spool") in
  let config = { fast_config with Engine.max_queue = 1 } in
  let engine, _ = make_engine ~config (Filename.concat dir "state") in
  write_file (Filename.concat (Spool.incoming_dir spool) "a.json") (quick_job "bp-a");
  write_file (Filename.concat (Spool.incoming_dir spool) "b.json") (quick_job "bp-b");
  let stats = Spool.ingest spool engine in
  Alcotest.(check int) "one admitted" 1 stats.Spool.submitted;
  Alcotest.(check int) "one deferred, not shed" 1 stats.Spool.deferred;
  Alcotest.(check bool) "deferred file still waiting" true
    (Sys.file_exists (Filename.concat (Spool.incoming_dir spool) "b.json"));
  Engine.run_pending engine;
  let stats2 = Spool.ingest spool engine in
  Alcotest.(check int) "picked up after drain" 1 stats2.Spool.submitted;
  Engine.close engine

let test_spool_replies () =
  let dir = temp_dir () in
  let spool = make_spool (Filename.concat dir "spool") in
  let done_line = Json.Assoc [ ("status", Json.Str "done"); ("id", Json.Str "r-1") ] in
  Alcotest.(check bool) "no final yet" false (Spool.reply_has_final spool ~id:"r-1");
  Spool.append_reply spool ~id:"r-1"
    (Json.Assoc [ ("status", Json.Str "accepted"); ("id", Json.Str "r-1") ]);
  Alcotest.(check bool) "accepted is not final" false
    (Spool.reply_has_final spool ~id:"r-1");
  Spool.append_reply spool ~id:"r-1" done_line;
  Alcotest.(check bool) "done is final" true (Spool.reply_has_final spool ~id:"r-1")

let test_spool_duplicate_replays () =
  let dir = temp_dir () in
  let spool = make_spool (Filename.concat dir "spool") in
  let state = Filename.concat dir "state" in
  let engine, _ = make_engine ~config:fast_config state in
  write_file (Filename.concat (Spool.incoming_dir spool) "a.json") (quick_job "dup-a");
  ignore (Spool.ingest spool engine);
  Engine.run_pending engine;
  Engine.close engine;
  (* Same spec dropped in again after a restart: consumed as a replay,
     not re-run and not rejected. *)
  let engine2, events2 = make_engine ~config:fast_config state in
  write_file (Filename.concat (Spool.incoming_dir spool) "a.json") (quick_job "dup-a");
  let stats = Spool.ingest spool engine2 in
  Alcotest.(check int) "replayed" 1 stats.Spool.replayed;
  Alcotest.(check bool) "replay event emitted" true
    (List.exists
       (function Engine.Completed { replayed = true; _ } -> true | _ -> false)
       !events2);
  Alcotest.(check int) "nothing queued" 0 (Engine.queue_depth engine2);
  Engine.close engine2

let suite =
  ( "serve",
    [
      Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
      Alcotest.test_case "backoff validation" `Quick test_backoff_validation;
      Alcotest.test_case "backoff retry recovers" `Quick test_backoff_retry_recovers;
      Alcotest.test_case "backoff retry gives up" `Quick test_backoff_retry_gives_up;
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "spec defaults" `Quick test_spec_defaults;
      Alcotest.test_case "spec 3-D noc" `Quick test_spec_noc3d;
      Alcotest.test_case "spec rejections" `Quick test_spec_rejections;
      Alcotest.test_case "spec app resolution" `Quick test_spec_resolve;
      Alcotest.test_case "spec portfolio strategies" `Quick test_spec_portfolio;
      Alcotest.test_case "spec portfolio rejections" `Quick
        test_spec_portfolio_rejections;
      Alcotest.test_case "spec rejects unknown fields" `Quick test_spec_unknown_fields;
      QCheck_alcotest.to_alcotest hostile_spec_prop;
      Alcotest.test_case "engine runs a job" `Quick test_engine_runs_job;
      Alcotest.test_case "engine runs a portfolio job" `Quick
        test_engine_portfolio_job;
      Alcotest.test_case "engine pins every algorithm and model" `Quick
        test_engine_pins_every_algorithm;
      Alcotest.test_case "engine greedy cost follows the model" `Quick
        test_engine_greedy_cost_follows_model;
      Alcotest.test_case "cli and serve requests agree" `Quick
        test_cli_and_serve_requests_agree;
      Alcotest.test_case "engine rejects invalid input" `Quick test_engine_rejects_invalid;
      Alcotest.test_case "engine refuses duplicates" `Quick test_engine_duplicate;
      Alcotest.test_case "engine sheds overload" `Quick test_engine_sheds_overload;
      Alcotest.test_case "engine enforces per-job timeout" `Quick test_engine_timeout;
      Alcotest.test_case "engine isolates job failures" `Quick
        test_engine_isolates_failures;
      Alcotest.test_case "engine refuses unjournaled admission" `Quick
        test_engine_admission_failure;
      Alcotest.test_case "engine resumes bit-identically" `Slow
        test_engine_resumes_bit_identically;
      QCheck_alcotest.to_alcotest crash_recovery_prop;
      Alcotest.test_case "engine replays finished jobs" `Quick
        test_engine_replays_finished;
      Alcotest.test_case "engine rejects a foreign journal" `Quick
        test_engine_rejects_foreign_journal;
      Alcotest.test_case "engine replies independent of other apps' jobs" `Quick
        test_engine_history_independent;
      Alcotest.test_case "serve metrics registered" `Quick test_serve_metrics_registered;
      Alcotest.test_case "spool ingest" `Quick test_spool_ingest;
      Alcotest.test_case "spool backpressure defers" `Quick test_spool_backpressure;
      Alcotest.test_case "spool reply finality" `Quick test_spool_replies;
      Alcotest.test_case "spool duplicate replays" `Quick test_spool_duplicate_replays;
      Alcotest.test_case "engine rejects a narrow torus at admission" `Quick
        test_engine_rejects_narrow_torus;
    ] )
