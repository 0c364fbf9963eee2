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
    Alcotest.(check bool) "round-trips" true (spec = again);
    Alcotest.(check string) "fingerprint is stable" (Job_spec.fingerprint spec)
      (Job_spec.fingerprint again)

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
  expect_invalid ~needle:"tech" {|{"id":"x","app":{"builtin":"fig1"},"tech":"1um"}|}

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
  match Engine.create ~config:fast_config ~dir () with
  | Ok _ -> Alcotest.fail "opened a foreign journal"
  | Error msg -> Test_util.check_contains ~msg:"names the problem" ~needle:"serve" msg

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
      QCheck_alcotest.to_alcotest hostile_spec_prop;
      Alcotest.test_case "engine runs a job" `Quick test_engine_runs_job;
      Alcotest.test_case "engine runs a portfolio job" `Quick
        test_engine_portfolio_job;
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
    ] )
