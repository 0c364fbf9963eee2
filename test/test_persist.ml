(* Crash-safe checkpointing: journal framing, corruption handling, and
   the headline guarantee — a search (or whole driver run) killed at an
   arbitrary point and resumed from its journal is bit-identical to the
   uninterrupted run. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Generator = Nocmap_tgff.Generator
module Json = Nocmap_persist.Json
module Journal = Nocmap_persist.Journal
module Store = Nocmap_persist.Store
module Fsutil = Nocmap_persist.Fsutil
module Fig1 = Nocmap_apps.Fig1

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".ckpt" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

(* A sticky eval-budget stop: false for the first [n] polls, true ever
   after — the deterministic stand-in for a SIGKILL mid-search. *)
let stop_after n =
  let calls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add calls 1 >= n

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_result msg (expected : Mapping.Objective.search_result) actual =
  Alcotest.(check (array int))
    (msg ^ ": placement") expected.Mapping.Objective.placement
    actual.Mapping.Objective.placement;
  Alcotest.(check bool)
    (msg ^ ": cost bit-identical") true
    (same_float expected.Mapping.Objective.cost actual.Mapping.Objective.cost);
  Alcotest.(check int)
    (msg ^ ": evaluations") expected.Mapping.Objective.evaluations
    actual.Mapping.Objective.evaluations

(* --- journal framing --- *)

let meta = Json.Assoc [ ("who", Json.Str "test"); ("n", Json.Int 3) ]

let records =
  [
    Json.Assoc [ ("step", Json.Int 1) ];
    Json.Assoc [ ("step", Json.Int 2); ("cost", Json.float_ 0.125) ];
    Json.Str "finale";
  ]

let test_journal_roundtrip () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  List.iter (Journal.append_exn j) records;
  Journal.close j;
  let loaded =
    match Journal.load ~path with Ok l -> l | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "meta preserved" true (loaded.Journal.meta = meta);
  Alcotest.(check bool) "records preserved" true (loaded.Journal.records = records);
  Alcotest.(check bool) "no torn tail" false loaded.Journal.dropped_tail

let test_journal_drops_torn_tail () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  List.iter (Journal.append_exn j) records;
  Journal.close j;
  (* Simulate a crash mid-append: a final line with no newline. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"crc\":\"deadbeef\",\"data\":{\"step\"";
  close_out oc;
  let j, loaded =
    match Journal.reopen ~path with Ok v -> v | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "tail dropped" true loaded.Journal.dropped_tail;
  Alcotest.(check bool) "records intact" true (loaded.Journal.records = records);
  (* The torn bytes are truncated away, so appending keeps the file sane. *)
  Journal.append_exn j (Json.Str "after-crash");
  Journal.close j;
  let reloaded =
    match Journal.load ~path with Ok l -> l | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "append after reopen" true
    (reloaded.Journal.records = records @ [ Json.Str "after-crash" ])

let test_journal_bad_crc_is_loud () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  List.iter (Journal.append_exn j) records;
  Journal.close j;
  (* Flip one payload byte of a complete (newline-terminated) record. *)
  let contents = Fsutil.read_file path in
  let target = "{\"step\":1}" in
  let idx =
    let rec find i =
      if String.sub contents i (String.length target) = target then i
      else find (i + 1)
    in
    find 0
  in
  let corrupted = Bytes.of_string contents in
  Bytes.set corrupted (idx + String.length "{\"step\":") '7';
  Fsutil.write_atomic ~path (Bytes.to_string corrupted);
  match Journal.load ~path with
  | Ok _ -> Alcotest.fail "corrupt record silently accepted"
  | Error e ->
    Alcotest.(check bool) "error names the file" true
      (String.length e > 0 && String.sub e 0 (String.length path) = path)

(* A failed append must come back as a typed error the serve engine can
   triage: closed-channel failures are permanent (retrying is pointless),
   and both the [result] and exception paths carry the journal path. *)
let test_journal_append_error_is_typed () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  Journal.close j;
  (match Journal.append j (Json.Str "late") with
  | Ok () -> Alcotest.fail "append on a closed journal succeeded"
  | Error e ->
    Alcotest.(check string) "error names the journal" path e.Journal.journal_path;
    Alcotest.(check bool)
      "closed channel is not retryable" false e.Journal.retryable;
    Alcotest.(check bool) "reason is populated" true
      (String.length e.Journal.reason > 0));
  (match Journal.append_exn j (Json.Str "late") with
  | () -> Alcotest.fail "append_exn on a closed journal succeeded"
  | exception Journal.Append_failed e ->
    Alcotest.(check string) "exception names the journal" path
      e.Journal.journal_path;
    Alcotest.(check bool) "exception not retryable" false e.Journal.retryable);
  Sys.remove path

(* --- store memoization --- *)

let test_memoize_replays () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  let calls = ref 0 in
  let f () =
    incr calls;
    Json.Assoc [ ("answer", Json.Int 42) ]
  in
  let meta = Json.Assoc [ ("inputs", Json.Str "x") ] in
  let a = Store.memoize store ~key:"k" ~meta f in
  let b = Store.memoize store ~key:"k" ~meta f in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check bool) "replayed value" true (a = b)

let test_memoize_meta_mismatch_is_loud () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  let f () = Json.Int 1 in
  ignore (Store.memoize store ~key:"k" ~meta:(Json.Str "run-a") f);
  Alcotest.(check bool) "mismatch raises" true
    (match Store.memoize store ~key:"k" ~meta:(Json.Str "run-b") f with
    | exception Failure _ -> true
    | _ -> false)

(* --- search kill + resume --- *)

let crg = Crg.create (Mesh.create ~cols:2 ~rows:2)

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

let objective =
  Mapping.Objective.cdcm ~tech ~params:Noc_params.paper_example ~crg
    ~cdcg:Fig1.cdcg ()

let sa_config =
  {
    (Mapping.Annealing.default_config ~tiles:4) with
    Mapping.Annealing.max_evaluations = 2_000;
  }

let sa_reference seed =
  Mapping.Annealing.search ~rng:(Rng.create ~seed) ~config:sa_config ~tiles:4
    ~objective ~cores:4 ()

let sa_persisted ~store ?stop seed =
  Mapping.Search_persist.refine ~store ~key:"sa" ~every:100
    ~rng:(Rng.create ~seed) (Mapping.Refiner.Sa sa_config) ~tiles:4 ~objective
    ?stop ~cores:4 ()

let prop_sa_kill_resume_bit_identical =
  QCheck2.Test.make ~name:"SA killed at any point resumes bit-identically"
    ~count:15
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 2_500))
    (fun (seed, kill_at) ->
      let reference = sa_reference seed in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (sa_persisted ~store ~stop:(stop_after kill_at) seed);
      let resumed = sa_persisted ~store seed in
      let replayed = sa_persisted ~store seed in
      check_result "resumed vs uninterrupted" reference resumed;
      check_result "replayed vs uninterrupted" reference replayed;
      true)

let ls_initial = [| 2; 0; 3; 1 |]

let ls_reference () =
  Mapping.Local_search.search ~objective ~tiles:4 ~initial:ls_initial ()

let ls_persisted ~store ?stop () =
  Mapping.Search_persist.refine ~store ~key:"ls" ~every:3
    ~rng:(Rng.create ~seed:0) (Mapping.Refiner.Local 100_000) ~tiles:4
    ~objective ~initial:ls_initial ?stop ~cores:4 ()

(* Every kill point, not a sample: the descent is only a few passes
   long, and a stop landing inside the pass that proves the local
   optimum is a single poll. *)
let test_ls_kill_resume_bit_identical () =
  let reference = ls_reference () in
  for kill_at = 0 to 40 do
    let store = Store.open_ ~dir:(temp_dir ()) in
    ignore (ls_persisted ~store ~stop:(stop_after kill_at) ());
    let resumed = ls_persisted ~store () in
    check_result
      (Printf.sprintf "kill %d: resumed vs uninterrupted" kill_at)
      reference resumed
  done

(* A checkpoint cadence that never fires must not perturb the search:
   the persisted run falls out of the journal as one done record. *)
let test_sa_persisted_matches_plain () =
  let reference = sa_reference 7 in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let persisted = sa_persisted ~store 7 in
  check_result "persisted vs plain" reference persisted

(* --- driver kill + resume --- *)

let small_instance seed =
  let spec =
    Generator.default_spec ~name:"exp" ~cores:5 ~packets:24 ~total_bits:6_000
  in
  (Mesh.create ~cols:3 ~rows:2, Generator.generate (Rng.create ~seed) spec)

let table2_instances = [ small_instance 41; small_instance 42 ]

let table2_run ?pool ?stop ?persist () =
  Nocmap.Table2.render
    (Nocmap.Table2.run ~config:Nocmap.Experiment.quick_config
       ~instances:table2_instances ?pool ?stop ?persist ~seed:41 ())

let table2_kill_resume ?pool kill_at =
  let reference = table2_run () in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let persist () = Nocmap.Experiment.persist ~scope:"t2" ~every:50 store in
  ignore (table2_run ?pool ~stop:(stop_after kill_at) ~persist:(persist ()) ());
  let resumed = table2_run ~persist:(persist ()) () in
  Alcotest.(check string) "resumed table bit-identical" reference resumed

let test_table2_kill_resume () = table2_kill_resume 300

let test_table2_kill_resume_pooled () =
  Domain_pool.with_pool ~jobs:4 (fun pool -> table2_kill_resume ~pool 300)

let test_faults_kill_resume () =
  let mesh = Mesh.create ~cols:2 ~rows:3 in
  let cdcg = Option.get (Nocmap_apps.Catalog.find "fft8") in
  let config =
    {
      Nocmap.Fault_campaign.default_config with
      Nocmap.Fault_campaign.experiment = Nocmap.Experiment.quick_config;
      multi_fault_count = 4;
    }
  in
  let run ?stop ?persist () =
    Nocmap.Fault_campaign.run ~config ?stop ?persist ~mesh ~seed:11 cdcg
  in
  let reference = run () in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let persist () = Nocmap.Experiment.persist ~scope:"faults" ~every:50 store in
  ignore (run ~stop:(stop_after 200) ~persist:(persist ()) ());
  let resumed = run ~persist:(persist ()) () in
  Alcotest.(check bool) "campaign record bit-identical" true
    (compare reference resumed = 0);
  Alcotest.(check string) "campaign CSV bit-identical"
    (Nocmap.Fault_campaign.to_csv reference)
    (Nocmap.Fault_campaign.to_csv resumed)

(* Resuming over a store whose fingerprint disagrees with the search
   must fail loudly, not silently mix two runs. *)
let test_resume_fingerprint_mismatch_is_loud () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (sa_persisted ~store ~stop:(stop_after 500) 3);
  Alcotest.(check bool) "different seed rejected" true
    (match sa_persisted ~store 4 with
    | exception Failure _ -> true
    | _ -> false)

let suite =
  ( "persist",
    [
      Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal drops torn tail" `Quick
        test_journal_drops_torn_tail;
      Alcotest.test_case "journal bad CRC is loud" `Quick
        test_journal_bad_crc_is_loud;
      Alcotest.test_case "journal append error is typed" `Quick
        test_journal_append_error_is_typed;
      Alcotest.test_case "memoize replays" `Quick test_memoize_replays;
      Alcotest.test_case "memoize meta mismatch is loud" `Quick
        test_memoize_meta_mismatch_is_loud;
      QCheck_alcotest.to_alcotest prop_sa_kill_resume_bit_identical;
      Alcotest.test_case
        "local search killed at any point resumes bit-identically" `Quick
        test_ls_kill_resume_bit_identical;
      Alcotest.test_case "persisted SA matches plain SA" `Quick
        test_sa_persisted_matches_plain;
      Alcotest.test_case "table2 kill+resume bit-identical" `Quick
        test_table2_kill_resume;
      Alcotest.test_case "table2 pooled kill+resume bit-identical" `Quick
        test_table2_kill_resume_pooled;
      Alcotest.test_case "fault campaign kill+resume bit-identical" `Quick
        test_faults_kill_resume;
      Alcotest.test_case "resume fingerprint mismatch is loud" `Quick
        test_resume_fingerprint_mismatch_is_loud;
    ] )
