(* The on-disk journal format, pinned.  Every search kind writes one
   shard whose bytes are recorded here as MD5 digests, three ways:
   killed by a deterministic stop, after resuming that killed shard to
   completion, and uninterrupted.  Any change to a header field, a
   checkpoint codec, a record tag or the checkpoint cadence moves a
   digest — and would strand the journals earlier builds wrote.  The
   digests were recorded with the per-searcher journaling wrappers that
   {!Mapping.Search_persist.refine} replaced, and the fault campaign's
   digest before its memo shards moved onto the shared shard protocol.

   The decoders are pinned the same way: every record of those shards,
   decoded and encoded again, must reproduce its bytes.  A record that
   passes its CRC but cannot be decoded must fail naming the shard. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Store = Nocmap_persist.Store
module Journal = Nocmap_persist.Journal
module Json = Nocmap_persist.Json
module Fsutil = Nocmap_persist.Fsutil
module Fig1 = Nocmap_apps.Fig1
module Scale = Nocmap_tgff.Scale

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".ckpt" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

let stop_after n =
  let calls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add calls 1 >= n

let never () = false

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

(* Single searches and the portfolio: Figure 1 on a 2x2 mesh under CDCM. *)
let fig1_crg = Crg.create (Mesh.create ~cols:2 ~rows:2)

let fig1_objective () =
  Mapping.Objective.cdcm ~tech ~params:Noc_params.paper_example ~crg:fig1_crg
    ~cdcg:Fig1.cdcg ()

let refine ?initial ~every refiner ~store ~stop =
  ignore
    (Mapping.Search_persist.refine ~store ~key:"k" ~every
       ~rng:(Rng.create ~seed:3) refiner ~tiles:4 ~objective:(fig1_objective ())
       ?initial ~stop ~cores:4 ())

let sa =
  refine ~every:100
    (Mapping.Refiner.Sa
       {
         (Mapping.Annealing.default_config ~tiles:4) with
         Mapping.Annealing.max_evaluations = 2_000;
       })

let tabu =
  refine ~every:20 ~initial:[| 2; 0; 3; 1 |]
    (Mapping.Refiner.Tabu (Mapping.Tabu.quick_config ~tiles:4))

let ga =
  refine ~every:20 (Mapping.Refiner.Genetic (Mapping.Genetic.quick_config ~tiles:4))

let ls ~store ~stop =
  ignore
    (Mapping.Search_persist.refine ~store ~key:"k" ~every:3
       ~rng:(Rng.create ~seed:3) (Mapping.Refiner.Local 100_000) ~tiles:4
       ~objective:(fig1_objective ()) ~initial:[| 2; 0; 3; 1 |] ~stop ~cores:4
       ())

let portfolio ~store ~stop =
  ignore
    (Mapping.Search_persist.portfolio ~store ~key:"k" ~every:100
       ~rng:(Rng.create ~seed:3)
       ~config:(Mapping.Portfolio.quick_config ~tiles:4)
       ~strategies:Mapping.Portfolio.all_strategies ~tech ~crg:fig1_crg
       ~cwg:Fig1.cwg ~objective_name:"cdcm"
       ~objective_for:(fun _ -> fig1_objective ())
       ~stop ())

(* Decompose: 12 cores of a random CWG under CWM, regions of at most
   four cores, on a 4x4 mesh or a 2x2x4 stack (whose regions split
   along the layers, so their rectangles carry z and d). *)
let decompose ?(mesh = Mesh.create ~cols:4 ~rows:4) refiner ~store ~stop =
  let crg = Crg.create mesh in
  let cwg =
    Scale.random_cwg (Rng.create ~seed:1) ~name:"golden" ~cores:12 ~degree:3
      ~max_volume:1_000
  in
  let config =
    {
      (Mapping.Decompose.quick_config ~tiles:16) with
      Mapping.Decompose.max_region = 4;
      refiner;
    }
  in
  ignore
    (Mapping.Search_persist.decompose ~store ~key:"k" ~every:50
       ~rng:(Rng.create ~seed:3) ~config ~crg ~cwg ~objective_name:"cwm"
       ~objective_for:(fun () -> Mapping.Objective.cwm ~tech ~crg ~cwg)
       ~stop ())

let shard store = Store.shard_path store ~key:"k"
let digest store = Digest.to_hex (Digest.file (shard store))

(* [visit] the killed, the resumed and the uninterrupted shard of one
   search. *)
let three_ways run ~kill_at visit =
  let store = Store.open_ ~dir:(temp_dir ()) in
  run ~store ~stop:(stop_after kill_at);
  let killed = visit store in
  run ~store ~stop:never;
  let resumed = visit store in
  let fresh = Store.open_ ~dir:(temp_dir ()) in
  run ~store:fresh ~stop:never;
  (killed, resumed, visit fresh)

let load store = Result.get_ok (Journal.load ~path:(shard store))

let payload record =
  match Json.get "type" record with
  | Json.Str "progress" -> (`Progress, Json.get "state" record)
  | _ -> (`Done, Json.get "value" record)

let recodes store =
  let loaded = load store in
  let algorithm = Json.to_str (Json.get "algorithm" loaded.Journal.meta) in
  List.iter
    (fun record ->
      let kind, value = payload record in
      Alcotest.(check string) "record re-encoded from its decoded value"
        (Json.to_string value)
        (Json.to_string (Mapping.Search_persist.recode ~algorithm kind value)))
    loaded.Journal.records

let golden name run ~kill_at expected =
  Alcotest.test_case name `Quick (fun () ->
      let killed, resumed, uninterrupted =
        three_ways run ~kill_at (fun store ->
            recodes store;
            digest store)
      in
      let e_killed, e_resumed, e_uninterrupted = expected in
      Alcotest.(check string) "killed shard" e_killed killed;
      Alcotest.(check string) "resumed shard" e_resumed resumed;
      Alcotest.(check string) "uninterrupted shard" e_uninterrupted uninterrupted)

(* Rewrites the shard, under valid CRCs, with the last field of its last
   record's payload left out; returns that field's name. *)
let drop_last_field store =
  let loaded = load store in
  let journal = Journal.create ~path:(shard store) ~meta:loaded.Journal.meta in
  let rec rewrite = function
    | [ Json.Assoc [ tag; (key, Json.Assoc fields) ] ] ->
      let kept = List.filteri (fun i _ -> i < List.length fields - 1) fields in
      Journal.append_exn journal (Json.Assoc [ tag; (key, Json.Assoc kept) ]);
      fst (List.nth fields (List.length fields - 1))
    | record :: rest ->
      Journal.append_exn journal record;
      rewrite rest
    | [] -> Alcotest.fail "empty shard"
  in
  let dropped = rewrite loaded.Journal.records in
  Journal.close journal;
  dropped

let unreadable name run ~kill_at =
  Alcotest.test_case name `Quick (fun () ->
      let store = Store.open_ ~dir:(temp_dir ()) in
      run ~store ~stop:(stop_after kill_at);
      let field = drop_last_field store in
      match run ~store ~stop:never with
      | () -> Alcotest.fail "resumed from an unreadable record"
      | exception Failure msg ->
        Alcotest.(check string) "failure names the shard and the field"
          (Printf.sprintf "%s: unreadable checkpoint record: missing field %S"
             (shard store) field)
          msg)

(* Every shard a small fault campaign writes (its two search legs and one
   memo shard per scenario), digested as [md5sum *.jsonl | sort -k2 |
   md5sum] does; `nocmap faults --builtin fft8 --noc 3x2 --quick --seed 5
   --checkpoint-dir D` writes the same shards. *)
let campaign_digest () =
  let dir = temp_dir () in
  ignore
    (Nocmap.Fault_campaign.run ~config:Nocmap.Fault_campaign.default_config
       ~persist:(Nocmap.Experiment.persist ~scope:"faults" (Store.open_ ~dir))
       ~mesh:(Mesh.create ~cols:3 ~rows:2) ~seed:5
       (Option.get (Nocmap_apps.Catalog.find "fft8")));
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort compare
  |> List.map (fun f ->
         Printf.sprintf "%s  %s\n"
           (Digest.to_hex (Digest.file (Filename.concat dir f)))
           f)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let suite =
  ( "journal-format",
    [
      golden "sa shard bytes" sa ~kill_at:250
        ("dc9b8435d86e68b35ae0e803e0d6810b",
         "ae5b44fa05be758f210d4fd6fb8fc22e",
         "8ea478f934a5128e56fd2ce4766ad3ca");
      golden "ls shard bytes" ls ~kill_at:2
        ("2b313612d05e5c8b6cf6c114d88ec4c3",
         "d708ca5be7f86bbb69e31cb36ed1e795",
         "04ca9690a673e477cadbecd0a03a1928");
      golden "tabu shard bytes" tabu ~kill_at:10
        ("0955f6cc6bc234665dd76fd13c1156d9",
         "f85fba5805fade7582fa824113b6b847",
         "2be1216efae08f393a150edfbb927649");
      golden "ga shard bytes" ga ~kill_at:5
        ("e9ca6f97e42dd2967c20f3bd0fbc7fe8",
         "42dff0cca494e2078058686fc33db8f3",
         "66f8774704c440e1656c7e43e17e4744");
      golden "portfolio shard bytes" portfolio ~kill_at:60
        ("702e978bd89d3079bf47b6243c6cf906",
         "7d6b8b815c571f355c8a03d1a8eba9a0",
         "c801a34b07ae76496fab488115870599");
      golden "decompose-sa shard bytes"
        (decompose Mapping.Decompose.Sa)
        ~kill_at:250
        ("cd033d716abd5e72dcc5a659fc043d83",
         "5ad09290a6eaa392ef850f7b1be1b9ff",
         "37285de3fed71a70be61a039ab8c824f");
      golden "decompose-tabu shard bytes"
        (decompose Mapping.Decompose.Tabu)
        ~kill_at:40
        ("c5b850437bfa06471440f26c71e2a229",
         "b35c0144ab34a86a4156308a37feb43a",
         "084515606e34e0f57d619b4e6d150034");
      (* This kill lands inside the pass that proves a region's local
         optimum, so the killed shard records that region as [done].
         Builds that recorded it as a running [ls] state (and paid for
         the pass twice on resume) wrote other killed and resumed
         shards; the uninterrupted shard is the same. *)
      golden "decompose-local shard bytes"
        (decompose Mapping.Decompose.Local)
        ~kill_at:5
        ("55b56da8f0c08d4c4e8af9afc3e339b3",
         "18d27349206db40f5bc6cc02c855df9f",
         "edaa233b54ad32f360ef1f93f0adbd64");
      golden "decompose-3d shard bytes"
        (decompose ~mesh:(Mesh.create3 ~cols:2 ~rows:2 ~layers:4)
           Mapping.Decompose.Sa)
        ~kill_at:280
        ("fb8803aeff5de2a4da0226af48be9047",
         "74ad6eb803183a19db6520f0f61c793d",
         "7ace08a10f552e456782a423b21f795c");
      Alcotest.test_case "fault campaign shard bytes" `Quick (fun () ->
          Alcotest.(check string) "shard listing digest"
            "6b1cd1417af2e3b8f795cdd832bc11ec" (campaign_digest ()));
      unreadable "unreadable sa record fails naming the shard" sa ~kill_at:250;
      unreadable "unreadable portfolio record fails naming the shard" portfolio
        ~kill_at:60;
      unreadable "unreadable decompose record fails naming the shard"
        (decompose Mapping.Decompose.Sa) ~kill_at:250;
    ] )
