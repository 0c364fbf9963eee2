(* nocmap — command-line front end of the FRW-style mapping framework.

   Subcommands:
     gen      generate a random CDCG benchmark (TGFF-like)
     apps     list or dump the built-in embedded applications
     map      search a mapping for an application on a mesh NoC
     eval     evaluate a placement: energy, timing diagram, annotations
     table1   regenerate the paper's Table 1
     table2   regenerate the paper's Table 2
     faults   fault-injection campaign over optimized mappings
     cputime  CWM vs CDCM cost-evaluation CPU comparison
     profile  optimize one application with full observability on
     serve    mapping-as-a-service daemon (spool and/or Unix socket)
     submit   send job specs to a running serve daemon *)

open Cmdliner
module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Rng = Nocmap_util.Rng
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Textio = Nocmap_model.Textio
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Obs = Nocmap_obs
module Json = Nocmap_persist.Json
module Store = Nocmap_persist.Store

(* Converters that refuse hostile values at parse time: a bad option
   exits 124 with one message naming it, not an uncaught exception from
   deep inside the run. *)
let mesh_conv =
  let parse text =
    match Mesh.of_string text with
    | mesh -> Ok mesh
    | exception Invalid_argument _ ->
      Error
        (`Msg
          (Printf.sprintf
             "invalid value '%s', expected <cols>x<rows>[x<layers>], each \
              >= 1, at most 2^24 tiles"
             text))
  in
  Arg.conv (parse, fun ppf mesh -> Format.pp_print_string ppf (Mesh.to_string mesh))

let int_at_least lowest =
  let parse text =
    match int_of_string_opt text with
    | Some n when n >= lowest -> Ok n
    | Some _ | None ->
      Error
        (`Msg
          (Printf.sprintf "invalid value '%s', expected an integer >= %d" text
             lowest))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1

let mesh_arg =
  let doc =
    "NoC size as <cols>x<rows> (e.g. 3x3), or <cols>x<rows>x<layers> for a \
     stacked 3-D mesh with TSV vertical links (e.g. 4x4x2)."
  in
  Arg.(
    value
    & opt mesh_conv (Mesh.create ~cols:3 ~rows:3)
    & info [ "noc" ] ~docv:"SIZE" ~doc)

let seed_arg =
  let doc = "Random seed; every run is deterministic for a fixed seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let flit_arg =
  let doc = "Link width in bits (flit size)." in
  Arg.(value & opt positive 16 & info [ "flit" ] ~docv:"BITS" ~doc)

let tech_arg =
  let doc = "Technology point: 0.35um, 0.18um, 0.13um or 0.07um." in
  Arg.(value & opt string "0.07um" & info [ "tech" ] ~docv:"TECH" ~doc)

let routing_arg =
  let doc =
    "Routing algorithm: xy, yx, torus-xy or torus-yx (xyz/yxz are accepted \
     aliases on stacked 3-D meshes)."
  in
  Arg.(value & opt string "xy" & info [ "routing" ] ~docv:"ALG" ~doc)

let load_routing ~mesh s =
  match Nocmap_noc.Routing.algorithm_of_string s with
  | algo -> Result.map (fun () -> algo) (Nocmap_noc.Routing.check_mesh mesh algo)
  | exception Invalid_argument msg -> Error msg

(* On a stacked mesh the dimension-ordered walk ends with the vertical
   hop, so label it with the (accepted) xyz/yxz alias; planar output is
   unchanged. *)
let routing_label ~mesh algo =
  let s = Nocmap_noc.Routing.algorithm_to_string algo in
  if mesh.Mesh.layers > 1 && (s = "xy" || s = "yx") then s ^ "z" else s

let load_tech name =
  match Technology.of_name name with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "unknown technology %S" name)

let load_app ~path ~builtin =
  match (path, builtin) with
  | Some _, Some _ -> Error "pass either --app or --builtin, not both"
  | Some path, None ->
    (* [load_cdcg] errors are already path-prefixed. *)
    (Textio.load_cdcg ~path : (Cdcg.t, string) result)
  | None, Some name -> begin
    match Nocmap_apps.Catalog.find name with
    | Some cdcg -> Ok cdcg
    | None -> Error (Printf.sprintf "unknown built-in application %S" name)
  end
  | None, None -> Error "pass --app FILE or --builtin NAME"

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("nocmap: " ^ msg);
    exit 1

(* Cooperative SIGINT/SIGTERM handling for the long-running searches:
   the first signal flips a flag the annealing loops poll, so the run
   winds down and still prints its best-so-far result; a second signal
   (either one) aborts outright.  SIGTERM gets the same graceful path so
   daemon-style supervision (systemd, containers, `timeout`) triggers
   the same best-so-far flush and checkpoint message as ^C. *)
let interrupted = Atomic.make false

let stop_requested () = Atomic.get interrupted

let install_stop_signals ?checkpoint_dir () =
  let message =
    match checkpoint_dir with
    | Some _ ->
      "nocmap: interrupted - flushing a final checkpoint and finishing with \
       best-so-far results (send the signal again to abort)"
    | None ->
      "nocmap: interrupted - finishing with best-so-far results (send the \
       signal again to abort)"
  in
  let install signal abort_code =
    match
      Sys.signal signal
        (Sys.Signal_handle
           (fun _ ->
             if Atomic.get interrupted then exit abort_code
             else begin
               Atomic.set interrupted true;
               prerr_endline message
             end))
    with
    | _ -> ()
    | exception Invalid_argument _ -> ()
  in
  install Sys.sigint 130;
  install Sys.sigterm 143

let parse_placement ~tiles ~cores spec =
  match Nocmap_mapping.Placement_io.parse_tiles ~tiles ~cores spec with
  | Ok placement -> placement
  | Error msg -> or_die (Error ("--placement: " ^ msg))

(* --- checkpoint / resume plumbing --- *)

let checkpoint_dir_arg =
  let doc =
    "Journal search state into $(docv) so a killed run can be continued \
     with $(b,nocmap resume) $(docv).  A resumed run reproduces the \
     uninterrupted results bit-identically."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc = "Checkpoint cadence in cost evaluations." in
  Arg.(
    value
    & opt positive Mapping.Search_persist.default_every
    & info [ "checkpoint-every" ] ~docv:"EVALS" ~doc)

(* The argv actually being evaluated: [Sys.argv] normally, the recorded
   command line when re-entered through `nocmap resume`. *)
let effective_argv = ref Sys.argv

(* The --checkpoint-dir value is the one manifest field allowed to
   change between the original run and a resume (the directory may have
   been moved), so comparisons blank it out. *)
let strip_checkpoint_dir args =
  let rec go = function
    | [] -> []
    | "--checkpoint-dir" :: _ :: rest -> "--checkpoint-dir" :: go rest
    | arg :: rest when String.starts_with ~prefix:"--checkpoint-dir=" arg ->
      "--checkpoint-dir" :: go rest
    | arg :: rest -> arg :: go rest
  in
  go args

let replace_checkpoint_dir ~dir args =
  let found = ref false in
  let rec go = function
    | [] -> []
    | "--checkpoint-dir" :: _ :: rest ->
      found := true;
      "--checkpoint-dir" :: dir :: go rest
    | arg :: rest when String.starts_with ~prefix:"--checkpoint-dir=" arg ->
      found := true;
      ("--checkpoint-dir=" ^ dir) :: go rest
    | arg :: rest -> arg :: go rest
  in
  let args = go args in
  if !found then args else args @ [ "--checkpoint-dir"; dir ]

let manifest_magic = "nocmap-run"

(* Opens the checkpoint store and records what run owns it; re-running
   (or resuming) over the same directory must present the same command
   line, or the shards would silently mix two different experiments. *)
let setup_persist ~command dir every =
  match dir with
  | None -> None
  | Some dir ->
    let store = Store.open_ ~dir in
    let argv = List.tl (Array.to_list !effective_argv) in
    let manifest =
      Json.Assoc
        [
          ("magic", Json.Str manifest_magic);
          ("version", Json.Int 1);
          ("command", Json.Str command);
          ("argv", Json.List (List.map (fun s -> Json.Str s) argv));
        ]
    in
    (match Store.read_manifest store with
    | Error _ -> ()
    | Ok old ->
      let recorded =
        match Json.find "argv" old with
        | Some (Json.List l) -> List.map Json.to_str l
        | _ -> []
      in
      if strip_checkpoint_dir recorded <> strip_checkpoint_dir argv then
        or_die
          (Error
             (Printf.sprintf
                "%s holds checkpoints of a different run (nocmap %s); use a \
                 fresh --checkpoint-dir or `nocmap resume %s`"
                dir
                (String.concat " " recorded)
                dir)));
    Store.write_manifest store manifest;
    Some (Nocmap.Experiment.persist ~scope:command ~every store)

(* Runs [f] over the checkpoint store.  A shard the run cannot use (a
   corrupt journal, one recorded by another run, an unreadable record)
   raises [Failure] naming the shard; it is reported like a manifest
   mismatch, not as an internal error. *)
let with_checkpoints persist f =
  match persist with
  | None -> f ()
  | Some _ -> ( try f () with Failure msg -> or_die (Error msg))

(* Printed when an interrupted run left resumable journals behind. *)
let resume_hint dir =
  match dir with
  | Some dir when stop_requested () ->
    prerr_endline
      (Printf.sprintf
         "nocmap: checkpoint flushed - continue with `nocmap resume %s`" dir)
  | Some _ | None -> ()

(* Symmetry-canonicalized evaluation caching (on by default; results
   are bit-identical either way, only CPU time changes). *)
let cache_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "cache" ]
              ~doc:
                "Memoize CDCM evaluations behind the mesh-symmetry \
                 canonical form, and let $(b,es) enumerate one placement \
                 per symmetry orbit (default).  CWM evaluations are \
                 cheaper than a cache probe and are never memoized.  \
                 Never changes results." );
          ( false,
            info [ "no-cache" ]
              ~doc:"Disable the CDCM evaluation cache and, for $(b,es), \
                    the symmetry-reduced enumeration." );
        ])

(* --- observability plumbing --- *)

let metrics_arg =
  let doc =
    "Collect metrics during the run and append the observability report \
     in $(docv) format: table, json or csv.  Collection never changes \
     the results."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FMT" ~doc)

(* Enable the registry for the run and print the report afterwards. *)
let with_metrics format f =
  match format with
  | None -> f ()
  | Some name ->
    let format = or_die (Obs.Sink.format_of_string name) in
    Obs.Metrics.set_enabled true;
    let result = f () in
    print_string (Obs.Sink.report format);
    result

let save_text ~path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* --- gen --- *)

let gen_cmd =
  let cores =
    Arg.(
      value & opt (int_at_least 2) 9
      & info [ "cores" ] ~docv:"N" ~doc:"Number of cores.")
  in
  let packets =
    Arg.(value & opt positive 32 & info [ "packets" ] ~docv:"N" ~doc:"Number of packets.")
  in
  let bits =
    Arg.(
      value & opt positive 50_000
      & info [ "bits" ] ~docv:"N"
          ~doc:"Total communication volume in bits, at least one per packet.")
  in
  let pipeline =
    Arg.(
      value & opt (some string) None
      & info [ "pipeline" ] ~docv:"SxW"
          ~doc:
            "Generate a deterministic staged streaming pipeline of S stages x \
             W lanes (e.g. 16x16 for the 256-core scaling flagship) instead \
             of a random CDCG; $(b,--cores), $(b,--packets), $(b,--bits) and \
             $(b,--seed) are ignored.")
  in
  let rounds =
    Arg.(
      value & opt positive 8
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Waves pushed through a $(b,--pipeline); ignored otherwise.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run seed cores packets bits pipeline rounds out =
    let cdcg =
      match pipeline with
      | None ->
        if bits < packets then
          or_die (Error "option '--bits': must be at least --packets (one bit per packet)");
        let spec =
          Nocmap_tgff.Generator.default_spec
            ~name:(Printf.sprintf "random-%d" seed)
            ~cores ~packets ~total_bits:bits
        in
        Nocmap_tgff.Generator.generate (Rng.create ~seed) spec
      | Some shape ->
        let mesh =
          try Nocmap_noc.Mesh.of_string shape
          with Invalid_argument _ ->
            or_die (Error (Printf.sprintf "bad --pipeline shape %S" shape))
        in
        (* SxW, or SxWxL for a stacked target: stages span the columns
           and the lane count covers the remaining tile budget, so the
           pipeline always fills the named mesh exactly. *)
        Nocmap_tgff.Scale.pipeline
          ~name:(Printf.sprintf "pipeline-%s" shape)
          ~rounds ~stages:mesh.Nocmap_noc.Mesh.cols
          ~width:
            (Nocmap_noc.Mesh.tile_count mesh / mesh.Nocmap_noc.Mesh.cols)
          ()
    in
    let text = Textio.cdcg_to_string cdcg in
    match out with
    | None -> print_string text
    | Some path ->
      Textio.save_cdcg ~path cdcg;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a TGFF-like random CDCG benchmark")
    Term.(const run $ seed_arg $ cores $ packets $ bits $ pipeline $ rounds $ out)

(* --- apps --- *)

let apps_cmd =
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump" ] ~docv:"NAME" ~doc:"Print the CDCG of one application.")
  in
  let run dump =
    match dump with
    | None ->
      List.iter
        (fun (name, cdcg) ->
          Format.printf "%-14s %a@." name Nocmap_model.Features.pp
            (Nocmap_model.Features.of_cdcg cdcg))
        (Nocmap_apps.Catalog.all ())
    | Some name -> begin
      match Nocmap_apps.Catalog.find name with
      | Some cdcg -> print_string (Textio.cdcg_to_string cdcg)
      | None ->
        prerr_endline ("nocmap: unknown application " ^ name);
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "apps" ~doc:"List or dump the built-in embedded applications")
    Term.(const run $ dump)

(* --- map --- *)

let jobs_arg =
  let doc =
    "Parallel domains for the search ($(docv) >= 1).  Defaults to the \
     NOCMAP_JOBS environment variable when set, else the machine's \
     recommended domain count.  Results are identical for any value."
  in
  Arg.(value & opt (some positive) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let resolve_jobs jobs =
  match jobs with
  | None -> Nocmap_util.Domain_pool.default_jobs ()
  | Some j -> j

(* Run [f] on a pool of [jobs] domains, or without one when sequential. *)
let with_jobs jobs f =
  if jobs <= 1 then f None
  else Nocmap_util.Domain_pool.with_pool ~jobs (fun pool -> f (Some pool))

let app_arg =
  Arg.(
    value & opt (some string) None
    & info [ "app" ] ~docv:"FILE" ~doc:"Application CDCG file.")

let builtin_arg =
  Arg.(
    value & opt (some string) None
    & info [ "builtin" ] ~docv:"NAME" ~doc:"Built-in application name (see `apps`).")

let map_cmd =
  let model =
    Arg.(
      value & opt string "cdcm"
      & info [ "model" ] ~docv:"MODEL" ~doc:"Mapping model: cwm or cdcm.")
  in
  let algorithm =
    Arg.(
      value & opt string "sa"
      & info [ "algorithm" ] ~docv:"ALG"
          ~doc:
            "Search: sa, es, greedy, local, greedy+local, random, \
             portfolio or decompose.")
  in
  let refiner_arg =
    Arg.(
      value & opt string "sa"
      & info [ "refiner" ] ~docv:"REF"
          ~doc:
            "Per-region searcher used by --algorithm decompose: sa, tabu \
             or local.")
  in
  let strategies_arg =
    Arg.(
      value
      & opt string "spiral,greedy,sa,tabu,genetic"
      & info [ "strategies" ] ~docv:"LIST"
          ~doc:
            "Comma-separated strategies raced by --algorithm portfolio \
             (spiral, greedy, sa, tabu, genetic).")
  in
  let save =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Save the resulting placement to a file.")
  in
  let convergence_arg =
    Arg.(
      value & opt (some string) None
      & info [ "convergence" ] ~docv:"FILE"
          ~doc:
            "Write the best-cost-vs-evaluations trace as CSV (sa, es, local \
             and greedy+local searches).")
  in
  let incremental_arg =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Evaluate CDCM candidates incrementally: exact dynamic-energy \
             deltas plus an analytic execution-time lower bound over the \
             affected dependence cone reject most candidates without \
             simulation (full re-simulation only as fallback; reported \
             costs are bit-identical).  Implies cutoff pruning in the sa \
             search.  Requires --model cdcm.")
  in
  let run mesh seed flit tech_name routing app builtin model algorithm
      strategies_spec refiner_spec jobs save metrics convergence_path cache
      incremental checkpoint_dir checkpoint_every =
    let module Request = Mapping.Request in
    let tech = or_die (load_tech tech_name) in
    let cdcg = or_die (load_app ~path:app ~builtin) in
    let routing = or_die (load_routing ~mesh routing) in
    let cores = Cdcg.core_count cdcg in
    if cores > Mesh.tile_count mesh then
      or_die
        (Error (Printf.sprintf "%d cores do not fit on %s" cores (Mesh.to_string mesh)));
    let model = or_die (Request.model_of_string model) in
    if incremental && model <> Request.Cdcm then
      or_die (Error "--incremental requires --model cdcm");
    let algorithm =
      match or_die (Request.algorithm_of_string algorithm) with
      | Request.Portfolio _ ->
        let strategies = Mapping.Portfolio.strategies_of_string strategies_spec in
        Request.Portfolio (or_die strategies)
      | Request.Decompose _ -> (
        match Mapping.Decompose.refiner_of_string refiner_spec with
        | Some r -> Request.Decompose r
        | None -> or_die (Error ("unknown refiner " ^ refiner_spec)))
      | other -> other
    in
    let request =
      { Request.cdcg; mesh; routing; tech; flit_bits = flit; model; algorithm;
        seed; budget = Request.Standard; incremental; cache }
    in
    install_stop_signals ?checkpoint_dir ();
    if Option.is_some checkpoint_dir && not (Request.journals algorithm) then
      prerr_endline
        (Printf.sprintf
           "nocmap: --checkpoint-dir only journals the sa, local, \
            greedy+local, portfolio and decompose searches; algorithm %S \
            runs without checkpoints"
           (Request.algorithm_to_string algorithm));
    let persist = setup_persist ~command:"map" checkpoint_dir checkpoint_every in
    with_metrics metrics @@ fun () ->
    let convergence =
      Option.map
        (fun _ -> Obs.Series.create ~x_label:"evaluations" ~y_label:"best_cost" ())
        convergence_path
    in
    let outcome =
      with_checkpoints persist (fun () ->
          Request.run ~jobs:(resolve_jobs jobs) ~stop:stop_requested ?persist
            ?convergence request)
    in
    let result = outcome.Request.result in
    (match (convergence_path, convergence) with
    | Some path, Some series ->
      if Obs.Series.length series = 0 then
        prerr_endline
          (Printf.sprintf
             "nocmap: algorithm %S records no convergence trace; %s holds only \
              the header"
             (Request.algorithm_to_string algorithm) path);
      Obs.Series.save_csv ~path series;
      Printf.printf "convergence : %s (%d points)\n" path (Obs.Series.length series)
    | _ -> ());
    if stop_requested () then
      Printf.printf "(search interrupted - reporting the best placement found)\n";
    Printf.printf "application : %s\n" cdcg.Cdcg.name;
    Printf.printf "NoC         : %s, %s routing\n" (Mesh.to_string mesh)
      (routing_label ~mesh routing);
    Printf.printf "model/search: %s/%s (%d cost evaluations)\n"
      (Request.model_to_string model)
      (Request.algorithm_to_string algorithm)
      result.Mapping.Objective.evaluations;
    (match outcome.Request.details with
    | Request.Race r ->
      let open Mapping.Portfolio in
      Printf.printf
        "portfolio   : winner %s after %d rounds (%d incumbent updates, %d \
         cutoff tightenings)\n"
        (strategy_to_string r.winner) r.rounds r.updates r.tightenings;
      List.iter
        (fun s ->
          Printf.printf "  %-8s cost %.6g, %d evaluations, %d rounds won\n"
            (strategy_to_string s.strategy) s.cost s.evaluations s.rounds_won)
        r.per_strategy
    | Request.Regions r ->
      let open Mapping.Decompose in
      Printf.printf
        "decompose   : %d regions, cut %d of %d bits (%.1f%%), seed cost \
         %.6g, %d polish evaluations\n"
        (List.length r.regions) r.cut r.total
        (100.0 *. float_of_int r.cut /. float_of_int (max 1 r.total))
        r.seed_cost r.polish_evaluations;
      List.iter
        (fun reg ->
          let { x; y; z; w; h; d } = reg.region_rect in
          let shape =
            if d = 1 then Printf.sprintf "%dx%d at (%d,%d)" w h x y
            else Printf.sprintf "%dx%dx%d at (%d,%d,%d)" w h d x y z
          in
          Printf.printf "  region %s: %d cores, cost %.6g, %d evaluations\n"
            shape (List.length reg.region_cores) reg.region_cost
            reg.region_evaluations)
        r.regions
    | Request.Single -> ());
    (match outcome.Request.cache with
    | Some cache when (Mapping.Eval_cache.stats cache).misses > 0 ->
      let s = Mapping.Eval_cache.stats cache in
      Printf.printf
        "cache       : %.1f%% hit rate (%d hits, %d bound hits, %d misses, %d \
         evictions)\n"
        (100.0 *. Mapping.Eval_cache.hit_rate cache)
        s.hits s.bound_hits s.misses s.evictions
    | Some _ | None -> ());
    Printf.printf "mapping     : %s\n"
      (Mapping.Placement.to_string ~core_names:cdcg.Cdcg.core_names
         result.Mapping.Objective.placement);
    Format.printf "evaluation  : %a@." Mapping.Cost_cdcm.pp_evaluation
      outcome.Request.evaluation;
    (match save with
    | None -> ()
    | Some path ->
      Mapping.Placement_io.save ~path ~mesh ~core_names:cdcg.Cdcg.core_names
        result.Mapping.Objective.placement;
      Printf.printf "saved       : %s\n" path);
    resume_hint checkpoint_dir
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Search a core-to-tile mapping for an application")
    Term.(
      const run $ mesh_arg $ seed_arg $ flit_arg $ tech_arg $ routing_arg $ app_arg
      $ builtin_arg $ model $ algorithm $ strategies_arg $ refiner_arg
      $ jobs_arg $ save $ metrics_arg $ convergence_arg $ cache_arg
      $ incremental_arg $ checkpoint_dir_arg $ checkpoint_every_arg)

(* --- eval --- *)

let eval_cmd =
  let placement =
    Arg.(
      value & opt (some string) None
      & info [ "placement" ] ~docv:"T0,T1,..."
          ~doc:"Tile of each core, comma separated; default identity.")
  in
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print the timing diagram.")
  in
  let annotations =
    Arg.(
      value & flag
      & info [ "annotations" ] ~doc:"Print per-resource cost-variable lists.")
  in
  let hotspots =
    Arg.(value & flag & info [ "hotspots" ] ~doc:"Print the busiest links.")
  in
  let run mesh flit tech_name routing app builtin placement gantt annotations hotspots =
    let tech = or_die (load_tech tech_name) in
    let cdcg = or_die (load_app ~path:app ~builtin) in
    let crg = Crg.create ~routing:(or_die (load_routing ~mesh routing)) mesh in
    let params = Noc_params.make ~flit_bits:flit () in
    let cores = Cdcg.core_count cdcg in
    let placement =
      match placement with
      | None -> Mapping.Placement.identity ~cores
      | Some spec -> parse_placement ~tiles:(Mesh.tile_count mesh) ~cores spec
    in
    let trace = Nocmap_sim.Wormhole.run ~params ~crg ~placement cdcg in
    let evaluation = Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg placement in
    Format.printf "%a@." Mapping.Cost_cdcm.pp_evaluation evaluation;
    if annotations then
      print_string (Nocmap_sim.Annotation_report.render ~cdcg ~crg trace);
    if gantt then print_string (Nocmap_sim.Gantt.render ~params ~cdcg trace);
    if hotspots then print_string (Nocmap_sim.Hotspot.render ~crg trace)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate one placement under the CDCM model")
    Term.(
      const run $ mesh_arg $ flit_arg $ tech_arg $ routing_arg $ app_arg $ builtin_arg
      $ placement $ gantt $ annotations $ hotspots)

(* --- analyze --- *)

let analyze_cmd =
  let run mesh flit routing app builtin placement =
    let cdcg = or_die (load_app ~path:app ~builtin) in
    let crg = Crg.create ~routing:(or_die (load_routing ~mesh routing)) mesh in
    let params = Noc_params.make ~flit_bits:flit () in
    let cores = Cdcg.core_count cdcg in
    if cores > Mesh.tile_count mesh then
      or_die (Error "application does not fit on the NoC");
    let placement =
      match placement with
      | None -> Mapping.Placement.identity ~cores
      | Some spec -> parse_placement ~tiles:(Mesh.tile_count mesh) ~cores spec
    in
    Format.printf "structure   : %a@." Nocmap_model.Metrics.pp
      (Nocmap_model.Metrics.of_cdcg cdcg);
    let trace = Nocmap_sim.Wormhole.run ~params ~crg ~placement cdcg in
    let estimate = Nocmap_sim.Analytic.estimate ~params ~crg ~placement cdcg in
    Printf.printf "simulated   : %d cycles (%d contention cycles, %d packets waited)\n"
      trace.Nocmap_sim.Trace.texec_cycles trace.Nocmap_sim.Trace.contention_cycles
      trace.Nocmap_sim.Trace.contended_packets;
    Printf.printf
      "analytic    : critical path %d, link load %d => lower bound %d cycles\n"
      estimate.Nocmap_sim.Analytic.critical_path_cycles
      estimate.Nocmap_sim.Analytic.link_load_cycles
      estimate.Nocmap_sim.Analytic.lower_bound_cycles;
    Printf.printf "contention  : %.1f %% of texec beyond the contention-free bound\n"
      (100.0
      *. Nocmap_sim.Analytic.contention_share estimate
           ~simulated_cycles:trace.Nocmap_sim.Trace.texec_cycles);
    print_string (Nocmap_sim.Hotspot.render ~crg trace)
  in
  let placement =
    Arg.(
      value & opt (some string) None
      & info [ "placement" ] ~docv:"T0,T1,..." ~doc:"Tile of each core.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Structural metrics, analytic bounds and hotspots for a mapping")
    Term.(
      const run $ mesh_arg $ flit_arg $ routing_arg $ app_arg $ builtin_arg $ placement)

(* --- dot --- *)

let dot_cmd =
  let what =
    Arg.(
      value & opt string "cdcg"
      & info [ "kind" ] ~docv:"KIND" ~doc:"Graph to export: cdcg, cwg or crg.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run mesh routing app builtin what out =
    let emit doc =
      match out with
      | None -> print_string doc
      | Some path ->
        Nocmap_graph.Dot.save ~path doc;
        Printf.printf "wrote %s\n" path
    in
    match what with
    | "crg" ->
      let crg = Crg.create ~routing:(or_die (load_routing ~mesh routing)) mesh in
      emit
        (Nocmap_graph.Dot.render ~graph_name:(Mesh.to_string mesh)
           ~vertex_name:(Printf.sprintf "t%d")
           (Crg.to_digraph crg))
    | "cdcg" | "cwg" ->
      let cdcg = or_die (load_app ~path:app ~builtin) in
      if what = "cdcg" then
        emit
          (Nocmap_graph.Dot.render ~graph_name:cdcg.Cdcg.name
             ~vertex_name:(fun i -> cdcg.Cdcg.packets.(i).Cdcg.label)
             ~vertex_attrs:(fun i ->
               let p = cdcg.Cdcg.packets.(i) in
               [
                 ( "label",
                   Printf.sprintf "%s\n%d b %s->%s" p.Cdcg.label p.Cdcg.bits
                     cdcg.Cdcg.core_names.(p.Cdcg.src)
                     cdcg.Cdcg.core_names.(p.Cdcg.dst) );
               ])
             (Cdcg.to_digraph cdcg))
      else begin
        let cwg = Cwg.of_cdcg cdcg in
        emit
          (Nocmap_graph.Dot.render ~graph_name:cdcg.Cdcg.name
             ~vertex_name:(fun i -> cwg.Cwg.core_names.(i))
             ~edge_attrs:(fun ~src:_ ~dst:_ ~label ->
               [ ("label", string_of_int label) ])
             (Cwg.to_digraph cwg))
      end
    | other -> or_die (Error ("unknown graph kind " ^ other))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export CDCG/CWG/CRG as Graphviz DOT")
    Term.(const run $ mesh_arg $ routing_arg $ app_arg $ builtin_arg $ what $ out)

(* --- export --- *)

let export_cmd =
  let out =
    Arg.(
      value & opt string "trace.csv"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV file.")
  in
  let what =
    Arg.(
      value & opt string "packets"
      & info [ "kind" ] ~docv:"KIND" ~doc:"CSV to export: packets or links.")
  in
  let run mesh flit routing app builtin what out =
    let cdcg = or_die (load_app ~path:app ~builtin) in
    let crg = Crg.create ~routing:(or_die (load_routing ~mesh routing)) mesh in
    let params = Noc_params.make ~flit_bits:flit () in
    let cores = Cdcg.core_count cdcg in
    if cores > Mesh.tile_count mesh then
      or_die (Error "application does not fit on the NoC");
    let placement = Mapping.Placement.identity ~cores in
    let trace = Nocmap_sim.Wormhole.run ~params ~crg ~placement cdcg in
    let doc =
      match what with
      | "packets" -> Nocmap_sim.Trace_export.packets_csv ~cdcg trace
      | "links" -> Nocmap_sim.Trace_export.link_loads_csv ~crg trace
      | other -> or_die (Error ("unknown export kind " ^ other))
    in
    Nocmap_sim.Trace_export.save ~path:out doc;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Simulate with the identity placement and export CSV")
    Term.(
      const run $ mesh_arg $ flit_arg $ routing_arg $ app_arg $ builtin_arg $ what $ out)

(* --- tables --- *)

let table1_cmd =
  let run seed = print_string (Nocmap.Table1.render ~seed) in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate Table 1 (application features)")
    Term.(const run $ seed_arg)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use the small search budget.")

let table2_cmd =
  let run seed quick jobs metrics use_cache checkpoint_dir checkpoint_every =
    let config =
      if quick then Nocmap.Experiment.quick_config else Nocmap.Experiment.default_config
    in
    let config = { config with Nocmap.Experiment.cache = use_cache } in
    install_stop_signals ?checkpoint_dir ();
    let persist =
      setup_persist ~command:"table2" checkpoint_dir checkpoint_every
    in
    with_metrics metrics @@ fun () ->
    let output =
      with_checkpoints persist @@ fun () ->
      with_jobs (resolve_jobs jobs) (fun pool ->
          Nocmap.Table2.run_and_render ~config ~progress:prerr_endline ?pool
            ~stop:stop_requested ?persist ~seed ())
    in
    if stop_requested () then
      prerr_endline "nocmap: table reflects best-so-far search results";
    print_string output;
    resume_hint checkpoint_dir
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate Table 2 (ETR / ECS comparison)")
    Term.(
      const run $ seed_arg $ quick_arg $ jobs_arg $ metrics_arg $ cache_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg)

(* --- faults --- *)

let faults_cmd =
  let multi_k =
    Arg.(
      value & opt positive 2
      & info [ "multi-k" ] ~docv:"K" ~doc:"Failed links per sampled multi-fault scenario.")
  in
  let multi_count =
    Arg.(
      value & opt (int_at_least 0) 8
      & info [ "multi-count" ] ~docv:"N"
          ~doc:"Number of sampled multi-fault scenarios (0 disables them).")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the per-scenario results as CSV.")
  in
  let run mesh seed tech_name app builtin quick jobs multi_k multi_count csv metrics
      use_cache checkpoint_dir checkpoint_every =
    let tech = or_die (load_tech tech_name) in
    let cdcg = or_die (load_app ~path:app ~builtin) in
    if Cdcg.core_count cdcg > Mesh.tile_count mesh then
      or_die
        (Error
           (Printf.sprintf "%d cores do not fit on %s" (Cdcg.core_count cdcg)
              (Mesh.to_string mesh)));
    let config =
      {
        Nocmap.Fault_campaign.default_config with
        Nocmap.Fault_campaign.experiment =
          {
            (if quick then Nocmap.Experiment.quick_config
             else Nocmap.Experiment.default_config)
            with
            Nocmap.Experiment.cache = use_cache;
          };
        tech;
        multi_fault_k = multi_k;
        multi_fault_count = multi_count;
      }
    in
    install_stop_signals ?checkpoint_dir ();
    let persist =
      setup_persist ~command:"faults" checkpoint_dir checkpoint_every
    in
    with_metrics metrics @@ fun () ->
    let campaign =
      with_checkpoints persist @@ fun () ->
      with_jobs (resolve_jobs jobs) (fun pool ->
          Nocmap.Fault_campaign.run ~config ?pool ~stop:stop_requested ?persist
            ~mesh ~seed cdcg)
    in
    if stop_requested () then
      prerr_endline
        "nocmap: mapping search was interrupted - campaign ran on best-so-far \
         placements";
    print_string (Nocmap.Fault_campaign.render campaign);
    (match csv with
    | None -> ()
    | Some path ->
      save_text ~path (Nocmap.Fault_campaign.to_csv campaign);
      Printf.printf "wrote %s\n" path);
    resume_hint checkpoint_dir
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Fault-injection campaign: degrade optimized mappings under link failures")
    Term.(
      const run $ mesh_arg $ seed_arg $ tech_arg $ app_arg $ builtin_arg
      $ quick_arg $ jobs_arg $ multi_k $ multi_count $ csv $ metrics_arg
      $ cache_arg $ checkpoint_dir_arg $ checkpoint_every_arg)

(* --- profile --- *)

let profile_cmd =
  let format_arg =
    Arg.(
      value & opt string "table"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Report format: table, json or csv.")
  in
  let heatmap_arg =
    Arg.(
      value & opt (some string) None
      & info [ "heatmap" ] ~docv:"FILE"
          ~doc:
            "Write the optimized CDCM mapping's per-link busy-cycle heatmap \
             as CSV (from a metered re-simulation).")
  in
  let run mesh seed tech_name app builtin quick jobs format heatmap use_cache =
    let tech = or_die (load_tech tech_name) in
    let cdcg = or_die (load_app ~path:app ~builtin) in
    if Cdcg.core_count cdcg > Mesh.tile_count mesh then
      or_die
        (Error
           (Printf.sprintf "%d cores do not fit on %s" (Cdcg.core_count cdcg)
              (Mesh.to_string mesh)));
    let format = or_die (Obs.Sink.format_of_string format) in
    let config =
      if quick then Nocmap.Experiment.quick_config else Nocmap.Experiment.default_config
    in
    let config = { config with Nocmap.Experiment.cache = use_cache } in
    install_stop_signals ();
    Obs.Metrics.set_enabled true;
    let pair =
      with_jobs (resolve_jobs jobs) (fun pool ->
          Nocmap.Experiment.optimize_pair ?pool ~stop:stop_requested
            ~rng:(Rng.create ~seed) ~config ~mesh ~tech cdcg)
    in
    let params = config.Nocmap.Experiment.params in
    let crg = pair.Nocmap.Experiment.pair_crg in
    let meter = Nocmap_sim.Wormhole.Meter.create ~crg in
    let summary =
      Obs.Timer.time "metered_evaluation" (fun () ->
          Nocmap_sim.Wormhole.run_summary ~meter ~params ~crg
            ~placement:pair.Nocmap.Experiment.cdcm_placement cdcg)
    in
    Printf.printf "application : %s on %s (seed %d, %s budget)\n" cdcg.Cdcg.name
      (Mesh.to_string mesh) seed
      (if quick then "quick" else "standard");
    Printf.printf "CWM mapping : %s\n"
      (Mapping.Placement.to_string ~core_names:cdcg.Cdcg.core_names
         pair.Nocmap.Experiment.cwm_placement);
    Printf.printf "CDCM mapping: %s (%d cycles, %d contention cycles)\n"
      (Mapping.Placement.to_string ~core_names:cdcg.Cdcg.core_names
         pair.Nocmap.Experiment.cdcm_placement)
      summary.Nocmap_sim.Wormhole.texec_cycles
      summary.Nocmap_sim.Wormhole.contention_cycles;
    print_string (Obs.Sink.report format);
    match heatmap with
    | None -> ()
    | Some path ->
      let loads =
        Nocmap_sim.Hotspot.link_loads_of_meter ~crg
          ~texec_cycles:summary.Nocmap_sim.Wormhole.texec_cycles meter
      in
      save_text ~path (Nocmap_sim.Hotspot.loads_csv ~crg loads);
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Optimize one application with metrics and span timing enabled, then \
          print the observability report")
    Term.(
      const run $ mesh_arg $ seed_arg $ tech_arg $ app_arg $ builtin_arg $ quick_arg
      $ jobs_arg $ format_arg $ heatmap_arg $ cache_arg)

let cputime_cmd =
  let run seed = print_string (Nocmap.Cpu_time.render (Nocmap.Cpu_time.over_suite ~seed ())) in
  Cmd.v
    (Cmd.info "cputime" ~doc:"Compare CWM and CDCM cost-evaluation CPU time")
    Term.(const run $ seed_arg)

(* --- serve / submit --- *)

module Serve = Nocmap_serve

let serve_cmd =
  let state_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "State directory: the job journal and search checkpoints live \
             here.  Restarting over the same directory resumes the queue \
             exactly, replaying finished results bit-identically.")
  in
  let spool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Watch $(docv)/incoming for job-spec files (*.json); replies \
             stream to $(docv)/replies/<id>.jsonl.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket: one job spec per line in, one \
             JSON event per line back.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: beyond $(docv) queued jobs, new submissions \
             are shed with an $(b,overloaded) reply (spool files just wait).")
  in
  let poll_arg =
    Arg.(
      value & opt int 500
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Spool poll interval when idle.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-job deadline for specs without their own \
             $(b,timeout_ms); a job past its deadline fails with a timeout \
             reply.")
  in
  let drain_arg =
    Arg.(
      value & flag
      & info [ "drain-once" ]
          ~doc:
            "Exit once the queue, spool and connections are empty instead \
             of waiting for more work — batch mode.")
  in
  let run state spool socket max_queue poll_ms timeout_ms checkpoint_every
      drain jobs metrics =
    if spool = None && socket = None then
      or_die (Error "pass --spool DIR and/or --socket PATH");
    if max_queue < 1 then or_die (Error "--max-queue must be at least 1");
    install_stop_signals ~checkpoint_dir:state ();
    with_metrics metrics @@ fun () ->
    let engine =
      {
        Serve.Engine.default_config with
        Serve.Engine.max_queue;
        checkpoint_every;
        default_timeout_ms = timeout_ms;
      }
    in
    let config =
      {
        Serve.Daemon.state_dir = state;
        spool_dir = spool;
        socket_path = socket;
        engine;
        poll_ms;
        drain_once = drain;
        jobs = (match jobs with None -> 1 | Some j -> j);
        log = prerr_endline;
      }
    in
    let daemon = or_die (Serve.Daemon.create ~stop:stop_requested config) in
    let code = Serve.Daemon.run daemon in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the mapping daemon: accept JSON job specs over a spool \
          directory and/or Unix socket, journal every accepted job, and \
          survive kill -9 with bit-identical resume")
    Term.(
      const run $ state_arg $ spool_arg $ socket_arg $ max_queue_arg $ poll_arg
      $ timeout_arg $ checkpoint_every_arg $ drain_arg $ jobs_arg $ metrics_arg)

let submit_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running daemon.")
  in
  let specs_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SPEC" ~doc:"Job-spec JSON files.")
  in
  let run socket specs =
    (* Validate locally first: a malformed file should fail fast with a
       path-prefixed error, not burn a round trip. *)
    let lines =
      List.map
        (fun path ->
          let text =
            match Nocmap_persist.Fsutil.read_file path with
            | s -> s
            | exception Sys_error msg -> or_die (Error msg)
          in
          match Serve.Job_spec.of_string text with
          | Error e -> or_die (Error (path ^ ": " ^ e))
          | Ok spec -> Json.to_string (Serve.Job_spec.to_json spec))
        specs
    in
    let fd =
      match
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd
      with
      | fd -> fd
      | exception Unix.Unix_error (e, _, _) ->
        or_die (Error (Printf.sprintf "%s: %s" socket (Unix.error_message e)))
    in
    let oc = Unix.out_channel_of_descr fd in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      lines;
    flush oc;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let ic = Unix.in_channel_of_descr fd in
    let remaining = ref (List.length lines) in
    let failed = ref false and rejected = ref false and shed = ref false in
    (try
       while !remaining > 0 do
         let line = input_line ic in
         print_endline line;
         match Json.of_string line with
         | Error _ -> ()
         | Ok j -> (
           match Json.find "status" j with
           | Some (Json.Str "done") -> decr remaining
           | Some (Json.Str "failed") ->
             failed := true;
             decr remaining
           | Some (Json.Str "rejected") | Some (Json.Str "error") ->
             rejected := true;
             decr remaining
           | Some (Json.Str "overloaded") ->
             shed := true;
             decr remaining
           | _ -> ())
       done
     with End_of_file ->
       if !remaining > 0 then begin
         prerr_endline "nocmap: daemon closed the connection early";
         failed := true
       end);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if !failed then exit 1 else if !rejected then exit 2 else if !shed then exit 3
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit job-spec files to a running $(b,nocmap serve) daemon and \
          stream the replies (exit 0 all done, 1 failed, 2 rejected, 3 \
          overloaded)")
    Term.(const run $ socket_arg $ specs_arg)

(* --- resume --- *)

(* Re-enters the top-level command group with the recorded argv; set
   once the group below exists. *)
let main_eval : (string array -> int) ref = ref (fun _ -> 1)

let resume_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Checkpoint directory of the interrupted run.")
  in
  let run dir =
    let store = Store.open_ ~dir in
    let manifest =
      match Store.read_manifest store with
      | Ok m -> m
      | Error msg ->
        or_die (Error (Printf.sprintf "cannot resume from %s: %s" dir msg))
    in
    (match Json.find "magic" manifest with
    | Some (Json.Str m) when m = manifest_magic -> ()
    | _ -> or_die (Error (dir ^ ": not a nocmap checkpoint directory")));
    let argv =
      match Json.find "argv" manifest with
      | Some (Json.List l) -> List.map Json.to_str l
      | _ -> or_die (Error (dir ^ ": checkpoint manifest records no command line"))
    in
    (* The directory may have been moved since the run was started, so
       the recorded --checkpoint-dir is repointed at [dir]. *)
    let argv = replace_checkpoint_dir ~dir argv in
    prerr_endline ("nocmap: resuming: nocmap " ^ String.concat " " argv);
    let argv = Array.of_list ("nocmap" :: argv) in
    effective_argv := argv;
    exit (!main_eval argv)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume an interrupted checkpointed run (started with \
          --checkpoint-dir) and reproduce its uninterrupted results")
    Term.(const run $ dir_arg)

let () =
  let info =
    Cmd.info "nocmap" ~version:"1.0.0"
      ~doc:"Energy- and timing-aware NoC mapping (CWM vs CDCM, DATE'05 reproduction)"
  in
  let group =
    Cmd.group info
      [ gen_cmd; apps_cmd; map_cmd; eval_cmd; analyze_cmd; dot_cmd; export_cmd;
        table1_cmd; table2_cmd; faults_cmd; resume_cmd; cputime_cmd; profile_cmd;
        serve_cmd; submit_cmd ]
  in
  main_eval := (fun argv -> Cmd.eval ~argv group);
  exit (Cmd.eval group)
