module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Noc_params = Nocmap_energy.Noc_params
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Mapping = Nocmap_mapping
module Json = Nocmap_persist.Json
module Journal = Nocmap_persist.Journal
module Store = Nocmap_persist.Store
module Metrics = Nocmap_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let m_accepted = Metrics.counter "serve.jobs_accepted" ~help:"Jobs admitted to the queue"
let m_completed = Metrics.counter "serve.jobs_completed" ~help:"Jobs finished successfully"
let m_failed = Metrics.counter "serve.jobs_failed" ~help:"Jobs that ended in an error"
let m_rejected = Metrics.counter "serve.jobs_rejected" ~help:"Specs rejected before admission"

let m_shed =
  Metrics.counter "serve.jobs_shed" ~help:"Jobs refused because the queue was full"

let m_retried =
  Metrics.counter "serve.jobs_retried" ~help:"Transient-failure retries (with backoff)"

let m_replayed =
  Metrics.counter "serve.jobs_replayed" ~help:"Finished results replayed from the journal"

let m_queue_depth = Metrics.gauge "serve.queue_depth" ~help:"Jobs waiting to run"

let m_latency =
  Metrics.histogram "serve.job_latency_ms" ~help:"Per-job wall-clock latency (ms)"

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

type event =
  | Accepted of { id : string }
  | Rejected of { source : string; reason : string }
  | Shed of { id : string }
  | Started of { id : string }
  | Retrying of { id : string; attempt : int; delay_ms : int; reason : string }
  | Completed of { id : string; replayed : bool; result : Json.t }
  | Failed of { id : string; reason : string; attempts : int }

let event_json = function
  | Accepted { id } ->
    Json.Assoc [ ("status", Json.Str "accepted"); ("id", Json.Str id) ]
  | Rejected { source; reason } ->
    Json.Assoc
      [
        ("status", Json.Str "rejected");
        ("source", Json.Str source);
        ("error", Json.Str reason);
      ]
  | Shed { id } ->
    Json.Assoc
      [
        ("status", Json.Str "overloaded");
        ("id", Json.Str id);
        ("error", Json.Str "queue full");
      ]
  | Started { id } ->
    Json.Assoc [ ("status", Json.Str "started"); ("id", Json.Str id) ]
  | Retrying { id; attempt; delay_ms; reason } ->
    Json.Assoc
      [
        ("status", Json.Str "retrying");
        ("id", Json.Str id);
        ("attempt", Json.Int attempt);
        ("delay_ms", Json.Int delay_ms);
        ("error", Json.Str reason);
      ]
  | Completed { id; replayed; result } ->
    Json.Assoc
      [
        ("status", Json.Str "done");
        ("id", Json.Str id);
        ("replayed", Json.Bool replayed);
        ("result", result);
      ]
  | Failed { id; reason; attempts } ->
    Json.Assoc
      [
        ("status", Json.Str "failed");
        ("id", Json.Str id);
        ("error", Json.Str reason);
        ("attempts", Json.Int attempts);
      ]

let event_id = function
  | Accepted { id } | Shed { id } | Started { id }
  | Retrying { id; _ } | Completed { id; _ } | Failed { id; _ } ->
    Some id
  | Rejected _ -> None

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  max_queue : int;
  checkpoint_every : int;
  retry : Backoff.policy;
  default_timeout_ms : int option;
  now_ms : unit -> int;
  sleep_ms : int -> unit;
}

let default_config =
  {
    max_queue = 64;
    checkpoint_every = Mapping.Search_persist.default_every;
    retry = Backoff.default;
    default_timeout_ms = None;
    now_ms = (fun () -> int_of_float (Unix.gettimeofday () *. 1000.));
    sleep_ms = (fun ms -> Unix.sleepf (float_of_int ms /. 1000.));
  }

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type outcome =
  | Done of Json.t
  | Errored of { reason : string; attempts : int }

type t = {
  store : Store.t;
  journal : Journal.t;
  config : config;
  emit : event -> unit;
  queue : Job_spec.t Queue.t;
  (* Every id ever admitted (pending or finished) — the duplicate
     guard that makes spool re-ingestion after a crash idempotent. *)
  known : (string, unit) Hashtbl.t;
  finished : (string, outcome) Hashtbl.t;
  (* Eval caches shared across sequential jobs with the same NoC /
     objective shape; see [cache_for]. *)
  caches : (string, Mapping.Eval_cache.t) Hashtbl.t;
}

let queue_key = "serve.jobs"
let journal_kind = "serve-queue"

let journal_meta =
  Json.Assoc [ ("kind", Json.Str journal_kind); ("version", Json.Int 1) ]

let set_depth t = Metrics.set_gauge m_queue_depth (Queue.length t.queue)
let queue_depth t = Queue.length t.queue
let has_capacity t = Queue.length t.queue < t.config.max_queue
let pending t = Queue.fold (fun acc s -> s.Job_spec.id :: acc) [] t.queue |> List.rev

(* Journal records *)

let job_record spec =
  Json.Assoc [ ("type", Json.Str "job"); ("spec", Job_spec.to_json spec) ]

let done_record id result =
  Json.Assoc [ ("type", Json.Str "done"); ("id", Json.Str id); ("result", result) ]

let failed_record id reason attempts =
  Json.Assoc
    [
      ("type", Json.Str "failed");
      ("id", Json.Str id);
      ("reason", Json.Str reason);
      ("attempts", Json.Int attempts);
    ]

let replay_record t record =
  let field name =
    match Json.find name record with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "record missing string field %S" name)
  in
  match Json.find "type" record with
  | Some (Json.Str "job") -> (
    match Json.find "spec" record with
    | None -> Error "job record has no spec"
    | Some spec_json -> (
      match Job_spec.of_json spec_json with
      | Error e -> Error ("unreadable job spec in journal: " ^ e)
      | Ok spec ->
        if Hashtbl.mem t.known spec.Job_spec.id then
          Error (Printf.sprintf "duplicate job id %S in journal" spec.Job_spec.id)
        else (
          Hashtbl.replace t.known spec.Job_spec.id ();
          Queue.add spec t.queue;
          Ok ())))
  | Some (Json.Str "done") ->
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let* id = field "id" in
    let result = Option.value (Json.find "result" record) ~default:Json.Null in
    if not (Hashtbl.mem t.known id) then
      Error (Printf.sprintf "done record for unknown job %S" id)
    else (
      Hashtbl.replace t.finished id (Done result);
      Ok ())
  | Some (Json.Str "failed") ->
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let* id = field "id" in
    let reason =
      match Json.find "reason" record with Some (Json.Str s) -> s | _ -> "unknown"
    in
    let attempts =
      match Json.find "attempts" record with Some (Json.Int n) -> n | _ -> 1
    in
    if not (Hashtbl.mem t.known id) then
      Error (Printf.sprintf "failed record for unknown job %S" id)
    else (
      Hashtbl.replace t.finished id (Errored { reason; attempts });
      Ok ())
  | _ -> Error "unknown record type in serve journal"

let create ?(emit = fun _ -> ()) ?(config = default_config) ~dir () =
  if config.max_queue < 1 then Error "max_queue must be at least 1"
  else begin
    let store = Store.open_ ~dir in
    let path = Store.shard_path store ~key:queue_key in
    let fresh () =
      let journal = Journal.create ~path ~meta:journal_meta in
      Ok journal
    in
    let reopened =
      if Sys.file_exists path then
        match Journal.reopen ~path with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok (journal, loaded) ->
          if loaded.Journal.meta <> journal_meta then
            Error
              (Printf.sprintf "%s: not a serve queue journal (meta %s)" path
                 (Json.to_string loaded.Journal.meta))
          else Ok (journal, loaded.Journal.records)
      else Result.map (fun j -> (j, [])) (fresh ())
    in
    match reopened with
    | Error _ as e -> e
    | Ok (journal, records) ->
      let t =
        {
          store;
          journal;
          config;
          emit;
          queue = Queue.create ();
          known = Hashtbl.create 64;
          finished = Hashtbl.create 64;
          caches = Hashtbl.create 8;
        }
      in
      let rec replay = function
        | [] -> Ok ()
        | r :: rest -> (
          match replay_record t r with
          | Ok () -> replay rest
          | Error _ as e -> e)
      in
      (match replay records with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok () ->
        (* Jobs that already finished leave the pending queue. *)
        let still_pending = Queue.create () in
        Queue.iter
          (fun spec ->
            if not (Hashtbl.mem t.finished spec.Job_spec.id) then
              Queue.add spec still_pending)
          t.queue;
        Queue.clear t.queue;
        Queue.transfer still_pending t.queue;
        set_depth t;
        Ok t)
  end

let close t =
  Journal.close t.journal;
  Hashtbl.reset t.caches

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)

type submit_outcome =
  | Submitted
  | Duplicate
  | Overloaded
  | Invalid of string
  | Admission_failed of string

let append_retrying t ~id record =
  let appended =
    Backoff.retry ~sleep_ms:t.config.sleep_ms
      ~on_retry:(fun ~failures ~delay_ms reason ->
        Metrics.incr m_retried;
        t.emit (Retrying { id; attempt = failures; delay_ms; reason }))
      t.config.retry
      (fun () ->
        match Journal.append t.journal record with
        | Ok () ->
          Journal.sync t.journal;
          Ok ()
        | Error e when e.Journal.retryable -> Error e.Journal.reason
        | Error e ->
          (* A permanent journal failure cannot be retried away; give
             up immediately by reporting it as the final error. *)
          Error (e.Journal.reason ^ " (permanent)"))
  in
  match appended with
  | Ok () -> Ok ()
  | Error reason ->
    Error (Printf.sprintf "could not journal job %s: %s" id reason)

let submit t ~source text =
  match Job_spec.of_string text with
  | Error reason ->
    Metrics.incr m_rejected;
    t.emit (Rejected { source; reason });
    Invalid reason
  | Ok spec ->
    let id = spec.Job_spec.id in
    if Hashtbl.mem t.known id then Duplicate
    else if not (has_capacity t) then begin
      Metrics.incr m_shed;
      t.emit (Shed { id });
      Overloaded
    end
    else begin
      match append_retrying t ~id (job_record spec) with
      | Error reason ->
        Metrics.incr m_rejected;
        t.emit (Rejected { source; reason });
        Admission_failed reason
      | Ok () ->
        Hashtbl.replace t.known id ();
        Queue.add spec t.queue;
        set_depth t;
        Metrics.incr m_accepted;
        t.emit (Accepted { id });
        Submitted
    end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let result_json (result : Mapping.Objective.search_result)
    (evaluation : Mapping.Cost_cdcm.evaluation) =
  Json.Assoc
    [
      ("placement", Mapping.Search_persist.placement_json result.Mapping.Objective.placement);
      ("cost", Json.float_ result.Mapping.Objective.cost);
      ("evaluations", Json.Int result.Mapping.Objective.evaluations);
      ( "energy",
        Json.Assoc
          [
            ("dynamic_j", Json.float_ evaluation.Mapping.Cost_cdcm.dynamic);
            ("static_j", Json.float_ evaluation.Mapping.Cost_cdcm.static_);
            ("total_j", Json.float_ evaluation.Mapping.Cost_cdcm.total);
          ] );
      ("texec_cycles", Json.Int evaluation.Mapping.Cost_cdcm.texec_cycles);
      ("texec_ns", Json.float_ evaluation.Mapping.Cost_cdcm.texec_ns);
    ]

(* One shared CDCM cache per (mesh, routing, tech, flit, incremental,
   application): two jobs mapping the same application onto the same NoC
   reuse each other's evaluations, and a job's result never depends on
   what other applications ran before it.  Only valid sequentially —
   Eval_cache and Objective are not thread-safe — so parallel batches
   pass [share:false] and get private caches. *)
let cache_for t ~share ~(spec : Job_spec.t) ~cdcg ~crg ~cores =
  let discriminator =
    String.concat "|"
      [
        Job_spec.model_to_string spec.model;
        spec.tech.Nocmap_energy.Technology.name;
        string_of_int spec.flit_bits;
        Nocmap_noc.Routing.algorithm_to_string spec.routing;
        string_of_bool spec.incremental;
      ]
  in
  let build () =
    let symmetry = Symmetry.of_crg ~level:Symmetry.Paths crg in
    Mapping.Eval_cache.create ~symmetry ~cores ~discriminator ()
  in
  if not share then build ()
  else begin
    let app =
      Digest.to_hex (Digest.string (Nocmap_model.Textio.cdcg_to_string cdcg))
    in
    let key =
      Printf.sprintf "%s|%s|%s" (Mesh.to_string spec.mesh) discriminator app
    in
    match Hashtbl.find_opt t.caches key with
    | Some cache -> cache
    | None ->
      let cache = build () in
      Hashtbl.replace t.caches key cache;
      cache
  end

type run_outcome =
  | Run_done of Json.t
  | Run_failed of string
  | Run_stopped  (** External stop: the job stays pending. *)

(* Execute one job to completion (or stop/deadline).  May raise — the
   caller owns isolation and retry classification. *)
let execute t ~share ~stop (spec : Job_spec.t) =
  match Job_spec.resolve_app spec with
  | Error reason -> Run_failed reason
  | Ok cdcg ->
    let tech = spec.Job_spec.tech in
    let crg = Crg.create ~routing:spec.routing spec.mesh in
    let params = Noc_params.make ~flit_bits:spec.flit_bits () in
    let cwg = Cwg.of_cdcg cdcg in
    let tiles = Mesh.tile_count spec.mesh in
    let cores = Cdcg.core_count cdcg in
    let rng = Rng.create ~seed:spec.seed in
    let incremental = spec.incremental in
    let base_objective () =
      match spec.model with
      | Job_spec.Cwm -> Mapping.Objective.cwm ~tech ~crg ~cwg
      | Job_spec.Cdcm -> Mapping.Objective.cdcm ~incremental ~tech ~params ~crg ~cdcg ()
    in
    (* Only the simulation-backed CDCM objective is memoized: a CWM
       evaluation costs less than a cache probe. *)
    let memoize = spec.model = Job_spec.Cdcm in
    let objective =
      if memoize then
        Mapping.Objective.with_cache
          (cache_for t ~share ~spec ~cdcg ~crg ~cores)
          (base_objective ())
      else base_objective ()
    in
    (* Racers and regions may run on distinct domains and Eval_cache is
       single-domain, so portfolio and decompose never borrow the shared
       cache: each racer or region gets a fresh objective, memoized
       through a private cache over one symmetry group per job. *)
    let private_objectives () =
      if not memoize then fun _ -> base_objective ()
      else
        let symmetry = Symmetry.of_crg ~level:Symmetry.Paths crg in
        fun _ ->
          Mapping.Objective.with_cache
            (Mapping.Eval_cache.create ~symmetry ~cores
               ~discriminator:(Job_spec.model_to_string spec.model)
               ())
            (base_objective ())
    in
    (* The deadline stop must be sticky (searches require it) and
       latched separately from the external stop so the caller can tell
       "out of time" from "daemon winding down". *)
    let deadline =
      match (spec.timeout_ms, t.config.default_timeout_ms) with
      | Some ms, _ | None, Some ms -> Some (t.config.now_ms () + ms)
      | None, None -> None
    in
    let timed_out = ref false in
    let job_stop () =
      if stop () then true
      else
        match deadline with
        | Some d when (not !timed_out) && t.config.now_ms () > d -> timed_out := true; true
        | _ -> !timed_out
    in
    let shard suffix = Printf.sprintf "job.%s.%s" spec.id suffix in
    let every = t.config.checkpoint_every in
    let sa_config =
      let c =
        match spec.budget with
        | Job_spec.Quick -> Mapping.Annealing.quick_config ~tiles
        | Job_spec.Standard -> Mapping.Annealing.default_config ~tiles
      in
      if incremental then { c with Mapping.Annealing.prune = Some 20.0 } else c
    in
    let local_budget =
      match spec.budget with Job_spec.Quick -> Some 10_000 | Job_spec.Standard -> None
    in
    let result =
      match spec.algorithm with
      | Job_spec.Sa ->
        Mapping.Search_persist.annealing ~store:t.store ~key:(shard "sa") ~every
          ~rng ~config:sa_config ~tiles ~objective ~stop:job_stop ~cores ()
      | Job_spec.Local ->
        let initial = Mapping.Placement.random rng ~cores ~tiles in
        Mapping.Search_persist.local_search ~store:t.store ~key:(shard "local")
          ~every ~objective ~tiles ~initial ?max_evaluations:local_budget
          ~stop:job_stop ()
      | Job_spec.Greedy_local ->
        let seed = Mapping.Greedy.search ~tech ~crg ~cwg () in
        Mapping.Search_persist.local_search ~store:t.store ~key:(shard "local")
          ~every ~objective ~tiles
          ~initial:seed.Mapping.Objective.placement
          ?max_evaluations:local_budget ~stop:job_stop ()
      | Job_spec.Greedy -> Mapping.Greedy.search ~tech ~crg ~cwg ()
      | Job_spec.Random ->
        let samples =
          match spec.budget with Job_spec.Quick -> 100 | Job_spec.Standard -> 1000
        in
        Mapping.Random_search.search ~rng ~objective ~cores ~tiles ~samples
      | Job_spec.Es ->
        let level =
          match spec.model with
          | Job_spec.Cwm -> Symmetry.Hops
          | Job_spec.Cdcm -> Symmetry.Paths
        in
        Mapping.Exhaustive.search ~objective ~cores ~tiles
          ~symmetry:(Symmetry.of_crg ~level crg) ()
      | Job_spec.Portfolio strategies ->
        let portfolio_config =
          match spec.budget with
          | Job_spec.Quick -> Mapping.Portfolio.quick_config ~tiles
          | Job_spec.Standard -> Mapping.Portfolio.default_config ~tiles
        in
        let report =
          Mapping.Search_persist.portfolio ~store:t.store
            ~key:(shard "portfolio") ~every ~rng ~config:portfolio_config
            ~strategies ~tech ~crg ~cwg
            ~objective_name:objective.Mapping.Objective.name
            ~objective_for:(private_objectives ()) ~stop:job_stop ()
        in
        report.Mapping.Portfolio.result
      | Job_spec.Decompose refiner ->
        let decompose_config =
          let c =
            match spec.budget with
            | Job_spec.Quick -> Mapping.Decompose.quick_config ~tiles
            | Job_spec.Standard -> Mapping.Decompose.default_config ~tiles
          in
          { c with Mapping.Decompose.refiner }
        in
        let report =
          Mapping.Search_persist.decompose ~store:t.store
            ~key:(shard "decompose") ~every ~rng ~config:decompose_config ~crg
            ~cwg ~objective_name:objective.Mapping.Objective.name
            ~objective_for:(private_objectives ()) ~stop:job_stop ()
        in
        report.Mapping.Decompose.result
    in
    if stop () then Run_stopped
    else if !timed_out then
      Run_failed
        (Printf.sprintf "timeout after %d ms"
           (match (spec.timeout_ms, t.config.default_timeout_ms) with
           | Some ms, _ | None, Some ms -> ms
           | None, None -> 0))
    else
      let evaluation =
        Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg
          result.Mapping.Objective.placement
      in
      Run_done (result_json result evaluation)

(* Journal a finished job and emit its event; journal failures here are
   retried like admissions — losing a done record would re-run the job
   on the next restart, which is correct but wasteful. *)
let record_outcome t (spec : Job_spec.t) outcome =
  let id = spec.Job_spec.id in
  match outcome with
  | Run_stopped -> ()
  | Run_done result ->
    (match append_retrying t ~id (done_record id result) with
    | Ok () -> ()
    | Error reason -> prerr_endline ("nocmap serve: " ^ reason));
    Hashtbl.replace t.finished id (Done result);
    Metrics.incr m_completed;
    t.emit (Completed { id; replayed = false; result })
  | Run_failed reason ->
    (match append_retrying t ~id (failed_record id reason 1) with
    | Ok () -> ()
    | Error r -> prerr_endline ("nocmap serve: " ^ r));
    Hashtbl.replace t.finished id (Errored { reason; attempts = 1 });
    Metrics.incr m_failed;
    t.emit (Failed { id; reason; attempts = 1 })

(* Run one job with full error isolation and transient-retry: any
   exception fails THIS job (structured reply), never the engine; a
   retryable journal error inside the search re-runs the job under the
   backoff policy — checkpoint resume makes the re-run cheap. *)
let run_job t ~share ~stop (spec : Job_spec.t) =
  let id = spec.Job_spec.id in
  let attempt () =
    match execute t ~share ~stop spec with
    | outcome -> Ok outcome
    | exception Journal.Append_failed e when e.Journal.retryable ->
      Error e.Journal.reason
    | exception e ->
      let reason = Printexc.to_string e in
      Ok (Run_failed reason)
  in
  let attempts = ref 1 in
  match
    Backoff.retry ~sleep_ms:t.config.sleep_ms
      ~on_retry:(fun ~failures ~delay_ms reason ->
        attempts := failures + 1;
        Metrics.incr m_retried;
        t.emit (Retrying { id; attempt = failures; delay_ms; reason }))
      t.config.retry attempt
  with
  | Ok outcome -> outcome
  | Error reason ->
    Run_failed (Printf.sprintf "%s (after %d attempts)" reason !attempts)

(* ------------------------------------------------------------------ *)
(* The scheduler                                                       *)

let take_batch t n =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.queue with
      | None -> List.rev acc
      | Some spec -> go (spec :: acc) (n - 1)
  in
  go [] n

let run_pending ?pool ?(stop = fun () -> false) t =
  let lanes = match pool with None -> 1 | Some p -> Domain_pool.jobs p in
  let continue_ = ref true in
  while !continue_ && (not (stop ())) && not (Queue.is_empty t.queue) do
    let batch = take_batch t (min lanes (Queue.length t.queue)) in
    set_depth t;
    List.iter (fun spec -> t.emit (Started { id = spec.Job_spec.id })) batch;
    let started_at = t.config.now_ms () in
    let share = lanes = 1 || List.length batch = 1 in
    let outcomes =
      match (pool, batch) with
      | None, _ | _, [ _ ] ->
        List.map (fun spec -> run_job t ~share ~stop spec) batch
      | Some pool, _ ->
        Domain_pool.map ~pool
          (fun spec -> run_job t ~share:false ~stop spec)
          (Array.of_list batch)
        |> Array.to_list
    in
    List.iter2
      (fun spec outcome ->
        record_outcome t spec outcome;
        (match outcome with
        | Run_stopped ->
          (* The job was cut short by shutdown: requeue it (front order
             is preserved because a stopped batch ends the loop). *)
          Queue.add spec t.queue;
          continue_ := false
        | Run_done _ | Run_failed _ ->
          Metrics.observe m_latency (float_of_int (t.config.now_ms () - started_at))))
      batch outcomes;
    set_depth t
  done;
  set_depth t

(* Re-emit the recorded outcome of an already-finished job — the
   replay path that makes crash recovery invisible to clients. *)
let emit_finished t id =
  match Hashtbl.find_opt t.finished id with
  | None -> false
  | Some (Done result) ->
    Metrics.incr m_replayed;
    t.emit (Completed { id; replayed = true; result });
    true
  | Some (Errored { reason; attempts }) ->
    Metrics.incr m_replayed;
    t.emit (Failed { id; reason; attempts });
    true
