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
  (* Eval caches shared across sequential jobs with the same NoC and
     application; see {!Mapping.Request.run}. *)
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
    match Store.open_journal ~path ~meta:journal_meta with
    | Error (Store.Unreadable e) -> Error (Printf.sprintf "%s: %s" path e)
    | Error (Store.Foreign meta) ->
      Error
        (Printf.sprintf "%s: not a serve queue journal (meta %s)" path
           (Json.to_string meta))
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
      | Error e ->
        Journal.close journal;
        Error (Printf.sprintf "%s: %s" path e)
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

type run_outcome =
  | Run_done of Json.t
  | Run_failed of string
  | Run_stopped  (** External stop: the job stays pending. *)

(* Execute one job to completion (or stop/deadline).  Sequential jobs
   share the engine's CDCM caches ([share]); a parallel batch gives each
   job private ones, since caches are single-domain.  May raise — the
   caller owns isolation and retry classification. *)
let execute t ~share ~stop (spec : Job_spec.t) =
  match Job_spec.to_request spec with
  | Error reason -> Run_failed reason
  | Ok request ->
    (* The deadline stop must be sticky (searches require it) and
       latched separately from the external stop so the caller can tell
       "out of time" from "daemon winding down". *)
    let timeout_ms =
      match spec.timeout_ms with None -> t.config.default_timeout_ms | ms -> ms
    in
    let deadline = Option.map (fun ms -> t.config.now_ms () + ms) timeout_ms in
    let timed_out = ref false in
    let job_stop () =
      if stop () then true
      else
        match deadline with
        | Some d when (not !timed_out) && t.config.now_ms () > d -> timed_out := true; true
        | _ -> !timed_out
    in
    let persist =
      { Mapping.Request.store = t.store; scope = "job." ^ spec.id;
        every = t.config.checkpoint_every }
    in
    let outcome =
      Mapping.Request.run ~stop:job_stop ~persist
        ?shared:(if share then Some t.caches else None)
        request
    in
    if stop () then Run_stopped
    else if !timed_out then
      Run_failed
        (Printf.sprintf "timeout after %d ms" (Option.value timeout_ms ~default:0))
    else Run_done (Mapping.Request.result_json outcome)

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
