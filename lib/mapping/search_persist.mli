(** Crash-safe journaling for the searches: {!refine} wraps one
    {!Refiner.run} (annealing, tabu, genetic or local search),
    {!portfolio} one {!Portfolio.search} and {!decompose} one
    {!Decompose.search}.  Each call owns one journal shard in a
    {!Nocmap_persist.Store} and is {e resumable} — run it again over
    the same store after a crash and it picks up from the last
    checkpoint, producing a result bit-identical to the uninterrupted
    run.

    Every entry point runs under {!Nocmap_persist.Store.shard}'s
    protocol (replay a [done] record, resume from the latest
    [progress] record, or run fresh), checkpointing the live search
    state every [every] evaluations and on interrupt.  This module
    adds the codecs: each journaled record (the result, the four
    searchers' checkpoints, the portfolio's and the decomposition's
    checkpoint and report) is declared once, field by field, and that
    one declaration both encodes and decodes it.

    The shard header stores a fingerprint of the search (algorithm,
    objective name, rng entry state, dimensions, config, warm start);
    resuming with a mismatching fingerprint fails loudly rather than
    silently mixing two different runs.  Fingerprints are only ever
    encoded and compared.  Run-level identity (application, mesh, seed)
    is the caller's manifest's job.

    Without a [store] an entry point runs the plain search on the same
    arguments, so a caller makes one call whether or not it journals.
    When [stop] is already set on entry the search also runs with {e no}
    persistence: the caller is winding down, so this leg's inputs may
    derive from an upstream search that was itself cut short (a warm
    start from an interrupted CWM leg, say) and journaling them would
    poison the store with state a resumed run can never reproduce. *)

val default_every : int
(** Checkpoint cadence in evaluations when [?every] is omitted
    (10,000 — well under 2% overhead on CDCM objectives). *)

val refine :
  ?store:Nocmap_persist.Store.t ->
  key:string ->
  ?every:int ->
  rng:Nocmap_util.Rng.t ->
  Refiner.t ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  cores:int ->
  unit ->
  Objective.search_result
(** {!Refiner.run} under the journal protocol.  The fingerprint names
    the searcher (["sa"], ["tabu"], ["ga"] or ["ls"]) with its config,
    so a shard recorded by any other searcher is rejected; local search
    records its budget and start placement instead of an rng word.
    When [stop] cuts the run short, no [done] record is written — the
    journal stays resumable and the returned best-so-far is provisional.
    @raise Failure on journal corruption, a fingerprint mismatch or an
    unreadable checkpoint record, each message naming the shard path
    (see {!Nocmap_persist.Store.shard}). *)

val portfolio :
  ?store:Nocmap_persist.Store.t ->
  key:string ->
  ?every:int ->
  rng:Nocmap_util.Rng.t ->
  config:Portfolio.config ->
  strategies:Portfolio.strategy list ->
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  objective_name:string ->
  objective_for:(Portfolio.strategy -> Objective.t) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?target:float ->
  unit ->
  Portfolio.report
(** {!Portfolio.search} under the same protocol, journaled as a single
    shard: each [progress] record is one consistent race snapshot
    (every racer's {!Refiner.state} plus the driver's barrier
    bookkeeping), and the [done] record carries the full
    {!Portfolio.report}.  The fingerprint includes the strategy list
    and the per-strategy configs, so reopening the shard with a
    different portfolio — even one renamed strategy — fails loudly.
    [objective_name] identifies the objective in the fingerprint
    without forcing [objective_for] (which may build caches). *)

val decompose :
  ?store:Nocmap_persist.Store.t ->
  key:string ->
  ?every:int ->
  rng:Nocmap_util.Rng.t ->
  config:Decompose.config ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  objective_name:string ->
  objective_for:(unit -> Objective.t) ->
  ?region_objective_for:(cores:int array -> tiles:int array -> Objective.t) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  unit ->
  Decompose.report
(** {!Decompose.search} under the same protocol, journaled as a single
    shard: each [progress] record is one consistent snapshot (every
    region's {!Refiner.state}, the seed, and — once the regions
    composed — the base result and the in-flight polish), and the
    [done] record carries the full {!Decompose.report}.  The partition
    and seed assignment are pure recomputations, so they are not
    journaled; the fingerprint covers the config (including the
    refiner), the objective name, the rng entry state and the instance
    dimensions, rejecting any mismatched resume loudly. *)

(**/**)

(** Shared encodings, exposed for the driver layer ({!module:
    Nocmap.Experiment} et al.), the benchmark probe and tests. *)

val placement_json : Placement.t -> Nocmap_persist.Json.t
val placement_of_json : Nocmap_persist.Json.t -> Placement.t

val recode :
  algorithm:string ->
  [ `Progress | `Done ] ->
  Nocmap_persist.Json.t ->
  Nocmap_persist.Json.t
(** [recode ~algorithm kind payload] decodes the [state] of a
    [progress] record or the [value] of a [done] record, in a shard
    whose header names [algorithm], with the codec the entry points
    journal it with, and encodes it again.  The journal-format test
    checks that this reproduces every record of the golden shards. *)
