(** One search contract over the four resumable searchers.

    {!Annealing}, {!Tabu}, {!Genetic} and {!Local_search} share one
    option contract: a sticky [?stop], a [?checkpoint:(every, hook)]
    cadence plus a final flush on stop, and a [?resume] that replays the
    uninterrupted trajectory exactly.  This module closes over them: a
    {!t} names a searcher with its budget, a {!state} holds its live
    checkpoint or its finished result, and {!run} and {!slice} drive any
    of them the same way.  {!Portfolio}'s racers and {!Decompose}'s
    regions hold a {!state} and advance it by {!slice};
    {!Search_persist.refine} journals a {!run}.  Work counters follow
    one rule: each searcher flushes only its own call's work, so a
    resumed state or a later slice never re-counts what an earlier call
    already flushed.

    The searcher set is closed, so this is a variant rather than a
    module-typed contract: a race or a decomposition stores (and
    serializes) a mixed list of states without an existential type. *)

type t =
  | Sa of Annealing.config
  | Tabu of Tabu.config
  | Genetic of Genetic.config
  | Local of int  (** Steepest descent with this cost-call budget. *)

type state =
  | Sa_running of Annealing.checkpoint
  | Tabu_running of Tabu.checkpoint
  | Genetic_running of Genetic.checkpoint
  | Local_running of Local_search.checkpoint
  | Done of Objective.search_result
      (** The searcher finished on its own (patience, budget or a local
          optimum). *)

val best_cost : state -> float
(** Best cost reached so far (a descent's current cost). *)

val best : state -> Placement.t
(** The placement at {!best_cost}. *)

val evaluations : state -> int
(** Cost calls spent so far, bound calls included. *)

val run :
  t ->
  rng:Nocmap_util.Rng.t ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?ceiling:float ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  ?checkpoint:int * (state -> unit) ->
  ?resume:state ->
  cores:int ->
  unit ->
  Objective.search_result
(** Runs the searcher under its own contract ({!Annealing.search} and
    the others); [hook] and [?resume] take the searcher's running
    state.  [Local] ignores [rng] and [?ceiling] and requires
    [?initial].
    @raise Invalid_argument on a resume state that is not a running
    state of this searcher, or a [Local] without [?initial], besides
    the searcher's own checks. *)

val slice :
  t ->
  rng:Nocmap_util.Rng.t ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?ceiling:float ->
  stop:(unit -> bool) ->
  budget:int ->
  cores:int ->
  state option ->
  state
(** Advances a searcher, fresh on [None], until it has spent [budget]
    further cost calls (bound calls included; checked where the
    searcher polls [stop], so a generation or a descent pass may
    overshoot) or the sticky [stop] holds.  Returns the running state
    when the budget or [stop] cut it short, [Done] when it finished.
    Slicing never moves the trajectory: any sequence of slices ends
    where one uninterrupted {!run} does. *)
