(** Deterministic steepest-descent local search over placements.

    Starting from a given placement (typically the greedy constructive
    result or a random start), repeatedly applies the best improving
    move among all single-core relocations and pairwise swaps until a
    local optimum or the evaluation budget is reached.  A deterministic
    complement to {!Annealing} — useful as an ablation baseline and as a
    cheap polish pass on another algorithm's output. *)

type checkpoint = {
  current : Placement.t;
  current_cost : float;
  evaluations : int;
  cutoff_hits : int;
}
(** Descent state at a pass boundary.  The search consumes no
    randomness, so these four fields determine the remaining trajectory
    completely: a resume replays exactly what the uninterrupted run
    would have done. *)

val search :
  objective:Objective.t ->
  tiles:int ->
  initial:Placement.t ->
  ?max_evaluations:int ->
  ?convergence:Nocmap_obs.Series.t ->
  ?stop:(unit -> bool) ->
  ?checkpoint:int * (checkpoint -> unit) ->
  ?resume:checkpoint ->
  unit ->
  Objective.search_result
(** [search ~objective ~tiles ~initial ()] descends from [initial]
    (default budget 100,000 cost calls).  [?convergence] records the
    (strictly decreasing) current-cost trajectory, one point per taken
    move with [x = evaluations so far]; it never changes the result.

    [?stop] is polled between passes (must be sticky once [true]).
    [?checkpoint:(every, hook)] calls [hook] at the first pass boundary
    after [every] further evaluations, plus once when [stop] cuts the
    descent short of its local optimum (a stop during the pass that
    proves the optimum flushes nothing: the descent is complete).
    [?resume] restarts from a recorded pass boundary;
    [initial] is then only used for validation.  Neither option changes
    the result.
    @raise Invalid_argument when [initial] is not a valid placement. *)
