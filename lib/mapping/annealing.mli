(** Simulated annealing over placements — the search method of the
    paper's FRW framework (Section 4).

    Both CWM and CDCM runs start from a random mapping, propose
    single-core moves/swaps, accept cost increases with the Metropolis
    probability, cool geometrically, and keep the best placement ever
    visited. *)

type config = {
  initial_temperature : [ `Auto | `Fixed of float ];
      (** [`Auto] calibrates the start temperature from the magnitude of
          sampled move deltas so acceptance starts high. *)
  cooling : float;             (** Geometric factor per level, in (0,1). *)
  moves_per_temperature : int; (** Proposals at each temperature level. *)
  patience : int;              (** Stop after this many consecutive levels
                                   without improving the best cost. *)
  max_evaluations : int;       (** Hard budget on cost calls. *)
  prune : float option;
      (** When [Some m] and the objective exposes a bound function,
          candidate evaluation is cut off at [current + m * temperature]:
          a candidate provably above that line would survive the
          Metropolis test with probability below [exp (-m)], so it is
          rejected without completing its simulation (and without
          consuming acceptance randomness).  [m = 20.] makes the error
          probability ~2e-9 per move.  [None] (the default) evaluates
          every candidate exactly. *)
}

val default_config : tiles:int -> config
(** Scales [moves_per_temperature] with the NoC size (10 moves per
    tile), [cooling = 0.95], [patience = 12],
    [max_evaluations = 200_000]. *)

val quick_config : tiles:int -> config
(** A cheaper budget for tests and smoke benches. *)

type checkpoint = {
  rng_state : int64;
  evaluations : int;
  current : Placement.t;
  current_cost : float;
  best : Placement.t;
  best_cost : float;
  temperature : float;
  floor : float;
  stale_levels : int;
  moves : int;  (** Position within the current temperature level. *)
  improved_this_level : bool;
  accepted : int;
  rejected : int;
  cutoff_hits : int;
}
(** The complete loop state of a descent, captured between moves.  A
    search resumed from a checkpoint replays the exact trajectory of
    the uninterrupted run — same best placement, cost, and evaluation
    count — because every stateful input (RNG word included) is here.
    The optional convergence series is {e not} part of the state: a
    resumed run's series starts at the resume point. *)

val search :
  rng:Nocmap_util.Rng.t ->
  config:config ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?ceiling:float ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  ?checkpoint:int * (checkpoint -> unit) ->
  ?resume:checkpoint ->
  cores:int ->
  unit ->
  Objective.search_result
(** Runs one annealing descent.  [?initial] defaults to a random
    placement drawn from [rng].  [?stop] is polled between moves; once it
    returns [true] the descent winds down immediately and returns the
    best placement found so far (used for cooperative interruption, e.g.
    a SIGINT flag).  [stop] must be sticky — once [true], always [true].

    [?ceiling] (default [infinity], a no-op) caps the prune cutoff from
    outside: with a prune margin and a bound function, candidates whose
    cost provably exceeds [ceiling] are rejected without completing
    their evaluation.  The {!Portfolio} driver passes a ceiling derived
    from the racing incumbent so a descent stops paying for candidates
    provably worse than what a rival already found.  Passing a finite
    ceiling changes the search trajectory (it rejects moves plain
    annealing might have accepted); [infinity] is bit-identical to
    omitting it.

    [?checkpoint:(every, hook)] calls [hook] with the live state each
    time at least [every] further evaluations have been spent, and once
    more when [stop] ends the descent early, so an interrupt always
    leaves a fresh checkpoint.  [?resume] restores a previous
    checkpoint instead of starting fresh: [rng] is overwritten with the
    recorded state and [?initial] is ignored.  Neither option changes
    the search trajectory.

    [?convergence] records the best-cost-so-far trajectory into a
    caller-owned series — one point per improvement,
    [x = evaluations so far], [y = best cost] (so [y] is non-increasing
    in [x]).  Independent of the process-wide metrics switch and of the
    search's random choices: passing it never changes the result.  When
    the {!Nocmap_obs.Metrics} registry is enabled the descent also
    flushes [search.sa_runs], [search.evaluations],
    [search.cutoff_hits] and [search.sa_accepted]/[search.sa_rejected];
    a resumed descent adds only the work done since its checkpoint.
    @raise Invalid_argument when [cores > tiles]. *)
