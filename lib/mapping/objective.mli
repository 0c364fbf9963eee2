(** Mapping objectives and the common search-result record.

    A search algorithm only sees a black-box cost over placements; this
    module builds the two costs the paper compares (plus a pure
    execution-time objective used in ablations) and names them for
    reports.

    Simulation-backed objectives ({!cdcm}, {!texec}) embed a private
    {!Nocmap_sim.Wormhole.Scratch.t} so that every cost call reuses one
    arena, and {!cwm} keeps the record of an incremental evaluator — an
    [Objective.t] is therefore NOT thread-safe; build one per domain. *)

type bound =
  | Exact of float     (** The candidate's true cost. *)
  | At_least of float  (** Evaluation was abandoned early: the true cost
                           is at least this value, itself strictly above
                           the requested cutoff. *)

type t = {
  name : string;
  cost_fn : Placement.t -> float;
  bound_fn : (cutoff:float -> Placement.t -> bound) option;
      (** When present, [bound_fn ~cutoff p] may stop evaluating as soon
          as the cost provably exceeds [cutoff], returning {!At_least}.
          Search procedures use it to reject doomed candidates without
          paying for a full simulation.  [None] for closed-form costs
          (CWM) where evaluation is already cheap. *)
}

type search_result = {
  placement : Placement.t;
  cost : float;        (** Cost of [placement] under the searched objective. *)
  evaluations : int;   (** Number of cost-function calls. *)
}

val count_evaluations : int -> unit
(** Adds to the [search.evaluations] counter (a no-op while metrics are
    off).  Each call counts only the work it did itself: a searcher
    resumed from a checkpoint adds what it evaluated since, and a driver
    adds the evaluations it makes outside any searcher where it makes
    them, so the counter equals the sum of the reported [evaluations]. *)

val cwm :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  t
(** Equation (3): dynamic energy only.  No [bound_fn].  On a CWG of 32
    cores or more the cost is {!Cost_cwm.incremental_energy}, which
    holds the last placement it accepted and prices each call by the
    cores that moved; below that a move re-prices a large share of the
    terms and the cost is the stateless {!Cost_cwm.dynamic_energy}.
    Either way every cost is the same float. *)

val cwm_region :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  cores:int array ->
  t
(** {!cwm} for placements that move only [cores] away from the first
    placement evaluated ({!Cost_cwm.region_energy}): the same name and
    bit-identical costs, priced by the cores of [cores] each call moved.
    Single-domain. *)

val cdcm :
  ?incremental:bool ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  unit ->
  t
(** Equation (10): static + dynamic energy via simulation.  The
    [bound_fn] converts an energy cutoff into a simulation cycle budget
    (inverse of Equation 9) and truncates the event pump beyond it.

    With [~incremental:true] both functions route through a
    {!Cost_cdcm_incremental} evaluator anchored at the first placement
    queried: the [bound_fn] then answers most rejections from the exact
    dynamic-energy delta and an analytic execution-time lower bound
    without simulating, falling back to the truncated simulation only
    when the bound cannot decide.  Reported costs stay bit-identical to
    the plain objective (the incremental machinery may only reject), so
    local search returns the same placement, cost and evaluation count
    either way; annealing additionally skips the (probability
    [< exp(-margin)]) acceptance draws of candidates the plain bound
    would have simulated to an exact over-cutoff cost.  Checkpoint
    resume needs no extra state: the evaluator rebuilds itself from the
    first queried placement. *)

val cdcm_expected :
  ?fault_policy:Nocmap_sim.Wormhole.fault_policy ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  scenarios:(Nocmap_noc.Crg.t * float) list ->
  cdcg:Nocmap_model.Cdcg.t ->
  unit ->
  t
(** Fault-weighted CDCM: the expected Equation-(10) energy over a
    distribution of fault scenarios, each a CRG (typically built with
    [Crg.create ?faults]) paired with a positive weight (normalized
    internally).  All scenario CRGs must share one mesh so a single
    simulation arena serves them.  The [bound_fn] threads the energy
    cutoff through the scenarios sequentially — each scenario gets the
    budget left by its predecessors, and a truncated scenario yields a
    sound {!At_least} on the whole expectation because the remaining
    terms are non-negative.
    @raise Invalid_argument on an empty scenario list, a non-positive
    weight, or scenarios over different meshes. *)

val texec :
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  t
(** Execution time in cycles (ablation: timing-only CDCM variant).
    The [bound_fn] cuts the simulation off directly at [cutoff] cycles. *)

val with_cache : Eval_cache.t -> t -> t
(** Memoized view of an objective through an evaluation cache.  The
    wrapped [cost_fn] answers exact hits from the cache and records
    every computed cost; the wrapped [bound_fn] (present iff the
    underlying one is) additionally reuses cached truncation bounds
    under the protocol of {!Eval_cache.find_bound}, so a search over the
    wrapped objective makes exactly the same decisions — and returns the
    same placement, cost and evaluation count — as over the plain one.

    Soundness rests on the cache's symmetry group being verified at the
    right level for this objective ({!Nocmap_noc.Symmetry.Hops} for
    {!cwm}, {!Nocmap_noc.Symmetry.Paths} against every scenario CRG for
    the simulation-backed objectives); the caller pairs them.  Like the
    underlying objective, the wrapped one is single-domain. *)
