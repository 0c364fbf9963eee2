(** Incremental CDCM cost evaluation.

    The CDCM objective (Equation 10) couples a closed-form term — the
    dynamic energy of Equation (4), a sum of independent per-packet
    contributions — with a simulated term, the static energy of
    Equation (9), which needs the wormhole execution time.  A candidate
    that moves a few cores perturbs only the packets incident to them,
    so this evaluator keeps enough per-packet state to answer most
    candidate queries without running the simulator at all:

    - the {b dynamic energy is exact}: a per-core incident-packet index
      locates the affected packets in O(degree), and the candidate's
      dynamic energy is re-summed from per-packet energies in the same
      order as {!Cost_cdcm.dynamic_energy}'s fold, so the value is
      bit-identical to a fresh computation;
    - the {b execution time is lower-bounded} from the unchanged cone:
      per-packet completion bounds (ready/compute/Equation-(8) delay,
      with the simulator's exact retry/cascade-drop accounting under
      faults) are re-propagated only through the dependence cone of the
      affected packets, and combined with a per-link port-serialization
      bound (earliest launch plus total [tr + flits*tl] occupancy)
      maintained by differential updates.  The anchor's model is the
      bound of {!Nocmap_sim.Analytic}, built with its kernels, so both
      define one contention-free bound.  Both are sound lower bounds
      on the simulated [texec], so the implied total energy is a sound
      lower bound on the true Equation-(10) cost;
    - a candidate the bound cannot reject {b falls back to the full
      simulation} via {!Cost_cdcm.evaluate_bound}, reusing one
      {!Nocmap_sim.Wormhole.Scratch.t} arena and the energy-cutoff
      protocol.

    Consequently every cost this evaluator {e reports} comes from the
    simulator and is bit-identical to a fresh {!Cost_cdcm.evaluate};
    the analytic machinery can only {e reject} candidates (the
    {!Cost_cdcm.At_least} verdict), mirroring the contract of
    {!Objective.t}'s [bound_fn].

    The evaluator is a cache anchored at a reference placement, and
    both queries move the anchor: {!bound_for} re-anchors at every
    candidate it pays a completed simulation for, {!evaluate_for} at
    every placement it evaluates.  There is no other way to move it, and
    any sequence of queries leaves the same bound model that a fresh
    {!create} at the current anchor builds, so verdicts never depend on
    the query history.  State is always reconstructible from the
    placement alone — checkpoint/resume flows rebuild it with {!create}
    and never serialize it.

    Like the scratch it embeds, an evaluator is NOT thread-safe: build
    one per domain. *)

type t

(** Query-outcome counters of one evaluator (see also the process-wide
    [sim.incremental.*] metrics).  [queries] counts {!bound_for}
    queries; every query is either answered from incremental state
    alone ([delta_hits] — an analytic rejection or a memoized exact
    result) or paid for a simulation ([full_sim_fallbacks]), so
    [queries = delta_hits + full_sim_fallbacks].  [bound_rejections]
    is the subset of [delta_hits] rejected by the analytic lower
    bound. *)
type stats = {
  queries : int;
  delta_hits : int;
  bound_rejections : int;
  full_sim_fallbacks : int;
}

val create :
  ?fault_policy:Nocmap_sim.Wormhole.fault_policy ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  placement:Placement.t ->
  unit ->
  t
(** Takes ownership of a copy of [placement].  Builds the per-core
    incident-packet index and the bound model at [placement]; the
    dependence DAG is the CDCG's own (see {!Nocmap_model.Cdcg.t}), so
    nothing is rebuilt from the dependence list.  No simulation runs
    until a cost is actually requested.
    @raise Invalid_argument on an invalid placement. *)

val bound_for : t -> cutoff:float -> Placement.t -> Cost_cdcm.bound
(** Bounded evaluation of an arbitrary candidate placement against an
    energy budget; the affected set is the diff against the anchor.
    Returns [At_least b], with [cutoff <= b] and [b] at most the true
    cost, when the candidate provably cannot beat [cutoff] — by exact
    dynamic energy alone, by the analytic execution-time lower bound, or
    by the simulator's own cutoff — and otherwise an [Exact] evaluation,
    bit-identical to {!Cost_cdcm.evaluate}.  A query of the anchor
    itself is answered from the memoized evaluation when there is one.
    Re-anchors at the candidate when the fallback simulation completes
    (an [Exact] verdict), so a search that walks through accepted
    candidates keeps the anchor — and the affected sets — small.  This
    is the hook {!Objective.cdcm}[ ~incremental:true] plugs into
    annealing and local search.
    @raise Invalid_argument on an invalid placement. *)

val evaluate_for : t -> Placement.t -> Cost_cdcm.evaluation
(** Exact evaluation of an arbitrary placement, re-anchoring there.
    Bit-identical to fresh {!Cost_cdcm.evaluate}.
    @raise Invalid_argument on an invalid placement. *)

val stats : t -> stats
(** Query-outcome counters since {!create} (always collected; the
    process-wide metrics mirror them only while
    {!Nocmap_obs.Metrics.enabled}). *)
