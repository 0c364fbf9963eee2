(** Incremental CDCM cost evaluation.

    The CDCM objective (Equation 10) couples a closed-form term — the
    dynamic energy of Equation (4), a sum of independent per-packet
    contributions — with a simulated term, the static energy of
    Equation (9), which needs the wormhole execution time.  A swap move
    perturbs only the packets incident to the two swapped cores, so this
    evaluator keeps enough per-packet state to answer most candidate
    queries without running the simulator at all:

    - the {b dynamic delta is exact}: a per-core incident-packet index
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
      maintained by differential updates.  Both are sound lower bounds
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

    The evaluator is a cache anchored at a reference placement: query
    entry points ({!bound_for}, {!evaluate_for}) may silently re-anchor
    it at the candidate they just paid a full simulation for, while the
    walk API ({!move_delta}, {!apply_move}) keeps the anchor
    caller-controlled.  State is always
    reconstructible from the placement alone — checkpoint/resume flows
    rebuild it with {!create} and never serialize it.

    Like the scratch it embeds, an evaluator is NOT thread-safe: build
    one per domain. *)

type t

(** Query-outcome counters of one evaluator (see also the process-wide
    [sim.incremental.*] metrics).  [queries] counts bound queries
    ({!bound_for} / {!move_bound}); every query is either answered from
    incremental state alone ([delta_hits] — an analytic rejection or a
    memoized exact result) or paid for a simulation
    ([full_sim_fallbacks]), so
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
(** Takes ownership of a copy of [placement].  Builds the dependence
    CSR, the topological order and the per-core incident-packet index;
    no simulation runs until a cost is actually requested.
    @raise Invalid_argument on an invalid placement. *)

val cost : t -> float
(** Equation-(10) total of the current placement — always equal to
    [(Cost_cdcm.evaluate current).total].  Simulates on first call
    after an anchor change, then memoizes. *)

val evaluation : t -> Cost_cdcm.evaluation
(** Full evaluation record behind {!cost}, same memoization. *)

val placement : t -> Placement.t
(** Copy of the current (anchor) placement. *)

val move_delta : t -> core:int -> tile:int -> float
(** Exact total-energy change if [core] moved to [tile] (swapping with
    the occupant when taken), without applying it.  Pays one simulation
    of the candidate (kept for an immediately following {!apply_move});
    use {!move_bound} when a sound reject-only answer suffices.
    @raise Invalid_argument on out-of-range [core] or [tile]. *)

val swap_delta : t -> core_a:int -> core_b:int -> float
(** Exact total-energy change of exchanging the tiles of two cores, in
    one evaluation ([0.] when [core_a = core_b]).
    @raise Invalid_argument on out-of-range cores. *)

val apply_move : t -> core:int -> tile:int -> unit
(** Applies the move (swapping with the occupant when taken) and
    re-anchors the incremental state in O(packets + deps).  Reuses the
    candidate evaluation of an immediately preceding {!move_delta} /
    {!swap_delta} instead of re-simulating.
    @raise Invalid_argument on out-of-range [core] or [tile]. *)

val move_bound : t -> core:int -> tile:int -> cutoff:float -> Cost_cdcm.bound
(** Bounded evaluation of the single move [core -> tile] against an
    energy budget: [At_least b] (with [b >= cutoff]) when the candidate
    provably cannot beat [cutoff] — by exact dynamic energy alone or by
    the analytic execution-time lower bound — and an [Exact] evaluation
    (bit-identical to {!Cost_cdcm.evaluate}) from the simulation
    fallback otherwise.  Never re-anchors.
    @raise Invalid_argument on out-of-range [core] or [tile]. *)

val bound_for : t -> cutoff:float -> Placement.t -> Cost_cdcm.bound
(** {!move_bound} generalized to an arbitrary candidate placement: the
    affected set is the diff against the anchor.  May re-anchor at the
    candidate when the fallback simulation completes (an [Exact]
    verdict), so a search that walks through accepted candidates keeps
    the anchor — and the affected sets — small.  This is the hook
    {!Objective.cdcm}[ ~incremental:true] plugs into annealing and
    local search.
    @raise Invalid_argument on an invalid placement. *)

val evaluate_for : t -> Placement.t -> Cost_cdcm.evaluation
(** Exact evaluation of an arbitrary placement, re-anchoring there.
    Bit-identical to fresh {!Cost_cdcm.evaluate}.
    @raise Invalid_argument on an invalid placement. *)

val stats : t -> stats
(** Query-outcome counters since {!create} (always collected; the
    process-wide metrics mirror them only while
    {!Nocmap_obs.Metrics.enabled}). *)
