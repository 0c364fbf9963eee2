(** The CDCM objective function (Equation 10).

    Evaluating a placement executes the CDCG on the CRG with the
    wormhole simulator, yielding the execution time (and thus static
    energy, Equation 9) on top of the dynamic energy of every packet
    (Equation 4).  This is the full cost the paper's CDCM algorithm
    minimizes.

    Evaluation is the hot path of every CDCM search: all entry points
    accept an optional {!Nocmap_sim.Wormhole.Scratch.t} so a descent
    reuses one simulation arena instead of reallocating per call. *)

type evaluation = {
  dynamic : float;        (** [EDyNoC(CDCM)], Joules (Equation 4);
                              packets on {!Nocmap_noc.Crg.Unreachable}
                              pairs contribute nothing. *)
  static_ : float;        (** [EStNoC], Joules (Equation 9). *)
  total : float;          (** [ENoC], Joules (Equation 10). *)
  texec_ns : float;       (** Application execution time. *)
  texec_cycles : int;
  contention_cycles : int;
  delivered_packets : int;
  dropped_packets : int;  (** Packets abandoned under faults (0 on a
                              fault-free CRG). *)
  retries_total : int;
}

type bound =
  | Exact of evaluation   (** The simulation completed; the full cost. *)
  | At_least of float     (** The simulation was cut off: the true total
                              energy is at least this value, which
                              itself is at least the requested cutoff —
                              the candidate can be rejected unseen. *)

val evaluate :
  ?scratch:Nocmap_sim.Wormhole.Scratch.t ->
  ?fault_policy:Nocmap_sim.Wormhole.fault_policy ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  Placement.t ->
  evaluation
(** Full evaluation (simulation with tracing disabled).
    @raise Invalid_argument on an invalid placement. *)

val evaluate_bound :
  ?scratch:Nocmap_sim.Wormhole.Scratch.t ->
  ?fault_policy:Nocmap_sim.Wormhole.fault_policy ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  cutoff:float ->
  Placement.t ->
  bound
(** [evaluate_bound ~cutoff placement] is {!evaluate} with early
    abandon: the total-energy budget [cutoff] (Joules) is converted into
    a cycle budget via the static-power inverse of Equation (9), and the
    simulation stops as soon as it proves the candidate exceeds it.
    When dynamic energy alone exceeds [cutoff], no simulation runs at
    all. *)

val bound_of_dynamic :
  ?scratch:Nocmap_sim.Wormhole.Scratch.t ->
  ?fault_policy:Nocmap_sim.Wormhole.fault_policy ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  cutoff:float ->
  dynamic:float ->
  Placement.t ->
  bound
(** {!evaluate_bound} after its {!dynamic_energy} sum, for a caller
    that already holds that float for a placement it has checked:
    {!evaluate_bound} is [bound_of_dynamic ~dynamic:(dynamic_energy
    placement)]. *)

val dynamic_energy :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  Placement.t ->
  float
(** Equation (4) alone — no simulation needed, since dynamic energy
    only depends on bit traffic and path lengths.  Coincides with the
    CWM value on the projected CWG.  Reads the CRG's per-pair tables, so
    it builds no route, and allocates only its per-bit energy table
    ({!Cost_cwm.ebit_table}). *)

val total_energy :
  ?scratch:Nocmap_sim.Wormhole.Scratch.t ->
  ?fault_policy:Nocmap_sim.Wormhole.fault_policy ->
  tech:Nocmap_energy.Technology.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  cdcg:Nocmap_model.Cdcg.t ->
  Placement.t ->
  float
(** [ENoC] shortcut used as the annealing cost. *)

val pp_evaluation : Format.formatter -> evaluation -> unit
