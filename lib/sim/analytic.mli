(** Analytic (contention-free) execution-time estimation.

    Two quickly computable lower bounds on the simulated [texec]:

    + the {b critical path}: the longest ready-compute-transfer chain
      through the dependence DAG when every packet experiences exactly
      the Equation (8) delay (no buffering anywhere) — this equals the
      simulation result whenever no two packets ever compete for a link;
    + the {b link-load bound}: every packet crossing a link is granted
      its output port exactly once, occupying it for [tr + flits*tl]
      cycles, the grants serialize, and none can start before its
      packet's launch (ready + compute), so for every link
      [texec >= min_member launch + sum_member (tr + flits*tl)].

    It walks the CDCG's dependence DAG ({!Nocmap_model.Cdcg.t}) once,
    in linear time and space.  Measured on a shared 2-vCPU VM with the
    routes already built: about 46 us and 3.4 K words per estimate on
    the 8x8 Table 2 application (344 packets, 16-bit flits), a tenth of
    a warm CDCM cost call (about 460 us, one simulation); about 0.3 ms
    on [Scale.pipeline_256] (2 048 packets) against about 6 ms.  It is
    used as an ablation ("how much of texec is contention?"), as a
    sanity bound checked by property tests, and, through the kernels
    below, as the incremental CDCM evaluator's bound. *)

type estimate = {
  critical_path_cycles : int;  (** Dependence-chain bound. *)
  link_load_cycles : int;      (** Busiest-link demand bound. *)
  lower_bound_cycles : int;    (** Max of the two. *)
}

val estimate :
  ?fault_policy:Wormhole.fault_policy ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  placement:int array ->
  Nocmap_model.Cdcg.t ->
  estimate
(** Both bounds honor the simulator's fault semantics when [crg]
    carries faults: packet drops are timing-independent, so the
    estimator resolves them exactly — a severed packet contributes its
    futile-retry span ([max_retries * retry_backoff] cycles under
    [?fault_policy], default {!Wormhole.default_fault_policy}) to the
    critical path, a cascade-dropped packet resolves with its last
    dependence, and dropped packets contribute no link demand (they
    never enter the network).  On a fault-free CRG the policy is
    irrelevant and the estimate is unchanged.
    @raise Invalid_argument on an invalid placement. *)

val contention_share : estimate -> simulated_cycles:int -> float
(** Fraction of the simulated execution time not explained by the
    contention-free bound: [(sim - bound) / sim], clamped to [0, 1]. *)

(** {1 Kernels}

    The steps {!estimate} runs, over caller-owned per-packet arrays
    indexed by packet and per-link arrays indexed by
    {!Nocmap_noc.Link.slot_count} slot.  They are the one definition of
    the contention-free bound: an evaluator that keeps this state across
    calls (the incremental CDCM evaluator) rebuilds it with these
    kernels and gets exactly what {!estimate} computes.  None of them
    allocates. *)

val latency :
  params:Nocmap_energy.Noc_params.t ->
  retry_cycles:int ->
  compute:int ->
  flits:int ->
  routers:int ->
  int
(** Launch-to-resolution time of a packet without contention:
    [compute] plus the Equation (8) delay over a route of [routers]
    routers, or, on a severed route ([routers = 0]), [compute] plus the
    futile-retry span [retry_cycles] ([max_retries * retry_backoff]). *)

val propagate :
  Nocmap_model.Cdcg.t ->
  lat:int array ->
  severed:bool array ->
  complete:int array ->
  dropped:bool array ->
  sent:int array ->
  int
(** Walks the CDCG's topological [order] with per-packet latencies
    [lat] (see {!latency}) and severed flags, and overwrites for every
    packet [i], with [ready] the latest [complete] of its dependences:
    [sent.(i) = ready + compute], the earliest launch; [dropped.(i)],
    set when a dependence was dropped (a cascade drop) or the route is
    severed; and [complete.(i)], [ready] for a cascade drop and
    [ready + lat.(i)] otherwise.  Returns the packet with the largest
    [complete] (the first in [order] on ties), or [-1] when the CDCG has
    no packets; that [complete] is the critical-path bound. *)

val link_demand :
  occupancy:int array ->
  paths:Nocmap_noc.Crg.path array ->
  dropped:bool array ->
  sent:int array ->
  load:int array ->
  earliest:int array ->
  unit
(** Overwrites, per link slot, [load] with the summed [occupancy]
    ([tr + flits*tl]) of the packets not [dropped] whose [paths] cross
    it, and [earliest] with the smallest [sent] among them ([max_int]
    on an idle link). *)

val link_bound : load:int array -> earliest:int array -> int
(** The link-load bound: the largest [earliest + load] over the links
    with positive [load], or 0 when no link carries traffic. *)
