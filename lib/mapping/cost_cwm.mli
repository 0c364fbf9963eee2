(** The CWM objective function (Equation 3).

    For a placement, every communication [a -> b] of the CWG is routed
    on the CRG; its [w_ab] bits charge [ERbit] at each of the [K]
    routers and [ELbit] on each of the [K-1] links.  The total is the
    NoC dynamic energy [EDyNoC], the only quantity CWM can optimize —
    it carries no timing, so it cannot see contention or static
    energy. *)

val dynamic_energy :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  Placement.t ->
  float
(** [EDyNoC] in Joules: a fold over the CWG's communication arrays and
    the CRG's per-pair router and TSV counts, which builds no route.
    Applied to [~tech ~crg ~cwg] alone, it builds its per-bit energy
    table and float weights once and returns the evaluator;
    {!Objective.cwm} uses it that way.  Each term is the float
    {!Nocmap_energy.Equations.communication_energy} gives for the pair's
    route, summed in {!Nocmap_model.Cwg.communications} order, so every
    cost is bit-identical to that per-communication sum.
    @raise Invalid_argument on an invalid placement, one that places
    fewer cores than the CWG has, or when two communicating cores sit on
    tiles with no route between them. *)

val region_energy :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  cores:int array ->
  Placement.t ->
  float
(** {!dynamic_energy} for a search that moves only [cores], as a
    {!Decompose} region does.  Applied to [~tech ~crg ~cwg ~cores], it
    returns an evaluator for placements that agree with the first
    placement it accepts everywhere outside [cores]; the caller keeps
    that contract, as for an {!Eval_cache} with a [support].

    The first accepted call checks the whole placement as
    {!dynamic_energy} does, records the tiles of the other (frozen)
    cores, and stores each term between two frozen cores as the float
    the full fold computes.  After that, a call checks only the [cores]
    entries (in range, pairwise distinct, not on a frozen core's tile),
    computes only the terms that touch [cores], and adds every term in
    {!Nocmap_model.Cwg.communications} order.  So each cost is
    bit-identical to {!dynamic_energy}'s, and an invalid or unrouted
    placement raises the same [Invalid_argument].  A warm call
    allocates nothing but its boxed result.

    The evaluator owns its scratch arrays: one domain at a time may call
    it.
    @raise Invalid_argument at creation on a negative or repeated core,
    and on a call as {!dynamic_energy} does, or when [cores] names a
    core the first placement does not place, or when the placement's
    length changed. *)

val ebit_table :
  tech:Nocmap_energy.Technology.t -> crg:Nocmap_noc.Crg.t -> float array
(** Energy per bit of every route shape the CRG holds: the entry at
    [tsv * (Crg.max_routers crg + 1) + routers] is
    {!Nocmap_energy.Equations.ebit_path}[ ~tsv tech ~routers], so
    [float_of_int bits *. entry] is the float
    {!Nocmap_energy.Equations.communication_energy} returns.  A planar
    mesh only has the [tsv = 0] row; entries for impossible shapes
    are 0. *)

val cost_table :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  Placement.t ->
  float array * float array
(** Per-router and per-link-slot energy cost variables (the Figure 2
    annotations); their sum equals {!dynamic_energy}. *)

val bit_hops :
  crg:Nocmap_noc.Crg.t -> cwg:Nocmap_model.Cwg.t -> Placement.t -> int
(** Technology-independent traffic metric: total [bits * routers]
    traversed.  Monotone in {!dynamic_energy} only for fixed router/link
    ratios; exposed for diagnostics and tests. *)
