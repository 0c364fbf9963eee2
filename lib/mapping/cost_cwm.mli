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
    table and float weights once and returns a stateless evaluator that
    any number of domains may share; one-shot callers and the tests'
    reference use it that way.  Each term is the float
    {!Nocmap_energy.Equations.communication_energy} gives for the pair's
    route, summed in {!Nocmap_model.Cwg.communications} order, so every
    cost is bit-identical to that per-communication sum.
    @raise Invalid_argument on an invalid placement, one that places
    fewer cores than the CWG has, or when two communicating cores sit on
    tiles with no route between them. *)

val incremental_energy :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  Placement.t ->
  float
(** {!dynamic_energy} priced by the cores that moved since the last
    placement it accepted.  It is {!region_energy} whose region is every
    core the placement places, so nothing is frozen: the record, the
    straight pass, the errors and the one-domain rule below hold for it
    too.  {!Objective.cwm} uses it on a CWG of 32 cores or more. *)

val region_energy :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  cores:int array ->
  Placement.t ->
  float
(** {!dynamic_energy} for a search that moves only [cores], as a
    {!Decompose} region does ({!Objective.cwm_region}).  Applied to
    [~tech ~crg ~cwg ~cores], it builds a per-core index of the
    communications and returns an evaluator for placements that agree
    with the first placement it accepts everywhere outside [cores]; the
    caller keeps that contract, as for an {!Eval_cache} with a
    [support].

    {b The record.}  The evaluator keeps its own copy of the tiles of
    the last placement it accepted and its cost, and derives from them
    a tile-to-core table, every communication's term, and the running
    sums of the terms in {!Nocmap_model.Cwg.communications} order.  A
    call compares each of [cores] with the record.  When at most half
    of them moved, it checks only the cores that moved (in range, no
    two on one tile, none onto a tile held by an unmoved core or a core
    outside [cores]), re-prices only the communications with an end at
    a moved core, each once, and adds the terms from the first
    re-priced one on, in that order, to the recorded sum of the terms
    before it: the additions {!dynamic_energy} makes, so each cost is
    bit-identical to its.  A call where nothing moved returns the
    recorded cost.  The caller may build each placement by mutating one
    array in place: the record is a copy.

    {b The straight pass.}  The first call, the first after a change of
    length or an unrouted pair, and a call where more than half of
    [cores] moved (a random placement, a crossover) check the whole
    placement and run {!dynamic_energy}'s fold, with the sum fused in,
    then copy the placement as the record; the derived tables are
    rebuilt by the next call that needs them, so a stream of unrelated
    placements costs a fold, a compare and a copy per call.

    {b Errors.}  An invalid or unrouted placement raises the
    [Invalid_argument] {!dynamic_energy} raises, with the same message.
    A refused placement leaves the record as it was; an unrouted pair
    drops it, so the next call takes the straight pass.

    A warm call allocates nothing but its boxed result.  The evaluator
    owns its record and scratch arrays: one domain at a time may call
    it.
    @raise Invalid_argument at creation on a negative or repeated core,
    and on a call as {!dynamic_energy} does, or when [cores] names a
    core the placement does not place. *)

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
