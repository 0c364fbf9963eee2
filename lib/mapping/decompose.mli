(** Divide-and-conquer mapping for large meshes (after Ogras &
    Marculescu, arXiv:0710.4707).

    Flat search stalls past ~100 cores: every move is global, so the
    search spends its budget shuffling cores that barely communicate.
    Decomposition exploits the traffic structure instead:

    + the CWG is {e recursively bipartitioned} by minimum traffic cut
      (Kernighan-Lin style: greedy growth then improving pair swaps,
      with deterministic lowest-index tie-breaking and no randomness);
    + in lock-step with the graph recursion the mesh rectangle is split
      along its longer side, so each cluster lands on a {e contiguous
      rectangular region} whose capacity is proportional to the cluster
      size;
    + each region is {e refined independently} with an existing searcher
      ({!Annealing}, {!Tabu} or {!Local_search}) over the region's tiles
      only, every other core frozen at the constructive seed — regions
      are disjoint, so the refinements run in parallel on
      {!Nocmap_util.Domain_pool} domains and compose without conflicts;
    + an optional {e global polish} pass (deterministic steepest
      descent, profiting from the incremental CDCM evaluator when the
      caller built one) cleans up the region boundaries.

    {b Determinism.}  The partition and seed assignment are pure
    functions of (CWG, mesh, config).  Each region owns a pre-split
    {!Nocmap_util.Rng} substream (split in region order) and regions
    never read each other's progress, so the result is bit-identical
    whatever the pool size ([NOCMAP_JOBS]) — and whatever the slicing,
    which is why a kill at an arbitrary point resumes exactly.

    {b Cache sharing.}  [objective_for] is called once for the driver
    (seed scoring, composition, polish) and lazily once per region; each
    call must return a fresh objective ({!Eval_cache}, the simulation
    scratch and the incremental CWM evaluator's record are single-domain
    by contract).  When [region_objective_for] is given, the region
    calls go through it instead, with the region's cluster cores and
    tiles.  A region objective is only ever called on the seed placement
    with that region's cores rewritten (in one array the driver mutates
    in place), so it may rely on every other core staying put, and one
    domain at a time calls it.  Two objectives use that contract: a CDCM
    cache whose keys cover only the cores the region moves
    ({!Eval_cache.create}'s [support]), a ~[cores/region] reduction of
    the dominant search-time allocation, and {!Objective.cwm_region},
    which compares only those cores with its record and re-prices the
    CWM terms of the ones a call moved.  The driver's {!Objective.cwm}
    prices the polish the same way over every core.  All return the
    full objective's costs bit for bit, so every path gives the same
    report, and a resumed run rebuilds each record from the first
    placement it evaluates: nothing of it is journaled. *)

type refiner =
  | Sa     (** {!Annealing.search} inside each region (the default). *)
  | Tabu   (** {!Tabu.search} inside each region. *)
  | Local  (** {!Local_search.search} inside each region. *)

val refiner_to_string : refiner -> string
val refiner_of_string : string -> refiner option

type rect = {
  x : int;
  y : int;
  z : int;  (** First layer; 0 on a planar mesh. *)
  w : int;
  h : int;
  d : int;  (** Layer count; 1 on a planar mesh. *)
}
(** A cuboid of the mesh, in tile coordinates — a plain rectangle when
    [d = 1]. *)

type region = {
  cores : int array;  (** Cluster members, ascending. *)
  rect : rect;
  tiles : int array;  (** The cuboid's tiles, center-out. *)
}

type config = {
  max_region : int;    (** Recursion stops at clusters of this size. *)
  kl_passes : int;     (** Improving-swap budget factor per bipartition. *)
  refiner : refiner;
  slice : int;         (** Cost calls per region per checkpoint round. *)
  sa : Annealing.config;    (** Per-region annealing budget. *)
  tabu : Tabu.config;       (** Per-region tabu budget. *)
  local_evaluations : int;  (** Per-region budget for {!Local}. *)
  polish : int;        (** Global polish cost calls; [0] disables. *)
}

val default_config : tiles:int -> config
val quick_config : tiles:int -> config
(** A cheaper budget for tests and smoke benches. *)

val partition :
  ?swaps:int ref ->
  cwg:Nocmap_model.Cwg.t ->
  mesh:Nocmap_noc.Mesh.t ->
  max_region:int ->
  kl_passes:int ->
  unit ->
  region list
(** The pure partition: every core of the CWG appears in exactly one
    region, every region's cluster fits its rectangle, and the regions
    tile the mesh.  [?swaps] accumulates the number of improving KL
    swaps taken.
    @raise Invalid_argument when the CWG has more cores than the mesh
    has tiles, or on a non-positive [max_region] / negative
    [kl_passes]. *)

val cut_bits : cwg:Nocmap_model.Cwg.t -> region list -> int
(** Communication volume (bits) crossing region boundaries — the
    quantity the recursive bipartition minimizes. *)

type checkpoint = {
  region_states : Refiner.state list;
      (** In region order; a finished region's result lives in the
          region's local tile indices. *)
  seed : Objective.search_result;
      (** The constructive seed placement and its cost. *)
  base : Objective.search_result option;
      (** Once the regions composed: the better of (seed, composition),
          with [evaluations] totalling everything consumed so far. *)
  polish : Local_search.checkpoint option;  (** Polish in flight. *)
}
(** Complete search state.  The partition, the seed assignment and the
    region objectives are pure recomputations, so only the native
    searcher states need recording. *)

type region_report = {
  region_cores : int list;
  region_rect : rect;
  region_cost : float;  (** Refiner's best under the frozen-seed view. *)
  region_evaluations : int;
}

type report = {
  result : Objective.search_result;
      (** Never worse than the seed; [evaluations] totals the seed
          scoring, every region's refiner, the composition and the
          polish. *)
  regions : region_report list;
  cut : int;            (** Bits crossing region boundaries. *)
  total : int;          (** Total CWG bits (for the cut fraction). *)
  seed_cost : float;
  polish_evaluations : int;
}

val search :
  rng:Nocmap_util.Rng.t ->
  config:config ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  objective_for:(unit -> Objective.t) ->
  ?region_objective_for:(cores:int array -> tiles:int array -> Objective.t) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?checkpoint:int * (checkpoint -> unit) ->
  ?resume:checkpoint ->
  unit ->
  report
(** Partitions, refines each region in parallel, composes, polishes.
    The [?stop] / [?checkpoint] / [?resume] contract matches
    {!Annealing.search} (sticky stop, cadence on total evaluations plus
    a final flush on stop, bit-identical resume) — except that a run
    stopped before every region has a recorded state flushes nothing.
    @raise Invalid_argument on a malformed config or [cores > tiles]. *)
