(** One mapping request: the paper's FRW flow — build the CRG and one
    objective under either cost model (CWM, Equation 3, or CDCM,
    Equation 10), then run one search — as a single typed value.

    [nocmap map] parses its flags into a request and the serve engine
    decodes a job spec into one; {!run} alone builds objectives,
    symmetry groups and evaluation caches and dispatches the
    algorithms. *)

type model =
  | Cwm   (** Communication-weight model. *)
  | Cdcm  (** Communication-dependence-and-computation model. *)

type algorithm =
  | Sa           (** Simulated annealing. *)
  | Local        (** Steepest-descent local search from a random start. *)
  | Greedy       (** Constructive greedy placement. *)
  | Greedy_local (** Greedy seed refined by local search. *)
  | Random       (** Random sampling baseline. *)
  | Es           (** Exhaustive search (small instances only). *)
  | Portfolio of Portfolio.strategy list  (** Racing portfolio. *)
  | Decompose of Decompose.refiner
      (** Divide-and-conquer mapping with this per-region searcher. *)

type budget =
  | Quick     (** Each algorithm's reduced-budget configuration. *)
  | Standard  (** Each algorithm's default budget. *)

type t = {
  cdcg : Nocmap_model.Cdcg.t;
  mesh : Nocmap_noc.Mesh.t;
  routing : Nocmap_noc.Routing.algorithm;
  tech : Nocmap_energy.Technology.t;
  flit_bits : int;
  model : model;
  algorithm : algorithm;
  seed : int;
  budget : budget;
  incremental : bool;  (** CDCM incremental evaluation (requires [Cdcm]). *)
  cache : bool;
      (** Memoize CDCM evaluations behind the mesh-symmetry canonical
          form, and let [Es] enumerate one placement per symmetry
          orbit.  Never changes results. *)
}

val model_to_string : model -> string
val model_of_string : string -> (model, string) result
val algorithm_to_string : algorithm -> string

val algorithm_of_string : string -> (algorithm, string) result
(** ["portfolio"] races {!Portfolio.all_strategies}; ["decompose"]
    refines with {!Decompose.Sa}. *)

val budget_to_string : budget -> string
val budget_of_string : string -> (budget, string) result

val journals : algorithm -> bool
(** Whether {!run} checkpoints the algorithm when given [?persist];
    [Greedy], [Random] and [Es] never do. *)

type persist = {
  store : Nocmap_persist.Store.t;  (** Checkpoint directory. *)
  scope : string;  (** Key prefix for the journal shards. *)
  every : int;     (** Checkpoint cadence in evaluations. *)
}
(** A journaling algorithm owns the shard [scope ^ ".sa"] ([".local"],
    [".portfolio"], [".decompose"]) of [store] under the
    {!Search_persist} protocol: running the same request over the same
    store again resumes it bit-identically. *)

type details =
  | Single
  | Race of Portfolio.report
  | Regions of Decompose.report

type outcome = {
  result : Objective.search_result;
      (** [cost] is under the request's objective for every algorithm
          (the greedy placement is scored with one extra evaluation). *)
  evaluation : Cost_cdcm.evaluation;  (** Of [result.placement]. *)
  details : details;
  cache : Eval_cache.t option;
      (** The cache behind a single-objective search, if one was used;
          portfolio racers and decompose regions own private caches. *)
}

val run :
  ?jobs:int ->
  ?stop:(unit -> bool) ->
  ?persist:persist ->
  ?shared:(string, Eval_cache.t) Hashtbl.t ->
  ?convergence:Nocmap_obs.Series.t ->
  t ->
  outcome
(** Builds the CRG, the objective and its caches once, then runs the
    algorithm.  A symmetry group (hop-exact for CWM, path-exact for
    CDCM) is built at most once, and only when a CDCM cache or [Es]
    uses it: a CWM request other than [Es] builds neither a group nor a
    cache.

    [jobs] (default 1) is the domain count of [Portfolio] and
    [Decompose]; results are identical for any value.  [stop] is a
    sticky external stop.  [shared] holds CDCM caches that sequential
    requests for the same application and NoC reuse; caches are
    single-domain, so concurrent requests must not share a table.
    [convergence] records the best-cost trace of [Sa], [Es], [Local]
    and [Greedy_local].
    @raise Invalid_argument when the application does not fit the
    mesh or exceeds the algorithm's range. *)

val result_json : outcome -> Nocmap_persist.Json.t
(** Placement, cost, evaluation count, energy split and execution time,
    floats in exact hex form: the serve reply's [result]. *)
