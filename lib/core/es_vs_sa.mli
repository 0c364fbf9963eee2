(** Certification of the annealing heuristic against exhaustive search.

    The paper reports that "for small NoC sizes (up to 3x4 or 2x5), both
    ES and SA methods reached the same results".  This module runs both
    on an instance and reports whether SA attains the exhaustive
    optimum. *)

type verdict = {
  app : string;
  mesh : Nocmap_noc.Mesh.t;
  objective_name : string;
  es_cost : float;
  sa_cost : float;
  sa_reached_optimum : bool;   (** [sa_cost <= es_cost * (1 + 1e-9)]. *)
  es_evaluations : int;
  sa_evaluations : int;
}

val certify :
  rng:Nocmap_util.Rng.t ->
  ?sa_config:Nocmap_mapping.Annealing.config ->
  ?restarts:int ->
  mesh:Nocmap_noc.Mesh.t ->
  objective:Nocmap_mapping.Objective.t ->
  cores:int ->
  app:string ->
  unit ->
  verdict
(** Runs exhaustive search and [restarts] (default 3) annealing
    descents.
    @raise Invalid_argument when [restarts < 1], or when the instance is
    too large for exhaustive search (see
    {!Nocmap_mapping.Exhaustive.search}). *)

val render : verdict list -> string
