(** Greedy constructive mapping — a fast deterministic baseline beyond
    the paper (in the spirit of bandwidth-driven constructive mappers
    such as Murali & De Micheli's NMAP).

    Cores are placed in decreasing order of total communication volume;
    the first goes to the most central tile, and each following core
    takes the free tile that minimizes the partial CWM dynamic energy
    toward the cores already placed. *)

val connectivity : Nocmap_model.Cwg.t -> int array
(** Each core's total communication volume (bits, both directions) with
    all partners, indexed by core — the placement priority used here, by
    the {!Spiral} seed and by {!Decompose}'s seed assignment. *)

val search :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  unit ->
  Objective.search_result
(** The reported [cost] is the CWM dynamic energy of the final
    placement.  @raise Invalid_argument when the application has more
    cores than the CRG has tiles. *)
