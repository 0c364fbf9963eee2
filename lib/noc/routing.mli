(** Deterministic dimension-ordered routing.

    The paper evaluates a wormhole mesh NoC with deterministic XY
    routing; YX and the torus variants are provided as ablations ("other
    NoC topologies can be equally treated", Section 3.1).  A route is
    the ordered list of routers traversed, from the source tile's router
    to the destination tile's router inclusive — its length is the
    paper's [K] in Equations (2) and (6)-(8). *)

type algorithm =
  | Xy        (** Resolve the X (column) offset first, then Y, then Z —
                  deterministic XYZ routing on a stacked mesh. *)
  | Yx        (** Resolve the Y (row) offset first, then X, then Z. *)
  | Torus_xy  (** Dimension order XY on a torus: each planar dimension
                  takes the shorter way around (ties go east/south).
                  The vertical dimension never wraps. *)
  | Torus_yx  (** Dimension order YX on a torus. *)

val algorithm_to_string : algorithm -> string

val algorithm_of_string : string -> algorithm
(** Accepts ["xy"], ["yx"], ["torus-xy"], ["torus-yx"]
    case-insensitively (["xyz"]/["yxz"] are aliases for the first two).
    @raise Invalid_argument otherwise. *)

val uses_wrap_links : algorithm -> bool
(** Whether routes may traverse wrap-around links. *)

type path = {
  routers : int array;  (** Tiles traversed, source to destination inclusive. *)
  links : int array;    (** {!Link.id}s between consecutive routers. *)
}

val route : Mesh.t -> algorithm -> src:int -> dst:int -> path
(** The dimension-ordered route from [src] to [dst]: routers in order,
    [src] and [dst] included ([src = dst] yields the singleton path),
    and the link taken at each hop, read off the step direction (with
    [~wrap] under a torus algorithm).  On a stacked mesh the vertical
    offset is resolved last, after both planar dimensions.  Allocates
    the two arrays and nothing per hop.
    @raise Invalid_argument for a torus algorithm on a mesh with a
    planar dimension below 3 (see {!Link}), or an out-of-range tile. *)

val router_path : Mesh.t -> algorithm -> src:int -> dst:int -> int list
(** The routers of {!route}, as a list. *)

val hop_count : Mesh.t -> algorithm -> src:int -> dst:int -> int
(** Number of routers on the path (the paper's [K]); equals
    [manhattan src dst + 1] for the minimal mesh routes and at most that
    for torus routes. *)
