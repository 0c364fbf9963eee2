(** Communication resource graph (Definition 3 of the paper).

    The CRG packages the target architecture: the mesh, the routing
    algorithm, an optional hardware-fault scenario, and the router/link
    paths between every ordered tile pair.  Routers and links carry the
    cost variables the mapping algorithms accumulate; those annotations
    live with the evaluator, while this module owns the static
    structure.

    {b When paths are built.}  A fault-free CRG fills its per-pair
    tables ({!router_counts}, {!tsv_counts}, {!max_routers}) in closed
    form from tile coordinates and walks no route at creation: {!path}
    builds a pair's route on its first call and keeps it.  A CWM search
    reads only the tables, so it never builds a route, and a simulation
    builds just the routes its packets take.  Domains may call {!path}
    concurrently: two first calls for one pair race benignly, because
    each builds the same immutable route and the store publishes it
    whole, so every caller gets a complete route equal to the eager
    one.  A faulted CRG builds every path at creation, since
    {!classify}, {!unreachable_pairs} and the detour totals need every
    pair up front.

    With a {!Fault} scenario, path precomputation degrades gracefully:
    a pair whose dimension-ordered route survives keeps it unchanged; a
    pair whose route crosses a failed component falls back to a minimal
    breadth-first reroute over the surviving topology (deterministic —
    neighbors are explored in ascending {!Link.id} order); a pair with
    no surviving route is classified {!Unreachable} instead of raising.
    An empty fault set yields paths bit-identical to the fault-free
    CRG. *)

type path = Routing.path = {
  routers : int array;  (** Tiles traversed, source to destination inclusive. *)
  links : int array;    (** {!Link.id}s between consecutive routers. *)
}

(** Fate of an ordered tile pair under the CRG's fault scenario. *)
type reachability =
  | Reachable of int  (** Extra links taken versus the fault-free
                          dimension-ordered route (0 = route intact). *)
  | Unreachable       (** No surviving route; {!path} is empty. *)

type t

val create : ?routing:Routing.algorithm -> ?faults:Fault.t -> Mesh.t -> t
(** Builds the CRG (XY by default): the per-pair tables, and every path
    too when [faults] is a non-empty scenario.
    @raise Invalid_argument when {!Routing.check_mesh} rejects the
    routing on the mesh, when [faults] was built for a different mesh,
    or when it references link slots that are not physical under the
    requested routing's wrap mode. *)

val mesh : t -> Mesh.t

val routing : t -> Routing.algorithm

val faults : t -> Fault.t option
(** The scenario passed to {!create}, if any. *)

val tile_count : t -> int

val path : t -> src:int -> dst:int -> path
(** The pair's route, built on the first call on a fault-free CRG and
    shared afterwards; the empty path for an {!Unreachable} pair.
    Safe to call from several domains at once.
    @raise Invalid_argument on out-of-range tiles. *)

val classify : t -> src:int -> dst:int -> reachability
(** @raise Invalid_argument on out-of-range tiles. *)

val reachable : t -> src:int -> dst:int -> bool

val unreachable_pairs : t -> (int * int) list
(** Ordered pairs with no surviving route, ascending; empty on a
    fault-free CRG. *)

val total_detour_links : t -> int
(** Sum of per-pair detour lengths — 0 on a fault-free CRG. *)

val max_detour_links : t -> int

val router_count_on_path : t -> src:int -> dst:int -> int
(** The paper's [K]: number of routers a packet traverses (0 for an
    {!Unreachable} pair). *)

val tsv_links_on_path : t -> src:int -> dst:int -> int
(** Number of vertical (TSV) links on the pair's path — the [v] in the
    3-D extension of Eq. (2).  Always 0 on a planar mesh; O(1), and
    builds no route. *)

(** {2 Flat per-pair tables}

    The arrays behind {!router_count_on_path} and {!tsv_links_on_path},
    indexed [src * tile_count + dst], for cost folds that cannot afford
    a checked call per pair.  They are shared with the CRG: read them,
    never write them. *)

val router_counts : t -> int array
(** [K] of every ordered pair; 0 for an {!Unreachable} pair. *)

val tsv_counts : t -> int array
(** Vertical links of every ordered pair; the empty array on a planar
    mesh, where every count is 0. *)

val max_routers : t -> int
(** The longest route, in routers. *)

val to_digraph : t -> Nocmap_graph.Digraph.t
(** Vertices are tiles, edges are the {e surviving} physical links
    (label 0); the architecture graph of Definition 3, e.g. for DOT
    export. *)
