(** Dense identifiers for directed inter-tile links.

    On a planar ([layers = 1]) mesh each tile owns four outgoing link
    slots (north, east, south, west); the link from tile [a] to an
    adjacent tile [b] has identifier [4*a + direction] — bit-identical
    to the historical 2-D encoding.  On a stacked mesh each tile owns
    six slots (the four planar ones plus up/down vertical TSV links) and
    the identifier is [6*a + direction].  These identifiers index the
    per-link occupancy and cost-variable arrays of the simulator.

    With [~wrap:true] the mesh is treated as a torus: the slots leaving
    the mesh boundary wrap to the opposite edge.  Only the planar
    dimensions wrap — vertical links are physical vias and never do.
    To keep the (src, dst) -> id relation unambiguous, wrap mode
    requires both planar mesh dimensions to be at least 3 (on a 2-wide
    torus the wrap channel and the internal channel would connect the
    same tile pair). *)

type direction =
  | North
  | East
  | South
  | West
  | Up  (** Vertical TSV link to the layer above ([z - 1]). *)
  | Down  (** Vertical TSV link to the layer below ([z + 1]). *)

val direction_to_string : direction -> string

val direction_slot : direction -> int
(** A direction's slot within its tile: the link leaving tile [a]
    toward [d] has identifier [slots_per_tile * a + direction_slot d]. *)

val slots_per_tile : Mesh.t -> int
(** 4 on a planar mesh, 6 on a stacked one. *)

val slot_count : Mesh.t -> int
(** Size of an array indexed by link id, [slots_per_tile * tile_count]. *)

val id : ?wrap:bool -> Mesh.t -> src:int -> dst:int -> int
(** Identifier of the directed link between two adjacent (or, with
    [~wrap:true], torus-adjacent) tiles.
    @raise Invalid_argument if the tiles are not neighbors, or if wrap
    is requested on a mesh with a planar dimension below 3. *)

val endpoints : ?wrap:bool -> Mesh.t -> int -> int * int
(** [(src, dst)] of a link id.
    @raise Invalid_argument for a slot that does not correspond to a
    physical link. *)

val is_vertical : Mesh.t -> int -> bool
(** Whether a slot is one of the vertical (TSV) slots.  Always [false]
    on a planar mesh.  @raise Invalid_argument when the id is outside
    [0 .. slot_count-1]. *)

val exists : ?wrap:bool -> Mesh.t -> int -> bool
(** Whether a slot in [0 .. slot_count-1] is a physical link.  On a
    torus every in-range planar slot is; boundary vertical slots are
    not. *)

val all : ?wrap:bool -> Mesh.t -> int list
(** Every physical link id, ascending. *)

val to_string : ?wrap:bool -> Mesh.t -> int -> string
(** Human-readable form such as ["L(3->4)"]. *)
