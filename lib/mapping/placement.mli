(** Core-to-tile placements.

    A placement is the mapping function of Section 3: an injective
    assignment [placement.(core) = tile].  The module provides the move
    primitives shared by every search algorithm. *)

type t = int array

val validate : tiles:int -> t -> (unit, string) result
(** Checks range and injectivity. *)

val is_valid : tiles:int -> t -> bool

val random : Nocmap_util.Rng.t -> cores:int -> tiles:int -> t
(** Uniformly random injective placement.
    @raise Invalid_argument when [cores > tiles]. *)

val identity : cores:int -> t
(** Core [i] on tile [i]. *)

val swap_cores : t -> int -> int -> t
(** New placement with the tiles of two cores exchanged. *)

val move_to_tile : t -> core:int -> tile:int -> t
(** New placement with [core] on [tile]; if another core occupied
    [tile], that core takes the vacated tile (so injectivity is
    preserved whether or not [tile] was free). *)

val relocate : t -> core:int -> tile:int -> other:int -> t
(** {!move_to_tile} for a caller that knows [other], the core on [tile]
    or [-1] when [tile] is free, so no scan looks for it. *)

val random_neighbor : Nocmap_util.Rng.t -> tiles:int -> t -> t
(** One annealing move: a random core hops to a random different tile
    (swapping with its occupant when the tile is taken).
    @raise Invalid_argument when [tiles < 2]. *)

val occupant : t -> tiles:int -> int option array
(** Inverse view: [occupant.(tile)] is the core placed there, if any. *)

val to_string : core_names:string array -> t -> string
(** e.g. ["A@2 B@0 E@1 F@3"]. *)
