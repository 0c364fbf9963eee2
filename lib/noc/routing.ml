type algorithm =
  | Xy
  | Yx
  | Torus_xy
  | Torus_yx

type path = {
  routers : int array;
  links : int array;
}

let algorithm_to_string = function
  | Xy -> "xy"
  | Yx -> "yx"
  | Torus_xy -> "torus-xy"
  | Torus_yx -> "torus-yx"

let algorithm_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "xy" | "xyz" -> Xy
  | "yx" | "yxz" -> Yx
  | "torus-xy" -> Torus_xy
  | "torus-yx" -> Torus_yx
  | other -> invalid_arg ("Routing.algorithm_of_string: unknown algorithm " ^ other)

let uses_wrap_links = function
  | Xy | Yx -> false
  | Torus_xy | Torus_yx -> true

(* Signed hop count from [v] to [target] along one dimension of size
   [extent].  On a torus it takes the shorter way around, forward on
   ties; re-deciding at every hop picks the same way, so the sign holds
   for the whole walk. *)
let offset ~torus v target extent =
  if not torus then target - v
  else
    let forward = (target - v + extent) mod extent in
    let backward = (v - target + extent) mod extent in
    if forward <= backward then forward else -backward

(* Writes [hops] hops along one dimension from hop index [i] on: each
   moves coordinate [v] one step by [sign] (wrapping within [extent]),
   the tile by the matching multiple of [stride], and leaves through
   link slot [slot] of the tile it departs.  Returns the next hop
   index; the tile reached is [routers.(i)]. *)
let rec walk ~routers ~links ~spt ~stride ~extent ~sign ~slot i v hops =
  if hops = 0 then i
  else begin
    let tile = routers.(i) in
    let v' = (v + sign + extent) mod extent in
    links.(i) <- (spt * tile) + slot;
    routers.(i + 1) <- tile + ((v' - v) * stride);
    walk ~routers ~links ~spt ~stride ~extent ~sign ~slot (i + 1) v' (hops - 1)
  end

(* One dimension of the walk, [d] signed hops from coordinate [v]. *)
let walk_dim ~routers ~links ~spt ~stride ~extent ~back ~ahead i v d =
  if d >= 0 then
    walk ~routers ~links ~spt ~stride ~extent ~sign:1 ~slot:ahead i v d
  else walk ~routers ~links ~spt ~stride ~extent ~sign:(-1) ~slot:back i v (-d)

let east = Link.direction_slot Link.East
let west = Link.direction_slot Link.West
let north = Link.direction_slot Link.North
let south = Link.direction_slot Link.South
let up = Link.direction_slot Link.Up
let down = Link.direction_slot Link.Down

(* The vertical dimension never wraps — TSVs are physical vias — so the
   z walk is a plain mesh walk even for the torus algorithms. *)
let route mesh algo ~src ~dst =
  let torus = uses_wrap_links algo in
  if torus && (mesh.Mesh.cols < 3 || mesh.Mesh.rows < 3) then
    invalid_arg "Routing.router_path: torus routing requires both dimensions >= 3";
  let xs, ys, zs = Mesh.coord3_of_tile mesh src in
  let xd, yd, zd = Mesh.coord3_of_tile mesh dst in
  let cols = mesh.Mesh.cols and rows = mesh.Mesh.rows in
  let dx = offset ~torus xs xd cols and dy = offset ~torus ys yd rows in
  let dz = zd - zs in
  let hops = abs dx + abs dy + abs dz in
  let routers = Array.make (hops + 1) src and links = Array.make hops 0 in
  let spt = Link.slots_per_tile mesh in
  let i =
    match algo with
    | Xy | Torus_xy ->
      let i =
        walk_dim ~routers ~links ~spt ~stride:1 ~extent:cols ~back:west ~ahead:east 0
          xs dx
      in
      walk_dim ~routers ~links ~spt ~stride:cols ~extent:rows ~back:north ~ahead:south
        i ys dy
    | Yx | Torus_yx ->
      let i =
        walk_dim ~routers ~links ~spt ~stride:cols ~extent:rows ~back:north
          ~ahead:south 0 ys dy
      in
      walk_dim ~routers ~links ~spt ~stride:1 ~extent:cols ~back:west ~ahead:east i
        xs dx
  in
  ignore
    (walk_dim ~routers ~links ~spt ~stride:(cols * rows) ~extent:mesh.Mesh.layers
       ~back:up ~ahead:down i zs dz);
  { routers; links }

let router_path mesh algo ~src ~dst = Array.to_list (route mesh algo ~src ~dst).routers

let hop_count mesh algo ~src ~dst = Array.length (route mesh algo ~src ~dst).routers
