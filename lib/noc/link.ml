type direction =
  | North
  | East
  | South
  | West
  | Up
  | Down

let direction_to_string = function
  | North -> "north"
  | East -> "east"
  | South -> "south"
  | West -> "west"
  | Up -> "up"
  | Down -> "down"

let direction_slot = function
  | North -> 0
  | East -> 1
  | South -> 2
  | West -> 3
  | Up -> 4
  | Down -> 5

(* Planar meshes keep the historical four slots per tile so every 2-D
   link id (and everything keyed on them: simulator meters, fault
   scenarios, persisted hotspot reports) is bit-identical; the two
   vertical slots only exist when the mesh actually has layers. *)
let slots_per_tile mesh = if mesh.Mesh.layers = 1 then 4 else 6

let slot_count mesh = slots_per_tile mesh * Mesh.tile_count mesh

let check_wrap_dims mesh =
  if mesh.Mesh.cols < 3 || mesh.Mesh.rows < 3 then
    invalid_arg "Link: torus links require both mesh dimensions >= 3"

(* Signed per-dimension offset, reduced to the shortest torus step when
   wrapping.  Only the planar dimensions wrap: vertical (TSV) links are
   physical vias, so the z offset is always taken as-is. *)
let direction_between ~wrap mesh ~src ~dst =
  let xs, ys, zs = Mesh.coord3_of_tile mesh src in
  let xd, yd, zd = Mesh.coord3_of_tile mesh dst in
  let cols = mesh.Mesh.cols and rows = mesh.Mesh.rows in
  let dx = xd - xs and dy = yd - ys and dz = zd - zs in
  let dx = if wrap && dx = cols - 1 then -1 else if wrap && dx = -(cols - 1) then 1 else dx in
  let dy = if wrap && dy = rows - 1 then -1 else if wrap && dy = -(rows - 1) then 1 else dy in
  match (dx, dy, dz) with
  | 0, -1, 0 -> North
  | 1, 0, 0 -> East
  | 0, 1, 0 -> South
  | -1, 0, 0 -> West
  | 0, 0, -1 -> Up
  | 0, 0, 1 -> Down
  | _, _, _ -> invalid_arg "Link.id: tiles are not adjacent"

let id ?(wrap = false) mesh ~src ~dst =
  if wrap then check_wrap_dims mesh;
  (slots_per_tile mesh * src)
  + direction_slot (direction_between ~wrap mesh ~src ~dst)

let endpoints ?(wrap = false) mesh lid =
  if wrap then check_wrap_dims mesh;
  let spt = slots_per_tile mesh in
  let src = lid / spt in
  if lid < 0 || not (Mesh.in_range mesh src) then
    invalid_arg "Link.endpoints: id out of range";
  let x, y, z = Mesh.coord3_of_tile mesh src in
  let target =
    match lid mod spt with
    | 0 -> (x, y - 1, z)
    | 1 -> (x + 1, y, z)
    | 2 -> (x, y + 1, z)
    | 3 -> (x - 1, y, z)
    | 4 -> (x, y, z - 1)
    | _ -> (x, y, z + 1)
  in
  let tx, ty, tz = target in
  if tz < 0 || tz >= mesh.Mesh.layers then
    invalid_arg "Link.endpoints: slot has no physical link"
  else if wrap then
    let tx = (tx + mesh.Mesh.cols) mod mesh.Mesh.cols in
    let ty = (ty + mesh.Mesh.rows) mod mesh.Mesh.rows in
    (src, Mesh.tile_of_coord3 mesh ~x:tx ~y:ty ~z:tz)
  else if tx < 0 || tx >= mesh.Mesh.cols || ty < 0 || ty >= mesh.Mesh.rows then
    invalid_arg "Link.endpoints: slot has no physical link"
  else (src, Mesh.tile_of_coord3 mesh ~x:tx ~y:ty ~z:tz)

let is_vertical mesh lid =
  if lid < 0 || lid >= slot_count mesh then
    invalid_arg "Link.is_vertical: id out of range";
  mesh.Mesh.layers > 1 && lid mod slots_per_tile mesh >= 4

let exists ?(wrap = false) mesh lid =
  lid >= 0
  && lid < slot_count mesh
  &&
  match endpoints ~wrap mesh lid with
  | _, _ -> true
  | exception Invalid_argument _ -> false

let all ?(wrap = false) mesh =
  if wrap then check_wrap_dims mesh;
  List.filter (exists ~wrap mesh) (List.init (slot_count mesh) Fun.id)

let to_string ?(wrap = false) mesh lid =
  let src, dst = endpoints ~wrap mesh lid in
  Printf.sprintf "L(%d->%d)" src dst
