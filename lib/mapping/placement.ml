module Rng = Nocmap_util.Rng

type t = int array

(* [validate] runs on every CWM cost call, so it marks used tiles in a
   per-domain array, grown to the largest tile count seen, instead of
   allocating one per call: a tile is taken in this call iff its mark
   equals the call's fresh stamp.  Nothing in the scan yields, so one
   domain's marks are never shared. *)
type marks = {
  mutable stamps : int array;
  mutable stamp : int;
}

let marks_key = Domain.DLS.new_key (fun () -> { stamps = [||]; stamp = 0 })

let rec scan ~tiles ~(stamps : int array) ~stamp placement core =
  if core >= Array.length placement then Ok ()
  else
    let tile = placement.(core) in
    if tile < 0 || tile >= tiles then
      Error (Printf.sprintf "core %d placed on out-of-range tile %d" core tile)
    else if stamps.(tile) = stamp then
      Error (Printf.sprintf "tile %d hosts more than one core" tile)
    else begin
      stamps.(tile) <- stamp;
      scan ~tiles ~stamps ~stamp placement (core + 1)
    end

let validate ~tiles placement =
  if Array.length placement > tiles then Error "more cores than tiles"
  else begin
    let marks = Domain.DLS.get marks_key in
    if Array.length marks.stamps < tiles then marks.stamps <- Array.make tiles 0;
    marks.stamp <- marks.stamp + 1;
    scan ~tiles ~stamps:marks.stamps ~stamp:marks.stamp placement 0
  end

let is_valid ~tiles placement = Result.is_ok (validate ~tiles placement)

let random rng ~cores ~tiles =
  if cores > tiles then invalid_arg "Placement.random: more cores than tiles";
  let tiles_arr = Array.init tiles Fun.id in
  Rng.sample_without_replacement rng cores tiles_arr

let identity ~cores = Array.init cores Fun.id

let swap_cores placement a b =
  let p = Array.copy placement in
  p.(a) <- placement.(b);
  p.(b) <- placement.(a);
  p

let occupant placement ~tiles =
  let inv = Array.make tiles None in
  Array.iteri (fun core tile -> inv.(tile) <- Some core) placement;
  inv

(* The first core on [tile], or -1. *)
let rec core_on placement tile core =
  if core >= Array.length placement then -1
  else if placement.(core) = tile then core
  else core_on placement tile (core + 1)

let move_to_tile placement ~core ~tile =
  let p = Array.copy placement in
  let other = core_on placement tile 0 in
  if other >= 0 then p.(other) <- placement.(core);
  p.(core) <- tile;
  p

let random_neighbor rng ~tiles placement =
  if tiles < 2 then invalid_arg "Placement.random_neighbor: need at least two tiles";
  let cores = Array.length placement in
  let core = Rng.int rng cores in
  let rec fresh_tile () =
    let tile = Rng.int rng tiles in
    if tile = placement.(core) then fresh_tile () else tile
  in
  move_to_tile placement ~core ~tile:(fresh_tile ())

let to_string ~core_names placement =
  String.concat " "
    (List.mapi
       (fun core tile -> Printf.sprintf "%s@%d" core_names.(core) tile)
       (Array.to_list placement))
