module Crg = Nocmap_noc.Crg
module Mesh = Nocmap_noc.Mesh
module Cwg = Nocmap_model.Cwg

(* Square-spiral walk anchored at the central tile; out-of-mesh steps are
   skipped, so the same walk covers square, non-square and degenerate
   (1xN) meshes.  The spiral expands forever, so every tile of any
   bounding rectangle around the center is eventually visited.  A
   stacked mesh runs the same planar spiral layer by layer, central
   layer first and alternating outward, so the heaviest communicators
   cluster around the 3-D center; the [layers = 1] order is exactly the
   historical 2-D walk. *)
let tile_order mesh =
  let cols = mesh.Mesh.cols and rows = mesh.Mesh.rows in
  let total = Mesh.tile_count mesh in
  let order = Array.make total (-1) in
  let count = ref 0 in
  let spiral_layer z =
    let planar = Mesh.layer_tiles mesh in
    let filled = ref 0 in
    let visit x y =
      if x >= 0 && x < cols && y >= 0 && y < rows then begin
        order.(!count) <- Mesh.tile_of_coord3 mesh ~x ~y ~z;
        incr count;
        incr filled
      end
    in
    let x = ref ((cols - 1) / 2) and y = ref ((rows - 1) / 2) in
    visit !x !y;
    (* Arms of growing length, two per length: E,S then W,N alternating. *)
    let dirs = [| (1, 0); (0, 1); (-1, 0); (0, -1) |] in
    let dir = ref 0 and arm = ref 1 in
    while !filled < planar do
      for _leg = 1 to 2 do
        let dx, dy = dirs.(!dir) in
        for _ = 1 to !arm do
          if !filled < planar then begin
            x := !x + dx;
            y := !y + dy;
            visit !x !y
          end
        done;
        dir := (!dir + 1) mod 4
      done;
      incr arm
    done
  in
  let zc = (mesh.Mesh.layers - 1) / 2 in
  spiral_layer zc;
  for d = 1 to mesh.Mesh.layers - 1 do
    if zc + d < mesh.Mesh.layers then spiral_layer (zc + d);
    if zc - d >= 0 then spiral_layer (zc - d)
  done;
  order

let search ~tech ~crg ~cwg () =
  let cores = Cwg.core_count cwg in
  let tiles = Crg.tile_count crg in
  if cores > tiles then invalid_arg "Spiral.search: more cores than tiles";
  let order = tile_order (Crg.mesh crg) in
  (* Heaviest communicators sit innermost on the spiral, so the core
     pairs that exchange the most traffic stay within a few hops of the
     center — the placement heuristic of Benhaoua et al. *)
  let ranked =
    let volume = Greedy.connectivity cwg in
    List.sort (fun a b -> Int.compare volume.(b) volume.(a)) (List.init cores Fun.id)
  in
  let placement = Array.make cores (-1) in
  List.iteri (fun rank core -> placement.(core) <- order.(rank)) ranked;
  {
    Objective.placement;
    cost = Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement;
    evaluations = 0;
  }
