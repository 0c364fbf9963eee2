module Crg = Nocmap_noc.Crg
module Link = Nocmap_noc.Link
module Mesh = Nocmap_noc.Mesh
module Cwg = Nocmap_model.Cwg
module Equations = Nocmap_energy.Equations

let check ~crg ~cwg placement =
  (match Placement.validate ~tiles:(Crg.tile_count crg) placement with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cost_cwm: " ^ msg));
  if Array.length placement < Cwg.core_count cwg then
    invalid_arg
      (Printf.sprintf "Cost_cwm: placement covers %d cores, the CWG has %d"
         (Array.length placement) (Cwg.core_count cwg))

(* A vertical link is a link of the route, so [tsv < routers] bounds
   the rows even for a faulted detour that climbs and descends; a planar
   mesh needs row 0 only. *)
let ebit_table ~tech ~crg =
  let cols = Crg.max_routers crg + 1 in
  let rows = if Array.length (Crg.tsv_counts crg) = 0 then 1 else cols - 1 in
  let table = Array.make (max 1 rows * cols) 0.0 in
  for tsv = 0 to rows - 1 do
    for routers = tsv + 1 to cols - 1 do
      table.((tsv * cols) + routers) <- Equations.ebit_path ~tsv tech ~routers
    done
  done;
  table

(* Raised out of a fold at a pair with no route, so the fold's loop
   holds no call and keeps its sum in a register. *)
exception Unrouted

(* The fold reads its arrays unchecked: after [check], every core index
   of the CWG is below [Array.length placement] and every tile below
   [tiles], so each pair indexes the [tiles * tiles] tables, and a
   route's [tsv < routers <= max_routers] keeps the table entry in
   range.  Terms are summed in [Cwg.communications] order, so the float
   is the same as a checked fold's. *)
let dynamic_energy ~tech ~crg ~cwg =
  let table = ebit_table ~tech ~crg in
  let cols = Crg.max_routers crg + 1 in
  let tiles = Crg.tile_count crg in
  let router_counts = Crg.router_counts crg and tsv = Crg.tsv_counts crg in
  let src = cwg.Cwg.comm_src and dst = cwg.Cwg.comm_dst in
  let weights = Array.map float_of_int cwg.Cwg.comm_bits in
  let planar placement =
    let acc = ref 0.0 in
    for i = 0 to Array.length weights - 1 do
      let s = Array.unsafe_get placement (Array.unsafe_get src i) in
      let d = Array.unsafe_get placement (Array.unsafe_get dst i) in
      let routers = Array.unsafe_get router_counts ((s * tiles) + d) in
      if routers = 0 then raise_notrace Unrouted;
      acc := !acc +. (Array.unsafe_get weights i *. Array.unsafe_get table routers)
    done;
    !acc
  in
  let stacked placement =
    let acc = ref 0.0 in
    for i = 0 to Array.length weights - 1 do
      let s = Array.unsafe_get placement (Array.unsafe_get src i) in
      let d = Array.unsafe_get placement (Array.unsafe_get dst i) in
      let pair = (s * tiles) + d in
      let routers = Array.unsafe_get router_counts pair in
      if routers = 0 then raise_notrace Unrouted;
      let row = Array.unsafe_get tsv pair * cols in
      acc := !acc +. (Array.unsafe_get weights i *. Array.unsafe_get table (row + routers))
    done;
    !acc
  in
  let fold = if Array.length tsv = 0 then planar else stacked in
  fun placement ->
    check ~crg ~cwg placement;
    try fold placement
    with Unrouted ->
      let rec first i =
        let s = placement.(src.(i)) and d = placement.(dst.(i)) in
        if router_counts.((s * tiles) + d) = 0 then
          invalid_arg (Printf.sprintf "Cost_cwm: no route from tile %d to tile %d" s d)
        else first (i + 1)
      in
      first 0

let cost_table ~tech ~crg ~cwg placement =
  check ~crg ~cwg placement;
  let mesh = Crg.mesh crg in
  let routers = Array.make (Mesh.tile_count mesh) 0.0 in
  let links = Array.make (Link.slot_count mesh) 0.0 in
  let er = tech.Nocmap_energy.Technology.e_rbit in
  let el = tech.Nocmap_energy.Technology.e_lbit in
  let er_tsv = tech.Nocmap_energy.Technology.e_rbit_tsv in
  let el_tsv = tech.Nocmap_energy.Technology.e_lbit_tsv in
  (* Mirrors the per-path attribution of [Equations.ebit_path]: the
     router reached through a vertical link is charged at the TSV rate,
     so the table still sums to [dynamic_energy] on a stacked mesh. *)
  let comm (src, dst, bits) =
    let path = Crg.path crg ~src:placement.(src) ~dst:placement.(dst) in
    let w = float_of_int bits in
    let rs = path.Crg.routers and ls = path.Crg.links in
    if Array.length rs > 0 then
      routers.(rs.(0)) <- routers.(rs.(0)) +. (w *. er);
    Array.iteri
      (fun i lid ->
        let vertical = Link.is_vertical mesh lid in
        let dst_tile = rs.(i + 1) in
        routers.(dst_tile) <-
          routers.(dst_tile) +. (w *. if vertical then er_tsv else er);
        links.(lid) <- links.(lid) +. (w *. if vertical then el_tsv else el))
      ls
  in
  List.iter comm (Cwg.communications cwg);
  (routers, links)

let bit_hops ~crg ~cwg placement =
  check ~crg ~cwg placement;
  let comm acc (src, dst, bits) =
    let routers =
      Crg.router_count_on_path crg ~src:placement.(src) ~dst:placement.(dst)
    in
    acc + (bits * routers)
  in
  List.fold_left comm 0 (Cwg.communications cwg)
