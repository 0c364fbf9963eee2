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

(* What both folds read: the per-bit energy of every route shape, the
   CRG's per-pair router and TSV counts ([tsv] is empty on a planar
   mesh), and the CWG's communications with float weights. *)
type tables = {
  table : float array;
  cols : int;
  tiles : int;
  router_counts : int array;
  tsv : int array;
  src : int array;
  dst : int array;
  weights : float array;
}

let tables ~tech ~crg ~cwg =
  {
    table = ebit_table ~tech ~crg;
    cols = Crg.max_routers crg + 1;
    tiles = Crg.tile_count crg;
    router_counts = Crg.router_counts crg;
    tsv = Crg.tsv_counts crg;
    src = cwg.Cwg.comm_src;
    dst = cwg.Cwg.comm_dst;
    weights = Array.map float_of_int cwg.Cwg.comm_bits;
  }

(* Raised out of a fold at a pair with no route, so the fold's loop
   holds no call and keeps its sum in a register. *)
exception Unrouted

(* Names the first communication, in [Cwg.communications] order, whose
   tiles have no route between them; a fold calls it after [Unrouted]. *)
let unrouted t placement =
  let rec first i =
    let s = placement.(t.src.(i)) and d = placement.(t.dst.(i)) in
    if t.router_counts.((s * t.tiles) + d) = 0 then
      invalid_arg (Printf.sprintf "Cost_cwm: no route from tile %d to tile %d" s d)
    else first (i + 1)
  in
  first 0

(* The fold reads its arrays unchecked: after [check], every core index
   of the CWG is below [Array.length placement] and every tile below
   [tiles], so each pair indexes the [tiles * tiles] tables, and a
   route's [tsv < routers <= max_routers] keeps the table entry in
   range.  Terms are summed in [Cwg.communications] order, so the float
   is the same as a checked fold's. *)
let dynamic_energy ~tech ~crg ~cwg =
  let t = tables ~tech ~crg ~cwg in
  let table = t.table and cols = t.cols and tiles = t.tiles in
  let router_counts = t.router_counts and tsv = t.tsv in
  let src = t.src and dst = t.dst and weights = t.weights in
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
    try fold placement with Unrouted -> unrouted t placement

let region_energy ~tech ~crg ~cwg ~cores =
  let t = tables ~tech ~crg ~cwg in
  let table = t.table and cols = t.cols and tiles = t.tiles in
  let router_counts = t.router_counts and tsv = t.tsv in
  let src = t.src and dst = t.dst and weights = t.weights in
  let stacked = Array.length tsv > 0 and n = Array.length weights in
  let size = Array.fold_left max (Cwg.core_count cwg - 1) cores + 1 in
  let moves = Array.make size false in
  Array.iter
    (fun c ->
      if moves.(c) then
        invalid_arg (Printf.sprintf "Cost_cwm.region_energy: core %d listed twice" c);
      moves.(c) <- true)
    cores;
  let touches i = moves.(src.(i)) || moves.(dst.(i)) in
  (* The communications with an end in the region, ascending. *)
  let moving = Array.of_list (List.filter touches (List.init n Fun.id)) in
  (* Every term in communication order: a frozen pair's is written once,
     a moving pair's on every call. *)
  let terms = Array.make n 0.0 in
  (* [marks.(tile)] is -1 under a frozen core, else the stamp of the
     last call that put a region core there, so one read per region core
     checks both its tile's owner and the region's injectivity. *)
  let marks = Array.make tiles 0 in
  (* The length of the placement that primed the evaluator, -1 before. *)
  let placed = ref (-1) and stamp = ref 0 in
  let prime placement =
    check ~crg ~cwg placement;
    let length = Array.length placement in
    Array.iter
      (fun c ->
        if c >= length then
          invalid_arg
            (Printf.sprintf "Cost_cwm.region_energy: core %d is not placed" c))
      cores;
    Array.fill marks 0 tiles 0;
    for c = 0 to length - 1 do
      if not (c < size && moves.(c)) then marks.(placement.(c)) <- -1
    done;
    for i = 0 to n - 1 do
      if not (touches i) then begin
        let pair = (placement.(src.(i)) * tiles) + placement.(dst.(i)) in
        let routers = router_counts.(pair) in
        if routers = 0 then unrouted t placement;
        let row = if stacked then tsv.(pair) * cols else 0 in
        terms.(i) <- weights.(i) *. table.(row + routers)
      end
    done;
    placed := length
  in
  (* After priming, a call reads a region core's tile unchecked only
     after the length check; a core's tile is checked before it indexes
     [marks], and the one checked read of [router_counts] keeps a caller
     that moved a frozen core from reading out of bounds. *)
  let evaluate (placement : Placement.t) =
    if Array.length placement <> !placed then
      invalid_arg "Cost_cwm.region_energy: the placement changed length";
    incr stamp;
    let stamp = !stamp in
    let valid = ref true in
    for k = 0 to Array.length cores - 1 do
      let tile = Array.unsafe_get placement (Array.unsafe_get cores k) in
      if tile < 0 || tile >= tiles then valid := false
      else begin
        let mark = Array.unsafe_get marks tile in
        if mark < 0 || mark = stamp then valid := false
        else Array.unsafe_set marks tile stamp
      end
    done;
    if not !valid then begin
      check ~crg ~cwg placement;
      invalid_arg "Cost_cwm.region_energy: a core outside the region moved"
    end;
    for k = 0 to Array.length moving - 1 do
      let i = Array.unsafe_get moving k in
      let s = Array.unsafe_get placement (Array.unsafe_get src i) in
      let d = Array.unsafe_get placement (Array.unsafe_get dst i) in
      let pair = (s * tiles) + d in
      let routers = router_counts.(pair) in
      if routers = 0 then raise_notrace Unrouted;
      let row = if stacked then Array.unsafe_get tsv pair * cols else 0 in
      Array.unsafe_set terms i
        (Array.unsafe_get weights i *. Array.unsafe_get table (row + routers))
    done;
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. Array.unsafe_get terms i
    done;
    !acc
  in
  fun placement ->
    if !placed < 0 then prime placement;
    try evaluate placement with Unrouted -> unrouted t placement

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
