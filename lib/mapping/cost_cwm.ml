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

(* The full fold, specialised to a planar or a stacked mesh.  It reads
   its arrays unchecked: after [check], every core index of the CWG is
   below [Array.length placement] and every tile below [tiles], so each
   pair indexes the [tiles * tiles] tables, and a route's
   [tsv < routers <= max_routers] keeps the table entry in range.  Terms
   are summed in [Cwg.communications] order, so the float is the same as
   a checked fold's. *)
let fold t =
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
  if Array.length tsv = 0 then planar else stacked

let dynamic_energy ~tech ~crg ~cwg =
  let t = tables ~tech ~crg ~cwg in
  let fold = fold t in
  fun placement ->
    check ~crg ~cwg placement;
    try fold placement with Unrouted -> unrouted t placement

(* The owner of a tile under a core outside the evaluator's scope. *)
let frozen = -2

(* The move-priced evaluator behind [region_energy] (a [Some] scope) and
   [incremental_energy] (every core the placement places).

   The record is the last placement it accepted, [held], and its cost,
   [total].  Three tables derive from it: [owner] (each tile's scope
   core, [frozen], or -1 when free), [terms] (each communication's
   float) and [sums] (their running sums in communication order).  A
   call compares the scope with [held]; when at most half of it moved,
   it checks only the cores that moved, re-prices only their
   communications (through the per-core [index], each term once per
   call, stamped in [priced]) and adds the terms from the first
   re-priced one on to the running sum before it: the full fold's
   additions, so its float.  Past half the scope it checks the whole
   placement, runs the full fold and copies the placement into [held];
   the tables then go [stale] until a call needs them, since a stream of
   unrelated placements never does. *)
let tracked ~tech ~crg ~cwg scope_cores =
  let t = tables ~tech ~crg ~cwg in
  let fold = fold t in
  let table = t.table and cols = t.cols and tiles = t.tiles in
  let router_counts = t.router_counts and tsv = t.tsv in
  let src = t.src and dst = t.dst and weights = t.weights in
  let stacked = Array.length tsv > 0 and n = Array.length weights in
  let ncores = Cwg.core_count cwg and whole = scope_cores = None in
  (* [index.(first.(c))] to [index.(first.(c + 1) - 1)]: the
     communications with an end at core [c], ascending. *)
  let first = Array.make (ncores + 1) 0 in
  let count c = first.(c + 1) <- first.(c + 1) + 1 in
  Array.iter count src;
  Array.iter count dst;
  for c = 1 to ncores do
    first.(c) <- first.(c) + first.(c - 1)
  done;
  let index = Array.make (2 * n) 0 and next = Array.sub first 0 ncores in
  let add c i =
    index.(next.(c)) <- i;
    next.(c) <- next.(c) + 1
  in
  for i = 0 to n - 1 do
    add src.(i) i;
    add dst.(i) i
  done;
  let primed = ref false and held = ref ([||] : Placement.t) in
  let total = [| 0.0 |] in
  let scope = ref (Option.value scope_cores ~default:[||]) in
  let moved = ref (Array.make (Array.length !scope) 0) in
  let stale = ref true in
  let owner = Array.make tiles (-1) and terms = Array.make n 0.0 in
  (* [sums.(i)]: the terms up to [i] added in order, as the fold does. *)
  let sums = Array.make n 0.0 in
  (* [claimed.(tile)]: the stamp of the last call that moved a core onto
     [tile]; [priced.(i)]: of the last call that priced term [i]. *)
  let claimed = Array.make tiles 0 and priced = Array.make n 0 in
  let stamp = ref 0 in
  (* Prices the terms [list.(0)] to [list.(count - 1)].  The one
     checked read of [router_counts] keeps a caller that moved a core
     outside the scope from reading out of bounds. *)
  let price (placement : Placement.t) (list : int array) count =
    for j = 0 to count - 1 do
      let i = Array.unsafe_get list j in
      let s = Array.unsafe_get placement (Array.unsafe_get src i) in
      let d = Array.unsafe_get placement (Array.unsafe_get dst i) in
      let pair = (s * tiles) + d in
      let routers = router_counts.(pair) in
      if routers = 0 then raise_notrace Unrouted;
      let row = if stacked then Array.unsafe_get tsv pair * cols else 0 in
      Array.unsafe_set terms i
        (Array.unsafe_get weights i *. Array.unsafe_get table (row + routers))
    done
  in
  let every = Array.init n Fun.id and todo = Array.make n 0 in
  let refresh () =
    let held = !held in
    Array.fill owner 0 tiles (-1);
    for c = 0 to Array.length held - 1 do
      Array.unsafe_set owner (Array.unsafe_get held c) (if whole then c else frozen)
    done;
    if not whole then Array.iter (fun c -> owner.(held.(c)) <- c) !scope;
    price held every n;
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. Array.unsafe_get terms i;
      Array.unsafe_set sums i !acc
    done;
    stale := false
  in
  (* The whole check and the full fold, then a fresh record: the first
     call, a change of length, the call after an unrouted pair, and a
     call that moved more than half the scope.  A refusal raises before
     anything is written. *)
  let record (placement : Placement.t) =
    check ~crg ~cwg placement;
    let length = Array.length placement in
    (match scope_cores with
    | Some cores ->
      Array.iter
        (fun c ->
          if c >= length then
            invalid_arg
              (Printf.sprintf "Cost_cwm.region_energy: core %d is not placed" c))
        cores
    | None -> ());
    total.(0) <- fold placement;
    if Array.length !held <> length then begin
      held := Array.make length 0;
      if whole then begin
        scope := Array.init length Fun.id;
        moved := Array.make length 0
      end
    end;
    (* A loop of plain stores: [Array.blit] into a major-heap array
       pays the write barrier per element. *)
    let held = !held in
    for c = 0 to length - 1 do
      Array.unsafe_set held c (Array.unsafe_get placement c)
    done;
    stale := true;
    primed := true
  in
  let refuse placement =
    check ~crg ~cwg placement;
    invalid_arg "Cost_cwm.region_energy: a core outside the region moved"
  in
  (* Reads are unchecked where the record proves them in range: the
     placement has the record's length, so every core of the scope and
     of the CWG indexes it, and a moved core's tile is checked before it
     indexes [owner]. *)
  let evaluate (placement : Placement.t) =
    let held = !held and scope = !scope and moved = !moved in
    let len = Array.length scope in
    let m = ref 0 and k = ref 0 in
    (* Written without a branch on which cores moved, which a search
       cannot predict. *)
    while !k < len && 2 * !m <= len do
      let c = Array.unsafe_get scope !k in
      Array.unsafe_set moved !m c;
      m := !m + Bool.to_int (Array.unsafe_get placement c <> Array.unsafe_get held c);
      incr k
    done;
    let m = !m in
    if 2 * m > len then record placement
    else if m > 0 then begin
      if !stale then refresh ();
      incr stamp;
      let stamp = !stamp in
      (* A moved core may take a free tile, or one that a moved core
         left, once per call. *)
      let valid = ref true in
      for j = 0 to m - 1 do
        let tile = Array.unsafe_get placement (Array.unsafe_get moved j) in
        if tile < 0 || tile >= tiles then valid := false
        else begin
          let o = Array.unsafe_get owner tile in
          if
            Array.unsafe_get claimed tile = stamp
            || o = frozen
            || (o >= 0 && Array.unsafe_get placement o = Array.unsafe_get held o)
          then valid := false
          else Array.unsafe_set claimed tile stamp
        end
      done;
      if not !valid then refuse placement;
      let count = ref 0 and lo = ref n in
      for j = 0 to m - 1 do
        let c = Array.unsafe_get moved j in
        if c < ncores then
          for e = Array.unsafe_get first c to Array.unsafe_get first (c + 1) - 1 do
            let i = Array.unsafe_get index e in
            if Array.unsafe_get priced i <> stamp then begin
              Array.unsafe_set priced i stamp;
              Array.unsafe_set todo !count i;
              incr count;
              if i < !lo then lo := i
            end
          done
      done;
      price placement todo !count;
      (* The terms before the first re-priced one are unchanged, and so
         is their sum. *)
      let lo = !lo in
      let acc = ref (if lo = 0 then 0.0 else Array.unsafe_get sums (lo - 1)) in
      for i = lo to n - 1 do
        acc := !acc +. Array.unsafe_get terms i;
        Array.unsafe_set sums i !acc
      done;
      total.(0) <- !acc;
      for j = 0 to m - 1 do
        let c = Array.unsafe_get moved j in
        Array.unsafe_set owner (Array.unsafe_get held c) (-1)
      done;
      for j = 0 to m - 1 do
        let c = Array.unsafe_get moved j in
        let tile = Array.unsafe_get placement c in
        Array.unsafe_set owner tile c;
        Array.unsafe_set held c tile
      done
    end
  in
  fun (placement : Placement.t) ->
    (try
       if !primed && Array.length placement = Array.length !held then
         evaluate placement
       else record placement
     with Unrouted ->
       primed := false;
       unrouted t placement);
    total.(0)

let region_energy ~tech ~crg ~cwg ~cores =
  let size = Array.fold_left max (Cwg.core_count cwg - 1) cores + 1 in
  let listed = Array.make size false in
  Array.iter
    (fun c ->
      if listed.(c) then
        invalid_arg (Printf.sprintf "Cost_cwm.region_energy: core %d listed twice" c);
      listed.(c) <- true)
    cores;
  tracked ~tech ~crg ~cwg (Some cores)

let incremental_energy ~tech ~crg ~cwg = tracked ~tech ~crg ~cwg None

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
