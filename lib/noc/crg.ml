type path = Routing.path = {
  routers : int array;
  links : int array;
}

type reachability =
  | Reachable of int
  | Unreachable

type t = {
  mesh : Mesh.t;
  routing : Routing.algorithm;
  faults : Fault.t option;
  paths : path array; (* index: src * n + dst; fault-free: [unbuilt] until [path] *)
  detours : int array; (* extra links vs the fault-free route; -1 = unreachable *)
  tsv : int array; (* vertical links per pair; [||] on a planar mesh (all 0) *)
  router_counts : int array; (* routers per pair, 0 = unreachable *)
  max_routers : int; (* longest route, in routers *)
}

let unreachable_path = { routers = [||]; links = [||] }

(* Marks a route [path] has not built yet, compared by [==].  Its array
   is made at run time: ocamlopt shares equal immutable constants, so a
   literal could be the very block [unreachable_path] is. *)
let unbuilt = { routers = Array.make 1 (-1); links = [||] }

(* Surviving adjacency: for each alive router, the outgoing (link, dst)
   pairs whose link and far endpoint survive, in ascending link-id order
   so BFS tie-breaks deterministically. *)
let surviving_adjacency mesh ~wrap faults =
  let n = Mesh.tile_count mesh in
  let adj = Array.make n [] in
  List.iter
    (fun lid ->
      if not (Fault.link_down faults lid) then begin
        let src, dst = Link.endpoints ~wrap mesh lid in
        adj.(src) <- (lid, dst) :: adj.(src)
      end)
    (List.rev (Link.all ~wrap mesh));
  adj

(* Single-source BFS on the surviving topology.  Returns the parent
   structure: [prev.(v)] is [(link, predecessor)] on a shortest path
   from [src], or [(-1, -1)] when unreached. *)
let bfs ~adj ~n src =
  let prev = Array.make n (-1, -1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    List.iter
      (fun (lid, w) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          prev.(w) <- (lid, v);
          Queue.add w queue
        end)
      adj.(v)
  done;
  (seen, prev)

let rebuild_path ~prev ~src dst =
  let rec walk v routers links =
    if v = src then (v :: routers, links)
    else
      let lid, p = prev.(v) in
      walk p (v :: routers) (lid :: links)
  in
  let routers, links = walk dst [] [] in
  { routers = Array.of_list routers; links = Array.of_list links }

(* The dimension-ordered route survives iff every router and link on it
   does; keeping it in that case makes an empty fault set bit-identical
   to the fault-free CRG and minimizes churn under sparse faults. *)
let route_intact faults p =
  Array.for_all (fun r -> not (Fault.router_down faults r)) p.routers
  && Array.for_all (fun l -> not (Fault.link_down faults l)) p.links

(* Vertical-link counts per pair, so evaluators can split the paper's
   Eq. (2) into planar and TSV terms in O(1) per lookup.  A planar mesh
   shares the empty array: every count is 0 and no memory is spent. *)
let tsv_per_pair mesh paths =
  if mesh.Mesh.layers = 1 then [||]
  else
    Array.map
      (fun p ->
        Array.fold_left
          (fun acc lid -> if Link.is_vertical mesh lid then acc + 1 else acc)
          0 p.links)
      paths

(* Fills the per-pair tables every evaluator reads from [paths]. *)
let make ~mesh ~routing ~faults ~paths ~detours =
  let router_counts = Array.map (fun p -> Array.length p.routers) paths in
  {
    mesh;
    routing;
    faults;
    paths;
    detours;
    tsv = tsv_per_pair mesh paths;
    router_counts;
    max_routers = Array.fold_left max 0 router_counts;
  }

(* The per-pair tables of a fault-free CRG, without walking a route:
   the dimension-ordered route from [src] to [dst] takes
   [Routing.axis_hops] hops along each planar dimension and [|dz|]
   vertical links, so it holds their sum plus one routers.  Each
   dimension reaches its largest distance independently of the others,
   so the longest route is the sum of the per-dimension maxima. *)
let closed_form ~mesh ~routing ~faults =
  let cols = mesh.Mesh.cols and rows = mesh.Mesh.rows and layers = mesh.Mesh.layers in
  let n = Mesh.tile_count mesh in
  let axis extent =
    Array.init (extent * extent) (fun i ->
        Routing.axis_hops routing ~extent (i / extent) (i mod extent))
  in
  let hx = axis cols and hy = axis rows in
  let router_counts = Array.make (n * n) 0 in
  let tsv = if layers = 1 then [||] else Array.make (n * n) 0 in
  for src = 0 to n - 1 do
    let xs = src mod cols and ys = src / cols mod rows and zs = src / (cols * rows) in
    let pair = ref (src * n) in
    for zd = 0 to layers - 1 do
      let v = abs (zd - zs) in
      for yd = 0 to rows - 1 do
        let yz = hy.((ys * rows) + yd) + v + 1 in
        for xd = 0 to cols - 1 do
          router_counts.(!pair) <- hx.((xs * cols) + xd) + yz;
          if layers > 1 then tsv.(!pair) <- v;
          incr pair
        done
      done
    done
  done;
  let widest a = Array.fold_left Int.max 0 a in
  {
    mesh;
    routing;
    faults;
    paths = Array.make (n * n) unbuilt;
    detours = Array.make (n * n) 0;
    tsv;
    router_counts;
    max_routers = widest hx + widest hy + layers;
  }

let create ?(routing = Routing.Xy) ?faults mesh =
  let n = Mesh.tile_count mesh in
  let wrap = Routing.uses_wrap_links routing in
  (match Routing.check_mesh mesh routing with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Crg.create: " ^ msg));
  let effective =
    match faults with
    | Some f when not (Fault.is_empty f) -> Some f
    | Some _ | None -> None
  in
  (match effective with
  | None -> ()
  | Some f ->
    let fm = Fault.mesh f in
    if
      fm.Mesh.cols <> mesh.Mesh.cols
      || fm.Mesh.rows <> mesh.Mesh.rows
      || fm.Mesh.layers <> mesh.Mesh.layers
    then invalid_arg "Crg.create: fault scenario built for a different mesh";
    List.iter
      (fun lid ->
        if not (Link.exists ~wrap mesh lid) then
          invalid_arg
            (Printf.sprintf
               "Crg.create: failed link slot %d is not physical under %s routing"
               lid
               (Routing.algorithm_to_string routing)))
      (Fault.failed_links f));
  match effective with
  | None -> closed_form ~mesh ~routing ~faults
  | Some f ->
    let adj = surviving_adjacency mesh ~wrap f in
    let paths = Array.make (n * n) unreachable_path in
    let detours = Array.make (n * n) (-1) in
    for src = 0 to n - 1 do
      let src_alive = not (Fault.router_down f src) in
      let reroute = lazy (bfs ~adj ~n src) in
      for dst = 0 to n - 1 do
        let i = (src * n) + dst in
        if src = dst then begin
          if src_alive then begin
            paths.(i) <- { routers = [| src |]; links = [||] };
            detours.(i) <- 0
          end
        end
        else if src_alive && not (Fault.router_down f dst) then begin
          let direct = Routing.route mesh routing ~src ~dst in
          if route_intact f direct then begin
            paths.(i) <- direct;
            detours.(i) <- 0
          end
          else begin
            let seen, prev = Lazy.force reroute in
            if seen.(dst) then begin
              let p = rebuild_path ~prev ~src dst in
              paths.(i) <- p;
              detours.(i) <- Array.length p.links - Array.length direct.links
            end
          end
        end
      done
    done;
    make ~mesh ~routing ~faults ~paths ~detours

let mesh t = t.mesh

let routing t = t.routing

let faults t = t.faults

let tile_count t = Mesh.tile_count t.mesh

let check_pair t ~src ~dst =
  let n = tile_count t in
  if src < 0 || src >= n then invalid_arg "Crg.path: tile out of range"
  else if dst < 0 || dst >= n then invalid_arg "Crg.path: tile out of range"

(* Domains may race to build one route: each builds the same immutable
   route, and the array store publishes it whole, so a reader sees
   [unbuilt] or a complete route and the last store wins harmlessly. *)
let path t ~src ~dst =
  check_pair t ~src ~dst;
  let i = (src * tile_count t) + dst in
  let p = t.paths.(i) in
  if p != unbuilt then p
  else begin
    let p = Routing.route t.mesh t.routing ~src ~dst in
    t.paths.(i) <- p;
    p
  end

let classify t ~src ~dst =
  check_pair t ~src ~dst;
  match t.detours.((src * tile_count t) + dst) with
  | -1 -> Unreachable
  | d -> Reachable d

let reachable t ~src ~dst =
  match classify t ~src ~dst with
  | Reachable _ -> true
  | Unreachable -> false

let unreachable_pairs t =
  let n = tile_count t in
  let acc = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if t.detours.((src * n) + dst) = -1 then acc := (src, dst) :: !acc
    done
  done;
  !acc

let total_detour_links t =
  Array.fold_left (fun acc d -> if d > 0 then acc + d else acc) 0 t.detours

let max_detour_links t = Array.fold_left max 0 t.detours

let router_count_on_path t ~src ~dst =
  check_pair t ~src ~dst;
  t.router_counts.((src * tile_count t) + dst)

let tsv_links_on_path t ~src ~dst =
  check_pair t ~src ~dst;
  if Array.length t.tsv = 0 then 0 else t.tsv.((src * tile_count t) + dst)

let router_counts t = t.router_counts

let tsv_counts t = t.tsv

let max_routers t = t.max_routers

let to_digraph t =
  let wrap = Routing.uses_wrap_links t.routing in
  let n = tile_count t in
  let g = Nocmap_graph.Digraph.create ~n in
  let keep lid =
    match t.faults with
    | None -> true
    | Some f -> not (Fault.link_down f lid)
  in
  let add lid =
    let src, dst = Link.endpoints ~wrap t.mesh lid in
    Nocmap_graph.Digraph.add_edge g ~src ~dst ~label:0
  in
  List.iter (fun lid -> if keep lid then add lid) (Link.all ~wrap t.mesh);
  g
