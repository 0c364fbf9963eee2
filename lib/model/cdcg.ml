type packet = {
  src : int;
  dst : int;
  compute : int;
  bits : int;
  label : string;
}

type t = {
  name : string;
  core_names : string array;
  packets : packet array;
  deps : (int * int) list;
  pred_off : int array;
  pred : int array;
  succ_off : int array;
  succ : int array;
  order : int array;
}

let duplicate_name names =
  let seen = Hashtbl.create 16 in
  let rec scan i =
    if i >= Array.length names then None
    else if Hashtbl.mem seen names.(i) then Some names.(i)
    else begin
      Hashtbl.add seen names.(i) ();
      scan (i + 1)
    end
  in
  scan 0

let to_digraph_raw packets deps =
  let g = Nocmap_graph.Digraph.create ~n:(Array.length packets) in
  List.iter (fun (p, q) -> Nocmap_graph.Digraph.add_edge g ~src:p ~dst:q ~label:0) deps;
  g

let validate ~core_names ~packets ~deps =
  let ncores = Array.length core_names in
  let npackets = Array.length packets in
  let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if ncores = 0 then error "CDCG has no cores"
  else
    match duplicate_name core_names with
    | Some dup -> error "duplicate core name %S" dup
    | None ->
      let bad_packet =
        let check i p =
          if p.src < 0 || p.src >= ncores then Some (i, "source core out of range")
          else if p.dst < 0 || p.dst >= ncores then Some (i, "destination core out of range")
          else if p.src = p.dst then Some (i, "source equals destination")
          else if p.bits <= 0 then Some (i, "bit volume must be positive")
          else if p.compute < 0 then Some (i, "computation time must be non-negative")
          else None
        in
        let rec scan i =
          if i >= npackets then None
          else
            match check i packets.(i) with
            | Some _ as bad -> bad
            | None -> scan (i + 1)
        in
        scan 0
      in
      (match bad_packet with
      | Some (i, why) -> error "packet %d (%s): %s" i packets.(i).label why
      | None ->
        let bad_dep =
          List.find_opt (fun (p, q) -> p < 0 || p >= npackets || q < 0 || q >= npackets) deps
        in
        (match bad_dep with
        | Some (p, q) -> error "dependence (%d, %d): packet index out of range" p q
        | None -> Ok ()))

(* Compressed adjacency of [deps] grouped by [key], each row in [deps]
   order: row [k] is [adj.(off.(k)) .. adj.(off.(k + 1) - 1)]. *)
let csr ~npackets ~key ~value deps =
  let off = Array.make (npackets + 1) 0 in
  List.iter (fun d -> off.(key d + 1) <- off.(key d + 1) + 1) deps;
  for k = 1 to npackets do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  let adj = Array.make off.(npackets) 0 in
  let fill = Array.sub off 0 npackets in
  List.iter
    (fun d ->
      let k = key d in
      adj.(fill.(k)) <- value d;
      fill.(k) <- fill.(k) + 1)
    deps;
  (off, adj)

(* Kahn's algorithm with a FIFO queue seeded with the dependence-free
   packets in ascending index; [None] when a cycle leaves packets
   unordered. *)
let kahn_order ~npackets ~pred_off ~succ_off ~succ =
  let order = Array.make npackets 0 in
  let indeg = Array.init npackets (fun i -> pred_off.(i + 1) - pred_off.(i)) in
  let tail = ref 0 in
  for i = 0 to npackets - 1 do
    if indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    for j = succ_off.(i) to succ_off.(i + 1) - 1 do
      let q = succ.(j) in
      indeg.(q) <- indeg.(q) - 1;
      if indeg.(q) = 0 then begin
        order.(!tail) <- q;
        incr tail
      end
    done
  done;
  if !tail = npackets then Some order else None

let create ~name ~core_names ~packets ~deps =
  match validate ~core_names ~packets ~deps with
  | Error _ as e -> e
  | Ok () -> (
    let npackets = Array.length packets in
    let pred_off, pred = csr ~npackets ~key:snd ~value:fst deps in
    let succ_off, succ = csr ~npackets ~key:fst ~value:snd deps in
    match kahn_order ~npackets ~pred_off ~succ_off ~succ with
    | Some order ->
      Ok { name; core_names; packets; deps; pred_off; pred; succ_off; succ; order }
    | None ->
      let cyc =
        Option.value ~default:[]
          (Nocmap_graph.Topo.cycle (to_digraph_raw packets deps))
      in
      let names = List.map (fun i -> packets.(i).label) cyc in
      Error ("dependence cycle: " ^ String.concat " -> " names))

let create_exn ~name ~core_names ~packets ~deps =
  match create ~name ~core_names ~packets ~deps with
  | Ok t -> t
  | Error msg -> invalid_arg ("Cdcg.create_exn: " ^ msg)

let core_count t = Array.length t.core_names

let packet_count t = Array.length t.packets

let total_bits t = Array.fold_left (fun acc p -> acc + p.bits) 0 t.packets

let dependence_count t = List.length t.deps

let ndp t = dependence_count t + packet_count t

let predecessors t i = List.filter_map (fun (p, q) -> if q = i then Some p else None) t.deps

let successors t i = List.filter_map (fun (p, q) -> if p = i then Some q else None) t.deps

let start_packets t =
  let has_pred = Array.make (packet_count t) false in
  List.iter (fun (_, q) -> has_pred.(q) <- true) t.deps;
  List.filter (fun i -> not has_pred.(i)) (List.init (packet_count t) Fun.id)

let packets_from t ~src ~dst =
  List.filter
    (fun i -> t.packets.(i).src = src && t.packets.(i).dst = dst)
    (List.init (packet_count t) Fun.id)

let to_digraph t = to_digraph_raw t.packets t.deps

let pp_packet ~core_names ppf p =
  Format.fprintf ppf "%s: %d bits %s->%s after %d cycles" p.label p.bits
    core_names.(p.src) core_names.(p.dst) p.compute
