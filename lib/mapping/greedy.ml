module Crg = Nocmap_noc.Crg
module Mesh = Nocmap_noc.Mesh
module Cwg = Nocmap_model.Cwg
module Equations = Nocmap_energy.Equations

(* Volume each core exchanges with all partners, the placement
   priority. *)
let connectivity cwg =
  let n = Cwg.core_count cwg in
  Array.init n (fun core ->
      let acc = ref 0 in
      for other = 0 to n - 1 do
        if other <> core then
          acc :=
            !acc + Cwg.weight cwg ~src:core ~dst:other + Cwg.weight cwg ~src:other ~dst:core
      done;
      !acc)

let central_tile mesh =
  Mesh.tile_of_coord3 mesh
    ~x:((mesh.Mesh.cols - 1) / 2)
    ~y:((mesh.Mesh.rows - 1) / 2)
    ~z:((mesh.Mesh.layers - 1) / 2)

let search ~tech ~crg ~cwg () =
  let cores = Cwg.core_count cwg in
  let tiles = Crg.tile_count crg in
  if cores > tiles then invalid_arg "Greedy.search: more cores than tiles";
  let mesh = Crg.mesh crg in
  let order =
    let volume = connectivity cwg in
    List.sort (fun a b -> Int.compare volume.(b) volume.(a)) (List.init cores Fun.id)
  in
  let placement = Array.make cores (-1) in
  let free = Array.make tiles true in
  let evals = ref 0 in
  (* Energy of core's communications with already-placed partners if it
     were put on [tile]. *)
  let partial_cost core tile =
    incr evals;
    let acc = ref 0.0 in
    for other = 0 to cores - 1 do
      if placement.(other) >= 0 then begin
        let add ~src ~dst bits =
          if bits > 0 then
            let routers = Crg.router_count_on_path crg ~src ~dst in
            let tsv = Crg.tsv_links_on_path crg ~src ~dst in
            acc := !acc +. Equations.communication_energy ~tsv tech ~routers ~bits
        in
        add ~src:tile ~dst:placement.(other) (Cwg.weight cwg ~src:core ~dst:other);
        add ~src:placement.(other) ~dst:tile (Cwg.weight cwg ~src:other ~dst:core)
      end
    done;
    !acc
  in
  let place core =
    let candidates = List.filter (fun t -> free.(t)) (List.init tiles Fun.id) in
    let tile =
      if Array.for_all (fun t -> t < 0) placement then central_tile mesh
      else begin
        match candidates with
        | [] -> assert false
        | first :: rest ->
          let better best t = if partial_cost core t < partial_cost core best then t else best in
          List.fold_left better first rest
      end
    in
    placement.(core) <- tile;
    free.(tile) <- false
  in
  List.iter place order;
  {
    Objective.placement;
    cost = Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement;
    evaluations = !evals;
  }
