module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Metrics = Nocmap_obs.Metrics
module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cwg = Nocmap_model.Cwg

(* Decomposition observability.  Everything is computed from driver
   state, so enabling the registry never perturbs the search. *)
let m_runs =
  Metrics.counter ~help:"decomposition searches executed" "search.decompose.runs"

let m_regions =
  Metrics.counter ~help:"mesh regions refined across runs" "search.decompose.regions"

let m_kl_swaps =
  Metrics.counter ~help:"Kernighan-Lin improving swaps taken"
    "search.decompose.kl_swaps"

let m_cut_bits =
  Metrics.counter ~help:"communication bits crossing region boundaries"
    "search.decompose.cut_bits"

let m_polish_improvements =
  Metrics.counter ~help:"runs where the global polish improved the composition"
    "search.decompose.polish_improvements"

type refiner =
  | Sa
  | Tabu
  | Local

let refiner_to_string = function Sa -> "sa" | Tabu -> "tabu" | Local -> "local"

let refiner_of_string = function
  | "sa" -> Some Sa
  | "tabu" -> Some Tabu
  | "local" -> Some Local
  | _ -> None

type rect = {
  x : int;
  y : int;
  z : int;
  w : int;
  h : int;
  d : int;
}

type region = {
  cores : int array;
  rect : rect;
  tiles : int array;
}

type config = {
  max_region : int;
  kl_passes : int;
  refiner : refiner;
  slice : int;
  sa : Annealing.config;
  tabu : Tabu.config;
  local_evaluations : int;
  polish : int;
}

let region_size ~tiles = max 4 (min 32 ((tiles + 7) / 8))

let default_config ~tiles =
  let r = region_size ~tiles in
  {
    max_region = r;
    kl_passes = 4;
    refiner = Sa;
    slice = 2_000;
    sa = { (Annealing.default_config ~tiles:r) with Annealing.prune = Some 20.0 };
    tabu = Tabu.default_config ~tiles:r;
    local_evaluations = 20_000;
    polish = 32 * tiles;
  }

let quick_config ~tiles =
  let r = region_size ~tiles in
  {
    max_region = r;
    kl_passes = 2;
    refiner = Sa;
    slice = 500;
    sa = { (Annealing.quick_config ~tiles:r) with Annealing.prune = Some 20.0 };
    tabu = Tabu.quick_config ~tiles:r;
    local_evaluations = 2_000;
    polish = 4 * tiles;
  }

(* --- min-traffic-cut bipartition (Kernighan-Lin style) ---

   Deterministic throughout: ties break toward the lowest local index
   (strict [>] comparisons scanning upward), and no randomness is
   consumed, so the partition is a pure function of (CWG, mesh, config)
   and never needs checkpointing. *)

(* Splits [cores] (local view over the symmetric weight matrix [w]) into
   a side A of exactly [na] members and its complement, minimizing the
   crossing weight: greedy growth from the most connected core, then up
   to [passes * n] improving pair swaps with incrementally maintained
   KL gain terms.  Returns the membership array and the swap count. *)
let bipartition ~w ~cores ~na ~passes =
  let n = Array.length cores in
  let wloc i j = w.(cores.(i)).(cores.(j)) in
  let in_a = Array.make n false in
  let conn =
    Array.init n (fun i ->
        let s = ref 0 in
        for j = 0 to n - 1 do
          if j <> i then s := !s + wloc i j
        done;
        !s)
  in
  let seed = ref 0 in
  for i = 1 to n - 1 do
    if conn.(i) > conn.(!seed) then seed := i
  done;
  in_a.(!seed) <- true;
  (* [attach.(i)]: weight from i into the growing A side. *)
  let attach = Array.make n 0 in
  for i = 0 to n - 1 do
    if i <> !seed then attach.(i) <- wloc i !seed
  done;
  for _ = 2 to na do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not in_a.(i)) && (!best < 0 || attach.(i) > attach.(!best)) then
        best := i
    done;
    let b = !best in
    in_a.(b) <- true;
    for i = 0 to n - 1 do
      if not in_a.(i) then attach.(i) <- attach.(i) + wloc i b
    done
  done;
  (* KL gain terms: D(i) = external(i) - internal(i). *)
  let recompute_d in_a i =
    let e = ref 0 and internal = ref 0 in
    for j = 0 to n - 1 do
      if j <> i then
        if in_a.(j) = in_a.(i) then internal := !internal + wloc i j
        else e := !e + wloc i j
    done;
    !e - !internal
  in
  let d = Array.init n (fun i -> recompute_d in_a i) in
  let swaps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !swaps < passes * n do
    let best_gain = ref 0 and ba = ref (-1) and bb = ref (-1) in
    for i = 0 to n - 1 do
      if in_a.(i) then
        for j = 0 to n - 1 do
          if not in_a.(j) then begin
            let g = d.(i) + d.(j) - (2 * wloc i j) in
            if g > !best_gain then begin
              best_gain := g;
              ba := i;
              bb := j
            end
          end
        done
    done;
    if !ba < 0 then continue_ := false
    else begin
      let a = !ba and b = !bb in
      in_a.(a) <- false;
      in_a.(b) <- true;
      for k = 0 to n - 1 do
        if k <> a && k <> b then
          d.(k) <-
            (d.(k)
            +
            if in_a.(k) then 2 * (wloc k a - wloc k b)
            else 2 * (wloc k b - wloc k a))
      done;
      d.(a) <- recompute_d in_a a;
      d.(b) <- recompute_d in_a b;
      incr swaps
    end
  done;
  (in_a, !swaps)

(* Tiles of a cuboid, ordered center-out (ties toward the lower tile
   id) so the heaviest communicators of a cluster land nearest the
   region's center.  A depth-1 cuboid reproduces the historical planar
   order exactly. *)
let region_tiles mesh rect =
  let cx2 = (2 * rect.x) + rect.w - 1
  and cy2 = (2 * rect.y) + rect.h - 1
  and cz2 = (2 * rect.z) + rect.d - 1 in
  let keyed = Array.make (rect.w * rect.h * rect.d) (0, 0) in
  let k = ref 0 in
  for z = rect.z to rect.z + rect.d - 1 do
    for y = rect.y to rect.y + rect.h - 1 do
      for x = rect.x to rect.x + rect.w - 1 do
        let dist =
          abs ((2 * x) - cx2) + abs ((2 * y) - cy2) + abs ((2 * z) - cz2)
        in
        keyed.(!k) <- (dist, Mesh.tile_of_coord3 mesh ~x ~y ~z);
        incr k
      done
    done
  done;
  Array.sort compare keyed;
  Array.map snd keyed

(* Halve the longest extent; ties prefer width, then height, so a
   depth-1 cuboid splits exactly like the historical 2-D rectangle. *)
let split_rect r =
  if r.w >= r.h && r.w >= r.d then begin
    let w1 = r.w / 2 in
    ({ r with w = w1 }, { r with x = r.x + w1; w = r.w - w1 })
  end
  else if r.h >= r.d then begin
    let h1 = r.h / 2 in
    ({ r with h = h1 }, { r with y = r.y + h1; h = r.h - h1 })
  end
  else begin
    let d1 = r.d / 2 in
    ({ r with d = d1 }, { r with z = r.z + d1; d = r.d - d1 })
  end

let partition ?swaps ~cwg ~mesh ~max_region ~kl_passes () =
  if max_region < 1 then invalid_arg "Decompose.partition: max_region must be >= 1";
  if kl_passes < 0 then
    invalid_arg "Decompose.partition: kl_passes must be non-negative";
  let cores = Cwg.core_count cwg in
  let tiles = Mesh.tile_count mesh in
  if cores > tiles then invalid_arg "Decompose.partition: more cores than tiles";
  let w = Array.make_matrix cores cores 0 in
  List.iter
    (fun (s, d, bits) ->
      w.(s).(d) <- w.(s).(d) + bits;
      w.(d).(s) <- w.(d).(s) + bits)
    (Cwg.communications cwg);
  let record_swaps n = match swaps with Some r -> r := !r + n | None -> () in
  let rec go members rect acc =
    let n = Array.length members in
    let cap = rect.w * rect.h * rect.d in
    assert (n <= cap);
    if n <= max_region || n < 2 || cap < 2 then
      { cores = members; rect; tiles = region_tiles mesh rect } :: acc
    else begin
      let r1, r2 = split_rect rect in
      let c1 = r1.w * r1.h * r1.d and c2 = r2.w * r2.h * r2.d in
      (* Target side sizes proportional to the capacities, clamped so
         both sides stay non-empty and fit their rectangles. *)
      let na = ((n * c1) + (cap / 2)) / cap in
      let na = max (max 1 (n - c2)) (min na (min (n - 1) c1)) in
      let in_a, taken = bipartition ~w ~cores:members ~na ~passes:kl_passes in
      record_swaps taken;
      let side keep =
        let buf = ref [] in
        for i = n - 1 downto 0 do
          if in_a.(i) = keep then buf := members.(i) :: !buf
        done;
        Array.of_list !buf
      in
      go (side true) r1 (go (side false) r2 acc)
    end
  in
  go
    (Array.init cores Fun.id)
    {
      x = 0;
      y = 0;
      z = 0;
      w = mesh.Mesh.cols;
      h = mesh.Mesh.rows;
      d = mesh.Mesh.layers;
    }
    []

let cut_bits ~cwg regions =
  let owner = Array.make (Cwg.core_count cwg) (-1) in
  List.iteri
    (fun r (reg : region) -> Array.iter (fun c -> owner.(c) <- r) reg.cores)
    regions;
  List.fold_left
    (fun acc (s, d, bits) -> if owner.(s) <> owner.(d) then acc + bits else acc)
    0 (Cwg.communications cwg)

(* Seed assignment: within each region, cores in decreasing total
   communication volume take the region's tiles in center-out order. *)
let seed_placement ~cwg regions =
  let placement = Array.make (Cwg.core_count cwg) (-1) in
  List.iter
    (fun (reg : region) ->
      let order = Array.copy reg.cores in
      Array.sort
        (fun a b ->
          let ca = Greedy.connectivity cwg a and cb = Greedy.connectivity cwg b in
          if ca <> cb then compare cb ca else compare a b)
        order;
      Array.iteri (fun k c -> placement.(c) <- reg.tiles.(k)) order)
    regions;
  placement

type region_state =
  | Sa_running of Annealing.checkpoint
  | Tabu_running of Tabu.checkpoint
  | Local_running of Local_search.checkpoint
  | Region_done of Objective.search_result

type checkpoint = {
  region_states : region_state list;
  seed : Objective.search_result;
  base : Objective.search_result option;
  polish : Local_search.checkpoint option;
}

type region_report = {
  region_cores : int list;
  region_rect : rect;
  region_cost : float;
  region_evaluations : int;
}

type report = {
  result : Objective.search_result;
  regions : region_report list;
  cut : int;
  total : int;
  seed_cost : float;
  polish_evaluations : int;
}

let state_best_cost = function
  | Sa_running c -> c.Annealing.best_cost
  | Tabu_running c -> c.Tabu.best_cost
  | Local_running c -> c.Local_search.current_cost
  | Region_done r -> r.Objective.cost

let state_evaluations = function
  | Sa_running c -> c.Annealing.evaluations
  | Tabu_running c -> c.Tabu.evaluations
  | Local_running c -> c.Local_search.evaluations
  | Region_done r -> r.Objective.evaluations

let state_rng_state = function
  | Sa_running c -> c.Annealing.rng_state
  | Tabu_running c -> c.Tabu.rng_state
  | Local_running _ | Region_done _ -> 0L

(* A cost-call counting view of an objective (same values, same bound
   verdicts): lets the driver meter a slice's budget from outside. *)
let counted n (objective : Objective.t) =
  {
    objective with
    Objective.cost_fn =
      (fun p ->
        incr n;
        objective.Objective.cost_fn p);
    bound_fn =
      Option.map
        (fun bound_fn ~cutoff p ->
          incr n;
          bound_fn ~cutoff p)
        objective.Objective.bound_fn;
  }

(* View of the global objective restricted to one region: a sub
   placement maps the region's cores over the region's tiles; every
   other core stays frozen at the seed assignment.  Regions are
   disjoint, so concurrent refinements never see each other and their
   results compose into one valid global placement. *)
let region_objective ~seed (reg : region) (objective : Objective.t) =
  let full = Array.copy seed in
  let materialize sub =
    Array.iteri (fun k t -> full.(reg.cores.(k)) <- reg.tiles.(t)) sub;
    full
  in
  {
    Objective.name = objective.Objective.name;
    cost_fn = (fun sub -> objective.Objective.cost_fn (materialize sub));
    bound_fn =
      Option.map
        (fun bound_fn ~cutoff sub -> bound_fn ~cutoff (materialize sub))
        objective.Objective.bound_fn;
  }

let validate_config config =
  if config.max_region < 1 then
    invalid_arg "Decompose.search: max_region must be >= 1";
  if config.kl_passes < 0 then
    invalid_arg "Decompose.search: kl_passes must be non-negative";
  if config.slice < 1 then invalid_arg "Decompose.search: slice must be positive";
  if config.local_evaluations < 1 then
    invalid_arg "Decompose.search: local_evaluations must be positive";
  if config.polish < 0 then
    invalid_arg "Decompose.search: polish must be non-negative"

let search ~rng ~config ~crg ~cwg ~objective_for ?region_objective_for ?pool
    ?(stop = fun () -> false) ?checkpoint ?resume () =
  validate_config config;
  let tiles = Crg.tile_count crg in
  let cores = Cwg.core_count cwg in
  if cores > tiles then invalid_arg "Decompose.search: more cores than tiles";
  let mesh = Crg.mesh crg in
  let kl_swaps = ref 0 in
  let regions =
    Array.of_list
      (partition ~swaps:kl_swaps ~cwg ~mesh ~max_region:config.max_region
         ~kl_passes:config.kl_passes ())
  in
  let nr = Array.length regions in
  let cut = cut_bits ~cwg (Array.to_list regions) in
  let seed_map = seed_placement ~cwg (Array.to_list regions) in
  let driver_objective = lazy (objective_for ()) in
  (* Initial sub placement of a region: the seed assignment, expressed
     in region-local tile indices. *)
  let sub_initial (reg : region) =
    Array.map
      (fun c ->
        let tile = seed_map.(c) in
        let t = ref (-1) in
        Array.iteri (fun k u -> if u = tile then t := k) reg.tiles;
        assert (!t >= 0);
        !t)
      reg.cores
  in
  let states : region_state option array = Array.make nr None in
  let region_rngs = Array.make nr rng in
  let seed_result = ref { Objective.placement = [||]; cost = infinity; evaluations = 0 } in
  let base = ref None in
  let polish_ck = ref None in
  (match resume with
  | Some (c : checkpoint) ->
    if List.length c.region_states <> nr then
      invalid_arg "Decompose.search: resume region count mismatch";
    List.iteri
      (fun i st ->
        states.(i) <- Some st;
        region_rngs.(i) <- Rng.of_state (state_rng_state st))
      c.region_states;
    seed_result := c.seed;
    base := c.base;
    polish_ck := c.polish
  | None ->
    let objective = Lazy.force driver_objective in
    let cost = objective.Objective.cost_fn seed_map in
    seed_result := { Objective.placement = seed_map; cost; evaluations = 1 };
    Objective.count_evaluations 1;
    for i = 0 to nr - 1 do
      region_rngs.(i) <- Rng.split rng
    done;
    (* A single-tile region has nothing to search. *)
    Array.iteri
      (fun i (reg : region) ->
        if Array.length reg.tiles < 2 then
          states.(i) <-
            Some
              (Region_done
                 { Objective.placement = sub_initial reg; cost; evaluations = 0 }))
      regions);
  let total_evaluations () =
    let polish_evals =
      match !polish_ck with
      | Some (c : Local_search.checkpoint) -> c.Local_search.evaluations
      | None -> 0
    in
    match !base with
    | Some (b : Objective.search_result) -> b.Objective.evaluations + polish_evals
    | None ->
      Array.fold_left
        (fun acc st ->
          match st with Some st -> acc + state_evaluations st | None -> acc)
        !seed_result.Objective.evaluations states
  in
  let snapshot () : checkpoint =
    {
      region_states =
        Array.to_list
          (Array.map (function Some st -> st | None -> assert false) states);
      seed = !seed_result;
      base = !base;
      polish = !polish_ck;
    }
  in
  let last_flush =
    ref (match resume with Some _ -> total_evaluations () | None -> 0)
  in
  let flush () =
    match checkpoint with
    | Some (_, hook) ->
      last_flush := total_evaluations ();
      hook (snapshot ())
    | None -> ()
  in
  let maybe_flush () =
    match checkpoint with
    | Some (every, _) when total_evaluations () - !last_flush >= every -> flush ()
    | Some _ | None -> ()
  in
  let finished i =
    match states.(i) with Some (Region_done _) -> true | Some _ | None -> false
  in
  let all_done () =
    let rec go i = i >= nr || (finished i && go (i + 1)) in
    go 0
  in
  let region_base =
    match region_objective_for with
    | Some f -> fun (reg : region) -> f ~cores:reg.cores ~tiles:reg.tiles
    | None -> fun _ -> objective_for ()
  in
  let region_objectives =
    Array.init nr (fun i ->
        lazy (region_objective ~seed:seed_map regions.(i) (region_base regions.(i))))
  in
  (* One slice of region [i]: at most [config.slice] further cost calls
     of its refiner, interrupted through the sticky stop contract so the
     flushed native checkpoint resumes bit-identically.  Runs on a pool
     domain; every mutable input (rng, objective, state) is owned by
     this region alone. *)
  let slice i =
    let reg = regions.(i) in
    let objective = Lazy.force region_objectives.(i) in
    let n = ref 0 in
    let budgeted = counted n objective in
    let slice_stop () = stop () || !n >= config.slice in
    let t = Array.length reg.tiles and k = Array.length reg.cores in
    match config.refiner with
    | Sa ->
      let resume =
        match states.(i) with
        | Some (Sa_running c) -> Some c
        | None -> None
        | Some _ -> assert false
      in
      let captured = ref None in
      let r =
        Annealing.search ~rng:region_rngs.(i) ~config:config.sa ~tiles:t
          ~objective:budgeted ~initial:(sub_initial reg) ~stop:slice_stop
          ~checkpoint:(max_int, fun c -> captured := Some c)
          ?resume ~cores:k ()
      in
      (match !captured with Some c -> Sa_running c | None -> Region_done r)
    | Tabu ->
      let resume =
        match states.(i) with
        | Some (Tabu_running c) -> Some c
        | None -> None
        | Some _ -> assert false
      in
      let captured = ref None in
      let r =
        Tabu.search ~rng:region_rngs.(i) ~config:config.tabu ~tiles:t
          ~objective:budgeted ~initial:(sub_initial reg) ~stop:slice_stop
          ~checkpoint:(max_int, fun c -> captured := Some c)
          ?resume ~cores:k ()
      in
      (match !captured with Some c -> Tabu_running c | None -> Region_done r)
    | Local ->
      let resume =
        match states.(i) with
        | Some (Local_running c) -> Some c
        | None -> None
        | Some _ -> assert false
      in
      let captured = ref None in
      let r =
        Local_search.search ~objective:budgeted ~tiles:t ~initial:(sub_initial reg)
          ~max_evaluations:config.local_evaluations ~stop:slice_stop
          ~checkpoint:(max_int, fun c -> captured := Some c)
          ?resume ()
      in
      (match !captured with Some c -> Local_running c | None -> Region_done r)
  in
  (* Phase 1: refine the regions, [slice] evaluations per round.  The
     regions never read each other's progress, so any slicing of a
     region's trajectory — including the different slicing a resumed
     run produces — replays the uninterrupted trajectory exactly. *)
  if !base = None then begin
    while (not (all_done ())) && not (stop ()) do
      let active =
        Array.of_list (List.filter (fun i -> not (finished i)) (List.init nr Fun.id))
      in
      let results = Domain_pool.map ?pool slice active in
      Array.iteri (fun k next -> states.(active.(k)) <- Some next) results;
      if not (stop ()) then maybe_flush ()
    done;
    let have_states = Array.for_all (function Some _ -> true | None -> false) states in
    if stop () && have_states then flush ()
  end;
  (* Phase 2: compose the refined regions into one placement and keep
     the better of (seed, composition) as the polish base. *)
  if !base = None && not (stop ()) then begin
    let composed = Array.copy !seed_result.Objective.placement in
    Array.iteri
      (fun i (reg : region) ->
        match states.(i) with
        | Some (Region_done r) ->
          Array.iteri
            (fun k t -> composed.(reg.cores.(k)) <- reg.tiles.(t))
            r.Objective.placement
        | Some _ | None -> assert false)
      regions;
    let objective = Lazy.force driver_objective in
    let composed_cost = objective.Objective.cost_fn composed in
    Objective.count_evaluations 1;
    let evaluations = total_evaluations () + 1 in
    base :=
      Some
        (if composed_cost <= !seed_result.Objective.cost then
           { Objective.placement = composed; cost = composed_cost; evaluations }
         else
           {
             Objective.placement = !seed_result.Objective.placement;
             cost = !seed_result.Objective.cost;
             evaluations;
           });
    maybe_flush ()
  end;
  (* Phase 3: a short global polish — deterministic steepest descent
     from the composition under the driver objective (the incremental
     CDCM evaluator when the caller built one). *)
  let polish_result =
    match !base with
    | Some b when config.polish > 0 && not (stop ()) ->
      let objective = Lazy.force driver_objective in
      let every = match checkpoint with Some (every, _) -> every | None -> max_int in
      let hook (c : Local_search.checkpoint) =
        polish_ck := Some c;
        flush ()
      in
      let r =
        Local_search.search ~objective ~tiles ~initial:b.Objective.placement
          ~max_evaluations:config.polish ~stop
          ~checkpoint:(every, hook)
          ?resume:!polish_ck ()
      in
      Some r
    | Some _ | None -> None
  in
  let result =
    match (!base, polish_result) with
    | Some b, Some (p : Objective.search_result) ->
      if p.Objective.cost <= b.Objective.cost then
        {
          Objective.placement = p.Objective.placement;
          cost = p.Objective.cost;
          evaluations = b.Objective.evaluations + p.Objective.evaluations;
        }
      else { b with Objective.evaluations = b.Objective.evaluations + p.Objective.evaluations }
    | Some b, None -> b
    | None, _ ->
      (* Stopped before the composition: report the best placement known
         so far — the seed (region refinements only exist as sub-space
         states until they compose). *)
      { !seed_result with Objective.evaluations = total_evaluations () }
  in
  let polish_evaluations =
    match polish_result with
    | Some (p : Objective.search_result) -> p.Objective.evaluations
    | None -> 0
  in
  let per_region =
    Array.to_list
      (Array.mapi
         (fun i (reg : region) ->
           let cost, evaluations =
             match states.(i) with
             | Some st -> (state_best_cost st, state_evaluations st)
             | None -> (infinity, 0)
           in
           {
             region_cores = Array.to_list reg.cores;
             region_rect = reg.rect;
             region_cost = cost;
             region_evaluations = evaluations;
           })
         regions)
  in
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Metrics.add m_regions nr;
    Metrics.add m_kl_swaps !kl_swaps;
    Metrics.add m_cut_bits cut;
    (match (!base, polish_result) with
    | Some b, Some p when p.Objective.cost < b.Objective.cost ->
      Metrics.incr m_polish_improvements
    | _ -> ())
  end;
  {
    result;
    regions = per_region;
    cut;
    total = Cwg.total_bits cwg;
    seed_cost = !seed_result.Objective.cost;
    polish_evaluations;
  }
