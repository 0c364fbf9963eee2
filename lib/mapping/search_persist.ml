module Rng = Nocmap_util.Rng
module Json = Nocmap_persist.Json
module Store = Nocmap_persist.Store

let default_every = 10_000

(* --- record codec ---

   Each journaled record is declared once: every field's JSON key, codec
   and record accessor side by side, applied in turn to the record's
   constructor.  The declaration yields both directions; fields encode
   in declaration order, which is the byte order the shards pin. *)

type 'a codec = { enc : 'a -> Json.t; dec : Json.t -> 'a }

let int = { enc = (fun i -> Json.Int i); dec = Json.to_int }
let bool = { enc = (fun b -> Json.Bool b); dec = Json.to_bool }
let string = { enc = (fun s -> Json.Str s); dec = Json.to_str }
let float = { enc = Json.float_; dec = Json.to_float }
let int64 = { enc = Json.int64; dec = Json.to_int64 }

(* [c] seen through a conversion: [into] maps a value onto [c]'s, [back]
   the other way. *)
let conv back into c =
  { enc = (fun v -> c.enc (into v)); dec = (fun j -> back (c.dec j)) }

let list c =
  { enc = (fun l -> Json.List (List.map c.enc l));
    dec = (fun j -> List.map c.dec (Json.to_list j)) }

let array c = conv Array.of_list Array.to_list (list c)

let nullable c =
  { enc = (function None -> Json.Null | Some v -> c.enc v);
    dec = (function Json.Null -> None | j -> Some (c.dec j)) }

(* A record under declaration: [read] yields the constructor still
   waiting for the undeclared fields' values. *)
type ('r, 'k) fields = {
  written : ('r -> (string * Json.t) option) list;  (* last field first *)
  read : Json.t -> 'k;
}

let record make = { written = []; read = (fun _ -> make) }

let add write read fields =
  { written = write :: fields.written;
    read = (fun j -> let k = fields.read j in k (read j)) }

let field key c get =
  add (fun r -> Some (key, c.enc (get r))) (fun j -> c.dec (Json.get key j))

(* Left out of the object when [omit] holds, read back as [default] when
   absent. *)
let optional key c ~default ~omit get =
  add
    (fun r -> if omit r then None else Some (key, c.enc (get r)))
    (fun j -> match Json.find key j with Some v -> c.dec v | None -> default)

let seal fields =
  let written = List.rev fields.written in
  { enc = (fun r -> Json.Assoc (List.filter_map (fun w -> w r) written));
    dec = fields.read }

(* --- journaled records --- *)

let placement = array int
let placement_json = placement.enc
let placement_of_json = placement.dec

let result =
  record (fun placement cost evaluations ->
      { Objective.placement; cost; evaluations })
  |> field "placement" placement (fun r -> r.Objective.placement)
  |> field "cost" float (fun r -> r.Objective.cost)
  |> field "evaluations" int (fun r -> r.Objective.evaluations)
  |> seal

let sa_checkpoint =
  record
    (fun rng_state evaluations current current_cost best best_cost
         temperature floor stale_levels moves improved_this_level accepted
         rejected cutoff_hits ->
      { Annealing.rng_state; evaluations; current; current_cost; best;
        best_cost; temperature; floor; stale_levels; moves;
        improved_this_level; accepted; rejected; cutoff_hits })
  |> field "rng" int64 (fun c -> c.Annealing.rng_state)
  |> field "evaluations" int (fun c -> c.Annealing.evaluations)
  |> field "current" placement (fun c -> c.Annealing.current)
  |> field "current_cost" float (fun c -> c.Annealing.current_cost)
  |> field "best" placement (fun c -> c.Annealing.best)
  |> field "best_cost" float (fun c -> c.Annealing.best_cost)
  |> field "temperature" float (fun c -> c.Annealing.temperature)
  |> field "floor" float (fun c -> c.Annealing.floor)
  |> field "stale_levels" int (fun c -> c.Annealing.stale_levels)
  |> field "moves" int (fun c -> c.Annealing.moves)
  |> field "improved" bool (fun c -> c.Annealing.improved_this_level)
  |> field "accepted" int (fun c -> c.Annealing.accepted)
  |> field "rejected" int (fun c -> c.Annealing.rejected)
  |> field "cutoff_hits" int (fun c -> c.Annealing.cutoff_hits)
  |> seal

let ls_checkpoint =
  record (fun current current_cost evaluations cutoff_hits ->
      { Local_search.current; current_cost; evaluations; cutoff_hits })
  |> field "current" placement (fun c -> c.Local_search.current)
  |> field "current_cost" float (fun c -> c.Local_search.current_cost)
  |> field "evaluations" int (fun c -> c.Local_search.evaluations)
  |> field "cutoff_hits" int (fun c -> c.Local_search.cutoff_hits)
  |> seal

(* A tabu attribute travels as the list [core, tile, expiry]. *)
let tabu_attribute =
  conv
    (function
      | [ core; tile; expiry ] -> (core, tile, expiry)
      | _ -> failwith "malformed tabu attribute")
    (fun (core, tile, expiry) -> [ core; tile; expiry ])
    (list int)

let tabu_checkpoint =
  record
    (fun rng_state evaluations iteration current current_cost best best_cost
         stale tabu cutoff_hits ->
      { Tabu.rng_state; evaluations; iteration; current; current_cost; best;
        best_cost; stale; tabu; cutoff_hits })
  |> field "rng" int64 (fun c -> c.Tabu.rng_state)
  |> field "evaluations" int (fun c -> c.Tabu.evaluations)
  |> field "iteration" int (fun c -> c.Tabu.iteration)
  |> field "current" placement (fun c -> c.Tabu.current)
  |> field "current_cost" float (fun c -> c.Tabu.current_cost)
  |> field "best" placement (fun c -> c.Tabu.best)
  |> field "best_cost" float (fun c -> c.Tabu.best_cost)
  |> field "stale" int (fun c -> c.Tabu.stale)
  |> field "tabu" (list tabu_attribute) (fun c -> c.Tabu.tabu)
  |> field "cutoff_hits" int (fun c -> c.Tabu.cutoff_hits)
  |> seal

let genetic_checkpoint =
  record
    (fun rng_state evaluations generation population fitness best best_cost
         stale cutoff_hits ->
      { Genetic.rng_state; evaluations; generation; population; fitness; best;
        best_cost; stale; cutoff_hits })
  |> field "rng" int64 (fun c -> c.Genetic.rng_state)
  |> field "evaluations" int (fun c -> c.Genetic.evaluations)
  |> field "generation" int (fun c -> c.Genetic.generation)
  |> field "population" (array placement) (fun c -> c.Genetic.population)
  |> field "fitness" (array float) (fun c -> c.Genetic.fitness)
  |> field "best" placement (fun c -> c.Genetic.best)
  |> field "best_cost" float (fun c -> c.Genetic.best_cost)
  |> field "stale" int (fun c -> c.Genetic.stale)
  |> field "cutoff_hits" int (fun c -> c.Genetic.cutoff_hits)
  |> seal

(* One codec for every searcher's live state.  The tag doubles as a
   single search's [algorithm] fingerprint: a journaled single search
   records the bare value, racers and regions the tagged pair. *)
let state_value = function
  | Refiner.Sa_running c -> ("sa", sa_checkpoint.enc c)
  | Refiner.Tabu_running c -> ("tabu", tabu_checkpoint.enc c)
  | Refiner.Genetic_running c -> ("ga", genetic_checkpoint.enc c)
  | Refiner.Local_running c -> ("ls", ls_checkpoint.enc c)
  | Refiner.Done r -> ("done", result.enc r)

let state_of_value tag value =
  match tag with
  | "sa" -> Refiner.Sa_running (sa_checkpoint.dec value)
  | "tabu" -> Refiner.Tabu_running (tabu_checkpoint.dec value)
  | "ga" -> Refiner.Genetic_running (genetic_checkpoint.dec value)
  | "ls" -> Refiner.Local_running (ls_checkpoint.dec value)
  | "done" -> Refiner.Done (result.dec value)
  | tag -> failwith (Printf.sprintf "unknown refiner state %S" tag)

let state =
  { enc =
      (fun s ->
        let tag, value = state_value s in
        Json.Assoc [ ("state", Json.Str tag); ("value", value) ]);
    dec =
      (fun j ->
        state_of_value (string.dec (Json.get "state" j)) (Json.get "value" j)) }

let strategy =
  conv
    (fun name ->
      match Portfolio.strategy_of_string name with
      | Some s -> s
      | None -> failwith (Printf.sprintf "unknown portfolio strategy %S" name))
    Portfolio.strategy_to_string string

let by_strategy c =
  list
    (record (fun s v -> (s, v))
    |> field "strategy" strategy fst
    |> field "value" c snd
    |> seal)

let portfolio_checkpoint =
  record
    (fun round in_round seeds legs best best_cost best_by seed_evaluations
         incumbent_updates cutoff_tightenings wins ceilings round_starts ->
      { Portfolio.round; in_round; seeds; legs; best; best_cost; best_by;
        seed_evaluations; incumbent_updates; cutoff_tightenings; wins;
        ceilings; round_starts })
  |> field "round" int (fun c -> c.Portfolio.round)
  |> field "in_round" bool (fun c -> c.Portfolio.in_round)
  |> field "seeds" (by_strategy result) (fun c -> c.Portfolio.seeds)
  |> field "legs" (by_strategy state) (fun c -> c.Portfolio.legs)
  |> field "best" placement (fun c -> c.Portfolio.best)
  |> field "best_cost" float (fun c -> c.Portfolio.best_cost)
  |> field "best_by" strategy (fun c -> c.Portfolio.best_by)
  |> field "seed_evaluations" int (fun c -> c.Portfolio.seed_evaluations)
  |> field "incumbent_updates" int (fun c -> c.Portfolio.incumbent_updates)
  |> field "cutoff_tightenings" int (fun c -> c.Portfolio.cutoff_tightenings)
  |> field "wins" (by_strategy int) (fun c -> c.Portfolio.wins)
  |> field "ceilings" (by_strategy float) (fun c -> c.Portfolio.ceilings)
  |> field "round_starts" (by_strategy int) (fun c -> c.Portfolio.round_starts)
  |> seal

let strategy_report =
  record (fun strategy cost evaluations rounds_won ->
      { Portfolio.strategy; cost; evaluations; rounds_won })
  |> field "strategy" strategy (fun s -> s.Portfolio.strategy)
  |> field "cost" float (fun s -> s.Portfolio.cost)
  |> field "evaluations" int (fun s -> s.Portfolio.evaluations)
  |> field "rounds_won" int (fun s -> s.Portfolio.rounds_won)
  |> seal

let portfolio_report =
  record (fun result winner rounds updates tightenings per_strategy ->
      { Portfolio.result; winner; rounds; updates; tightenings; per_strategy })
  |> field "result" result (fun r -> r.Portfolio.result)
  |> field "winner" strategy (fun r -> r.Portfolio.winner)
  |> field "rounds" int (fun r -> r.Portfolio.rounds)
  |> field "updates" int (fun r -> r.Portfolio.updates)
  |> field "tightenings" int (fun r -> r.Portfolio.tightenings)
  |> field "per_strategy" (list strategy_report) (fun r ->
         r.Portfolio.per_strategy)
  |> seal

let decompose_checkpoint =
  record (fun region_states seed base polish ->
      { Decompose.region_states; seed; base; polish })
  |> field "regions" (list state) (fun c -> c.Decompose.region_states)
  |> field "seed" result (fun c -> c.Decompose.seed)
  |> field "base" (nullable result) (fun c -> c.Decompose.base)
  |> field "polish" (nullable ls_checkpoint) (fun c -> c.Decompose.polish)
  |> seal

(* Planar rectangles leave out the z/d fields so 2-D checkpoint files
   keep their historical byte-for-byte shape. *)
let rect =
  let planar (r : Decompose.rect) = r.Decompose.z = 0 && r.Decompose.d = 1 in
  record (fun x y w h z d -> { Decompose.x; y; z; w; h; d })
  |> field "x" int (fun r -> r.Decompose.x)
  |> field "y" int (fun r -> r.Decompose.y)
  |> field "w" int (fun r -> r.Decompose.w)
  |> field "h" int (fun r -> r.Decompose.h)
  |> optional "z" int ~default:0 ~omit:planar (fun r -> r.Decompose.z)
  |> optional "d" int ~default:1 ~omit:planar (fun r -> r.Decompose.d)
  |> seal

let region_report =
  record (fun region_cores region_rect region_cost region_evaluations ->
      { Decompose.region_cores; region_rect; region_cost; region_evaluations })
  |> field "cores" (list int) (fun r -> r.Decompose.region_cores)
  |> field "rect" rect (fun r -> r.Decompose.region_rect)
  |> field "cost" float (fun r -> r.Decompose.region_cost)
  |> field "evaluations" int (fun r -> r.Decompose.region_evaluations)
  |> seal

let decompose_report =
  record (fun result regions cut total seed_cost polish_evaluations ->
      { Decompose.result; regions; cut; total; seed_cost; polish_evaluations })
  |> field "result" result (fun r -> r.Decompose.result)
  |> field "regions" (list region_report) (fun r -> r.Decompose.regions)
  |> field "cut" int (fun r -> r.Decompose.cut)
  |> field "total" int (fun r -> r.Decompose.total)
  |> field "seed_cost" float (fun r -> r.Decompose.seed_cost)
  |> field "polish_evaluations" int (fun r -> r.Decompose.polish_evaluations)
  |> seal

(* A single search journals its running state untagged: the shard's
   [algorithm] field names the searcher. *)
let bare_state algorithm =
  { enc = (fun s -> snd (state_value s)); dec = state_of_value algorithm }

let recode ~algorithm kind j =
  let again c = c.enc (c.dec j) in
  match (algorithm, kind) with
  | "portfolio", `Progress -> again portfolio_checkpoint
  | "portfolio", `Done -> again portfolio_report
  | "decompose", `Progress -> again decompose_checkpoint
  | "decompose", `Done -> again decompose_report
  | searcher, `Progress -> again (bare_state searcher)
  | _, `Done -> again result

(* --- config fingerprints (encode-only: a header is compared, never
   decoded) --- *)

let sa_config_json (c : Annealing.config) =
  Json.Assoc
    [
      ( "initial_temperature",
        match c.Annealing.initial_temperature with
        | `Auto -> Json.Str "auto"
        | `Fixed t -> Json.float_ t );
      ("cooling", Json.float_ c.Annealing.cooling);
      ("moves_per_temperature", Json.Int c.Annealing.moves_per_temperature);
      ("patience", Json.Int c.Annealing.patience);
      ("max_evaluations", Json.Int c.Annealing.max_evaluations);
      ("prune", (nullable float).enc c.Annealing.prune);
    ]

let tabu_config_json (c : Tabu.config) =
  Json.Assoc
    [
      ("tenure", Json.Int c.Tabu.tenure);
      ("neighborhood", Json.Int c.Tabu.neighborhood);
      ("patience", Json.Int c.Tabu.patience);
      ("max_evaluations", Json.Int c.Tabu.max_evaluations);
    ]

let genetic_config_json (c : Genetic.config) =
  Json.Assoc
    [
      ("population", Json.Int c.Genetic.population);
      ("elite", Json.Int c.Genetic.elite);
      ("tournament", Json.Int c.Genetic.tournament);
      ("crossover", Json.float_ c.Genetic.crossover);
      ("mutation", Json.float_ c.Genetic.mutation);
      ("patience", Json.Int c.Genetic.patience);
      ("max_evaluations", Json.Int c.Genetic.max_evaluations);
    ]

let portfolio_config_json (c : Portfolio.config) =
  Json.Assoc
    [
      ("slice", Json.Int c.Portfolio.slice);
      ("ceiling_factor", Json.float_ c.Portfolio.ceiling_factor);
      ("sa", sa_config_json c.Portfolio.sa);
      ("tabu", tabu_config_json c.Portfolio.tabu);
      ("genetic", genetic_config_json c.Portfolio.genetic);
    ]

let decompose_config_json (c : Decompose.config) =
  Json.Assoc
    [
      ("max_region", Json.Int c.Decompose.max_region);
      ("kl_passes", Json.Int c.Decompose.kl_passes);
      ("refiner", Json.Str (Decompose.refiner_to_string c.Decompose.refiner));
      ("slice", Json.Int c.Decompose.slice);
      ("sa", sa_config_json c.Decompose.sa);
      ("tabu", tabu_config_json c.Decompose.tabu);
      ("local_evaluations", Json.Int c.Decompose.local_evaluations);
      ("polish", Json.Int c.Decompose.polish);
    ]

(* --- entry points --- *)

(* Runs [search] under {!Store.shard}'s protocol with [every] as the
   checkpoint cadence.  Without a [store], or when [stop] is already set
   on entry, it runs with no persistence at all (see the interface). *)
let journaled ?store ~key ~meta ~every ~progress ~outcome ~stop search =
  match store with
  | None -> search ?checkpoint:None ?resume:None ()
  | Some _ when stop () -> search ?checkpoint:None ?resume:None ()
  | Some store ->
    Store.shard store ~key ~meta ~encode:progress.enc ~decode:progress.dec
      ~encode_result:outcome.enc ~decode_result:outcome.dec
      ~finished:(fun () -> not (stop ()))
      (fun ~checkpoint ~resume ->
        search ?checkpoint:(Some (every, checkpoint)) ?resume ())

(* A single search's header.  The rng state on entry identifies the
   substream, so resuming with a different seed is rejected rather than
   blended in; local search draws no randomness and records none. *)
let refine_meta refiner ~objective ~rng ~tiles ~cores ~initial =
  let algorithm, substream, budget =
    let substream = [ ("rng", Json.int64 (Rng.state rng)) ] in
    match refiner with
    | Refiner.Sa c -> ("sa", substream, ("config", sa_config_json c))
    | Refiner.Tabu c -> ("tabu", substream, ("config", tabu_config_json c))
    | Refiner.Genetic c -> ("ga", substream, ("config", genetic_config_json c))
    | Refiner.Local n -> ("ls", [], ("max_evaluations", Json.Int n))
  in
  ( algorithm,
    Json.Assoc
      ([
         ("algorithm", Json.Str algorithm);
         ("objective", Json.Str objective.Objective.name);
       ]
      @ substream
      @ [
          ("tiles", Json.Int tiles);
          ("cores", Json.Int cores);
          budget;
          ("initial", (nullable placement).enc initial);
        ]) )

let refine ?store ~key ?(every = default_every) ~rng refiner ~tiles ~objective
    ?initial ?(stop = fun () -> false) ?convergence ~cores () =
  let algorithm, meta = refine_meta refiner ~objective ~rng ~tiles ~cores ~initial in
  journaled ?store ~key ~meta ~every
    ~progress:(bare_state algorithm) ~outcome:result ~stop
    (fun ?checkpoint ?resume () ->
      Refiner.run refiner ~rng ~tiles ~objective ?initial ~stop ?convergence
        ?checkpoint ?resume ~cores ())

let portfolio ?store ~key ?(every = default_every) ~rng ~config ~strategies
    ~tech ~crg ~cwg ~objective_name ~objective_for ?pool
    ?(stop = fun () -> false) ?target () =
  let meta =
    Json.Assoc
      [
        ("algorithm", Json.Str "portfolio");
        ("strategies", (list strategy).enc strategies);
        ("objective", Json.Str objective_name);
        ("rng", Json.int64 (Rng.state rng));
        ("tiles", Json.Int (Nocmap_noc.Crg.tile_count crg));
        ("cores", Json.Int (Nocmap_model.Cwg.core_count cwg));
        ("config", portfolio_config_json config);
        ("target", (nullable float).enc target);
      ]
  in
  journaled ?store ~key ~meta ~every ~progress:portfolio_checkpoint
    ~outcome:portfolio_report ~stop
    (fun ?checkpoint ?resume () ->
      Portfolio.search ~rng ~config ~strategies ~tech ~crg ~cwg ~objective_for
        ?pool ~stop ?target ?checkpoint ?resume ())

let decompose ?store ~key ?(every = default_every) ~rng ~config ~crg ~cwg
    ~objective_name ~objective_for ?region_objective_for ?pool
    ?(stop = fun () -> false) () =
  let meta =
    Json.Assoc
      [
        ("algorithm", Json.Str "decompose");
        ("objective", Json.Str objective_name);
        ("rng", Json.int64 (Rng.state rng));
        ("tiles", Json.Int (Nocmap_noc.Crg.tile_count crg));
        ("cores", Json.Int (Nocmap_model.Cwg.core_count cwg));
        ("config", decompose_config_json config);
      ]
  in
  journaled ?store ~key ~meta ~every ~progress:decompose_checkpoint
    ~outcome:decompose_report ~stop
    (fun ?checkpoint ?resume () ->
      Decompose.search ~rng ~config ~crg ~cwg ~objective_for
        ?region_objective_for ?pool ~stop ?checkpoint ?resume ())
