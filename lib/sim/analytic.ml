module Crg = Nocmap_noc.Crg
module Link = Nocmap_noc.Link
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params

type estimate = {
  critical_path_cycles : int;
  link_load_cycles : int;
  lower_bound_cycles : int;
}

let latency ~params ~retry_cycles ~compute ~flits ~routers =
  if routers = 0 then compute + retry_cycles
  else compute + Noc_params.total_delay_cycles params ~routers ~flits

(* Drop flags are timing-independent, so they are resolved exactly: a
   packet on a severed route is dropped after its futile retries, and a
   packet with a dropped dependence is cascade-dropped the moment its
   last dependence resolves — it never enters the network.  On a
   fault-free CRG nothing is severed and this is the plain Equation (8)
   critical path. *)
let propagate (cdcg : Cdcg.t) ~lat ~severed ~complete ~dropped ~sent =
  let order = cdcg.Cdcg.order in
  let pred_off = cdcg.Cdcg.pred_off and pred = cdcg.Cdcg.pred in
  let latest = ref min_int and last = ref (-1) in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    let ready = ref 0 and dep_dropped = ref false in
    for j = pred_off.(i) to pred_off.(i + 1) - 1 do
      let p = pred.(j) in
      if complete.(p) > !ready then ready := complete.(p);
      if dropped.(p) then dep_dropped := true
    done;
    sent.(i) <- !ready + cdcg.Cdcg.packets.(i).Cdcg.compute;
    if !dep_dropped then begin
      dropped.(i) <- true;
      complete.(i) <- !ready
    end
    else begin
      dropped.(i) <- severed.(i);
      complete.(i) <- !ready + lat.(i)
    end;
    if complete.(i) > !latest then begin
      latest := complete.(i);
      last := i
    end
  done;
  !last

let link_demand ~occupancy ~paths ~dropped ~sent ~load ~earliest =
  Array.fill load 0 (Array.length load) 0;
  Array.fill earliest 0 (Array.length earliest) max_int;
  for i = 0 to Array.length paths - 1 do
    if not dropped.(i) then begin
      let occ = occupancy.(i) and s = sent.(i) in
      let links = paths.(i).Crg.links in
      for k = 0 to Array.length links - 1 do
        let lid = links.(k) in
        load.(lid) <- load.(lid) + occ;
        if s < earliest.(lid) then earliest.(lid) <- s
      done
    end
  done

let link_bound ~load ~earliest =
  let bound = ref 0 in
  for lid = 0 to Array.length load - 1 do
    if load.(lid) > 0 then begin
      let b = earliest.(lid) + load.(lid) in
      if b > !bound then bound := b
    end
  done;
  !bound

let validate_placement ~tiles ~cores placement =
  if Array.length placement <> cores then
    invalid_arg "Analytic.estimate: placement length differs from core count";
  let used = Array.make tiles false in
  Array.iter
    (fun tile ->
      if tile < 0 || tile >= tiles then
        invalid_arg "Analytic.estimate: placement tile out of range";
      if used.(tile) then invalid_arg "Analytic.estimate: placement is not injective";
      used.(tile) <- true)
    placement

let estimate ?fault_policy ~params ~crg ~placement (cdcg : Cdcg.t) =
  validate_placement ~tiles:(Crg.tile_count crg) ~cores:(Cdcg.core_count cdcg)
    placement;
  let policy = Option.value fault_policy ~default:Wormhole.default_fault_policy in
  let retry_cycles = policy.Wormhole.max_retries * policy.Wormhole.retry_backoff in
  let packets = cdcg.Cdcg.packets in
  let n = Array.length packets in
  let paths =
    Array.map
      (fun (p : Cdcg.packet) ->
        Crg.path crg ~src:placement.(p.Cdcg.src) ~dst:placement.(p.Cdcg.dst))
      packets
  in
  let flits =
    Array.map (fun (p : Cdcg.packet) -> Noc_params.flits_of_bits params p.Cdcg.bits) packets
  in
  let severed = Array.map (fun path -> Array.length path.Crg.routers = 0) paths in
  let lat =
    Array.init n (fun i ->
        latency ~params ~retry_cycles ~compute:packets.(i).Cdcg.compute
          ~flits:flits.(i) ~routers:(Array.length paths.(i).Crg.routers))
  in
  let complete = Array.make n 0 and dropped = Array.make n false in
  let sent = Array.make n 0 in
  let last = propagate cdcg ~lat ~severed ~complete ~dropped ~sent in
  let critical_path_cycles = if last < 0 then 0 else complete.(last) in
  let occupancy =
    Array.map (fun f -> params.Noc_params.tr + (f * params.Noc_params.tl)) flits
  in
  let slots = Link.slot_count (Crg.mesh crg) in
  let load = Array.make slots 0 and earliest = Array.make slots max_int in
  link_demand ~occupancy ~paths ~dropped ~sent ~load ~earliest;
  let link_load_cycles = link_bound ~load ~earliest in
  {
    critical_path_cycles;
    link_load_cycles;
    lower_bound_cycles = max critical_path_cycles link_load_cycles;
  }

let contention_share e ~simulated_cycles =
  if simulated_cycles <= 0 then 0.0
  else
    let share =
      float_of_int (simulated_cycles - e.lower_bound_cycles)
      /. float_of_int simulated_cycles
    in
    Float.max 0.0 (Float.min 1.0 share)
