module Crg = Nocmap_noc.Crg
module Cdcg = Nocmap_model.Cdcg
module Equations = Nocmap_energy.Equations
module Noc_params = Nocmap_energy.Noc_params
module Wormhole = Nocmap_sim.Wormhole

type evaluation = {
  dynamic : float;
  static_ : float;
  total : float;
  texec_ns : float;
  texec_cycles : int;
  contention_cycles : int;
  delivered_packets : int;
  dropped_packets : int;
  retries_total : int;
}

type bound =
  | Exact of evaluation
  | At_least of float

(* Each term is [float bits *. ebit], the float
   {!Equations.communication_energy} returns, summed in packet order in
   an unboxed accumulator. *)
let dynamic_energy ~tech ~crg ~cdcg placement =
  (match Placement.validate ~tiles:(Crg.tile_count crg) placement with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cost_cdcm: " ^ msg));
  let table = Cost_cwm.ebit_table ~tech ~crg in
  let cols = Crg.max_routers crg + 1 in
  let stacked = Array.length (Crg.tsv_counts crg) > 0 in
  let packets = cdcg.Cdcg.packets in
  let acc = ref 0.0 in
  for i = 0 to Array.length packets - 1 do
    let p = packets.(i) in
    let src = placement.(p.Cdcg.src) and dst = placement.(p.Cdcg.dst) in
    let routers = Crg.router_count_on_path crg ~src ~dst in
    (* Unreachable pairs of a faulty CRG have no path: the packet is
       dropped by the simulator and spends no link/router energy. *)
    if routers > 0 then begin
      let row = if stacked then Crg.tsv_links_on_path crg ~src ~dst * cols else 0 in
      acc := !acc +. (float_of_int p.Cdcg.bits *. table.(row + routers))
    end
  done;
  !acc

let evaluation_of_summary ~tech ~params ~crg ~dynamic
    (s : Wormhole.summary) =
  let texec_ns = Noc_params.cycles_to_ns params s.Wormhole.texec_cycles in
  let static_ = Equations.static_energy tech ~tiles:(Crg.tile_count crg) ~texec_ns in
  {
    dynamic;
    static_;
    total = Equations.total_energy ~dynamic ~static_;
    texec_ns;
    texec_cycles = s.Wormhole.texec_cycles;
    contention_cycles = s.Wormhole.contention_cycles;
    delivered_packets = s.Wormhole.delivered_packets;
    dropped_packets = s.Wormhole.dropped_packets;
    retries_total = s.Wormhole.retries_total;
  }

let evaluate ?scratch ?fault_policy ~tech ~params ~crg ~cdcg placement =
  let summary =
    Wormhole.run_summary ?scratch ?fault_policy ~params ~crg ~placement cdcg
  in
  let dynamic = dynamic_energy ~tech ~crg ~cdcg placement in
  evaluation_of_summary ~tech ~params ~crg ~dynamic summary

(* Largest cycle cutoff that is safe to hand to the simulator without
   overflowing its packed-event encoding arithmetic. *)
let no_cutoff_threshold = 1e15

let bound_of_dynamic ?scratch ?fault_policy ~tech ~params ~crg ~cdcg ~cutoff
    ~dynamic placement =
  let static_power = Equations.static_power tech ~tiles:(Crg.tile_count crg) in
  if dynamic >= cutoff then
    (* Equation (4) alone already exceeds the budget: the simulation can
       only add static energy on top. *)
    At_least dynamic
  else begin
    let budget_cycles =
      if static_power <= 0.0 then infinity
      else
        Float.floor
          ((cutoff -. dynamic) /. static_power /. params.Noc_params.clock_ns)
    in
    let cutoff_cycles =
      if budget_cycles >= no_cutoff_threshold then None
      else Some (max 0 (int_of_float budget_cycles))
    in
    let summary =
      Wormhole.run_summary ?scratch ?cutoff:cutoff_cycles ?fault_policy ~params
        ~crg ~placement cdcg
    in
    let e = evaluation_of_summary ~tech ~params ~crg ~dynamic summary in
    if summary.Wormhole.truncated then At_least e.total else Exact e
  end

let evaluate_bound ?scratch ?fault_policy ~tech ~params ~crg ~cdcg ~cutoff
    placement =
  let dynamic = dynamic_energy ~tech ~crg ~cdcg placement in
  bound_of_dynamic ?scratch ?fault_policy ~tech ~params ~crg ~cdcg ~cutoff
    ~dynamic placement

let total_energy ?scratch ?fault_policy ~tech ~params ~crg ~cdcg placement =
  (evaluate ?scratch ?fault_policy ~tech ~params ~crg ~cdcg placement).total

let pp_evaluation ppf e =
  Format.fprintf ppf
    "ENoC=%.4g J (dyn %.4g + st %.4g), texec=%.4g ns, contention=%d cycles"
    e.total e.dynamic e.static_ e.texec_ns e.contention_cycles;
  if e.dropped_packets > 0 then
    Format.fprintf ppf ", dropped=%d/%d (retries %d)" e.dropped_packets
      (e.delivered_packets + e.dropped_packets)
      e.retries_total
