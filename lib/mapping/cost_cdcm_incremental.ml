module Crg = Nocmap_noc.Crg
module Link = Nocmap_noc.Link
module Cdcg = Nocmap_model.Cdcg
module Equations = Nocmap_energy.Equations
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Wormhole = Nocmap_sim.Wormhole
module Metrics = Nocmap_obs.Metrics

let m_delta_hits =
  Metrics.counter
    ~help:"incremental CDCM queries answered without running the simulator"
    "sim.incremental.delta_hits"

let m_bound_rejections =
  Metrics.counter
    ~help:"incremental CDCM candidates rejected by the analytic lower bound"
    "sim.incremental.bound_rejections"

let m_full_sim_fallbacks =
  Metrics.counter
    ~help:"incremental CDCM queries that fell back to a full simulation"
    "sim.incremental.full_sim_fallbacks"

let empty_path = { Crg.routers = [||]; links = [||] }

type stats = {
  queries : int;
  delta_hits : int;
  bound_rejections : int;
  full_sim_fallbacks : int;
}

type t = {
  tech : Technology.t;
  params : Noc_params.t;
  crg : Crg.t;
  cdcg : Cdcg.t;
  fault_policy : Wormhole.fault_policy;
  scratch : Wormhole.Scratch.t;
  cores : int;
  tiles : int;
  npackets : int;
  retry_cycles : int;        (* futile-retry span of a severed packet *)
  (* Static per-packet structure. *)
  src_ : int array;
  dst_ : int array;
  bits_ : int array;
  flits_ : int array;
  comp_ : int array;
  (* Hot-path tables: per-packet floats/constants hoisted out of the
     overlay loop.  [ebit_tab.(r)] is {!Equations.ebit_path} for [r]
     routers, so [bitsf_.(i) *. ebit_tab.(r)] multiplies the exact same
     two floats as {!Equations.communication_energy} and stays
     bit-identical to a fresh evaluation.  On a stacked mesh the table
     gains one plane per possible TSV count, laid out tsv-major
     ([tsv * stride + routers]) so the planar plane keeps the exact
     historical indexing; [ebit_stride = 0] marks a planar mesh and
     keeps its lookup free of the TSV path query. *)
  bitsf_ : float array;           (* float_of_int bits *)
  ebit_tab : float array;         (* (tsv, routers) -> path energy per bit *)
  ebit_stride : int;              (* 0 on a planar mesh *)
  occ_ : int array;               (* port occupancy, tr + flits*tl *)
  lat_base_ : int array;          (* compute + tl*flits *)
  sev_lat_ : int array;           (* compute + retry_cycles *)
  rtr_tl : int;                   (* tr + tl *)
  (* Dependences as CSR adjacency plus a topological packet order. *)
  pred_off : int array;
  pred : int array;
  succ_off : int array;
  succ : int array;
  order : int array;
  (* Per-core incident packets (each packet appears under src and dst). *)
  core_off : int array;
  core_pk : int array;
  (* Reference ("anchor") state: placement and the derived per-packet
     lower-bound model of the simulation under it. *)
  current : int array;
  occupant : int array;           (* tile -> core or -1 *)
  energy : float array;           (* Equation (4) term; 0 when severed *)
  lat : int array;                (* launch-to-resolution latency bound *)
  severed : bool array;
  dropped : bool array;           (* exact: drops are timing-independent *)
  complete : int array;           (* resolution-time lower bound *)
  sent : int array;               (* launch-time (ready+compute) lower bound *)
  ref_path : Crg.path array;      (* route under the anchor placement *)
  link_load : int array;          (* port-occupancy cycles, tr + flits*tl
                                     per grant, of non-dropped traffic *)
  link_min : int array;           (* earliest launch among a link's packets *)
  mutable ref_tmax_i : int;       (* argmax of [complete] *)
  mutable dynamic : float;
  mutable last_eval : Cost_cdcm.evaluation option;
  mutable last_peek : (int array * Cost_cdcm.evaluation) option;
  (* Epoch-stamped candidate overlay: route-level (r_stamp) and
     propagated (p_stamp) per-packet state, plus the recompute worklist
     (q_stamp) — all O(1) to invalidate between queries. *)
  mutable epoch : int;
  r_stamp : int array;
  c_energy : float array;
  c_lat : int array;
  c_severed : bool array;
  p_stamp : int array;
  c_complete : int array;
  c_dropped : bool array;
  c_sent : int array;
  c_path : Crg.path array;        (* route under the candidate placement *)
  q_stamp : int array;
  queued : int array;             (* cone members, in topological order *)
  mutable queued_n : int;
  touched : int array;            (* packets needing link-load adjustment *)
  mutable touched_n : int;
  link_scratch : int array;
  link_min_scratch : int array;
  cand_buf : int array;
  moved_buf : int array;
  mutable vepoch : int;
  u_stamp : int array;            (* tile-uniqueness check scratch *)
  mutable n_queries : int;
  mutable n_delta_hits : int;
  mutable n_bound_rejections : int;
  mutable n_full_sim_fallbacks : int;
}

let validate t p =
  if Array.length p <> t.cores then
    invalid_arg
      "Cost_cdcm_incremental: placement length differs from core count";
  t.vepoch <- t.vepoch + 1;
  Array.iter
    (fun tile ->
      if tile < 0 || tile >= t.tiles then
        invalid_arg "Cost_cdcm_incremental: placement tile out of range";
      if t.u_stamp.(tile) = t.vepoch then
        invalid_arg "Cost_cdcm_incremental: placement is not injective";
      t.u_stamp.(tile) <- t.vepoch)
    p

let check_move t ~core ~tile =
  if core < 0 || core >= t.cores then
    invalid_arg "Cost_cdcm_incremental: core out of range";
  if tile < 0 || tile >= t.tiles then
    invalid_arg "Cost_cdcm_incremental: tile out of range"

(* Rebuild the whole reference model from [t.current]:

   - per-packet route state (energy, severed, latency bound), summed
     into [dynamic] in packet order so the value is bit-identical to
     {!Cost_cdcm.dynamic_energy} (a severed packet adds [0.]);
   - drop flags and resolution-time lower bounds propagated in
     topological order.  Drops mirror the simulator exactly — they are
     timing-independent: a severed packet is dropped [compute +
     max_retries*retry_backoff] cycles after it becomes ready, and a
     packet with a dropped dependence is cascade-dropped the moment its
     last dependence resolves.  Delivery latency uses the Equation-(8)
     zero-contention delay, a lower bound on the simulated one;
   - per-link port demand of the non-dropped packets: each link grants
     its output port once per packet, occupying it [tr + flits*tl]
     cycles, the grants serialize, and none can start before its
     packet's launch (so [link_min] keeps the earliest launch among the
     link's packets; dropped packets never enter the network). *)
let refresh t =
  let dyn = ref 0.0 in
  for i = 0 to t.npackets - 1 do
    let path =
      Crg.path t.crg ~src:t.current.(t.src_.(i)) ~dst:t.current.(t.dst_.(i))
    in
    t.ref_path.(i) <- path;
    let routers = Array.length path.Crg.routers in
    if routers = 0 then begin
      t.severed.(i) <- true;
      t.energy.(i) <- 0.0;
      t.lat.(i) <- t.sev_lat_.(i)
    end
    else begin
      t.severed.(i) <- false;
      let e =
        if t.ebit_stride = 0 then t.ebit_tab.(routers)
        else
          t.ebit_tab.((Crg.tsv_links_on_path t.crg
                         ~src:t.current.(t.src_.(i))
                         ~dst:t.current.(t.dst_.(i))
                      * t.ebit_stride)
                      + routers)
      in
      t.energy.(i) <- t.bitsf_.(i) *. e;
      t.lat.(i) <- t.lat_base_.(i) + (routers * t.rtr_tl)
    end;
    dyn := !dyn +. t.energy.(i)
  done;
  t.dynamic <- !dyn;
  let mx = ref min_int and mxi = ref 0 in
  for k = 0 to t.npackets - 1 do
    let i = t.order.(k) in
    let ready = ref 0 and dep_dropped = ref false in
    for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
      let p = t.pred.(j) in
      if t.complete.(p) > !ready then ready := t.complete.(p);
      if t.dropped.(p) then dep_dropped := true
    done;
    t.sent.(i) <- !ready + t.comp_.(i);
    if !dep_dropped then begin
      t.dropped.(i) <- true;
      t.complete.(i) <- !ready
    end
    else begin
      t.dropped.(i) <- t.severed.(i);
      t.complete.(i) <- !ready + t.lat.(i)
    end;
    if t.complete.(i) > !mx then begin
      mx := t.complete.(i);
      mxi := i
    end
  done;
  t.ref_tmax_i <- !mxi;
  Array.fill t.link_load 0 (Array.length t.link_load) 0;
  Array.fill t.link_min 0 (Array.length t.link_min) max_int;
  for i = 0 to t.npackets - 1 do
    if not t.dropped.(i) then begin
      let path = t.ref_path.(i) in
      let occ = t.occ_.(i) in
      let s = t.sent.(i) in
      Array.iter
        (fun lid ->
          t.link_load.(lid) <- t.link_load.(lid) + occ;
          if s < t.link_min.(lid) then t.link_min.(lid) <- s)
        path.Crg.links
    end
  done

let create ?fault_policy ~tech ~params ~crg ~cdcg ~placement () =
  (match Placement.validate ~tiles:(Crg.tile_count crg) placement with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cost_cdcm_incremental.create: " ^ msg));
  let cores = Cdcg.core_count cdcg in
  if Array.length placement <> cores then
    invalid_arg
      "Cost_cdcm_incremental.create: placement length differs from core count";
  let fault_policy =
    match fault_policy with
    | Some p -> p
    | None -> Wormhole.default_fault_policy
  in
  let tiles = Crg.tile_count crg in
  let npackets = Cdcg.packet_count cdcg in
  let src_ = Array.make npackets 0
  and dst_ = Array.make npackets 0
  and bits_ = Array.make npackets 0
  and flits_ = Array.make npackets 0
  and comp_ = Array.make npackets 0 in
  Array.iteri
    (fun i (p : Cdcg.packet) ->
      src_.(i) <- p.Cdcg.src;
      dst_.(i) <- p.Cdcg.dst;
      bits_.(i) <- p.Cdcg.bits;
      flits_.(i) <- Noc_params.flits_of_bits params p.Cdcg.bits;
      comp_.(i) <- p.Cdcg.compute)
    cdcg.Cdcg.packets;
  (* Dependence CSR, both directions. *)
  let pred_off = Array.make (npackets + 1) 0
  and succ_off = Array.make (npackets + 1) 0 in
  List.iter
    (fun (p, q) ->
      succ_off.(p) <- succ_off.(p) + 1;
      pred_off.(q) <- pred_off.(q) + 1)
    cdcg.Cdcg.deps;
  let ndeps = List.length cdcg.Cdcg.deps in
  let to_offsets counts =
    let acc = ref 0 in
    for i = 0 to npackets do
      let c = counts.(i) in
      counts.(i) <- !acc;
      acc := !acc + c
    done
  in
  to_offsets pred_off;
  to_offsets succ_off;
  let pred = Array.make ndeps 0
  and succ = Array.make ndeps 0 in
  let pred_fill = Array.copy pred_off
  and succ_fill = Array.copy succ_off in
  List.iter
    (fun (p, q) ->
      succ.(succ_fill.(p)) <- q;
      succ_fill.(p) <- succ_fill.(p) + 1;
      pred.(pred_fill.(q)) <- p;
      pred_fill.(q) <- pred_fill.(q) + 1)
    cdcg.Cdcg.deps;
  (* Kahn topological order (the CDCG is validated acyclic). *)
  let order = Array.make npackets 0 in
  let indeg = Array.init npackets (fun i -> pred_off.(i + 1) - pred_off.(i)) in
  let head = ref 0 and tail = ref 0 in
  for i = 0 to npackets - 1 do
    if indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    for j = succ_off.(i) to succ_off.(i + 1) - 1 do
      let s = succ.(j) in
      indeg.(s) <- indeg.(s) - 1;
      if indeg.(s) = 0 then begin
        order.(!tail) <- s;
        incr tail
      end
    done
  done;
  if !tail <> npackets then
    invalid_arg "Cost_cdcm_incremental.create: dependence graph has a cycle";
  (* Per-core incident packets. *)
  let core_off = Array.make (cores + 1) 0 in
  for i = 0 to npackets - 1 do
    core_off.(src_.(i)) <- core_off.(src_.(i)) + 1;
    core_off.(dst_.(i)) <- core_off.(dst_.(i)) + 1
  done;
  let acc = ref 0 in
  for c = 0 to cores do
    let n = core_off.(c) in
    core_off.(c) <- !acc;
    acc := !acc + n
  done;
  let core_pk = Array.make (max 1 (2 * npackets)) 0 in
  let core_fill = Array.copy core_off in
  for i = 0 to npackets - 1 do
    core_pk.(core_fill.(src_.(i))) <- i;
    core_fill.(src_.(i)) <- core_fill.(src_.(i)) + 1;
    core_pk.(core_fill.(dst_.(i))) <- i;
    core_fill.(dst_.(i)) <- core_fill.(dst_.(i)) + 1
  done;
  let occupant = Array.make tiles (-1) in
  Array.iteri (fun core tile -> occupant.(tile) <- core) placement;
  let slots = Link.slot_count (Crg.mesh crg) in
  let retry_cycles =
    fault_policy.Wormhole.max_retries * fault_policy.Wormhole.retry_backoff
  in
  let tr = params.Noc_params.tr and tl = params.Noc_params.tl in
  let layers = (Crg.mesh crg).Nocmap_noc.Mesh.layers in
  let ebit_stride = if layers = 1 then 0 else Crg.max_routers crg + 1 in
  let ebit_tab = Cost_cwm.ebit_table ~tech ~crg in
  let t =
    {
      tech;
      params;
      crg;
      cdcg;
      fault_policy;
      scratch = Wormhole.Scratch.create ~crg cdcg;
      cores;
      tiles;
      npackets;
      retry_cycles;
      src_;
      dst_;
      bits_;
      flits_;
      comp_;
      bitsf_ = Array.map float_of_int bits_;
      ebit_tab;
      ebit_stride;
      occ_ = Array.map (fun f -> tr + (f * tl)) flits_;
      lat_base_ = Array.init npackets (fun i -> comp_.(i) + (tl * flits_.(i)));
      sev_lat_ = Array.map (fun c -> c + retry_cycles) comp_;
      rtr_tl = tr + tl;
      pred_off;
      pred;
      succ_off;
      succ;
      order;
      core_off;
      core_pk;
      current = Array.copy placement;
      occupant;
      energy = Array.make npackets 0.0;
      lat = Array.make npackets 0;
      severed = Array.make npackets false;
      dropped = Array.make npackets false;
      complete = Array.make npackets 0;
      sent = Array.make npackets 0;
      ref_path = Array.make npackets empty_path;
      link_load = Array.make slots 0;
      link_min = Array.make slots max_int;
      ref_tmax_i = 0;
      dynamic = 0.0;
      last_eval = None;
      last_peek = None;
      epoch = 0;
      r_stamp = Array.make npackets 0;
      c_energy = Array.make npackets 0.0;
      c_lat = Array.make npackets 0;
      c_severed = Array.make npackets false;
      p_stamp = Array.make npackets 0;
      c_complete = Array.make npackets 0;
      c_dropped = Array.make npackets false;
      c_sent = Array.make npackets 0;
      c_path = Array.make npackets empty_path;
      q_stamp = Array.make npackets 0;
      queued = Array.make (max 1 npackets) 0;
      queued_n = 0;
      touched = Array.make (max 1 npackets) 0;
      touched_n = 0;
      link_scratch = Array.make slots 0;
      link_min_scratch = Array.make slots 0;
      cand_buf = Array.make cores 0;
      moved_buf = Array.make cores 0;
      vepoch = 0;
      u_stamp = Array.make tiles (-1);
      n_queries = 0;
      n_delta_hits = 0;
      n_bound_rejections = 0;
      n_full_sim_fallbacks = 0;
    }
  in
  refresh t;
  t

let placement t = Array.copy t.current

let rebuild_occupant t =
  Array.fill t.occupant 0 t.tiles (-1);
  Array.iteri (fun core tile -> t.occupant.(tile) <- core) t.current

let evaluation t =
  match t.last_eval with
  | Some ev -> ev
  | None ->
    let ev =
      Cost_cdcm.evaluate ~scratch:t.scratch ~fault_policy:t.fault_policy
        ~tech:t.tech ~params:t.params ~crg:t.crg ~cdcg:t.cdcg t.current
    in
    t.last_eval <- Some ev;
    ev

let cost t = (evaluation t).Cost_cdcm.total

(* Candidate queries run in up to three stages against the anchor,
   cheapest first, so a rejection pays only for the machinery it needs.
   [cand] must be a valid placement differing from [t.current] exactly
   on the cores in [t.moved_buf.(0 .. moved_n-1)].  Everything is
   written into epoch-stamped overlays, so the reference state is
   untouched.

   Stage 1: overlay the re-routed state of the packets incident to the
   moved cores (O(degree) route lookups) and re-sum the candidate's
   exact dynamic energy in {!Cost_cdcm.dynamic_energy}'s fold order, so
   the float result is bit-identical to a fresh computation. *)
let overlay_dynamic t ~cand ~moved_n =
  t.epoch <- t.epoch + 1;
  let e = t.epoch in
  for m = 0 to moved_n - 1 do
    let c = t.moved_buf.(m) in
    for j = t.core_off.(c) to t.core_off.(c + 1) - 1 do
      let i = t.core_pk.(j) in
      if t.q_stamp.(i) <> e then begin
        t.q_stamp.(i) <- e;
        t.r_stamp.(i) <- e;
        let path =
          Crg.path t.crg ~src:cand.(t.src_.(i)) ~dst:cand.(t.dst_.(i))
        in
        t.c_path.(i) <- path;
        let routers = Array.length path.Crg.routers in
        if routers = 0 then begin
          t.c_severed.(i) <- true;
          t.c_energy.(i) <- 0.0;
          t.c_lat.(i) <- t.sev_lat_.(i)
        end
        else begin
          t.c_severed.(i) <- false;
          let e =
            if t.ebit_stride = 0 then t.ebit_tab.(routers)
            else
              t.ebit_tab.((Crg.tsv_links_on_path t.crg
                             ~src:cand.(t.src_.(i)) ~dst:cand.(t.dst_.(i))
                          * t.ebit_stride)
                          + routers)
          in
          t.c_energy.(i) <- t.bitsf_.(i) *. e;
          t.c_lat.(i) <- t.lat_base_.(i) + (routers * t.rtr_tl)
        end
      end
    done
  done;
  let dyn = ref 0.0 in
  for i = 0 to t.npackets - 1 do
    dyn := !dyn +. (if t.r_stamp.(i) = e then t.c_energy.(i) else t.energy.(i))
  done;
  !dyn

(* Stage 2 — cone propagation: recompute a packet iff queued, queue
   successors iff its (complete, dropped) pair actually changed.
   Returns the candidate's critical-path lower bound and records the
   cone ([queued], topologically ordered) and the packets whose link
   contribution changed ([touched]) for stage 3.

   [cut] is the rejection threshold in cycles: the moment any cone
   member's completion bound reaches it the candidate is already dead,
   so the propagation stops and returns the partial maximum (itself a
   sound lower bound — completion of any single packet under
   zero-contention delays never exceeds the simulated texec).  The cone
   records are left incomplete in that case, which is fine: a rejection
   never reaches stage 3 or the overlay-adoption rebase. *)
let cone_tmax t ~cut =
  let e = t.epoch in
  t.queued_n <- 0;
  t.touched_n <- 0;
  let np = t.npackets in
  let cmax = ref 0 in
  let k = ref 0 in
  while !k < np && !cmax < cut do
    let i = t.order.(!k) in
    incr k;
    if t.q_stamp.(i) = e then begin
      t.queued.(t.queued_n) <- i;
      t.queued_n <- t.queued_n + 1;
      let ready = ref 0 and dep_dropped = ref false in
      for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
        let p = t.pred.(j) in
        let fresh = t.p_stamp.(p) = e in
        let pc = if fresh then t.c_complete.(p) else t.complete.(p) in
        if pc > !ready then ready := pc;
        if (if fresh then t.c_dropped.(p) else t.dropped.(p)) then
          dep_dropped := true
      done;
      let routed = t.r_stamp.(i) = e in
      let nd, nc =
        if !dep_dropped then (true, !ready)
        else if routed then (t.c_severed.(i), !ready + t.c_lat.(i))
        else (t.severed.(i), !ready + t.lat.(i))
      in
      t.p_stamp.(i) <- e;
      t.c_complete.(i) <- nc;
      t.c_dropped.(i) <- nd;
      t.c_sent.(i) <- !ready + t.comp_.(i);
      if routed || nd <> t.dropped.(i) then begin
        t.touched.(t.touched_n) <- i;
        t.touched_n <- t.touched_n + 1
      end;
      if nc > !cmax then cmax := nc;
      if nc <> t.complete.(i) || nd <> t.dropped.(i) then
        for j = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
          let s = t.succ.(j) in
          if t.q_stamp.(s) <> e then t.q_stamp.(s) <- e
        done
    end
  done;
  if !cmax >= cut || t.queued_n = np then !cmax
  else begin
    (* Fold in the packets outside the cone: their completion bounds
       are untouched, so the reference argmax answers in O(1) unless it
       sits inside the cone. *)
    let a = t.ref_tmax_i in
    if t.p_stamp.(a) <> e then max !cmax t.complete.(a)
    else begin
      let tmax = ref !cmax in
      for i = 0 to np - 1 do
        if t.p_stamp.(i) <> e && t.complete.(i) > !tmax then
          tmax := t.complete.(i)
      done;
      !tmax
    end
  end

(* Stage 3 — differential per-link serialization bound: undo the old
   port demand of every touched packet, add its candidate demand, and
   lower the per-link earliest-launch offsets along the cone.  A cone
   member's launch bound may have moved either way; min-ing its fresh
   value in while keeping the stale reference minimum for members that
   left the link or launch later only weakens the bound, never
   unsounds it. *)
let link_bound t =
  let slots = Array.length t.link_load in
  Array.blit t.link_load 0 t.link_scratch 0 slots;
  Array.blit t.link_min 0 t.link_min_scratch 0 slots;
  let e = t.epoch in
  let ls = t.link_scratch and lm = t.link_min_scratch in
  for m = 0 to t.touched_n - 1 do
    let i = t.touched.(m) in
    let occ = t.occ_.(i) in
    if not t.dropped.(i) then begin
      let links = t.ref_path.(i).Crg.links in
      for k = 0 to Array.length links - 1 do
        let lid = Array.unsafe_get links k in
        ls.(lid) <- ls.(lid) - occ
      done
    end;
    if not t.c_dropped.(i) then begin
      let path = if t.r_stamp.(i) = e then t.c_path.(i) else t.ref_path.(i) in
      let s = t.c_sent.(i) in
      let links = path.Crg.links in
      for k = 0 to Array.length links - 1 do
        let lid = Array.unsafe_get links k in
        ls.(lid) <- ls.(lid) + occ;
        if s < lm.(lid) then lm.(lid) <- s
      done
    end
  done;
  for m = 0 to t.queued_n - 1 do
    let i = t.queued.(m) in
    (* Touched packets already folded their launch bound in above; the
       rest of the cone kept its route and drop status, so the anchor
       path still describes the candidate. *)
    if
      (not t.c_dropped.(i))
      && t.r_stamp.(i) <> e
      && t.c_dropped.(i) = t.dropped.(i)
    then begin
      let s = t.c_sent.(i) in
      let links = t.ref_path.(i).Crg.links in
      for k = 0 to Array.length links - 1 do
        let lid = Array.unsafe_get links k in
        if s < lm.(lid) then lm.(lid) <- s
      done
    end
  done;
  let lmax = ref 0 in
  for lid = 0 to slots - 1 do
    let load = ls.(lid) in
    if load > 0 then begin
      let mn = lm.(lid) in
      let b = if mn = max_int then load else mn + load in
      if b > !lmax then lmax := b
    end
  done;
  !lmax

let memo_hit t ev =
  t.n_queries <- t.n_queries + 1;
  t.n_delta_hits <- t.n_delta_hits + 1;
  Metrics.incr m_delta_hits;
  Cost_cdcm.Exact ev

let rebase_to t cand ev =
  Array.blit cand 0 t.current 0 t.cores;
  rebuild_occupant t;
  refresh t;
  t.last_eval <- Some ev;
  t.last_peek <- None

(* Re-anchor at a candidate whose overlay is fully populated (all three
   query stages ran): adopt the overlay values instead of rebuilding
   the model with [refresh].  The adopted values are exactly what
   [refresh] would recompute — packets outside the cone are unaffected
   by the diff, the overlay dynamic sum visits the same floats in the
   same order, and [link_scratch] holds the candidate's exact port
   demand — except [link_min], whose differential form may keep stale
   (weaker-only) minima; it is the one piece rebuilt exactly. *)
let adopt_overlay t ~cand ~cand_dynamic ev =
  let e = t.epoch in
  for m = 0 to t.queued_n - 1 do
    let i = t.queued.(m) in
    if t.r_stamp.(i) = e then begin
      t.energy.(i) <- t.c_energy.(i);
      t.lat.(i) <- t.c_lat.(i);
      t.severed.(i) <- t.c_severed.(i);
      t.ref_path.(i) <- t.c_path.(i)
    end;
    t.complete.(i) <- t.c_complete.(i);
    t.dropped.(i) <- t.c_dropped.(i);
    t.sent.(i) <- t.c_sent.(i)
  done;
  Array.blit cand 0 t.current 0 t.cores;
  rebuild_occupant t;
  t.dynamic <- cand_dynamic;
  Array.blit t.link_scratch 0 t.link_load 0 (Array.length t.link_load);
  Array.fill t.link_min 0 (Array.length t.link_min) max_int;
  let mx = ref min_int and mxi = ref 0 in
  for i = 0 to t.npackets - 1 do
    if t.complete.(i) > !mx then begin
      mx := t.complete.(i);
      mxi := i
    end;
    if not t.dropped.(i) then begin
      let s = t.sent.(i) in
      Array.iter
        (fun lid -> if s < t.link_min.(lid) then t.link_min.(lid) <- s)
        t.ref_path.(i).Crg.links
    end
  done;
  t.ref_tmax_i <- !mxi;
  t.last_eval <- Some ev;
  t.last_peek <- None

let bound_of_candidate t ~cutoff ~cand ~moved_n ~rebase =
  t.n_queries <- t.n_queries + 1;
  let reject lb =
    t.n_delta_hits <- t.n_delta_hits + 1;
    t.n_bound_rejections <- t.n_bound_rejections + 1;
    Metrics.incr m_delta_hits;
    Metrics.incr m_bound_rejections;
    Cost_cdcm.At_least lb
  in
  (* Mirror of {!Cost_cdcm.evaluate_bound}'s dynamic-only early exit:
     the candidate dynamic energy is bit-identical to what it would
     compute, so the rejection decisions agree exactly. *)
  let cand_dynamic = overlay_dynamic t ~cand ~moved_n in
  if cand_dynamic >= cutoff then reject cand_dynamic
  else begin
    let static_of cycles =
      Equations.static_energy t.tech ~tiles:t.tiles
        ~texec_ns:(Noc_params.cycles_to_ns t.params cycles)
    in
    (* The smallest cycle count whose static energy pushes the total to
       the cutoff — found by a float-guided guess corrected with the
       exact expression, so the integer comparison inside the cone loop
       agrees with the float check below ([static_of] is monotone). *)
    let cut =
      let spc = static_of 1 in
      if not (spc > 0.0) || cutoff = infinity then max_int
      else
        let g = (cutoff -. cand_dynamic) /. spc in
        if not (g < 1e15) then max_int
        else begin
          let c = ref (max 0 (int_of_float g - 2)) in
          while cand_dynamic +. static_of !c < cutoff do incr c done;
          !c
        end
    in
    let tmax = cone_tmax t ~cut in
    let lb_path = cand_dynamic +. static_of tmax in
    if lb_path >= cutoff then reject lb_path
    else begin
      let lmax = link_bound t in
      if
        lmax > tmax
        && (let lb_link = cand_dynamic +. static_of lmax in
            lb_link >= cutoff)
      then reject (cand_dynamic +. static_of lmax)
      else begin
        t.n_full_sim_fallbacks <- t.n_full_sim_fallbacks + 1;
        Metrics.incr m_full_sim_fallbacks;
        match
          Cost_cdcm.evaluate_bound ~scratch:t.scratch
            ~fault_policy:t.fault_policy ~tech:t.tech ~params:t.params
            ~crg:t.crg ~cdcg:t.cdcg ~cutoff cand
        with
        | Cost_cdcm.Exact ev as b ->
          if rebase then adopt_overlay t ~cand ~cand_dynamic ev
          else t.last_peek <- Some (Array.copy cand, ev);
          b
        | Cost_cdcm.At_least _ as b -> b
      end
    end
  end

let bound_for t ~cutoff p =
  validate t p;
  let moved_n = ref 0 in
  for c = 0 to t.cores - 1 do
    if p.(c) <> t.current.(c) then begin
      t.moved_buf.(!moved_n) <- c;
      incr moved_n
    end
  done;
  match t.last_eval with
  | Some ev when !moved_n = 0 -> memo_hit t ev
  | _ -> bound_of_candidate t ~cutoff ~cand:p ~moved_n:!moved_n ~rebase:true

(* Fill [cand_buf]/[moved_buf] with the single move [core -> tile]
   (swapping with the occupant when taken); returns the moved count. *)
let stage_move t ~core ~tile =
  Array.blit t.current 0 t.cand_buf 0 t.cores;
  let from_tile = t.current.(core) in
  if tile = from_tile then 0
  else begin
    t.cand_buf.(core) <- tile;
    t.moved_buf.(0) <- core;
    let other = t.occupant.(tile) in
    if other >= 0 then begin
      t.cand_buf.(other) <- from_tile;
      t.moved_buf.(1) <- other;
      2
    end
    else 1
  end

let move_bound t ~core ~tile ~cutoff =
  check_move t ~core ~tile;
  let moved_n = stage_move t ~core ~tile in
  match t.last_eval with
  | Some ev when moved_n = 0 -> memo_hit t ev
  | _ ->
    bound_of_candidate t ~cutoff ~cand:t.cand_buf ~moved_n ~rebase:false

let move_delta t ~core ~tile =
  check_move t ~core ~tile;
  if tile = t.current.(core) then 0.0
  else begin
    let base = cost t in
    ignore (stage_move t ~core ~tile);
    let ev =
      Cost_cdcm.evaluate ~scratch:t.scratch ~fault_policy:t.fault_policy
        ~tech:t.tech ~params:t.params ~crg:t.crg ~cdcg:t.cdcg t.cand_buf
    in
    t.last_peek <- Some (Array.copy t.cand_buf, ev);
    ev.Cost_cdcm.total -. base
  end

let swap_delta t ~core_a ~core_b =
  if core_a < 0 || core_a >= t.cores || core_b < 0 || core_b >= t.cores then
    invalid_arg "Cost_cdcm_incremental: core out of range";
  if core_a = core_b then 0.0
  else move_delta t ~core:core_a ~tile:t.current.(core_b)

let apply_move t ~core ~tile =
  check_move t ~core ~tile;
  let from_tile = t.current.(core) in
  if tile <> from_tile then begin
    let other = t.occupant.(tile) in
    if other >= 0 then begin
      t.current.(other) <- from_tile;
      t.occupant.(from_tile) <- other
    end
    else t.occupant.(from_tile) <- -1;
    t.current.(core) <- tile;
    t.occupant.(tile) <- core;
    refresh t;
    t.last_eval <-
      (match t.last_peek with
      | Some (p, ev) when p = t.current -> Some ev
      | Some _ | None -> None);
    t.last_peek <- None
  end

let evaluate_for t p =
  validate t p;
  let same = ref true in
  for c = 0 to t.cores - 1 do
    if p.(c) <> t.current.(c) then same := false
  done;
  if !same then evaluation t
  else begin
    match t.last_peek with
    | Some (q, ev) when q = p ->
      rebase_to t p ev;
      ev
    | _ ->
      Array.blit p 0 t.current 0 t.cores;
      rebuild_occupant t;
      refresh t;
      t.last_eval <- None;
      t.last_peek <- None;
      evaluation t
  end

let stats t =
  {
    queries = t.n_queries;
    delta_hits = t.n_delta_hits;
    bound_rejections = t.n_bound_rejections;
    full_sim_fallbacks = t.n_full_sim_fallbacks;
  }
