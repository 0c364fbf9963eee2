module Interval = Nocmap_util.Interval
module Int_heap = Nocmap_util.Int_heap
module Intqueue = Nocmap_util.Intqueue
module Crg = Nocmap_noc.Crg
module Link = Nocmap_noc.Link
module Mesh = Nocmap_noc.Mesh
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params
module Metrics = Nocmap_obs.Metrics

exception Deadlock of string

(* Process-wide observability counters (see Nocmap_obs.Metrics): no-ops
   until metrics collection is enabled, and never read by the simulator
   — results are bit-identical either way.  Per-event quantities are
   accumulated in locals and flushed once per run so the hot pump only
   pays plain integer increments. *)
let m_runs = Metrics.counter ~help:"wormhole simulations executed" "sim.runs"

let m_truncated =
  Metrics.counter ~help:"simulations aborted by the cutoff" "sim.runs_truncated"

let m_events =
  Metrics.counter ~help:"discrete events processed by the pump" "sim.events_processed"

let m_flits =
  Metrics.counter ~help:"flits forwarded across inter-tile links" "sim.flits_forwarded"

let m_delivered =
  Metrics.counter ~help:"packets whose last flit arrived" "sim.packets_delivered"

let m_dropped =
  Metrics.counter ~help:"packets abandoned under faults" "sim.packets_dropped"

let m_retries =
  Metrics.counter ~help:"futile send retries on severed routes" "sim.packet_retries"

let m_stalls =
  Metrics.counter ~help:"cycles packets waited for contended ports"
    "sim.contention_stall_cycles"

let g_queue_highwater =
  Metrics.gauge ~help:"deepest per-port waiting queue observed"
    "sim.queue_highwater_packets"

let h_texec =
  Metrics.histogram ~help:"execution time per simulation (cycles)" "sim.texec_cycles"

(* Degraded execution under a faulty CRG: how long a source core keeps
   re-attempting a packet whose route was severed before abandoning it. *)
type fault_policy = {
  max_retries : int;
  retry_backoff : int;
}

let default_fault_policy = { max_retries = 3; retry_backoff = 16 }

let validate_fault_policy p =
  if p.max_retries < 0 then invalid_arg "Wormhole: max_retries must be non-negative";
  if p.retry_backoff < 0 then invalid_arg "Wormhole: retry_backoff must be non-negative"

(* Events are packed into a single unboxed int so that scheduling never
   allocates and heap ordering is one native comparison:

     bits 25..62  event time (38 bits)
     bit  24      priority: 0 = Release (port), 1 = Arrive (packet, hop)
     bits 8..23   key: port id for Release, packet index for Arrive
     bits 0..7    hop index (0 for Release)

   Plain [Int.compare] on the packed word is lexicographic on
   (time, priority, key, hop).  This matches the record-based ordering
   the simulator used before (time, priority, key, insertion sequence):
   two pending events never collide on (time, priority, key) — a packet
   has at most one in-flight Arrive, and a port at most one pending
   Release — so the final tiebreak never fires either way. *)

let hop_bits = 8
let key_bits = 16
let hop_mask = (1 lsl hop_bits) - 1
let key_mask = (1 lsl key_bits) - 1
let max_key = key_mask
let max_hops = hop_mask + 1
let max_time = (1 lsl (Sys.int_size - 2 - key_bits - hop_bits)) - 1

let encode_event ~time ~prio ~key ~hop =
  (((((time lsl 1) lor prio) lsl key_bits) lor key) lsl hop_bits) lor hop

let event_time e = e lsr (1 + key_bits + hop_bits)
let event_is_arrive e = (e lsr (key_bits + hop_bits)) land 1 = 1
let event_key e = (e lsr hop_bits) land key_mask
let event_hop e = e land hop_mask

(* Waiting entries of the per-port FIFOs, same trick:
   arrival time | packet | hop. *)
let encode_waiting ~packet ~hop ~arrival =
  (((arrival lsl key_bits) lor packet) lsl hop_bits) lor hop

let waiting_arrival w = w lsr (key_bits + hop_bits)
let waiting_packet w = (w lsr hop_bits) land key_mask
let waiting_hop w = w land hop_mask

(* Per-packet mutable simulation state, reused across runs. *)
type packet_state = {
  mutable path : Crg.path;
  mutable flits : int;
  mutable remaining_deps : int;
  mutable ready : int;       (* max delivery time of resolved deps *)
  mutable sent : int;
  mutable delivered : int;   (* -1 until delivered *)
  mutable dropped : int;     (* -1 unless abandoned under faults *)
  mutable retries : int;     (* send retries spent before dropping *)
  mutable dep_dropped : bool; (* some dependence was dropped *)
  mutable arrivals : int array;  (* per hop; -1 until known *)
  mutable starts : int array;    (* per hop service start; -1 until known *)
}

module Scratch = struct
  type t = {
    tiles : int;
    slots : int;
    states : packet_state array;
    busy : bool array;
    queues : Intqueue.t array;
    used : bool array;                            (* placement validation *)
    router_ann : Trace.annotation list array;     (* per tile *)
    link_ann : Trace.annotation list array;       (* per port *)
    events : Int_heap.t;
  }

  let create ~crg (cdcg : Cdcg.t) =
    let mesh = Crg.mesh crg in
    let tiles = Mesh.tile_count mesh in
    let slots = Link.slot_count mesh in
    let packets = Cdcg.packet_count cdcg in
    if packets > max_key || slots > max_key then
      invalid_arg
        (Printf.sprintf
           "Wormhole.Scratch.create: instance too large (%d packets, %d link \
            slots; both must be <= %d)"
           packets slots max_key);
    let dummy_path = Crg.path crg ~src:0 ~dst:0 in
    {
      tiles;
      slots;
      states =
        Array.init packets (fun _ ->
            {
              path = dummy_path;
              flits = 0;
              remaining_deps = 0;
              ready = 0;
              sent = 0;
              delivered = -1;
              dropped = -1;
              retries = 0;
              dep_dropped = false;
              arrivals = [||];
              starts = [||];
            });
      busy = Array.make slots false;
      queues = Array.init slots (fun _ -> Intqueue.create ());
      used = Array.make tiles false;
      router_ann = Array.make tiles [];
      link_ann = Array.make slots [];
      events = Int_heap.create ~capacity:(4 * (packets + 1)) ();
    }
end

(* Per-resource utilization meter: where do the cycles go on the NoC?
   Accumulates across runs (reset explicitly) so a campaign can heatmap
   a whole sweep; arrays are written in place, never read by the pump. *)
module Meter = struct
  type t = {
    mesh_tiles : int;
    mesh_slots : int;
    link_busy : int array;      (* service cycles per directed link *)
    link_packets : int array;   (* packets granted per directed link *)
    router_stall : int array;   (* arrival-to-grant waits per router *)
    queue_peak : int array;     (* per-port waiting-queue high-water *)
    mutable runs : int;
  }

  let create ~crg =
    let mesh = Crg.mesh crg in
    let tiles = Mesh.tile_count mesh in
    let slots = Link.slot_count mesh in
    {
      mesh_tiles = tiles;
      mesh_slots = slots;
      link_busy = Array.make slots 0;
      link_packets = Array.make slots 0;
      router_stall = Array.make tiles 0;
      queue_peak = Array.make slots 0;
      runs = 0;
    }

  let reset m =
    Array.fill m.link_busy 0 m.mesh_slots 0;
    Array.fill m.link_packets 0 m.mesh_slots 0;
    Array.fill m.router_stall 0 m.mesh_tiles 0;
    Array.fill m.queue_peak 0 m.mesh_slots 0;
    m.runs <- 0

  let link_busy_cycles m = Array.copy m.link_busy
  let link_packet_counts m = Array.copy m.link_packets
  let router_stall_cycles m = Array.copy m.router_stall
  let queue_highwater m = Array.copy m.queue_peak
  let runs m = m.runs
end

let validate_placement ~(scratch : Scratch.t) ~cores placement =
  let tiles = scratch.Scratch.tiles in
  if Array.length placement <> cores then
    invalid_arg "Wormhole.run: placement length differs from core count";
  let used = scratch.Scratch.used in
  Array.fill used 0 tiles false;
  Array.iter
    (fun tile ->
      if tile < 0 || tile >= tiles then
        invalid_arg "Wormhole.run: placement tile out of range";
      if used.(tile) then invalid_arg "Wormhole.run: placement is not injective";
      used.(tile) <- true)
    placement

(* Reset the arena for a new (placement, params) evaluation: O(touched)
   — per-packet fields and the first [hops] entries of the hop arrays —
   with no heap allocation once the arrays have reached working size. *)
let reset ~(scratch : Scratch.t) ~params ~crg ~placement (cdcg : Cdcg.t) =
  let s = scratch in
  Int_heap.clear s.Scratch.events;
  Array.fill s.Scratch.busy 0 s.Scratch.slots false;
  Array.iter Intqueue.clear s.Scratch.queues;
  let packets = cdcg.Cdcg.packets in
  for i = 0 to Array.length packets - 1 do
    let p = packets.(i) in
    let st = s.Scratch.states.(i) in
    let path = Crg.path crg ~src:placement.(p.Cdcg.src) ~dst:placement.(p.Cdcg.dst) in
    let hops = Array.length path.Crg.routers in
    (* [hops = 0] is a severed pair of a faulty CRG; distinct placement
       tiles otherwise give at least source and destination routers. *)
    assert (hops = 0 || hops >= 2);
    if hops > max_hops then
      invalid_arg
        (Printf.sprintf "Wormhole.run: path of %d hops exceeds the %d-hop limit"
           hops max_hops);
    st.path <- path;
    st.flits <- Noc_params.flits_of_bits params p.Cdcg.bits;
    st.remaining_deps <- cdcg.Cdcg.pred_off.(i + 1) - cdcg.Cdcg.pred_off.(i);
    st.ready <- 0;
    st.sent <- 0;
    st.delivered <- -1;
    st.dropped <- -1;
    st.retries <- 0;
    st.dep_dropped <- false;
    if Array.length st.arrivals < hops then begin
      st.arrivals <- Array.make hops (-1);
      st.starts <- Array.make hops (-1)
    end
    else begin
      Array.fill st.arrivals 0 hops (-1);
      Array.fill st.starts 0 hops (-1)
    end
  done

(* The discrete-event pump.  Fills [scratch.states]; returns
   [`Completed] or, when [cutoff] was exceeded with packets still in
   flight, [`Truncated abort_time].  [abort_time] is then a lower bound
   on every remaining delivery (events pop in time order and delivery
   strictly follows header arrival). *)
let run_core ~trace ~params ~crg ~placement ~(scratch : Scratch.t) ~cutoff ~policy
    ~meter (cdcg : Cdcg.t) =
  validate_fault_policy policy;
  let s = scratch in
  let mesh = Crg.mesh crg in
  let tiles = Mesh.tile_count mesh in
  let n = Cdcg.packet_count cdcg in
  if
    Array.length s.Scratch.states <> n
    || s.Scratch.slots <> Link.slot_count mesh
    || s.Scratch.tiles <> tiles
  then invalid_arg "Wormhole.run: scratch was sized for a different instance";
  (match meter with
  | Some m ->
    if m.Meter.mesh_slots <> s.Scratch.slots || m.Meter.mesh_tiles <> tiles then
      invalid_arg "Wormhole.run: meter was sized for a different mesh"
  | None -> ());
  (* Per-run observability accumulators; flushed to the registry after
     the pump so the hot path never touches an atomic. *)
  let events_seen = ref 0 in
  let flits_forwarded = ref 0 in
  let queue_peak_seen = ref 0 in
  validate_placement ~scratch ~cores:(Cdcg.core_count cdcg) placement;
  reset ~scratch ~params ~crg ~placement cdcg;
  if trace then begin
    Array.fill s.Scratch.router_ann 0 tiles [];
    Array.fill s.Scratch.link_ann 0 s.Scratch.slots []
  end;
  let tr = params.Noc_params.tr and tl = params.Noc_params.tl in
  let capacity =
    match params.Noc_params.buffering with
    | Noc_params.Unbounded -> max_int
    | Noc_params.Bounded c -> c
  in
  let states = s.Scratch.states in
  let busy = s.Scratch.busy in
  let queues = s.Scratch.queues in
  let events = s.Scratch.events in
  let undelivered = ref n in
  let schedule time prio key hop =
    assert (time >= 0 && time <= max_time);
    Int_heap.add events (encode_event ~time ~prio ~key ~hop)
  in
  let schedule_release port time = schedule time 0 port 0 in
  let schedule_arrive packet hop time = schedule time 1 packet hop in
  (* Dependence resolution.  A delivered or dropped packet resolves its
     successors; a successor whose last dependence resolves launches
     normally unless some dependence was dropped, in which case it is
     abandoned at its ready time (cascade drop — its inputs will never
     exist).  A packet whose own route is severed spends the bounded
     retry/back-off budget and is then dropped; the faults are static,
     so the futile retries are accounted for directly instead of being
     pumped as events, and the pump always terminates.  All updates are
     monotonic ([ready] via max, counters via decrement), so the eager
     cascade is order-independent and deterministic. *)
  let succ_off = cdcg.Cdcg.succ_off and succ = cdcg.Cdcg.succ in
  let rec resolve_deps packet time ~was_dropped =
    for j = succ_off.(packet) to succ_off.(packet + 1) - 1 do
      let q = succ.(j) in
      let sq = states.(q) in
      sq.remaining_deps <- sq.remaining_deps - 1;
      sq.ready <- max sq.ready time;
      if was_dropped then sq.dep_dropped <- true;
      if sq.remaining_deps = 0 then
        if sq.dep_dropped then drop_packet q sq.ready else launch q sq.ready
    done
  and drop_packet packet time =
    let st = states.(packet) in
    st.dropped <- time;
    decr undelivered;
    resolve_deps packet time ~was_dropped:true
  and launch packet ready =
    let st = states.(packet) in
    st.ready <- ready;
    st.sent <- ready + cdcg.Cdcg.packets.(packet).Cdcg.compute;
    if Array.length st.path.Crg.routers = 0 then begin
      st.retries <- policy.max_retries;
      drop_packet packet (st.sent + (policy.max_retries * policy.retry_backoff))
    end
    else schedule_arrive packet 0 (st.sent + tl)
  in
  let annotate_router tile packet ~lo ~hi =
    if trace then
      s.Scratch.router_ann.(tile) <-
        {
          Trace.ann_packet = packet;
          ann_bits = cdcg.Cdcg.packets.(packet).Cdcg.bits;
          ann_interval = Interval.make ~lo ~hi;
        }
        :: s.Scratch.router_ann.(tile)
  in
  let annotate_link port packet ~lo ~hi =
    if trace then
      s.Scratch.link_ann.(port) <-
        {
          Trace.ann_packet = packet;
          ann_bits = cdcg.Cdcg.packets.(packet).Cdcg.bits;
          ann_interval = Interval.make ~lo ~hi;
        }
        :: s.Scratch.link_ann.(port)
  in
  (* Releasing the port behind hop [hop] of a packet is deferred (bounded
     buffering with a packet longer than the downstream buffer): the
     upstream port keeps transferring the overflow flits until the
     downstream service has drained them. *)
  let release_upstream packet hop downstream_start =
    if capacity <> max_int && hop >= 1 then begin
      let st = states.(packet) in
      if st.flits > capacity then begin
        let upstream_end = st.starts.(hop - 1) + tr + (st.flits * tl) - 1 in
        let hold =
          max upstream_end (downstream_start + tr + ((st.flits - capacity) * tl) - 1)
        in
        let port = st.path.Crg.links.(hop - 1) in
        schedule_release port (hold + 1)
      end
    end
  in
  let delivered_packet packet time =
    let st = states.(packet) in
    st.delivered <- time;
    decr undelivered;
    resolve_deps packet time ~was_dropped:false
  in
  let grant port packet hop start =
    let st = states.(packet) in
    st.starts.(hop) <- start;
    busy.(port) <- true;
    let finish = start + tr + (st.flits * tl) - 1 in
    flits_forwarded := !flits_forwarded + st.flits;
    (match meter with
    | Some m ->
      (* +1 matches Hotspot: link annotations are the closed interval
         [start+tr, start+tr+flits*tl] and Interval.length = hi-lo+1. *)
      m.Meter.link_busy.(port) <- m.Meter.link_busy.(port) + (st.flits * tl) + 1;
      m.Meter.link_packets.(port) <- m.Meter.link_packets.(port) + 1;
      let router = st.path.Crg.routers.(hop) in
      m.Meter.router_stall.(router) <-
        m.Meter.router_stall.(router) + (start - st.arrivals.(hop))
    | None -> ());
    annotate_router st.path.Crg.routers.(hop) packet ~lo:st.arrivals.(hop) ~hi:finish;
    annotate_link port packet ~lo:(start + tr) ~hi:(start + tr + (st.flits * tl));
    schedule_arrive packet (hop + 1) (start + tr + tl);
    if capacity = max_int || st.flits <= capacity then schedule_release port (finish + 1);
    release_upstream packet hop start
  in
  let arrive packet hop time =
    let st = states.(packet) in
    st.arrivals.(hop) <- time;
    let last = Array.length st.path.Crg.routers - 1 in
    if hop = last then begin
      st.starts.(hop) <- time;
      annotate_router st.path.Crg.routers.(hop) packet ~lo:time
        ~hi:(time + tr + (st.flits * tl) - 1);
      release_upstream packet hop time;
      delivered_packet packet (time + tr + tl + ((st.flits - 1) * tl))
    end
    else begin
      let port = st.path.Crg.links.(hop) in
      if (not busy.(port)) && Intqueue.is_empty queues.(port) then
        grant port packet hop time
      else begin
        Intqueue.push queues.(port) (encode_waiting ~packet ~hop ~arrival:time);
        let depth = Intqueue.length queues.(port) in
        if depth > !queue_peak_seen then queue_peak_seen := depth;
        match meter with
        | Some m ->
          if depth > m.Meter.queue_peak.(port) then m.Meter.queue_peak.(port) <- depth
        | None -> ()
      end
    end
  in
  let release port time =
    if Intqueue.is_empty queues.(port) then busy.(port) <- false
    else begin
      let w = Intqueue.pop_exn queues.(port) in
      grant port (waiting_packet w) (waiting_hop w) (max time (waiting_arrival w))
    end
  in
  (* Start-dependent packets launch at cycle 0, in ascending index. *)
  let pred_off = cdcg.Cdcg.pred_off in
  for i = 0 to n - 1 do
    if pred_off.(i + 1) = pred_off.(i) then launch i 0
  done;
  (* Pump until every packet has been delivered (remaining events are
     port releases that cannot affect the outcome), the heap runs dry
     (deadlock), or the incumbent-based cutoff proves the candidate
     hopeless. *)
  let rec pump () =
    if !undelivered > 0 && not (Int_heap.is_empty events) then begin
      let ev = Int_heap.pop_exn events in
      let time = event_time ev in
      if time > cutoff then `Truncated time
      else begin
        incr events_seen;
        if event_is_arrive ev then arrive (event_key ev) (event_hop ev) time
        else release (event_key ev) time;
        pump ()
      end
    end
    else `Completed
  in
  let status = pump () in
  (match status with
  | `Truncated _ -> ()
  | `Completed ->
    if !undelivered > 0 then begin
      let first = ref (-1) in
      Array.iteri
        (fun i st -> if st.delivered < 0 && st.dropped < 0 && !first < 0 then first := i)
        states;
      raise
        (Deadlock
           (Printf.sprintf
              "bounded-buffer backpressure deadlock: %d packet(s) undelivered, \
               first %s"
              !undelivered
              cdcg.Cdcg.packets.(!first).Cdcg.label))
    end);
  (match meter with Some m -> m.Meter.runs <- m.Meter.runs + 1 | None -> ());
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    (match status with
    | `Truncated _ -> Metrics.incr m_truncated
    | `Completed -> ());
    Metrics.add m_events !events_seen;
    Metrics.add m_flits !flits_forwarded;
    Metrics.set_max g_queue_highwater !queue_peak_seen
  end;
  status

let texec_of_states ~status states =
  (* Dropped packets hold their source core through the retry window, so
     abandonment times bound execution just like deliveries do. *)
  let latest =
    Array.fold_left (fun acc st -> max acc (max st.delivered st.dropped)) 0 states
  in
  match status with
  | `Completed -> latest
  | `Truncated abort_time -> max latest abort_time

let count_outcomes states =
  let delivered = ref 0 and dropped = ref 0 and retries = ref 0 in
  Array.iter
    (fun st ->
      if st.delivered >= 0 then incr delivered;
      if st.dropped >= 0 then incr dropped;
      retries := !retries + st.retries)
    states;
  (!delivered, !dropped, !retries)

let with_scratch ~scratch ~crg cdcg f =
  match scratch with
  | Some s -> f s
  | None -> f (Scratch.create ~crg cdcg)

(* Flushed once per simulation from the already-computed aggregates, so
   enabling metrics adds no work to the event pump itself. *)
let flush_outcome ~delivered ~dropped ~retries ~contention ~texec =
  if Metrics.enabled () then begin
    Metrics.add m_delivered delivered;
    Metrics.add m_dropped dropped;
    Metrics.add m_retries retries;
    Metrics.add m_stalls contention;
    Metrics.observe h_texec (float_of_int texec)
  end

let run ?(trace = true) ?scratch ?cutoff ?(fault_policy = default_fault_policy) ?meter
    ~params ~crg ~placement (cdcg : Cdcg.t) =
  with_scratch ~scratch ~crg cdcg (fun scratch ->
      let cutoff = Option.value cutoff ~default:max_int in
      let status =
        run_core ~trace ~params ~crg ~placement ~scratch ~cutoff ~policy:fault_policy
          ~meter cdcg
      in
      let states = scratch.Scratch.states in
      let traces =
        Array.mapi
          (fun i st ->
            let hops =
              if trace then
                List.init (Array.length st.path.Crg.routers) (fun h ->
                    {
                      Trace.router = st.path.Crg.routers.(h);
                      arrival = st.arrivals.(h);
                      service_start = st.starts.(h);
                    })
              else []
            in
            {
              Trace.packet = i;
              ready = st.ready;
              sent = st.sent;
              delivered = st.delivered;
              dropped = st.dropped;
              retries = st.retries;
              flits = st.flits;
              hops;
            })
          states
      in
      let delivered_packets, dropped_packets, retries_total = count_outcomes states in
      let texec_cycles = texec_of_states ~status states in
      let contention_cycles = ref 0 and contended_packets = ref 0 in
      Array.iter
        (fun st ->
          let acc = ref 0 in
          for h = 0 to Array.length st.path.Crg.routers - 1 do
            let start = st.starts.(h) in
            if start >= 0 then acc := !acc + (start - st.arrivals.(h))
          done;
          contention_cycles := !contention_cycles + !acc;
          if !acc > 0 then incr contended_packets)
        states;
      flush_outcome ~delivered:delivered_packets ~dropped:dropped_packets
        ~retries:retries_total ~contention:!contention_cycles ~texec:texec_cycles;
      {
        Trace.texec_cycles;
        texec_ns = Noc_params.cycles_to_ns params texec_cycles;
        truncated = (match status with `Truncated _ -> true | `Completed -> false);
        packets = traces;
        router_annotations = Array.map List.rev scratch.Scratch.router_ann;
        link_annotations = Array.map List.rev scratch.Scratch.link_ann;
        contention_cycles = !contention_cycles;
        contended_packets = !contended_packets;
        delivered_packets;
        dropped_packets;
        retries_total;
      })

type summary = {
  texec_cycles : int;
  truncated : bool;
  contention_cycles : int;
  contended_packets : int;
  delivered_packets : int;
  dropped_packets : int;
  retries_total : int;
}

let run_summary ?scratch ?cutoff ?(fault_policy = default_fault_policy) ?meter ~params
    ~crg ~placement (cdcg : Cdcg.t) =
  with_scratch ~scratch ~crg cdcg (fun scratch ->
      let cutoff = Option.value cutoff ~default:max_int in
      let status =
        run_core ~trace:false ~params ~crg ~placement ~scratch ~cutoff
          ~policy:fault_policy ~meter cdcg
      in
      let states = scratch.Scratch.states in
      let contention_cycles = ref 0 and contended_packets = ref 0 in
      Array.iter
        (fun st ->
          let acc = ref 0 in
          for h = 0 to Array.length st.path.Crg.routers - 1 do
            let start = st.starts.(h) in
            if start >= 0 then acc := !acc + (start - st.arrivals.(h))
          done;
          contention_cycles := !contention_cycles + !acc;
          if !acc > 0 then incr contended_packets)
        states;
      let delivered_packets, dropped_packets, retries_total = count_outcomes states in
      let texec_cycles = texec_of_states ~status states in
      flush_outcome ~delivered:delivered_packets ~dropped:dropped_packets
        ~retries:retries_total ~contention:!contention_cycles ~texec:texec_cycles;
      {
        texec_cycles;
        truncated = (match status with `Truncated _ -> true | `Completed -> false);
        contention_cycles = !contention_cycles;
        contended_packets = !contended_packets;
        delivered_packets;
        dropped_packets;
        retries_total;
      })

let texec_cycles ?scratch ?cutoff ?fault_policy ?meter ~params ~crg ~placement cdcg =
  (run_summary ?scratch ?cutoff ?fault_policy ?meter ~params ~crg ~placement cdcg)
    .texec_cycles
