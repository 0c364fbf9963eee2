(** Discrete-event execution of a CDCG on a CRG (Section 4 of the paper).

    Semantics, validated against the paper's Figures 3-5 worked example
    (see DESIGN.md §2):

    - a packet becomes ready when every dependence has been delivered
      ([Start] dependences at cycle 0) and is sent [compute] cycles
      later; the header enters the source router one [tl] later;
    - the contended resources are the routers' {e output ports} — one
      per directed inter-tile link — arbitrated first-come first-served
      on header arrival time; the router crossbar serves distinct output
      ports concurrently and core injection/ejection links never contend;
    - a granted port is occupied for [tr + flits*tl] cycles starting at
      the grant; the header reaches the next router [tr + tl] cycles
      after the grant;
    - delivery happens [tr + tl + (flits-1)*tl] cycles after the header
      arrival at the last router, which reduces to Equation (8) in the
      absence of contention;
    - with [Bounded c] buffering, a router's output port is not released
      until the downstream hop has been granted and the flits exceeding
      the [c]-flit downstream buffer have drained — a first-order model
      of wormhole backpressure (upstream holds cascade through the
      packet's own path; see {!Nocmap_energy.Noc_params.buffering}). *)

exception Deadlock of string
(** Raised when bounded-buffer backpressure produces a cyclic wait and
    the simulation cannot make progress (impossible with unbounded
    buffers on a dependence-acyclic CDCG). *)

(** Graceful degradation under a faulty CRG (one built with
    [Crg.create ?faults]).  A packet whose precomputed route is severed
    retries the send [max_retries] times, [retry_backoff] cycles apart,
    then is abandoned ("dropped") — the faults are static, so the futile
    retry loop is accounted for analytically rather than pumped as
    events, and the event pump terminates on every input.  Packets that
    depend on a dropped packet are cascade-dropped at the cycle their
    last dependence resolves (their inputs will never exist); delivered
    plus dropped packets always add up to the CDCG packet count on a
    completed run. *)
type fault_policy = {
  max_retries : int;     (** Futile re-sends before abandoning. *)
  retry_backoff : int;   (** Cycles between successive attempts. *)
}

val default_fault_policy : fault_policy
(** 3 retries, 16 cycles apart. *)

(** Reusable simulation arena.

    One evaluation of the CDCM objective is one wormhole simulation;
    simulated annealing performs up to hundreds of thousands of them on
    the same (CRG, CDCG) pair.  A scratch holds every mutable structure
    a run needs — packet states, per-hop arrival/start arrays, per-port
    waiting queues, the event heap — sized once and reset in O(touched)
    per run, so a search descent performs near-zero heap allocation per
    evaluation instead of reallocating all of it each time.

    A scratch is NOT thread-safe: give each domain its own. *)
module Scratch : sig
  type t

  val create : crg:Nocmap_noc.Crg.t -> Nocmap_model.Cdcg.t -> t
  (** [create ~crg cdcg] sizes an arena for simulating [cdcg] (or any
      CDCG with the same packet count) on [crg] (or any CRG with the
      same tile count).  The arena holds no dependence structure: each
      run reads the DAG of the CDCG it is given (see
      {!Nocmap_model.Cdcg.t}), so switching to another CDCG of the same
      packet count rebuilds nothing.
      @raise Invalid_argument when the instance exceeds the packed-event
      encoding limits (65535 packets or link slots). *)
end

(** Spatial accumulator for heatmaps.

    A meter aggregates per-link and per-router activity across any
    number of runs (pass the same meter to successive simulations of
    the same mesh): per-link busy cycles and packet counts, per-router
    contention-stall cycles, and per-port waiting-queue high-water
    marks.  Unlike the process-wide {!Nocmap_obs.Metrics} registry it
    is caller-owned and always on — passing one is the opt-in — and it
    never changes simulation results.  Feed it to
    {!Hotspot.link_loads_of_meter} for a heatmap without tracing.

    A meter is NOT thread-safe: give each domain its own. *)
module Meter : sig
  type t

  val create : crg:Nocmap_noc.Crg.t -> t
  (** Sized for the mesh of [crg] (any CRG on the same mesh works). *)

  val reset : t -> unit
  (** Zero every accumulator, including the run count. *)

  val runs : t -> int
  (** Simulations accumulated since creation/reset. *)

  val link_busy_cycles : t -> int array
  (** Per-link-slot cycles spent transferring flits (indexed like
      {!Nocmap_noc.Link.slot_count}; agrees with the busy cycles that
      {!Hotspot.link_loads} derives from trace annotations). *)

  val link_packet_counts : t -> int array
  (** Per-link-slot packets granted. *)

  val router_stall_cycles : t -> int array
  (** Per-tile cycles packets waited for this router's output ports
      (sums to the trace's [contention_cycles]). *)

  val queue_highwater : t -> int array
  (** Per-link-slot deepest waiting queue observed. *)
end

val run :
  ?trace:bool ->
  ?scratch:Scratch.t ->
  ?cutoff:int ->
  ?fault_policy:fault_policy ->
  ?meter:Meter.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  placement:int array ->
  Nocmap_model.Cdcg.t ->
  Trace.t
(** [run ~params ~crg ~placement cdcg] simulates the whole application.
    [placement.(core)] is the tile hosting [core]; it must be injective
    and in range.  [?trace] (default [true]) controls whether per-hop
    traces and resource annotations are recorded; switch it off inside
    optimization loops.

    [?scratch] reuses an arena built by {!Scratch.create} instead of
    allocating fresh state; results are identical to a fresh run.

    [?cutoff] aborts the event pump as soon as simulated time strictly
    exceeds [cutoff] cycles while packets are still in flight.  The
    returned trace then has [truncated = true] and its [texec_cycles] is
    a valid lower bound ([> cutoff]) on the true execution time — an
    "at least this bad" verdict search procedures can treat as a
    rejection without paying for the full simulation.  Runs that finish
    within the cutoff are exact and [truncated = false].

    [?fault_policy] (default {!default_fault_policy}) governs severed
    routes when [crg] carries faults; it is irrelevant on a fault-free
    CRG.

    [?meter] accumulates per-link/per-router activity into a caller
    owned {!Meter.t} (see above).  When the process-wide
    {!Nocmap_obs.Metrics} registry is enabled, every run additionally
    flushes aggregate counters ([sim.runs], [sim.flits_forwarded],
    [sim.packets_delivered], ...) — once per run, never per event, so
    results are bit-identical with metrics on or off.

    @raise Invalid_argument on an ill-formed placement, a scratch or
    meter sized for a different instance, or a negative fault-policy
    field.
    @raise Deadlock when bounded buffering deadlocks. *)

type summary = {
  texec_cycles : int;        (** Execution time; lower bound if truncated. *)
  truncated : bool;          (** The [?cutoff] fired. *)
  contention_cycles : int;
  contended_packets : int;
  delivered_packets : int;   (** Packets whose last flit arrived. *)
  dropped_packets : int;     (** Packets abandoned under faults. *)
  retries_total : int;       (** Futile send retries across all packets. *)
}

val run_summary :
  ?scratch:Scratch.t ->
  ?cutoff:int ->
  ?fault_policy:fault_policy ->
  ?meter:Meter.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  placement:int array ->
  Nocmap_model.Cdcg.t ->
  summary
(** Like {!run} with tracing off, but skips building the {!Trace.t}
    structure entirely — the hot path for cost evaluation.  With a
    [?scratch] this allocates only the returned summary record. *)

val texec_cycles :
  ?scratch:Scratch.t ->
  ?cutoff:int ->
  ?fault_policy:fault_policy ->
  ?meter:Meter.t ->
  params:Nocmap_energy.Noc_params.t ->
  crg:Nocmap_noc.Crg.t ->
  placement:int array ->
  Nocmap_model.Cdcg.t ->
  int
(** Convenience wrapper over {!run_summary}: execution time only. *)
