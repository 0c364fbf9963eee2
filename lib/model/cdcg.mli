(** Communication dependence and computation graph (Definition 2).

    The CDCG is the paper's central model: one vertex per packet, each a
    4-tuple [(src core, dst core, computation time, bit volume)], plus
    implicit [Start] and [End] vertices.  Dependence edges state that the
    destination packet's computation may only begin once the source
    packet has been delivered.  Packets without predecessors depend on
    [Start]; packets without successors precede [End]. *)

type packet = {
  src : int;      (** Originating core (index into {!core_names}). *)
  dst : int;      (** Destination core. *)
  compute : int;  (** Cycles of source-core computation before sending ([taq]). *)
  bits : int;     (** Packet payload in bits ([wabq]). *)
  label : string; (** Human-readable packet name, e.g. ["pEA1"]. *)
}

type t = private {
  name : string;
  core_names : string array;
  packets : packet array;
  deps : (int * int) list;  (** [(p, q)]: packet [q] waits for packet [p]. *)
  pred_off : int array;     (** [packet_count + 1] row offsets into [pred]. *)
  pred : int array;         (** Predecessor rows, see below. *)
  succ_off : int array;     (** [packet_count + 1] row offsets into [succ]. *)
  succ : int array;         (** Successor rows, see below. *)
  order : int array;        (** Topological packet order, see below. *)
}
(** The last five fields are the dependence DAG of [deps], built once by
    {!create} and shared by every evaluator of the CDCG (the wormhole
    pump, the analytic bound, the incremental evaluator); they are
    read-only, never mutate them.

    - [pred.(pred_off.(i)) .. pred.(pred_off.(i + 1) - 1)] are the
      packets [i] waits for, and [succ.(succ_off.(i)) ..
      succ.(succ_off.(i + 1) - 1)] the packets waiting for [i]; each row
      lists its dependences in [deps] order, a repeated dependence once
      per occurrence.
    - [order] holds every packet once, each after all its predecessors:
      Kahn's algorithm with a FIFO queue seeded with the
      dependence-free packets in ascending index.  The exact order is
      part of the contract, not only its topological property: the
      incremental bound stops its walk part-way along it, and the
      partial maximum it reports depends on where it stopped. *)

val create :
  name:string ->
  core_names:string array ->
  packets:packet array ->
  deps:(int * int) list ->
  (t, string) result
(** Validates and builds a CDCG.  Rejected inputs: empty core set, a
    packet with [src = dst], out-of-range core or packet indices,
    non-positive bit volume, negative computation time, duplicate core
    names, or a dependence cycle (the witness cycle is reported). *)

val create_exn :
  name:string ->
  core_names:string array ->
  packets:packet array ->
  deps:(int * int) list ->
  t
(** @raise Invalid_argument with the validation message on bad input. *)

val core_count : t -> int

val packet_count : t -> int
(** Number of CDCG vertices excluding [Start]/[End] (the paper's
    "number of packets of all cores"). *)

val total_bits : t -> int
(** Table 1's "total volume of bits during application execution". *)

val dependence_count : t -> int
(** Explicit dependence edges (excludes implicit Start/End edges). *)

val ndp : t -> int
(** The paper's NDP complexity measure: dependences plus packets. *)

val predecessors : t -> int -> int list
(** Packets that must be delivered before packet [i] may start. *)

val successors : t -> int -> int list

val start_packets : t -> int list
(** Packets with no predecessor (pointed to by [Start]). *)

val packets_from : t -> src:int -> dst:int -> int list
(** Indices of all packets of the [src -> dst] communication, in
    declaration order (the paper's [P_ab]). *)

val to_digraph : t -> Nocmap_graph.Digraph.t
(** Dependence graph over packet indices; edge labels are 0. *)

val pp_packet : core_names:string array -> Format.formatter -> packet -> unit
