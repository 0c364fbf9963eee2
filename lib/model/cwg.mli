(** Communication weighted graph (Definition 1).

    Cores as vertices; the edge [a -> b] carries [w_ab], the total
    number of bits of all packets sent from core [a] to core [b].  This
    is the model used by the CWM mapping algorithm (and equivalent to
    [4]'s APCG and [5]'s core graph). *)

type t = private {
  name : string;
  core_names : string array;
  volume : int array array;  (** [volume.(a).(b)] is [w_ab]; 0 when absent. *)
  comm_src : int array;
      (** [a] of the [i]-th entry of {!communications}; with [comm_dst]
          and [comm_bits] the same list as flat arrays, for cost folds. *)
  comm_dst : int array;
  comm_bits : int array;  (** [w_ab] of the [i]-th communication. *)
  comm_list : (int * int * int) list;  (** What {!communications} returns. *)
}

val create :
  name:string ->
  core_names:string array ->
  edges:(int * int * int) list ->
  (t, string) result
(** [edges] are [(src, dst, bits)] triples; repeated pairs accumulate.
    Rejected inputs: empty core set, duplicate core names, out-of-range
    indices, self edges, non-positive volumes. *)

val create_exn :
  name:string -> core_names:string array -> edges:(int * int * int) list -> t
(** @raise Invalid_argument on bad input. *)

val of_cdcg : Cdcg.t -> t
(** Projection that forgets timing: [w_ab] is the sum of the bit volumes
    of all packets from [a] to [b].  CWM sees exactly this view. *)

val core_count : t -> int

val weight : t -> src:int -> dst:int -> int
(** [w_ab], 0 when the cores do not communicate. *)

val communications : t -> (int * int * int) list
(** All [(src, dst, w_ab)] with positive volume, ordered by [(src, dst)].
    Its length is the paper's NCC complexity measure. *)

val ncc : t -> int
(** Number of communicating core pairs. *)

val total_bits : t -> int

val to_digraph : t -> Nocmap_graph.Digraph.t
(** Vertices are cores; edge labels are bit volumes. *)
