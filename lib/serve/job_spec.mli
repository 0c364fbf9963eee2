(** Validated mapping-job specification: the serve wire format.

    A job spec arrives as one JSON object (one line over the socket, or
    one [*.json] file in the spool).  Parsing and validation never
    raise: any malformed, truncated, oversized or type-confused spec
    comes back as [Error reason], which the daemon turns into a
    structured [rejected] reply for that job alone. *)

type app =
  | Builtin of string  (** A {!Nocmap_apps.Catalog} name, e.g. ["fft8"]. *)
  | Path of string     (** A CDCG text file readable by the daemon. *)
  | Inline of string   (** CDCG text embedded in the spec itself. *)

(** The search fields are {!Nocmap_mapping.Request}'s own types.  On the
    wire, [portfolio] takes an optional ["strategies"] list of names
    from [spiral], [greedy], [sa], [tabu], [genetic] (default: all five;
    an unknown or duplicate name rejects the spec), and [decompose] an
    optional ["refiner"] — [sa] (default), [tabu] or [local]. *)
type model = Nocmap_mapping.Request.model = Cwm | Cdcm

type algorithm = Nocmap_mapping.Request.algorithm =
  | Sa
  | Local
  | Greedy
  | Greedy_local
  | Random
  | Es
  | Portfolio of Nocmap_mapping.Portfolio.strategy list
  | Decompose of Nocmap_mapping.Decompose.refiner

type budget = Nocmap_mapping.Request.budget = Quick | Standard

type t = {
  id : string;  (** Unique per state directory; see {!valid_id}. *)
  app : app;
  mesh : Nocmap_noc.Mesh.t;
  routing : Nocmap_noc.Routing.algorithm;
  tech : Nocmap_energy.Technology.t;
  flit_bits : int;
  model : model;
  algorithm : algorithm;
  seed : int;
  budget : budget;
  incremental : bool;  (** CDCM incremental evaluation (requires [Cdcm]). *)
  timeout_ms : int option;
      (** Per-job wall-clock deadline; [None] means no deadline. *)
}

val valid_id : string -> bool
(** 1-64 characters from [[A-Za-z0-9._-]], not starting with ['.'] or
    ['-'] — ids name checkpoint shards and reply files, so the alphabet
    is filesystem-safe by construction. *)

val to_json : t -> Nocmap_persist.Json.t
(** Canonical wire form; [of_json (to_json t)] round-trips. *)

val of_json : Nocmap_persist.Json.t -> (t, string) result
(** Validates field-by-field with defaults: noc ["3x3"], routing
    ["xy"], tech ["0.07um"], flit [16], model ["cdcm"], algorithm
    ["sa"], seed [1], budget ["standard"], incremental [false], no
    timeout.  A field outside that list (plus [id], [app],
    [strategies] and [refiner]) rejects the spec, naming the field, and
    so does a torus routing on a NoC that
    {!Nocmap_noc.Routing.check_mesh} refuses (field ["routing"]).
    Never raises. *)

val of_string : string -> (t, string) result
(** {!of_json} after JSON parsing, with a 1 MiB size guard.  Never
    raises, whatever the input bytes. *)

val resolve_app : t -> (Nocmap_model.Cdcg.t, string) result
(** Loads the application (catalog lookup, file read or inline parse)
    and checks it fits the mesh.  Never raises. *)

val to_request : t -> (Nocmap_mapping.Request.t, string) result
(** {!resolve_app}, then the mapping request the job runs: every search
    field carried over, with caching on. *)

val model_to_string : model -> string
val algorithm_to_string : algorithm -> string
