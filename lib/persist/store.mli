(** A checkpoint directory: one journal shard per search leg plus a
    manifest describing the run that produced them.

    {v
    <dir>/
      manifest.json        run description (written atomically)
      <key>-<crc8>.jsonl   one Journal per shard key
    v}

    Shard file names are derived from caller keys by sanitizing to a
    filesystem-safe alphabet and appending a CRC-32 of the original
    key, so distinct keys never collide even when sanitization makes
    them look alike. *)

type t

val open_ : dir:string -> t
(** Creates [dir] (and parents) if needed.  Never truncates existing
    shards — resuming and starting fresh share this entry point. *)

val dir : t -> string

val shard_path : t -> key:string -> string
(** The journal path for [key]; deterministic, collision-free. *)

val write_manifest : t -> Json.t -> unit
(** Atomic replace of [manifest.json]. *)

val read_manifest : t -> (Json.t, string) result

type journal_error =
  | Unreadable of string
      (** The journal is corrupt or cannot be read (see {!Journal.load}). *)
  | Foreign of Json.t
      (** The journal's header records this [meta], not the expected one. *)

val open_journal :
  path:string -> meta:Json.t -> (Journal.t * Json.t list, journal_error) result
(** Opens the journal at [path] for appending, with its intact records:
    a fresh journal whose header carries [meta] when there is no file,
    otherwise the file reopened (a torn tail dropped) if its header
    records [meta].  On an error nothing is left open. *)

val shard :
  t ->
  key:string ->
  meta:Json.t ->
  encode:('c -> Json.t) ->
  decode:(Json.t -> 'c) ->
  encode_result:('r -> Json.t) ->
  decode_result:(Json.t -> 'r) ->
  finished:(unit -> bool) ->
  (checkpoint:('c -> unit) -> resume:'c option -> 'r) ->
  'r
(** [shard store ~key ~meta … run] is the protocol every journaled
    computation shares.  The [key] shard's header carries [meta]; its
    records are [{"type":"progress","state":…}] checkpoints, appended
    by [run]'s [checkpoint], and one final [{"type":"done","value":…}],
    appended only when [finished ()] holds after [run] returns (so a
    run cut short stays resumable).  On entry a [done] record is
    replayed without calling [run] ([persist.replayed_results]);
    otherwise [run] resumes from the latest [progress] record
    ([persist.resume_events]), or starts fresh when there is none.
    @raise Failure naming the shard path when the journal is corrupt
    (see {!Journal.load}), when its header records another [meta]
    (["checkpoint does not match this run"]), or when a decoder rejects
    an intact record (["unreadable checkpoint record"]). *)

val memoize :
  t -> key:string -> meta:Json.t -> (unit -> Json.t) -> Json.t
(** [memoize store ~key ~meta f] is a {!shard} without [progress]
    records whose header wraps [meta] as
    [{"kind":"memo","key":key,"meta":meta}]: it replays the recorded
    value, or runs [f] and records it.  For deterministic computations
    this makes a resumed run bit-identical to an uninterrupted one
    while skipping the work already done.
    @raise Failure as {!shard} does. *)
