module Metrics = Nocmap_obs.Metrics

let m_resumes =
  Metrics.counter "persist.resume_events"
    ~help:"Searches resumed from a journal checkpoint"

let m_replayed =
  Metrics.counter "persist.replayed_results"
    ~help:"Completed shard results replayed instead of recomputed"

type t = { dir : string }

let open_ ~dir =
  Fsutil.mkdir_p dir;
  { dir }

let dir t = t.dir

let sanitize key =
  let safe =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
        | _ -> '_')
      key
  in
  let safe = if String.length safe > 60 then String.sub safe 0 60 else safe in
  Printf.sprintf "%s-%s" safe (Checksum.to_hex (Checksum.crc32 key))

let shard_path t ~key = Filename.concat t.dir (sanitize key ^ ".jsonl")
let manifest_path t = Filename.concat t.dir "manifest.json"

let write_manifest t json =
  Fsutil.write_atomic ~path:(manifest_path t) (Json.to_string json ^ "\n")

let read_manifest t =
  let path = manifest_path t in
  match Fsutil.read_file path with
  | exception Sys_error msg -> Error msg
  | content -> (
    match Json.of_string (String.trim content) with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let record tag field value =
  Json.Assoc [ ("type", Json.Str tag); (field, value) ]

let last_record tag records =
  List.find_opt
    (fun r -> Json.find "type" r = Some (Json.Str tag))
    (List.rev records)

type journal_error = Unreadable of string | Foreign of Json.t

let open_journal ~path ~meta =
  if not (Sys.file_exists path) then Ok (Journal.create ~path ~meta, [])
  else
    match Journal.reopen ~path with
    | Error msg -> Error (Unreadable msg)
    | Ok (journal, loaded) when loaded.Journal.meta <> meta ->
      Journal.close journal;
      Error (Foreign loaded.Journal.meta)
    | Ok (journal, loaded) -> Ok (journal, loaded.Journal.records)

let shard t ~key ~meta ~encode ~decode ~encode_result ~decode_result ~finished
    run =
  let path = shard_path t ~key in
  let journal, records =
    match open_journal ~path ~meta with
    | Ok opened -> opened
    | Error (Unreadable msg) -> failwith msg
    | Error (Foreign recorded) ->
      failwith
        (Printf.sprintf
           "%s: checkpoint does not match this run (recorded %s, expected %s)"
           path (Json.to_string recorded) (Json.to_string meta))
  in
  let read field decode r =
    try decode (Json.get field r)
    with Json.Json_error msg | Failure msg ->
      failwith (Printf.sprintf "%s: unreadable checkpoint record: %s" path msg)
  in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () ->
      match last_record "done" records with
      | Some r ->
        let result = read "value" decode_result r in
        Metrics.incr m_replayed;
        result
      | None ->
        let resume =
          Option.map (read "state" decode) (last_record "progress" records)
        in
        if Option.is_some resume then Metrics.incr m_resumes;
        let checkpoint c =
          Journal.append_exn journal (record "progress" "state" (encode c))
        in
        let result = run ~checkpoint ~resume in
        if finished () then
          Journal.append_exn journal
            (record "done" "value" (encode_result result));
        result)

let memoize t ~key ~meta f =
  shard t ~key
    ~meta:
      (Json.Assoc
         [ ("kind", Json.Str "memo"); ("key", Json.Str key); ("meta", meta) ])
    ~encode:Fun.id ~decode:Fun.id ~encode_result:Fun.id ~decode_result:Fun.id
    ~finished:(fun () -> true)
    (fun ~checkpoint:_ ~resume:_ -> f ())
