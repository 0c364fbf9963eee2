(* journal-crc DATA prints the journal CRC-32 of DATA, computed by four
   domains that all make their first [Checksum.crc32] call at the same
   moment, and fails unless they agree.  The cram tests frame journal
   records with it, and run it in fresh processes to check that a
   process's first CRC is domain-safe. *)

module Checksum = Nocmap_persist.Checksum

let domains = 4

let () =
  let data = Sys.argv.(1) in
  let ready = Atomic.make 0 in
  let first_call () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    Checksum.crc32 data
  in
  let racers = List.init domains (fun _ -> Domain.spawn first_call) in
  match List.sort_uniq compare (List.map Domain.join racers) with
  | [ crc ] -> print_endline (Checksum.to_hex crc)
  | _ ->
    prerr_endline "journal-crc: domains disagree";
    exit 1
