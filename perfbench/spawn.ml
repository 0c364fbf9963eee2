(* spawn OUT PROG ARGS...: run PROG with the inherited stdio, wait for
   it, and write "<exit code> <ru_maxrss KiB> <wall seconds>" to OUT.

   The wall time runs from just before the fork to the reaping wait4.
   ru_maxrss is the child's own high-water mark: the kernel folds the
   pre-exec image into it, and this helper's image is smaller than any
   nocmap process, whereas the benchmark's Python image is not. *)

external wait4 : int -> int * int = "perfbench_wait4"

let () =
  match Array.to_list Sys.argv with
  | _ :: out :: prog :: args ->
    let t0 = Unix.gettimeofday () in
    let pid =
      Unix.create_process prog
        (Array.of_list (prog :: args))
        Unix.stdin Unix.stdout Unix.stderr
    in
    let code, maxrss_kb = wait4 pid in
    let wall = Unix.gettimeofday () -. t0 in
    let oc = open_out out in
    Printf.fprintf oc "%d %d %.9f\n" code maxrss_kb wall;
    close_out oc
  | _ ->
    prerr_endline "usage: spawn OUT PROG [ARGS...]";
    exit 2
