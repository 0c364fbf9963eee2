type t = {
  name : string;
  core_names : string array;
  volume : int array array;
  comm_src : int array;
  comm_dst : int array;
  comm_bits : int array;
  comm_list : (int * int * int) list;
}

let duplicate_name names =
  let seen = Hashtbl.create 16 in
  let rec scan i =
    if i >= Array.length names then None
    else if Hashtbl.mem seen names.(i) then Some names.(i)
    else begin
      Hashtbl.add seen names.(i) ();
      scan (i + 1)
    end
  in
  scan 0

(* The positive entries of [volume] in (src, dst) order, scanned once
   here so cost folds read flat arrays instead of rescanning the n x n
   matrix on every evaluation. *)
let of_volume ~name ~core_names volume =
  let n = Array.length core_names in
  let comm_list = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if volume.(src).(dst) > 0 then
        comm_list := (src, dst, volume.(src).(dst)) :: !comm_list
    done
  done;
  let comm_list = !comm_list in
  let field f = Array.of_list (List.map f comm_list) in
  {
    name;
    core_names;
    volume;
    comm_src = field (fun (s, _, _) -> s);
    comm_dst = field (fun (_, d, _) -> d);
    comm_bits = field (fun (_, _, w) -> w);
    comm_list;
  }

let create ~name ~core_names ~edges =
  let n = Array.length core_names in
  let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if n = 0 then error "CWG has no cores"
  else
    match duplicate_name core_names with
    | Some dup -> error "duplicate core name %S" dup
    | None ->
      let volume = Array.make_matrix n n 0 in
      let rec fill = function
        | [] -> Ok (of_volume ~name ~core_names volume)
        | (src, dst, bits) :: rest ->
          if src < 0 || src >= n || dst < 0 || dst >= n then
            error "edge (%d, %d): core index out of range" src dst
          else if src = dst then error "edge (%d, %d): self communication" src dst
          else if bits <= 0 then error "edge (%d, %d): volume must be positive" src dst
          else begin
            volume.(src).(dst) <- volume.(src).(dst) + bits;
            fill rest
          end
      in
      fill edges

let create_exn ~name ~core_names ~edges =
  match create ~name ~core_names ~edges with
  | Ok t -> t
  | Error msg -> invalid_arg ("Cwg.create_exn: " ^ msg)

let of_cdcg (cdcg : Cdcg.t) =
  let edges =
    Array.fold_left
      (fun acc (p : Cdcg.packet) -> (p.Cdcg.src, p.Cdcg.dst, p.Cdcg.bits) :: acc)
      [] cdcg.Cdcg.packets
  in
  create_exn ~name:cdcg.Cdcg.name ~core_names:cdcg.Cdcg.core_names ~edges

let core_count t = Array.length t.core_names

let weight t ~src ~dst =
  let n = core_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Cwg.weight: core index out of range";
  t.volume.(src).(dst)

let communications t = t.comm_list

let ncc t = Array.length t.comm_src

let total_bits t = Array.fold_left ( + ) 0 t.comm_bits

let to_digraph t =
  let g = Nocmap_graph.Digraph.create ~n:(core_count t) in
  List.iter
    (fun (src, dst, w) -> Nocmap_graph.Digraph.add_edge g ~src ~dst ~label:w)
    (communications t);
  g
