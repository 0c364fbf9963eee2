(* Property-based tests of the wormhole simulator on random generated
   CDCGs and placements. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params
module Wormhole = Nocmap_sim.Wormhole
module Trace = Nocmap_sim.Trace
module Interval = Nocmap_util.Interval
module Rng = Nocmap_util.Rng
module Placement = Nocmap_mapping.Placement
module Generator = Nocmap_tgff.Generator

let params = Noc_params.make ~flit_bits:8 ()

(* A random small scenario: mesh, CDCG, placement. *)
let gen_scenario =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* cols = int_range 2 4 in
    let* rows = int_range 2 4 in
    let mesh = Mesh.create ~cols ~rows in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let* cores = int_range 2 (min 8 tiles) in
    let* packets = int_range 1 40 in
    let spec =
      Generator.default_spec ~name:"prop" ~cores ~packets
        ~total_bits:(max packets (packets * 60))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Placement.random rng ~cores ~tiles in
    return (mesh, cdcg, placement))

let run (mesh, cdcg, placement) =
  Wormhole.run ~params ~crg:(Crg.create mesh) ~placement cdcg

(* Equation (8): a packet's contention-free send-to-delivery latency. *)
let closed_form_delay ~crg cdcg placement (pt : Trace.packet_trace) =
  let p = cdcg.Cdcg.packets.(pt.Trace.packet) in
  let routers =
    Crg.router_count_on_path crg ~src:placement.(p.Cdcg.src)
      ~dst:placement.(p.Cdcg.dst)
  in
  Noc_params.total_delay_cycles params ~routers ~flits:pt.Trace.flits

let prop_texec_is_max_delivery =
  QCheck2.Test.make ~name:"texec equals the latest delivery" ~count:150 gen_scenario
    (fun scenario ->
      let t = run scenario in
      t.Trace.texec_cycles
      = Array.fold_left (fun acc p -> max acc p.Trace.delivered) 0 t.Trace.packets)

let prop_dependences_respected =
  QCheck2.Test.make ~name:"a packet is sent only after its deps deliver" ~count:150
    gen_scenario (fun ((_, cdcg, _) as scenario) ->
      let t = run scenario in
      List.for_all
        (fun (p, q) ->
          t.Trace.packets.(q).Trace.sent
          >= t.Trace.packets.(p).Trace.delivered
             + cdcg.Cdcg.packets.(q).Cdcg.compute)
        cdcg.Cdcg.deps)

let prop_delivery_at_least_closed_form =
  (* Equation (8) is a lower bound; equality without contention. *)
  QCheck2.Test.make ~name:"delivery >= send + eq.(8) delay" ~count:150 gen_scenario
    (fun ((mesh, cdcg, placement) as scenario) ->
      let t = run scenario in
      let crg = Crg.create mesh in
      Array.for_all
        (fun (pt : Trace.packet_trace) ->
          pt.Trace.delivered
          >= pt.Trace.sent + closed_form_delay ~crg cdcg placement pt)
        t.Trace.packets)

let prop_no_contention_matches_closed_form =
  QCheck2.Test.make ~name:"uncontended packets meet eq.(8) exactly" ~count:150
    gen_scenario (fun ((mesh, cdcg, placement) as scenario) ->
      let t = run scenario in
      let crg = Crg.create mesh in
      Array.for_all
        (fun (pt : Trace.packet_trace) ->
          Trace.wait_cycles pt > 0
          || pt.Trace.delivered
             = pt.Trace.sent + closed_form_delay ~crg cdcg placement pt)
        t.Trace.packets)

let prop_link_service_exclusive =
  (* The service part of link occupations must never overlap: links are
     the contended resources.  The recorded link interval is exactly the
     service window. *)
  QCheck2.Test.make ~name:"link service windows are disjoint" ~count:150 gen_scenario
    (fun scenario ->
      let t = run scenario in
      Array.for_all
        (fun annotations ->
          Interval.disjoint_sorted
            (List.map (fun (a : Trace.annotation) -> a.Trace.ann_interval) annotations))
        t.Trace.link_annotations)

let prop_trace_flag_same_result =
  QCheck2.Test.make ~name:"tracing does not change the outcome" ~count:80 gen_scenario
    (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let a = Wormhole.run ~trace:true ~params ~crg ~placement cdcg in
      let b = Wormhole.run ~trace:false ~params ~crg ~placement cdcg in
      a.Trace.texec_cycles = b.Trace.texec_cycles
      && a.Trace.contention_cycles = b.Trace.contention_cycles)

(* Bounded buffering defers the release of a port whose packet is longer
   than the downstream buffer.  That does not make every run slower:
   first-come-first-served port arbitration is not monotone, so holding
   one port longer can reorder two packets' arrivals at a later port and
   serve a packet on the critical path earlier (about 0.2 % of these
   scenarios finish earlier with 4-flit buffers).  The two properties
   below are what the model does guarantee. *)
let bounded capacity =
  Noc_params.make ~flit_bits:8 ~buffering:(Noc_params.Bounded capacity) ()

let prop_bounded_fitting_equals_unbounded =
  QCheck2.Test.make ~name:"bounded buffers equal unbounded when every packet fits"
    ~count:(Test_util.prop_count 80) gen_scenario
    (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let longest =
        Array.fold_left
          (fun acc (p : Cdcg.packet) ->
            max acc (Noc_params.flits_of_bits params p.Cdcg.bits))
          1 cdcg.Cdcg.packets
      in
      Wormhole.run ~params:(bounded longest) ~crg ~placement cdcg
      = Wormhole.run ~params ~crg ~placement cdcg)

let prop_bounded_delivery_at_least_closed_form =
  QCheck2.Test.make ~name:"bounded delivery >= send + eq.(8) delay"
    ~count:(Test_util.prop_count 80) gen_scenario
    (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      match Wormhole.run ~params:(bounded 4) ~crg ~placement cdcg with
      | t ->
        Array.for_all
          (fun (pt : Trace.packet_trace) ->
            pt.Trace.delivered
            >= pt.Trace.sent + closed_form_delay ~crg cdcg placement pt)
          t.Trace.packets
      | exception Wormhole.Deadlock _ -> true)

let prop_deterministic =
  QCheck2.Test.make ~name:"simulation is deterministic" ~count:50 gen_scenario
    (fun scenario ->
      let a = run scenario and b = run scenario in
      a.Trace.texec_cycles = b.Trace.texec_cycles
      && Array.for_all2
           (fun (x : Trace.packet_trace) (y : Trace.packet_trace) ->
             x.Trace.delivered = y.Trace.delivered)
           a.Trace.packets b.Trace.packets)

(* --- scratch arena and cutoff properties --- *)

let swap_first_two placement =
  let other = Array.copy placement in
  let tmp = other.(0) in
  other.(0) <- other.(1);
  other.(1) <- tmp;
  other

let prop_scratch_identical =
  QCheck2.Test.make ~name:"scratch-reused runs are trace-identical to fresh runs"
    ~count:80 gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let scratch = Wormhole.Scratch.create ~crg cdcg in
      let fresh = Wormhole.run ~params ~crg ~placement cdcg in
      let first = Wormhole.run ~scratch ~params ~crg ~placement cdcg in
      (* Dirty the arena with a different placement, then reuse it again:
         the reset must erase every trace of the interleaved run. *)
      ignore
        (Wormhole.run ~scratch ~params ~crg ~placement:(swap_first_two placement)
           cdcg);
      let second = Wormhole.run ~scratch ~params ~crg ~placement cdcg in
      fresh = first && fresh = second)

let prop_cutoff_sound =
  QCheck2.Test.make ~name:"cutoff gives a sound strict lower bound" ~count:80
    gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let scratch = Wormhole.Scratch.create ~crg cdcg in
      let full = Wormhole.run_summary ~scratch ~params ~crg ~placement cdcg in
      let t = full.Wormhole.texec_cycles in
      let half =
        Wormhole.run_summary ~scratch ~cutoff:(t / 2) ~params ~crg ~placement cdcg
      in
      let at_texec =
        Wormhole.run_summary ~scratch ~cutoff:t ~params ~crg ~placement cdcg
      in
      let ok_half =
        if half.Wormhole.truncated then
          half.Wormhole.texec_cycles > t / 2 && half.Wormhole.texec_cycles <= t
        else half.Wormhole.texec_cycles = t
      in
      (* A cutoff at the true execution time is never exceeded: the run
         completes and is exact. *)
      let ok_at_texec =
        (not at_texec.Wormhole.truncated) && at_texec.Wormhole.texec_cycles = t
      in
      ok_half && ok_at_texec)

let prop_summary_matches_run =
  QCheck2.Test.make ~name:"run_summary agrees with run" ~count:80 gen_scenario
    (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let t = Wormhole.run ~trace:false ~params ~crg ~placement cdcg in
      let s = Wormhole.run_summary ~params ~crg ~placement cdcg in
      s.Wormhole.texec_cycles = t.Trace.texec_cycles
      && s.Wormhole.contention_cycles = t.Trace.contention_cycles
      && s.Wormhole.contended_packets = t.Trace.contended_packets
      && (not s.Wormhole.truncated) && not t.Trace.truncated)

let test_scratch_evaluation_allocation_free () =
  (* The tentpole claim: with a scratch arena, a CDCM-style evaluation
     (run_summary) performs near-zero heap allocation.  The budget below
     is two orders of magnitude under what per-run array/queue/heap
     reallocation used to cost, yet roomy enough for the handful of
     closures the pump builds per call. *)
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  let crg = Crg.create mesh in
  let rng = Rng.create ~seed:42 in
  let cdcg =
    Generator.generate rng
      (Generator.default_spec ~name:"alloc" ~cores:8 ~packets:40 ~total_bits:4_000)
  in
  let tiles = Mesh.tile_count mesh in
  let placements =
    Array.init 8 (fun _ -> Placement.random rng ~cores:8 ~tiles)
  in
  let scratch = Wormhole.Scratch.create ~crg cdcg in
  let eval i =
    ignore
      (Wormhole.run_summary ~scratch ~params ~crg
         ~placement:placements.(i mod 8) cdcg)
  in
  (* Warm the arena: first runs grow hop arrays and queues to size. *)
  for i = 0 to 15 do
    eval i
  done;
  let runs = 50 in
  let before = Gc.minor_words () in
  for i = 0 to runs - 1 do
    eval i
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words/run (budget 1000)" per_run)
    true (per_run < 1000.0)

let test_invalid_placements () =
  let mesh = Mesh.create ~cols:2 ~rows:2 in
  let crg = Crg.create mesh in
  let cdcg = Nocmap_apps.Fig1.cdcg in
  let attempt placement msg =
    match Wormhole.run ~params ~crg ~placement cdcg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  attempt [| 0; 1; 2 |] "wrong length accepted";
  attempt [| 0; 1; 2; 4 |] "out-of-range tile accepted";
  attempt [| 0; 1; 2; 2 |] "non-injective accepted"

let test_single_packet_exact () =
  (* One packet, no contention possible: delivery = compute + eq (8). *)
  let cdcg =
    Cdcg.create_exn ~name:"single" ~core_names:[| "a"; "b" |]
      ~packets:[| { Cdcg.src = 0; dst = 1; compute = 11; bits = 40; label = "p" } |]
      ~deps:[]
  in
  let mesh = Mesh.create ~cols:3 ~rows:1 in
  let t =
    Wormhole.run ~params:Noc_params.paper_example ~crg:(Crg.create mesh)
      ~placement:[| 0; 2 |] cdcg
  in
  (* K = 3 routers, n = 40 flits: delay = 3*(2+1) + 40 = 49; sent at 11. *)
  Alcotest.(check int) "texec" 60 t.Trace.texec_cycles

let suite =
  ( "sim-properties",
    [
      QCheck_alcotest.to_alcotest prop_texec_is_max_delivery;
      QCheck_alcotest.to_alcotest prop_dependences_respected;
      QCheck_alcotest.to_alcotest prop_delivery_at_least_closed_form;
      QCheck_alcotest.to_alcotest prop_no_contention_matches_closed_form;
      QCheck_alcotest.to_alcotest prop_link_service_exclusive;
      QCheck_alcotest.to_alcotest prop_trace_flag_same_result;
      QCheck_alcotest.to_alcotest prop_bounded_fitting_equals_unbounded;
      QCheck_alcotest.to_alcotest prop_bounded_delivery_at_least_closed_form;
      QCheck_alcotest.to_alcotest prop_deterministic;
      QCheck_alcotest.to_alcotest prop_scratch_identical;
      QCheck_alcotest.to_alcotest prop_cutoff_sound;
      QCheck_alcotest.to_alcotest prop_summary_matches_run;
      Alcotest.test_case "scratch evaluation is allocation-free" `Quick
        test_scratch_evaluation_allocation_free;
      Alcotest.test_case "invalid placements" `Quick test_invalid_placements;
      Alcotest.test_case "single packet closed form" `Quick test_single_packet_exact;
    ] )
