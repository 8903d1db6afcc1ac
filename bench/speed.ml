(* Simulator throughput trajectory (ROADMAP "raw speed"): events per
   host second on fixed-configuration runs of the scale apps, the same
   measurement as BENCH_scale.json's points (wall clock around
   [Apps.Harness.run_spec], so the two files are directly comparable),
   plus interpreter steps/sec over the IR corpus.

   Results land in BENCH_speed.json; [run_speed_smoke] is the CI
   regression gate — it fails the build if events/sec on
   the LU, Water-Nsq and serving smokes drops below a floor derived from
   the committed baseline, or if the serving run fires markedly more
   events than the baseline did. *)

module C = Shasta.Cluster
module J = Load.Json

(* Node-major placement, as in bench/scale.ml. *)
let shape nprocs = if nprocs <= 4 then (1, nprocs) else ((nprocs + 3) / 4, 4)

type point = {
  s_name : string;
  s_procs : int;
  s_nodes : int;
  s_elapsed : float;  (** simulated seconds *)
  s_events : int;
  s_wall : float;  (** host seconds around run_spec *)
  s_ok : bool;
  s_gc : Sim.Stats.gc_delta;
}

let events_per_sec p = float_of_int p.s_events /. Float.max 1e-9 p.s_wall

let point_json p =
  J.Obj
    [
      ("name", J.Str p.s_name);
      ("procs", J.Int p.s_procs);
      ("nodes", J.Int p.s_nodes);
      ("elapsed_ms", J.Float (1000.0 *. p.s_elapsed));
      ("events", J.Int p.s_events);
      ("events_per_sec", J.Float (events_per_sec p));
      ("wall_s", J.Float p.s_wall);
      ("validated", J.Bool p.s_ok);
      ("gc_minor_words", J.Float p.s_gc.Sim.Stats.gc_minor_words);
      ("gc_major_words", J.Float p.s_gc.Sim.Stats.gc_major_words);
      ("gc_minor_collections", J.Int p.s_gc.Sim.Stats.gc_minor_collections);
      ("gc_major_collections", J.Int p.s_gc.Sim.Stats.gc_major_collections);
      ("gc_compactions", J.Int p.s_gc.Sim.Stats.gc_compactions);
    ]

(* One timed application run. *)
let run_app spec ~nprocs ~nodes ~cpus =
  let cl = Support.cluster ~nodes ~cpus () in
  let gc0 = Sim.Stats.gc_mark () in
  let t0 = Unix.gettimeofday () in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs ~sync:Apps.Harness.Mp () in
  let wall = Unix.gettimeofday () -. t0 in
  let gc = Sim.Stats.gc_delta gc0 in
  {
    s_name = Printf.sprintf "%s@%d" spec.Apps.Harness.name nprocs;
    s_procs = nprocs;
    s_nodes = nodes;
    s_elapsed = elapsed;
    s_events = Sim.Engine.events_fired (C.sim cl);
    s_wall = wall;
    s_ok = ok;
    s_gc = gc;
  }

(* One open-loop minidb serving run past the knee (48k req/s for 0.05 s
   on 2 nodes x 4 CPUs, accept queues that never shed): its servers
   spin-wait with competitors ready, so it is the point that shows a
   stale-event build-up in the event heap.  [procs] counts CPUs. *)
let serve_rate = 48_000.0

let run_serve () =
  let cfg =
    {
      Load.Serve.default_config with
      Load.Serve.arrival = Load.Arrival.Poisson { rate = serve_rate };
      duration = 0.05;
      admission = Load.Admission.queue ~cap:256 ~timeout:infinity;
    }
  in
  let gc0 = Sim.Stats.gc_mark () in
  let t0 = Unix.gettimeofday () in
  let o = Load.Serve.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let net = o.Load.Serve.cluster.C.cfg.Shasta.Config.net in
  {
    s_name = Printf.sprintf "serve@%.0fk" (serve_rate /. 1000.0);
    s_procs = net.Mchan.Net.nodes * net.Mchan.Net.cpus_per_node;
    s_nodes = net.Mchan.Net.nodes;
    s_elapsed = o.Load.Serve.elapsed;
    s_events = Sim.Engine.events_fired (C.sim o.Load.Serve.cluster);
    s_wall = wall;
    s_ok = o.Load.Serve.ok && o.Load.Serve.drained;
    s_gc = Sim.Stats.gc_delta gc0;
  }

(* Interpreter throughput: every IR-corpus kernel instrumented with the
   default options and executed; the point's "events" are interpreter
   steps, so events_per_sec is steps/sec. *)
let run_interp () =
  let gc0 = Sim.Stats.gc_mark () in
  let t0 = Unix.gettimeofday () in
  let steps =
    List.fold_left
      (fun acc (e : Apps.Ircorpus.entry) ->
        let prog, _ =
          Rewrite.Instrument.instrument ~options:Rewrite.Instrument.default_options
            e.Apps.Ircorpus.e_program
        in
        let r = Apps.Ircorpus.run prog e in
        acc + r.Apps.Ircorpus.steps)
      0 Apps.Ircorpus.all
  in
  let wall = Unix.gettimeofday () -. t0 in
  {
    s_name = "ircorpus-interp";
    s_procs = 1;
    s_nodes = 1;
    s_elapsed = 0.0;
    s_events = steps;
    s_wall = wall;
    s_ok = true;
    s_gc = Sim.Stats.gc_delta gc0;
  }

let print_points points =
  Support.print_table
    ~headers:
      [ "bench"; "procs"; "nodes"; "events"; "ev/s (M)"; "wall s"; "minor Mw"; "ok" ]
    (List.map
       (fun p ->
         [
           p.s_name;
           string_of_int p.s_procs;
           string_of_int p.s_nodes;
           string_of_int p.s_events;
           Printf.sprintf "%.3f" (events_per_sec p /. 1e6);
           Printf.sprintf "%.2f" p.s_wall;
           Printf.sprintf "%.1f" (p.s_gc.Sim.Stats.gc_minor_words /. 1e6);
           (if p.s_ok then "yes" else "NO");
         ])
       points)

let emit ~file ~bench points =
  Support.emit_json ~file ~bench [ ("points", J.List (List.map point_json points)) ]

let find name points = List.find (fun p -> p.s_name = name) points

let run_speed () =
  Support.print_header "simulator throughput (events per host second)";
  let lu = Apps.Registry.find "LU" in
  let wnsq = Apps.Registry.find "Water-Nsq" in
  let points =
    List.concat_map
      (fun spec ->
        List.map
          (fun nprocs ->
            let nodes, cpus = shape nprocs in
            run_app spec ~nprocs ~nodes ~cpus)
          [ 1; 16 ])
      [ lu; wnsq ]
    @ [ run_serve (); run_interp () ]
  in
  print_points points;
  List.iter
    (fun p ->
      if not p.s_ok then failwith ("speed: " ^ p.s_name ^ " failed validation"))
    points;
  emit ~file:"BENCH_speed.json" ~bench:"speed" points

(* CI regression floors: the committed BENCH_speed.json baseline
   (recorded on the 1-core container this repo grows in) measured the
   smoke shapes at ~0.9M (LU@4) and ~1.6M (Water-Nsq@4) events/sec
   after the flat-heap rewrite, roughly 2x the pre-rewrite engine.
   The floor is baseline/3 to absorb slower CI hosts; a regression that
   undoes the rewrite's win (a ~2x drop to pre-rewrite speed on the
   same host) still lands well under it.  serve@48k's floor follows
   the same rule from its own BENCH_speed.json point (2.41M events/sec
   on a 2-vCPU host). *)
let smoke_floor = [ ("LU@4", 300_000.0); ("Water-Nsq@4", 530_000.0); ("serve@48k", 800_000.0) ]

(* serve@48k fires a fixed number of events for its fixed seed
   (464,540 in BENCH_speed.json).  Quantum-end preempts left behind
   as dead heap events would add about 29% (598,171), and would cost
   about 1.5x in events/sec, which the floor above cannot see; a ceiling
   10% over the baseline count catches them on any host. *)
let serve_events_ceiling = 511_000

let run_speed_smoke () =
  Support.print_header "simulator throughput smoke (CI regression gate)";
  let points =
    List.map
      (fun app ->
        let spec = Apps.Registry.find app in
        let nodes, cpus = shape 4 in
        run_app spec ~nprocs:4 ~nodes ~cpus)
      [ "LU"; "Water-Nsq" ]
  in
  let points = points @ [ run_serve (); run_interp () ] in
  print_points points;
  emit ~file:"BENCH_speed_smoke.json" ~bench:"speed_smoke" points;
  let failed = ref false in
  List.iter
    (fun (name, floor) ->
      let p = find name points in
      let eps = events_per_sec p in
      if (not p.s_ok) || eps < floor then begin
        Printf.eprintf "speed regression: %s at %.0f events/sec (floor %.0f, ok=%b)\n"
          name eps floor p.s_ok;
        failed := true
      end)
    smoke_floor;
  let serve = find "serve@48k" points in
  if serve.s_events > serve_events_ceiling then begin
    Printf.eprintf "speed regression: serve@48k fired %d events (ceiling %d)\n" serve.s_events
      serve_events_ceiling;
    failed := true
  end;
  if !failed then exit 1
