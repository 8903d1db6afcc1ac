(* The four benchmark workloads.  Each runs one timed phase on the
   sequential Fifo engine, checks its outputs, and reads every layer's
   counters through public accessors afterwards.

   Why these four: lu-16 is coherence-bound (sim, mchan, protocol and
   Shasta.Sync do the work), the two serving points load the same minidb
   stack below and above its ~32k req/s knee, and transparent-binary is
   the only one in which the rewriter and the Alpha interpreter work. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module E = Protocol.Engine
module I = Apps.Ircorpus

type result = {
  ok : bool;  (** every output check passed *)
  attempted : int;  (** operations: requests, the app run, or kernel runs *)
  failed : int;
  first_call : float;  (** Unix time at which the first timed call began *)
  timed : Span.t option;  (** the timed phase's span (traced run only) *)
  wall_s : float;  (** host seconds of the timed phase *)
  sim_ms : float;  (** simulated time of the timed phase *)
  goodput : float;  (** completed operations per simulated second *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  samples : int;  (** completed operations behind the percentiles *)
  counters : (string * float) list;  (** exact and simulated: digested *)
  host : (string * float) list;  (** host-dependent figures of this run *)
}

let time f =
  let t0 = Span.clock_ns () in
  let r = f () in
  (r, Span.seconds_between t0 (Span.clock_ns ()))

(* Host seconds of one run of the host-speed probe, probe.exe, which is
   built next to this program (see perfbench/probe.ml). *)
let probe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe" in
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> float_of_string l
  | _ -> failwith ("perfbench: " ^ exe ^ " failed")

(* Run the timed phase, a list of segments, recording its start, host
   time and GC work.  Untraced, the probe runs before the first segment
   and after each one, and the host figures carry the probes' mean time
   and the sum over segments of the segment's host time divided by the
   mean of the probes on either side of it; run.py scales setup_s and
   wall_s to a nominal host speed with them. *)
let timed_segments fs =
  let first_call = Unix.gettimeofday () in
  let probed = not !Span.enabled in
  let first_probe = if probed then probe () else 0.0 in
  let gc0 = Sim.Stats.gc_mark () in
  let before = ref first_probe and probe_sum = ref first_probe in
  let wall = ref 0.0 and wall_per_probe = ref 0.0 in
  let rs =
    Span.with_ "timed phase" (fun () ->
        List.map
          (fun f ->
            let r, dt = time f in
            if probed then begin
              let after = probe () in
              wall_per_probe := !wall_per_probe +. (dt /. ((!before +. after) /. 2.0));
              probe_sum := !probe_sum +. after;
              before := after
            end;
            wall := !wall +. dt;
            r)
          fs)
  in
  let gc = Sim.Stats.gc_delta gc0 in
  let gc_host =
    [
      ("gc.minor_mwords", gc.Sim.Stats.gc_minor_words /. 1e6);
      ("gc.major_collections", float_of_int gc.Sim.Stats.gc_major_collections);
    ]
    @
    if probed then
      [
        ("probe.mean_s", !probe_sum /. float_of_int (List.length fs + 1));
        ("probe.wall_per_probe", !wall_per_probe);
      ]
    else []
  in
  let span = if !Span.enabled then Some (Span.find "timed phase") else None in
  (rs, first_call, !wall, span, gc_host)

let timed_phase f =
  let rs, first_call, wall, span, gc_host = timed_segments [ f ] in
  (List.hd rs, first_call, wall, span, gc_host)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Layer counters of one or more clusters after their runs, summed
   before any ratio is taken. *)
let cluster_counters cls =
  let rts = List.concat_map C.runtimes cls in
  let sum f = float_of_int (List.fold_left (fun acc h -> acc + f (R.pstats h)) 0 rts) in
  let csum f = float_of_int (List.fold_left (fun acc cl -> acc + f cl) 0 cls) in
  let rsum f =
    csum (fun cl ->
        Array.fold_left (fun acc r -> acc + f r) 0 (E.region_stats (C.protocol_engine cl)))
  in
  let read_misses = sum (fun p -> p.E.read_misses) in
  let store_misses = sum (fun p -> p.E.store_misses) in
  let intra = sum (fun p -> p.E.intra_hits) in
  let false_misses = sum (fun p -> p.E.false_misses) in
  let accesses = float_of_int (List.fold_left (fun acc h -> acc + R.accesses h) 0 rts) in
  let bd =
    List.fold_left
      (fun acc cl -> Shasta.Breakdown.add acc (C.total_breakdown cl))
      (Shasta.Breakdown.empty ()) cls
  in
  [
    ("sim.events", csum (fun cl -> Sim.Engine.events_fired (C.sim cl)));
    ("mchan.remote_messages", csum (fun cl -> Mchan.Net.remote_messages cl.C.net));
    ("mchan.local_messages", csum (fun cl -> Mchan.Net.local_messages cl.C.net));
    ("protocol.read_misses", read_misses);
    ("protocol.store_misses", store_misses);
    ("protocol.hit_ratio", 1.0 -. ratio (read_misses +. store_misses) accesses);
    ("protocol.intra_share", ratio intra (intra +. read_misses));
    ("protocol.false_miss_share", ratio false_misses (false_misses +. read_misses));
    ("protocol.invals", rsum (fun r -> r.E.r_invals));
    ("protocol.recalls", rsum (fun r -> r.E.r_recalls));
    ("protocol.data_mb", rsum (fun r -> r.E.r_data_bytes) /. 1e6);
    ("protocol.downgrades", sum (fun p -> p.E.downgrades_direct + p.E.downgrades_msg));
    ("protocol.retries", sum (fun p -> p.E.bounces + p.E.reissued_stores));
    ("protocol.messages_handled", sum (fun p -> p.E.messages_handled));
    ("shasta.accesses", accesses);
    ("shasta.task_ms", 1e3 *. bd.Shasta.Breakdown.task);
    ("shasta.read_ms", 1e3 *. bd.Shasta.Breakdown.read);
    ("shasta.write_ms", 1e3 *. bd.Shasta.Breakdown.write);
    ("shasta.mb_ms", 1e3 *. bd.Shasta.Breakdown.mb);
    ("shasta.sync_ms", 1e3 *. bd.Shasta.Breakdown.sync);
    ("shasta.blocked_ms", 1e3 *. bd.Shasta.Breakdown.blocked);
    ("shasta.msg_ms", 1e3 *. bd.Shasta.Breakdown.msg);
    ("shasta.sync_messages", csum (fun cl -> Shasta.Sync.messages cl.C.sync));
  ]

(* --- lu-16 ---------------------------------------------------------- *)

(* Above LU's default 192 so a run holds ~2.4M events; 320 is a
   multiple of the 8-element block. *)
let lu_size = 320

let lu () =
  let spec = Apps.Registry.find "LU" in
  let cl =
    Span.with_ "setup" (fun () ->
        C.create
          {
            Shasta.Config.default with
            Shasta.Config.net =
              { Mchan.Net.default_config with Mchan.Net.nodes = 4; cpus_per_node = 4 };
            protocol = { Protocol.Config.default with Protocol.Config.shared_size = 8 lsl 20 };
          })
  in
  let (elapsed, validated), first_call, wall, timed, gc_host =
    timed_phase (fun () ->
        Span.with_ "Apps.Harness.run_spec" (fun () ->
            Apps.Harness.run_spec cl spec ~nprocs:16 ~sync:Apps.Harness.Mp ~size:lu_size ()))
  in
  let ok = Span.with_ "validate" (fun () -> validated && elapsed > 0.0) in
  let ms = 1e3 *. elapsed in
  {
    ok;
    attempted = 1;
    failed = (if ok then 0 else 1);
    first_call;
    timed;
    wall_s = wall;
    sim_ms = ms;
    goodput = 1.0 /. elapsed;
    p50_ms = ms;
    p99_ms = ms;
    p999_ms = ms;
    samples = 1;
    counters = cluster_counters [ cl ];
    host = gc_host;
  }

(* --- serve-sub-knee / serve-overload ---------------------------------- *)

(* Both points share one set-up and differ only in offered rate.  The
   accept queues never shed (no timeout) and never overflow (a worker's
   share of 256 clients x window 4 stays under the cap of 256), so every
   request is served and none counts as failed; past the knee the
   backlog waits in client buffers and accept queues instead. *)
let serve_config ~seed ~rate ~duration =
  {
    Load.Serve.default_config with
    Load.Serve.seed;
    arrival = Load.Arrival.Poisson { rate };
    duration;
    admission = Load.Admission.queue ~cap:256 ~timeout:infinity;
  }

module Rc = Load.Recorder

(* One recorder holding the union of several runs' requests. *)
let merge_recorders rcs =
  let m = Rc.create ~ops:[ "oltp"; "scan" ] () in
  List.iter
    (fun (r : Rc.t) ->
      Sim.Stats.log_merge m.Rc.all r.Rc.all;
      Array.iteri
        (fun i o -> Sim.Stats.log_merge m.Rc.ops.(i).Rc.op_latency o.Rc.op_latency)
        r.Rc.ops;
      m.Rc.offered <- m.Rc.offered + r.Rc.offered;
      m.Rc.completed <- m.Rc.completed + r.Rc.completed;
      m.Rc.completed_in_window <- m.Rc.completed_in_window + r.Rc.completed_in_window;
      m.Rc.rejected <- m.Rc.rejected + r.Rc.rejected;
      m.Rc.dropped <- m.Rc.dropped + r.Rc.dropped;
      m.Rc.shed <- m.Rc.shed + r.Rc.shed;
      m.Rc.client_buffered <- m.Rc.client_buffered + r.Rc.client_buffered;
      m.Rc.depth_max <- max m.Rc.depth_max r.Rc.depth_max)
    rcs;
  m

(* [runs] independent serving runs, each on a fresh cluster with its own
   arrival seed drawn from [seed]; latency percentiles are taken over
   the union of their requests.  Every run keeps its cold-start
   transient, so the union has the same share of transient requests as
   one run, and [runs] times its samples to narrow p999's seed-to-seed
   spread. *)
let serve ~rate ~duration ~runs ~seed =
  let cfgs =
    Span.with_ "setup" (fun () ->
        List.init runs (fun i -> serve_config ~seed:(Hashtbl.hash (seed, i)) ~rate ~duration))
  in
  let outcomes, first_call, wall, timed, gc_host =
    timed_segments
      (List.map
         (fun cfg () -> Span.with_ "Load.Serve.run" (fun () -> Load.Serve.run cfg))
         cfgs)
  in
  let ok =
    Span.with_ "validate" (fun () ->
        List.for_all (fun o -> o.Load.Serve.ok && o.Load.Serve.drained) outcomes)
  in
  let rcs = List.map (fun o -> o.Load.Serve.recorder) outcomes in
  let rc = merge_recorders rcs in
  let attempted = rc.Rc.offered in
  let failed = if ok then rc.Rc.rejected + rc.Rc.dropped + rc.Rc.shed else attempted in
  let window = List.fold_left (fun acc r -> acc +. Rc.offered_window r) 0.0 rcs in
  (* Percentiles in Recorder are on a 0-100 scale. *)
  let pct p = 1e3 *. Rc.percentile rc p in
  let load =
    [
      ("load.offered", float_of_int rc.Rc.offered);
      ("load.completed", float_of_int rc.Rc.completed);
      ("load.shed", float_of_int rc.Rc.shed);
      ("load.rejected", float_of_int rc.Rc.rejected);
      ("load.dropped", float_of_int rc.Rc.dropped);
      ("load.client_buffered", float_of_int rc.Rc.client_buffered);
      ("load.queue_depth_max", float_of_int rc.Rc.depth_max);
      ("load.oltp_p99_ms", 1e3 *. Rc.op_percentile rc ~op:0 99.0);
      ("load.scan_p99_ms", 1e3 *. Rc.op_percentile rc ~op:1 99.0);
      ( "load.drain_ms",
        List.fold_left
          (fun acc r -> Float.max acc (1e3 *. (r.Rc.t_drain -. r.Rc.t_stop)))
          neg_infinity rcs );
    ]
  in
  {
    ok;
    attempted;
    failed;
    first_call;
    timed;
    wall_s = wall;
    sim_ms = List.fold_left (fun acc o -> acc +. (1e3 *. o.Load.Serve.elapsed)) 0.0 outcomes;
    goodput = float_of_int rc.Rc.completed_in_window /. window;
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    p999_ms = pct 99.9;
    samples = rc.Rc.completed;
    counters = cluster_counters (List.map (fun o -> o.Load.Serve.cluster) outcomes) @ load;
    host = gc_host;
  }

(* --- transparent-binary ----------------------------------------------- *)

(* The Oracle-sized synthetic binary of the code-modification-time
   experiment: 12,000 procedures of database-mix code (integer
   pointer-chasing, 10 shared loads and 5 shared stores per loop). *)
let skeleton ~procedures =
  let shared_loads, shared_stores, private_accesses, alu = (10, 5, 5, 10) in
  let shared_base = Rewrite.Instrument.default_options.Rewrite.Instrument.shared_base in
  let body i =
    let open Alpha.Asm in
    List.concat
      [
        [ li t8 (Int64.of_int (shared_base + (i * 4096))); li t9 64L; label "loop" ];
        List.init shared_loads (fun k -> ldq (1 + (k mod 6)) (8 * k) t8);
        List.init shared_stores (fun k -> stq (1 + (k mod 6)) (8 * (k + shared_loads)) t8);
        List.init private_accesses (fun k ->
            if k land 1 = 0 then ldq (1 + (k mod 6)) (8 * k) sp
            else stq (1 + (k mod 6)) (8 * k) sp);
        List.init alu (fun k -> addi (1 + (k mod 6)) k (1 + ((k + 1) mod 6)));
        [ subi t9 1 t9; bgt t9 "loop"; ret ];
      ]
  in
  Alpha.Asm.program
    (List.init procedures (fun i -> Alpha.Asm.proc (Printf.sprintf "proc%d" i) (body i)))

(* Kernel iterations, scaled from each kernel's default so the run phase
   is long enough to time; the sync kernels run on 8 threads over two
   nodes, where every iteration crosses the network. *)
let corpus_scale = 300
let sync_scale = 20
let sync_nodes = 2
let sync_cpus = 4
let sync_nprocs = sync_nodes * sync_cpus

let instrument p =
  fst
    (Span.with_ "Rewrite.Instrument.instrument" (fun () ->
         Rewrite.Instrument.instrument ~options:Rewrite.Instrument.default_options p))

let binary () =
  let skel = Span.with_ "setup" (fun () -> skeleton ~procedures:12000) in
  let ( (skel_growth, skel_clean, kernels, spmd, run_s),
        first_call,
        wall,
        timed,
        gc_host ) =
    timed_phase (fun () ->
        let prog, stats =
          Span.with_ "Rewrite.Instrument.instrument" (fun () ->
              Rewrite.Instrument.instrument skel)
        in
        let reports = Span.with_ "Rewrite.Verify.verify" (fun () -> Rewrite.Verify.verify prog) in
        (* Host time of the Ircorpus.run calls alone: the interpreter
           steps they report are the numerator of alpha.steps_per_s. *)
        let run_s = ref 0.0 in
        let kernels, spmd =
          Span.with_ "run phase" (fun () ->
              let kernels =
                List.map
                  (fun (e : I.entry) ->
                    let p = instrument e.I.e_program in
                    let iters = corpus_scale * e.I.e_iters in
                    let r, dt =
                      time (fun () -> Span.with_ "Apps.Ircorpus.run" (fun () -> I.run ~iters p e))
                    in
                    run_s := !run_s +. dt;
                    (e, p, r))
                  I.all
              in
              let spmd =
                List.map
                  (fun (e : I.entry) ->
                    let p = instrument e.I.e_program in
                    let iters = sync_scale * e.I.e_iters in
                    ( e,
                      p,
                      Span.with_ "Apps.Ircorpus.run_spmd" (fun () ->
                          I.run_spmd ~nodes:sync_nodes ~cpus_per_node:sync_cpus
                            ~nprocs:sync_nprocs ~iters p e) ))
                  I.sync
              in
              (kernels, spmd))
        in
        (Rewrite.Instrument.code_growth stats, Rewrite.Verify.ok reports, kernels, spmd, !run_s))
  in
  (* Output checks: each instrumented kernel against its uninstrumented
     run (one node, so hardware coherence alone is correct there), and
     the validator clean on every instrumented program. *)
  let kernel_ok, spmd_ok =
    Span.with_ "validate" (fun () ->
        let clean p = Rewrite.Verify.ok (Rewrite.Verify.verify p) in
        ( List.map
            (fun ((e : I.entry), p, (r : I.run_result)) ->
              let base = I.run ~iters:(corpus_scale * e.I.e_iters) e.I.e_program e in
              clean p && r.I.r0 = base.I.r0 && r.I.image = base.I.image)
            kernels,
          List.map
            (fun ((e : I.entry), p, (r : I.spmd_result)) ->
              let base =
                I.run_spmd ~nodes:1 ~cpus_per_node:sync_nprocs ~nprocs:sync_nprocs
                  ~iters:(sync_scale * e.I.e_iters) e.I.e_program e
              in
              clean p && r.I.s_r0s = base.I.s_r0s)
            spmd ))
  in
  let checks = skel_clean :: (kernel_ok @ spmd_ok) in
  let failed = List.length (List.filter not checks) in
  let latencies =
    List.map (fun (_, _, r) -> r.I.elapsed) kernels
    @ List.map (fun (_, _, r) -> r.I.s_elapsed) spmd
  in
  let sim_s = List.fold_left ( +. ) 0.0 latencies in
  let sorted = Array.of_list (List.sort compare latencies) in
  let n = Array.length sorted in
  let pct p = 1e3 *. sorted.(min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
  let steps = List.fold_left (fun acc (_, _, r) -> acc + r.I.steps) 0 kernels in
  let slots = List.fold_left (fun acc (_, _, r) -> acc + r.I.check_slots) 0 kernels in
  let rsum f =
    float_of_int
      (List.fold_left
         (fun acc (_, _, r) ->
           List.fold_left (fun acc (_, st) -> acc + f st) acc r.I.s_regions)
         0 spmd)
  in
  {
    ok = failed = 0;
    attempted = List.length checks;
    failed;
    first_call;
    timed;
    wall_s = wall;
    sim_ms = 1e3 *. sim_s;
    goodput = float_of_int n /. sim_s;
    p50_ms = pct 0.50;
    p99_ms = pct 0.99;
    p999_ms = pct 0.999;
    samples = n;
    counters =
      [
        ("alpha.steps", float_of_int steps);
        ("alpha.check_slots", float_of_int slots);
        ("alpha.check_share", ratio (float_of_int slots) (float_of_int steps));
        ("rewrite.code_growth", skel_growth);
        ("protocol.read_misses", rsum (fun r -> r.E.r_read_misses));
        ("protocol.store_misses", rsum (fun r -> r.E.r_store_misses));
        ("protocol.invals", rsum (fun r -> r.E.r_invals));
        ("protocol.recalls", rsum (fun r -> r.E.r_recalls));
        ("protocol.data_mb", rsum (fun r -> r.E.r_data_bytes) /. 1e6);
      ];
    host = ("alpha.run_s", run_s) :: gc_host;
  }

let names = [ "lu-16"; "serve-sub-knee"; "serve-overload"; "transparent-binary" ]

let run name ~seed =
  match name with
  | "lu-16" -> lu ()
  | "serve-sub-knee" -> serve ~rate:8_000.0 ~duration:2.0 ~runs:4 ~seed
  | "serve-overload" -> serve ~rate:48_000.0 ~duration:0.25 ~runs:2 ~seed
  | "transparent-binary" -> binary ()
  | _ -> invalid_arg ("unknown workload " ^ name)
