(* Host-time unit costs of each layer's hot path, taken in the traced
   run only.  Each drives the code production runs: the engine's own
   event heap, Net.send from inside a real cluster, and Runtime.load64 /
   store64 issued by a cluster process, so a speed-up of those paths
   shows here before it shows in wall_s. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

let nop () = ()

let cluster ~nodes ~cpus =
  C.create
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
    }

(* Mean number of events pending in lu-16's engine when an event fires
   (15.5 over the 2.43M events of a whole run, counted with an
   instrumented copy of the engine's run loop). *)
let lu_pending_depth = 16

(** [event_ns ()] — host ns per [Sim.Engine.at] + [step] pair with the
    heap held at lu-16's pending depth. *)
let event_ns () =
  let eng = Sim.Engine.create () in
  let rng = Sim.Rng.create 11 in
  let deltas = Array.init 4096 (fun _ -> Sim.Rng.float rng 1e-5) in
  for i = 0 to lu_pending_depth - 1 do
    Sim.Engine.at eng deltas.(i) nop
  done;
  let n = 2_000_000 in
  let t0 = Span.clock_ns () in
  for i = 0 to n - 1 do
    Sim.Engine.at eng (Sim.Engine.now eng +. deltas.(i land 4095)) nop;
    ignore (Sim.Engine.step eng)
  done;
  1e9 *. Span.seconds_between t0 (Span.clock_ns ()) /. float_of_int n

(** [send_ns ()] — host ns per remote [Mchan.Net.send] plus its
    delivery, issued by a process of a two-node cluster in bursts of 16
    that it then sleeps past. *)
let send_ns () =
  let cl = cluster ~nodes:2 ~cpus:1 in
  let net = cl.C.net in
  let bursts = 20_000 and burst = 16 in
  let delivered = ref 0 in
  ignore
    (C.spawn cl ~cpu:0 "sender" (fun h ->
         for _ = 1 to bursts do
           for _ = 1 to burst do
             Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:64 (fun () -> incr delivered)
           done;
           R.block_for h 1e-4
         done));
  let t0 = Span.clock_ns () in
  ignore (C.run cl);
  let dt = Span.seconds_between t0 (Span.clock_ns ()) in
  if !delivered <> bursts * burst then failwith "send_ns: messages lost";
  1e9 *. dt /. float_of_int !delivered

(** [miss_us ()] — host us per remote read-miss round trip: a process
    on node 1 loads one word from each of [blocks] fresh 64-byte blocks
    homed on node 0, whose process serves the requests while it waits
    at a barrier. *)
let miss_us () =
  let cl = cluster ~nodes:2 ~cpus:1 in
  let blocks = 4000 in
  let base = C.alloc ~granularity:64 cl (64 * blocks) in
  Protocol.Engine.set_home (C.protocol_engine cl) ~addr:base ~len:(64 * blocks) ~domain:0;
  let dt = ref 0.0 in
  ignore (C.spawn cl ~cpu:0 "home" (fun h -> R.barrier h ~id:1 ~parties:2));
  ignore
    (C.spawn cl ~cpu:1 "requester" (fun h ->
         let t0 = Span.clock_ns () in
         for b = 0 to blocks - 1 do
           ignore (R.load64 h (base + (64 * b)))
         done;
         dt := Span.seconds_between t0 (Span.clock_ns ());
         R.barrier h ~id:1 ~parties:2));
  ignore (C.run cl);
  let misses =
    List.fold_left
      (fun acc h -> acc + (R.pstats h).Protocol.Engine.read_misses)
      0 (C.runtimes cl)
  in
  if misses < blocks then failwith "miss_us: loads did not miss";
  1e6 *. !dt /. float_of_int blocks

(** [hit_ns ()] — host ns per [load64] and per [store64] on blocks the
    issuing process already holds (the inline-check fast path). *)
let hit_ns () =
  let cl = cluster ~nodes:1 ~cpus:1 in
  let words = 512 in
  let base = C.alloc ~granularity:64 cl (8 * words) in
  let load = ref 0.0 and store = ref 0.0 in
  let n = 4_000_000 in
  ignore
    (C.spawn cl ~cpu:0 "hits" (fun h ->
         for i = 0 to words - 1 do
           R.store64 h (base + (8 * i)) (Int64.of_int i)
         done;
         let t0 = Span.clock_ns () in
         let acc = ref 0L in
         for i = 0 to n - 1 do
           acc := Int64.add !acc (R.load64 h (base + (8 * (i land (words - 1)))))
         done;
         load := Span.seconds_between t0 (Span.clock_ns ());
         if !acc = 0L then failwith "hit_ns: loads read nothing";
         let t0 = Span.clock_ns () in
         for i = 0 to n - 1 do
           R.store64 h (base + (8 * (i land (words - 1)))) (Int64.of_int i)
         done;
         store := Span.seconds_between t0 (Span.clock_ns ())));
  ignore (C.run cl);
  (1e9 *. !load /. float_of_int n, 1e9 *. !store /. float_of_int n)

(** All layer timings, by per-layer metric name. *)
let all () =
  let load_hit, store_hit = hit_ns () in
  [
    ("sim.event_ns", event_ns ());
    ("mchan.send_ns", send_ns ());
    ("protocol.miss_us", miss_us ());
    ("shasta.load_hit_ns", load_hit);
    ("shasta.store_hit_ns", store_hit);
  ]
