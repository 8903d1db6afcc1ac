(* Bechamel micro-benchmarks of the real (host) hot paths: the
   simulator's event queue, the memory image, the state tables, the
   interpreter, the rewriter, and the runtime's checked accesses.  These
   measure OCaml execution cost, complementing the simulated-time
   experiments. *)

open Bechamel
open Toolkit

(* The engine's own event store, pushed and drained as [Engine.step]
   drains it: read the root, then drop it. *)
let heap_push_pop =
  let module E = Sim.Engine in
  Test.make ~name:"event heap push+pop x64"
    (Staged.stage (fun () ->
         let h = E.q_create () in
         for i = 0 to 63 do
           E.q_push h ~time:(float_of_int ((i * 37) mod 64)) ~seq:i ~label:E.no_label E.nop
         done;
         while h.E.q_size > 0 do
           (E.q_root_run h) ();
           E.q_drop h
         done))

(* A zero-delay event (a [Work] step, a signal waiter's wake) queued and
   fired through the engine, with 16 later events pending as in an LU
   run: such an event takes the same-instant lane, not the heap. *)
let same_instant =
  let module E = Sim.Engine in
  let eng = E.create () in
  for i = 1 to 16 do
    E.at eng (float_of_int i) E.nop
  done;
  Test.make ~name:"same-instant at+step x64"
    (Staged.stage (fun () ->
         for _ = 0 to 63 do
           E.after eng 0.0 E.nop;
           ignore (E.step eng)
         done))

let bench_layout = Protocol.Layout.uniform ~base:0 ~size:65536 ~block:64 ()

let memimg_ops =
  let img = Protocol.Memimg.create ~layout:bench_layout in
  Test.make ~name:"memory image read+write x64"
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           Protocol.Memimg.write ~pid:1 img (i * 64) Alpha.Insn.W64 (Int64.of_int i);
           ignore (Protocol.Memimg.read img (i * 64) Alpha.Insn.W64)
         done))

let flag_fill =
  let img = Protocol.Memimg.create ~layout:bench_layout in
  Test.make ~name:"invalid-flag fill x64 blocks"
    (Staged.stage (fun () ->
         for b = 0 to 63 do
           Protocol.Memimg.write_flags img ~flag32:0xDEADBEEFl ~block:b
         done))

let layout_lookup =
  let mixed =
    Protocol.Layout.create ~base:0 ~size:65536
      [
        { Protocol.Layout.rs_name = "fine"; rs_size = 32768; rs_block = 64 };
        { Protocol.Layout.rs_name = "bulk"; rs_size = 32768; rs_block = 512 };
      ]
  in
  Test.make ~name:"layout: block_of_addr x64"
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           ignore (Protocol.Layout.block_of_addr mixed (i * 1021))
         done))

let interp_loop =
  let prog =
    Alpha.Asm.(
      program
        [
          proc "main"
            [ li t0 1000L; label "loop"; addi t1 1 t1; subi t0 1 t0; bgt t0 "loop"; halt ];
        ])
  in
  let rt = Alpha.Runtime.flat ~size:4096 () in
  Test.make ~name:"interpreter: 1000-iteration loop"
    (Staged.stage (fun () -> ignore (Alpha.Interp.run prog rt ~entry:"main" ())))

let rewriter =
  let prog = Experiments.skeleton ~procedures:8 ~mix:Experiments.sci_mix in
  Test.make ~name:"rewriter: instrument 8 procedures"
    (Staged.stage (fun () -> ignore (Rewrite.Instrument.instrument prog)))

let rng_stream =
  let rng = Sim.Rng.create 7 in
  Test.make ~name:"rng: 64 draws" (Staged.stage (fun () ->
      for _ = 1 to 64 do
        ignore (Sim.Rng.int rng 1000)
      done))

(* The checked-access hit path: every API-mode entry point, issued by a
   process of a 1-node cluster (as perfbench's [hit_ns] does) on 64
   words of lines it holds exclusive, so no access leaves the inline
   check.  Built inside that process, which owns the runtime handle. *)
let hit_path h ~base =
  let module R = Shasta.Runtime in
  let each name f =
    Test.make ~name
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             f (base + (8 * i))
           done))
  in
  let v = 0x1234L in
  Alpha.Insn.
    [
      each "Runtime.load W32 hit x64" (fun a -> ignore (R.load h a W32));
      each "Runtime.load W64 hit x64" (fun a -> ignore (R.load h a W64));
      each "Runtime.store W32 hit x64" (fun a -> R.store h a W32 v);
      each "Runtime.store W64 hit x64" (fun a -> R.store h a W64 v);
      each "Runtime.load_batched W64 hit x64" (fun a -> ignore (R.load_batched h a W64));
      each "Runtime.store_batched W64 hit x64" (fun a -> R.store_batched h a W64 v);
    ]

let run_test test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" [ test ]) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (t :: _) -> Printf.printf "%-44s %12.1f ns/run\n" name t
      | Some [] | None -> Printf.printf "%-44s (no estimate)\n" name)
    results

let run_hit_path () =
  let module C = Shasta.Cluster in
  let cl =
    C.create
      {
        Shasta.Config.default with
        Shasta.Config.net =
          { Mchan.Net.default_config with Mchan.Net.nodes = 1; cpus_per_node = 1 };
      }
  in
  let base = C.alloc ~granularity:64 cl (8 * 64) in
  ignore
    (C.spawn cl ~cpu:0 "hits" (fun h ->
         for i = 0 to 63 do
           Shasta.Runtime.store h (base + (8 * i)) Alpha.Insn.W64 1L
         done;
         Shasta.Runtime.mb h;
         List.iter run_test (hit_path h ~base)));
  ignore (C.run cl)

let run_micro () =
  let tests =
    [
      heap_push_pop;
      same_instant;
      memimg_ops;
      flag_fill;
      layout_lookup;
      interp_loop;
      rewriter;
      rng_stream;
    ]
  in
  Printf.printf "\nBechamel micro-benchmarks (host execution time)\n";
  Printf.printf "------------------------------------------------\n";
  List.iter run_test tests;
  run_hit_path ()
