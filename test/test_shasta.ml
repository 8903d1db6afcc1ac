(* Tests for the Shasta runtime: API-mode accesses, MP and transparent
   synchronisation, and end-to-end execution of instrumented binaries. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module Cfg = Shasta.Config

(* Read a shared word from whichever domain holds a valid copy. *)
let read_valid cl addr =
  let values =
    List.filter_map
      (fun h ->
        match Protocol.Engine.block_state h.R.pcb addr with
        | _, (Protocol.Ptypes.Shared | Protocol.Ptypes.Exclusive) ->
            Some (Protocol.Engine.raw_read h.R.pcb addr Alpha.Insn.W64)
        | _, (Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending) -> None)
      (C.runtimes cl)
  in
  match values with
  | v :: rest when List.for_all (fun x -> x = v) rest -> v
  | _ -> -1L

let small_cfg ?(nodes = 2) ?(cpus = 2) ?(variant = Protocol.Config.Smp)
    ?(model = Protocol.Config.Rc) () =
  {
    Cfg.default with
    Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
    protocol =
      { Protocol.Config.default with Protocol.Config.variant; model; shared_size = 256 * 1024 };
  }

let test_cross_node_store_load () =
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let got = ref 0 in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 1234) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        got := R.load_int h a)
  in
  ignore (C.run cl);
  Alcotest.(check int) "value crossed nodes" 1234 !got

let test_mp_lock_mutual_exclusion () =
  let cl = C.create (small_cfg ()) in
  let counter = C.alloc cl 64 in
  let iters = 50 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to iters do
             R.lock h 0;
             let v = R.load_int h counter in
             R.work_cycles h 50;
             R.store_int h counter (v + 1);
             R.unlock h 0
           done))
  done;
  let check = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "checker" (fun h ->
        (* Runs after being spawned last on cpu 0's run queue; just wait
           until everyone is done incrementing. *)
        let rec wait () =
          if R.load_int h counter < 4 * iters then begin
            Sim.Proc.sleep 0.001;
            wait ()
          end
        in
        wait ();
        check := R.load_int h counter)
  in
  ignore (C.run cl);
  Alcotest.(check int) "lock protected all increments" (4 * iters) !check

let test_mp_barrier_phases () =
  let cl = C.create (small_cfg ()) in
  let slots = C.alloc cl (4 * 64) in
  let violations = ref 0 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for phase = 1 to 5 do
             R.store_int h (slots + (c * 64)) phase;
             R.barrier h ~id:9 ~parties:4;
             (* After the barrier every peer must have reached this
                phase. *)
             for peer = 0 to 3 do
               if R.load_int h (slots + (peer * 64)) < phase then incr violations
             done;
             R.barrier h ~id:9 ~parties:4
           done))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "no barrier violations" 0 !violations

let test_atomic_add () =
  let cl = C.create (small_cfg ()) in
  let counter = C.alloc cl 64 in
  let finals = ref [] in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to 50 do
             let old = R.atomic_add h counter 1 in
             finals := old :: !finals
           done))
  done;
  ignore (C.run cl);
  (* Fetch-and-add returns every value 0..199 exactly once. *)
  let sorted = List.sort compare !finals in
  Alcotest.(check (list int)) "all intermediate values seen" (List.init 200 Fun.id) sorted

let test_sm_lock_mutual_exclusion () =
  let cl = C.create (small_cfg ()) in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  let iters = 30 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to iters do
             R.sm_lock h lockw;
             let v = R.load_int h counter in
             R.work_cycles h 50;
             R.store_int h counter (v + 1);
             R.sm_unlock h lockw
           done))
  done;
  ignore (C.run cl);
  (* Check from outside the simulation: all valid copies agree. *)
  Alcotest.(check int) "LL/SC lock protected all increments" (4 * iters)
    (Int64.to_int (read_valid cl counter))

let test_sm_barrier () =
  let cl = C.create (small_cfg ()) in
  let bar = C.alloc cl 64 in
  let slots = C.alloc cl (4 * 64) in
  let violations = ref 0 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for phase = 1 to 4 do
             R.store_int h (slots + (c * 64)) phase;
             R.mb h;
             R.sm_barrier h ~addr:bar ~parties:4;
             for peer = 0 to 3 do
               if R.load_int h (slots + (peer * 64)) < phase then incr violations
             done;
             R.sm_barrier h ~addr:bar ~parties:4
           done))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "no sm-barrier violations" 0 !violations

let test_checking_overhead () =
  (* Single processor, same access pattern, checks on vs off: the
     checked run must be slower by a small factor (Table 3 machinery). *)
  let run ~checks =
    let cfg = { (small_cfg ~nodes:1 ~cpus:1 ()) with Cfg.checks_enabled = checks } in
    let cl = C.create cfg in
    let a = C.alloc cl 65536 in
    let elapsed = ref 0.0 in
    let _ =
      C.spawn cl ~cpu:0 "app" (fun h ->
          let t0 = C.now cl in
          for i = 0 to 20000 do
            let addr = a + (i mod 1024 * 8) in
            R.store_int h addr i;
            ignore (R.load_int h addr)
          done;
          R.flush h;
          elapsed := C.now cl -. t0)
    in
    ignore (C.run cl);
    !elapsed
  in
  let base = run ~checks:false in
  let checked = run ~checks:true in
  let overhead = (checked -. base) /. base in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.1f%% in plausible range" (100.0 *. overhead))
    true
    (overhead > 0.2 && overhead < 3.0)

let test_breakdown_sane () =
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 4096 in
  for c = 0 to 1 do
    ignore
      (C.spawn cl ~cpu:(c * 2) "worker" (fun h ->
           for i = 0 to 200 do
             R.store_int h (a + (i mod 32 * 64)) i;
             R.work_cycles h 100
           done;
           R.mb h))
  done;
  ignore (C.run cl);
  let b = C.total_breakdown cl in
  Alcotest.(check bool) "task time positive" true (b.Shasta.Breakdown.task > 0.0);
  Alcotest.(check bool) "write stall occurred" true (b.Shasta.Breakdown.write >= 0.0);
  Alcotest.(check bool) "total positive" true (Shasta.Breakdown.total b > 0.0)

(* --- the API-mode access contract ---

   One checked access at a time, in a fresh 2-node cluster, on a private
   address, on a shared line the process already holds exclusive, or on
   a shared line homed on the other node that it has never touched.  The
   same access can be issued through [alpha_runtime]'s callbacks, the
   way the interpreter runs instrumented code. *)

type where = Private | Hit | Miss

(* What the home writes before the access.  Its low word has the top bit
   set, so a W32 load must sign-extend it. *)
let home_word = 0x1122334499AABBCCL
let stored_word = 0x0102030455667788L
let as_loaded w v = match w with Alpha.Insn.W32 -> Int64.of_int32 (Int64.to_int32 v) | W64 -> v

(* Cycles the inline code of one access costs, from the cost table. *)
let inline_cycles (c : Cfg.check_costs) ~store ~batched where =
  if batched then c.Cfg.access_cycles + 1
  else
    match where with
    | Private -> c.Cfg.access_cycles
    | Hit | Miss ->
        c.Cfg.access_cycles + if store then c.Cfg.store_check_cycles else c.Cfg.load_check_cycles

type observed = {
  value : int64;  (** a load's result; after a store, the word read back *)
  cycles : int;  (** work time the access added, in cycles *)
  reads : int;  (** read misses it counted *)
  stores : int;  (** store misses it counted *)
  count : int;  (** API-mode accesses it counted *)
}

let access_once ?(checks = Cfg.default_check_costs) ?(ir = false) ~store ~batched where w =
  let cfg = { (small_cfg ~nodes:2 ~cpus:1 ()) with Cfg.checks } in
  let cl = C.create cfg in
  let a = C.alloc ~granularity:64 cl 64 in
  Protocol.Engine.set_home (C.protocol_engine cl) ~addr:a ~len:64 ~domain:1;
  let addr = match where with Private -> 0x100 | Hit | Miss -> a in
  let kind = if store then Alpha.Insn.Store_acc else Alpha.Insn.Load_acc in
  let seen = ref None in
  ignore
    (C.spawn cl ~cpu:1 "home" (fun h ->
         R.store h a Alpha.Insn.W64 home_word;
         R.barrier h ~id:1 ~parties:2;
         R.barrier h ~id:2 ~parties:2));
  ignore
    (C.spawn cl ~cpu:0 "tester" (fun h ->
         R.barrier h ~id:1 ~parties:2;
         if where <> Miss then begin
           R.store h addr Alpha.Insn.W64 home_word;
           R.mb h
         end;
         let rt = R.alpha_runtime h in
         let checked_load () = rt.Alpha.Runtime.load_check (rt.load addr w) addr w in
         let access () =
           match (ir, store) with
           | false, false -> if batched then R.load_batched h addr w else R.load h addr w
           | false, true ->
               if batched then R.store_batched h addr w stored_word
               else R.store h addr w stored_word;
               0L
           | true, _ ->
               if batched then rt.batch_check [ (addr, w, kind) ]
               else if store then rt.store_check addr w;
               if store then begin
                 rt.store addr w stored_word;
                 0L
               end
               else checked_load ()
         in
         R.flush h;
         let st = R.pstats h in
         let t0 = h.R.proc.Sim.Proc.work_time and r0 = st.Protocol.Engine.read_misses in
         let s0 = st.Protocol.Engine.store_misses and n0 = R.accesses h in
         let v = access () in
         R.flush h;
         let dt = h.R.proc.Sim.Proc.work_time -. t0 in
         let obs =
           {
             value = v;
             cycles = int_of_float (Float.round (dt *. cfg.Cfg.cpu_hz));
             reads = st.Protocol.Engine.read_misses - r0;
             stores = st.Protocol.Engine.store_misses - s0;
             count = R.accesses h - n0;
           }
         in
         R.mb h;
         let value = if not store then v else if ir then checked_load () else R.load h addr w in
         seen := Some { obs with value };
         R.barrier h ~id:2 ~parties:2));
  ignore (C.run cl);
  match !seen with Some o -> o | None -> Alcotest.fail "tester did not finish"

(* Every case: load and store, W32 and W64, plain and batch-covered, on
   each kind of address. *)
let access_cases =
  List.concat_map
    (fun store ->
      List.concat_map
        (fun w ->
          List.concat_map
            (fun batched ->
              List.map (fun where -> (store, w, batched, where)) [ Private; Hit; Miss ])
            [ false; true ])
        [ Alpha.Insn.W32; Alpha.Insn.W64 ])
    [ false; true ]

let case_name (store, w, batched, where) =
  Printf.sprintf "%s%s %s %s"
    (if store then "store" else "load")
    (if batched then "_batched" else "")
    (match w with Alpha.Insn.W32 -> "W32" | W64 -> "W64")
    (match where with Private -> "private" | Hit -> "hit" | Miss -> "miss")

let test_api_access_contract () =
  (* A second cost table, every inline cost larger, separates the inline
     charge from the protocol's own work time on a miss. *)
  let big =
    {
      Cfg.default_check_costs with
      Cfg.access_cycles = 20;
      load_check_cycles = 30;
      store_check_cycles = 70;
    }
  in
  List.iter
    (fun ((store, w, batched, where) as case) ->
      let name = case_name case in
      let o = access_once ~store ~batched where w in
      let o_big = access_once ~checks:big ~store ~batched where w in
      let want = as_loaded w (if store then stored_word else home_word) in
      Alcotest.(check int64) (name ^ ": value") want o.value;
      Alcotest.(check int64) (name ^ ": value, larger costs") want o_big.value;
      Alcotest.(check int) (name ^ ": accesses counted") 1 o.count;
      let c = inline_cycles Cfg.default_check_costs ~store ~batched where in
      let c_big = inline_cycles big ~store ~batched where in
      if where = Miss then
        Alcotest.(check int)
          (name ^ ": inline cycles over the miss")
          (c_big - c) (o_big.cycles - o.cycles)
      else begin
        Alcotest.(check int) (name ^ ": cycles") c o.cycles;
        Alcotest.(check int) (name ^ ": cycles, larger costs") c_big o_big.cycles
      end;
      let miss = where = Miss in
      Alcotest.(check int) (name ^ ": read misses") (if miss && not store then 1 else 0) o.reads;
      Alcotest.(check int) (name ^ ": store misses") (if miss && store then 1 else 0) o.stores)
    access_cases

let test_ir_callbacks_match_api () =
  List.iter
    (fun ((store, w, batched, where) as case) ->
      let name = case_name case in
      let api = access_once ~store ~batched where w in
      let ir = access_once ~ir:true ~store ~batched where w in
      Alcotest.(check int64) (name ^ ": value") api.value ir.value;
      Alcotest.(check int) (name ^ ": read misses") api.reads ir.reads;
      Alcotest.(check int) (name ^ ": store misses") api.stores ir.stores)
    access_cases

(* --- IR mode: transparent execution of instrumented binaries --- *)

let lock_counter_program =
  (* main(a0 = lock, a1 = counter, a2 = iterations): the paper's Figure 1
     acquire loop around a read-modify-write of the counter. *)
  Alpha.Asm.(
    program
      [
        proc "main"
          [
            label "outer";
            (* acquire *)
            label "try_again";
            ll W32 t0 0 a0;
            bne t0 "try_again";
            li t0 1L;
            sc W32 t0 0 a0;
            beq t0 "try_again";
            mb;
            (* critical section *)
            ldq t1 0 a1;
            addi t1 1 t1;
            stq t1 0 a1;
            (* release *)
            mb;
            stl zero 0 a0;
            subi a2 1 a2;
            bgt a2 "outer";
            halt;
          ];
      ])

let test_instrumented_binary_runs_transparently () =
  let instrumented, stats = Rewrite.Instrument.instrument lock_counter_program in
  Alcotest.(check bool) "LL/SC pair recognised" true
    (stats.Rewrite.Instrument.llsc_pairs >= 1);
  let cl = C.create (small_cfg ()) in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  let iters = 15 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "cpu" (fun h ->
           ignore
             (R.run_program h instrumented ~entry:"main"
                ~args:[ Int64.of_int lockw; Int64.of_int counter; Int64.of_int iters ]
                ())))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "shared counter fully incremented" (4 * iters)
    (Int64.to_int (read_valid cl counter))

let test_uninstrumented_binary_reads_flags () =
  (* Without the inserted checks, a binary that loads remote shared data
     observes the invalid-flag value: transparency genuinely depends on
     the rewriter. *)
  let prog =
    Alpha.Asm.(program [ proc "main" [ ldq v0 0 a0; halt ] ])
  in
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let seen = ref 0L in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 77) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        let outcome = R.run_program h prog ~entry:"main" ~args:[ Int64.of_int a ] () in
        seen := outcome.Alpha.Interp.r0)
  in
  (* Make node 1's copy invalid: home everything at node 0. *)
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check int64) "flag value observed"
    (Protocol.Config.flag_value Cfg.default.Cfg.protocol Alpha.Insn.W64)
    !seen

let test_instrumented_same_program_reads_correctly () =
  let prog =
    Alpha.Asm.(program [ proc "main" [ ldq v0 0 a0; halt ] ])
  in
  let instrumented, _ = Rewrite.Instrument.instrument prog in
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let seen = ref 0L in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 77) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        let outcome = R.run_program h instrumented ~entry:"main" ~args:[ Int64.of_int a ] () in
        seen := outcome.Alpha.Interp.r0)
  in
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check int64) "instrumented binary sees the real value" 77L !seen

let suite =
  [
    Alcotest.test_case "cross-node store/load" `Quick test_cross_node_store_load;
    Alcotest.test_case "MP lock mutual exclusion" `Quick test_mp_lock_mutual_exclusion;
    Alcotest.test_case "MP barrier phases" `Quick test_mp_barrier_phases;
    Alcotest.test_case "atomic add" `Quick test_atomic_add;
    Alcotest.test_case "SM lock mutual exclusion" `Quick test_sm_lock_mutual_exclusion;
    Alcotest.test_case "SM barrier" `Quick test_sm_barrier;
    Alcotest.test_case "checking overhead" `Quick test_checking_overhead;
    Alcotest.test_case "breakdown sane" `Quick test_breakdown_sane;
    Alcotest.test_case "API load/store: value, cycles, misses" `Quick test_api_access_contract;
    Alcotest.test_case "IR callbacks match API load/store" `Quick test_ir_callbacks_match_api;
    Alcotest.test_case "instrumented binary transparent" `Quick
      test_instrumented_binary_runs_transparently;
    Alcotest.test_case "uninstrumented binary reads flags" `Quick
      test_uninstrumented_binary_reads_flags;
    Alcotest.test_case "instrumented read correct" `Quick
      test_instrumented_same_program_reads_correctly;
  ]
