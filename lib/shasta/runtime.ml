(** The per-process Shasta runtime.

    Ties together a simulated process, its protocol control block, its
    synchronisation endpoint and its private memory, and exposes:

    - the {e API mode}: [load]/[store]/[work]/[lock]/[barrier]/... used by
      the larger workloads (SPLASH kernels, the database).  Each access
      runs the same inline-check state machine the rewriter would insert,
      with its cycle cost charged (batched and flushed like the inline
      code's instruction stream);
    - the {e IR mode}: [alpha_runtime] builds the {!Alpha.Runtime.t}
      record that lets the interpreter execute rewriter-instrumented
      binaries against this process. *)

module E = Protocol.Engine

(** One traced shared-memory access, as observed by the application:
    loads carry the value returned, stores the value written.  Reported
    through [on_access] for the trace oracle in [lib/check]. *)
type access = {
  acc_pid : int;
  acc_time : float;
  acc_addr : int;
  acc_width : Alpha.Insn.width;
  acc_store : bool;
  acc_value : int64;
}

type t = {
  proc : Sim.Proc.t;
  pcb : E.pcb;
  ep : Sync.endpoint;
  cfg : Config.t;
  sync : Sync.t;
  peng : E.t;
  private_mem : Bytes.t;
  flag_w32 : int64;  (** [Protocol.Config.flag_value] at [W32], precomputed *)
  flag_w64 : int64;  (** [Protocol.Config.flag_value] at [W64], precomputed *)
  img : Protocol.Memimg.t;  (** this process's domain image, cached *)
  shared_lo : int;  (** shared-range bounds, cached as immediates *)
  shared_hi : int;
  c_load : int;  (** cycles charged per checked load, precomputed *)
  c_store : int;  (** cycles charged per checked store *)
  c_batched : int;  (** cycles charged per batch-covered access *)
  mutable acc_cycles : int;
  mutable blocked_time : float;
  mutable accesses : int;  (** shared loads+stores issued in API mode *)
  mutable on_access : (access -> unit) option;
      (** trace hook over API-mode shared accesses (incl. LL/SC);
          [None] (the default) costs nothing *)
}

let flush_threshold = 2048

let flush h =
  if h.acc_cycles > 0 then begin
    Sim.Proc.work (Config.cycles h.cfg h.acc_cycles);
    h.acc_cycles <- 0
  end

let charge_cycles h n =
  h.acc_cycles <- h.acc_cycles + n;
  if h.acc_cycles >= flush_threshold then flush h

(* Protocol routines and system calls set the per-process flag used by
   the direct-downgrade optimisation (Section 4.3.4). *)
let in_protocol h f =
  flush h;
  h.pcb.E.in_app := false;
  match f () with
  | r ->
      h.pcb.E.in_app := true;
      r
  | exception e ->
      h.pcb.E.in_app := true;
      raise e

let create ~cfg ~peng ~sync (proc : Sim.Proc.t) =
  let pcb = E.attach peng proc in
  let checks = cfg.Config.checks in
  let access = checks.Config.access_cycles in
  (* An inline check's cycles, charged only when checks are on. *)
  let checked n = if cfg.Config.checks_enabled then n else 0 in
  let ep = Sync.register sync ~pid:proc.Sim.Proc.pid ~node:proc.Sim.Proc.cpu.Sim.Proc.node_id in
  let h =
    {
      proc;
      pcb;
      ep;
      cfg;
      sync;
      peng;
      private_mem = Bytes.make cfg.Config.private_mem_size '\000';
      flag_w32 = Protocol.Config.flag_value cfg.Config.protocol Alpha.Insn.W32;
      flag_w64 = Protocol.Config.flag_value cfg.Config.protocol Alpha.Insn.W64;
      img = pcb.E.dom.E.img;
      shared_lo = cfg.Config.protocol.Protocol.Config.shared_base;
      shared_hi =
        cfg.Config.protocol.Protocol.Config.shared_base
        + cfg.Config.protocol.Protocol.Config.shared_size;
      c_load = access + checked checks.Config.load_check_cycles;
      c_store = access + checked checks.Config.store_check_cycles;
      c_batched = access + checked 1;
      acc_cycles = 0;
      blocked_time = 0.0;
      accesses = 0;
      on_access = None;
    }
  in
  let node = proc.Sim.Proc.cpu.Sim.Proc.node_id in
  proc.Sim.Proc.on_poll <- (fun _ -> E.service pcb +. Sync.service sync ~node);
  h

let pid h = h.proc.Sim.Proc.pid
let node h = h.proc.Sim.Proc.cpu.Sim.Proc.node_id

let trace_access h ~store addr w v =
  match h.on_access with
  | None -> ()
  | Some f ->
      f
        {
          acc_pid = pid h;
          acc_time = Sim.Engine.now (Mchan.Net.engine (E.net h.peng));
          acc_addr = addr;
          acc_width = w;
          acc_store = store;
          acc_value = v;
        }
let is_shared h addr = addr >= h.shared_lo && addr < h.shared_hi

(* The miss-flag bit pattern for a width, without recomputing the 64-bit
   replication per access. *)
let flag h (w : Alpha.Insn.width) =
  match w with Alpha.Insn.W32 -> h.flag_w32 | Alpha.Insn.W64 -> h.flag_w64

(** [layout h] — the region layout of the shared address space (block
    extents vary by region; consumers must not assume a fixed line). *)
let layout h = E.layout h.peng

(* --- private memory --- *)

let private_read h addr (w : Alpha.Insn.width) =
  match w with
  | Alpha.Insn.W32 -> Int64.of_int32 (Bytes.get_int32_le h.private_mem addr)
  | Alpha.Insn.W64 -> Bytes.get_int64_le h.private_mem addr

let private_write h addr (w : Alpha.Insn.width) v =
  match w with
  | Alpha.Insn.W32 -> Bytes.set_int32_le h.private_mem addr (Int64.to_int32 v)
  | Alpha.Insn.W64 -> Bytes.set_int64_le h.private_mem addr v

(* --- the inline-check state machine ---

   The checks the rewriter inserts (Section 2.2, 3.1), one helper each.
   API mode wraps them with the access itself and its cycle charge; IR
   mode ([alpha_runtime]) hands them to the interpreter as the pseudo-
   instruction callbacks.  All take a shared address. *)

(* The protocol entries stay out of line, so that the checks inline into
   the accesses. *)
let load_miss h addr w = in_protocol h (fun () -> E.load_miss h.pcb addr w)
let store_miss h addr = in_protocol h (fun () -> E.store_miss h.pcb addr)

(** [load_check h addr w v] — the flag comparison after a shared load
    that returned [v]: on a match, the protocol tells a false miss from
    a real one and returns the definitive value. *)
let[@inline] load_check h addr w v = if v = flag h w then load_miss h addr w else v

(** [store_check h addr] — the state-table check before a shared store:
    enter the protocol unless the line is already exclusive. *)
let[@inline] store_check h addr =
  match E.private_state h.pcb addr with
  | Protocol.Ptypes.Exclusive -> ()
  | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
      store_miss h addr

(** [batch_check h accesses] — the combined check for a run of
    accesses: the protocol is entered only when some shared line is not
    in the needed state.  The inline part runs without suspension, so
    the decision cannot go stale before the batched code that follows. *)
let batch_check h accesses =
  let shared = List.filter (fun (addr, _, _) -> is_shared h addr) accesses in
  let ready (addr, _w, kind) =
    match E.private_state h.pcb addr with
    | Protocol.Ptypes.Exclusive -> true
    | Protocol.Ptypes.Shared -> kind = Alpha.Insn.Load_acc
    | Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending -> false
  in
  if shared <> [] && not (List.for_all ready shared) then
    in_protocol h (fun () -> E.batch h.pcb shared)

(** [ll_check h addr] — before a load-locked: fetch the line if it is
    invalid or pending, and remember its state for the SC. *)
let ll_check h addr = in_protocol h (fun () -> E.ll_ensure h.pcb addr)

(** [sc_check h addr w v] — before a store-conditional: run it in
    hardware, or let the protocol perform (or fail) it (Section 3.1.2). *)
let sc_check h addr w v = in_protocol h (fun () -> E.sc_check h.pcb addr w v)

(* --- API mode: the checked accesses, in function form --- *)

(* The one checked load: raw access, flag comparison, protocol slow path
   on a (possibly false) miss.  Plain and batch-covered loads differ only
   in the cycles charged for a shared ([cycles]) and a private
   ([private_cycles]) address. *)
let[@inline] checked_load h ~cycles ~private_cycles addr w =
  h.accesses <- h.accesses + 1;
  if is_shared h addr then begin
    charge_cycles h cycles;
    let v = load_check h addr w (Protocol.Memimg.read h.img addr w) in
    trace_access h ~store:false addr w v;
    v
  end
  else begin
    charge_cycles h private_cycles;
    private_read h addr w
  end

(* The one checked store: state-table check, then the raw store (which
   the protocol records for replay while a miss is outstanding). *)
let[@inline] checked_store h ~cycles ~private_cycles addr w v =
  h.accesses <- h.accesses + 1;
  if is_shared h addr then begin
    charge_cycles h cycles;
    store_check h addr;
    E.raw_write h.pcb addr w v;
    trace_access h ~store:true addr w v
  end
  else begin
    charge_cycles h private_cycles;
    private_write h addr w v
  end

(** [load h addr w] / [store h addr w v] — a checked access. *)
let[@inline] load h addr w =
  checked_load h ~cycles:h.c_load ~private_cycles:h.cfg.Config.checks.Config.access_cycles addr w

let[@inline] store h addr w v =
  checked_store h ~cycles:h.c_store ~private_cycles:h.cfg.Config.checks.Config.access_cycles
    addr w v

(** [load_batched h addr w] / [store_batched h addr w v] — an access
    whose check a preceding {!batch} covered (Section 2.2): about one
    cycle of amortised inline cost, but the same coherence actions, so a
    line invalidated after the batch is refetched rather than misread. *)
let load_batched h addr w = checked_load h ~cycles:h.c_batched ~private_cycles:h.c_batched addr w

let store_batched h addr w v =
  checked_store h ~cycles:h.c_batched ~private_cycles:h.c_batched addr w v

let load64 h addr = load h addr Alpha.Insn.W64
let store64 h addr v = store h addr Alpha.Insn.W64 v
let load_int h addr = Int64.to_int (load64 h addr)
let store_int h addr v = store64 h addr (Int64.of_int v)
let load_float h addr = Int64.float_of_bits (load64 h addr)
let store_float h addr v = store64 h addr (Int64.bits_of_float v)

(** [work h seconds] — application compute time (polls run inside). *)
let work h seconds =
  flush h;
  if h.cfg.Config.checks_enabled then
    (* Residual checking overhead on private data and polls, folded into
       compute time as a small multiplier; the dominant overheads are the
       per-shared-access charges above. *)
    Sim.Proc.work (seconds *. 1.02)
  else Sim.Proc.work seconds

let work_cycles h n = charge_cycles h n

(** [mb h] — memory barrier: the hardware cost (~0.03 us on the 21164)
    plus, when running under Shasta, the inserted protocol fence. *)
let mb h =
  charge_cycles h 9;
  if h.cfg.Config.checks_enabled || h.pcb.E.n_outstanding_stores > 0 then
    in_protocol h (fun () -> E.mb h.pcb)

(** [batch h accesses] — the combined check for a run of accesses, then
    the accesses themselves.  Like the inserted inline code, the check
    itself is cheap and the protocol is entered only when some line is
    not in the needed state (Section 2.2). *)
let batch h accesses =
  if h.cfg.Config.checks_enabled then
    charge_cycles h (2 + (2 * List.length accesses));
  batch_check h accesses

(* --- MP synchronisation --- *)

let lock h id = in_protocol h (fun () -> Sync.acquire h.sync h.ep id)

(* Release semantics: a lock release or barrier arrival must make every
   outstanding (non-blocking) store globally performed first, exactly as
   the MB in an LL/SC unlock sequence would. *)
let unlock h id =
  in_protocol h (fun () ->
      E.mb h.pcb;
      Sync.release h.sync h.ep id)

let barrier h ~id ~parties =
  in_protocol h (fun () ->
      E.mb h.pcb;
      Sync.barrier h.sync h.ep ~id ~parties)

(* --- transparent (shared-memory) synchronisation via LL/SC --- *)

(* Reclassify protocol stalls incurred inside [f] as synchronisation
   time, the way the paper accounts lock/barrier cost. *)
let as_sync h f =
  let st = E.stats h.pcb in
  let r0 = st.E.read_stall and w0 = st.E.write_stall in
  let r = f () in
  let dr = st.E.read_stall -. r0 and dw = st.E.write_stall -. w0 in
  st.E.read_stall <- r0;
  st.E.write_stall <- w0;
  h.ep.Sync.sync_stall <- h.ep.Sync.sync_stall +. dr +. dw;
  r

(* The API-mode LL/SC pair: check, instruction and their cycles
   (ll_check + ll, sc_check + sc), traced like any other access; a
   failed SC stores nothing and is not traced. *)
let ll h addr w =
  charge_cycles h (3 + 2);
  ll_check h addr;
  let v = E.raw_ll h.pcb addr w in
  trace_access h ~store:false addr w v;
  v

let sc h addr w v =
  charge_cycles h (4 + 2);
  let ok =
    match sc_check h addr w v with
    | Alpha.Runtime.Run_in_hardware -> E.raw_sc h.pcb addr w v
    | Alpha.Runtime.Handled ok -> ok
  in
  if ok then trace_access h ~store:true addr w v;
  ok

(** [atomic_add h addr delta] — LL/SC fetch-and-add through the full
    transparent path (inline checks, prefetch-free).  Returns the old
    value. *)
let atomic_add h addr delta =
  let rec attempt () =
    let v = ll h addr Alpha.Insn.W64 in
    if sc h addr Alpha.Insn.W64 (Int64.add v (Int64.of_int delta)) then Int64.to_int v
    else attempt ()
  in
  attempt ()

(** [sm_lock h addr] — acquire a spin lock at shared address [addr] with
    LL/SC, exactly the Figure 1 loop (with the optional prefetch-
    exclusive of Section 3.1.2 controlled by [prefetch]).  Ends with the
    MB of a lock acquire. *)
let sm_lock ?(prefetch = false) h addr =
  as_sync h (fun () ->
      if prefetch then begin
        charge_cycles h 2;
        in_protocol h (fun () -> E.prefetch_excl h.pcb addr)
      end;
      let pause = ref 2.0e-7 in
      let rec try_again () =
        if ll h addr Alpha.Insn.W32 <> 0L then begin
          (* Lock taken: spin, polling (the loop's inserted poll).  The
             pause backs off to bound the simulator's event rate; the
             added wake latency is well under the protocol round trip. *)
          charge_cycles h h.cfg.Config.checks.Config.poll_cycles;
          flush h;
          Sim.Proc.work !pause;
          pause := Float.min (2.0 *. !pause) 2.0e-6;
          try_again ()
        end
        else if not (sc h addr Alpha.Insn.W32 1L) then try_again ()
      in
      try_again ();
      mb h)

(** [sm_unlock h addr] — release: MB then an ordinary store of zero. *)
let sm_unlock h addr =
  mb h;
  store h addr Alpha.Insn.W32 0L

(** [sm_barrier h ~addr ~parties] — transparent barrier: an atomically
    incremented count (this is what makes Ocean's frequent barriers
    contended in Figure 3) and a generation word spun upon. *)
let sm_barrier h ~addr ~parties =
  as_sync h (fun () ->
      let gen_addr = addr + 8 in
      let my_gen = load h gen_addr Alpha.Insn.W64 in
      let c = atomic_add h addr 1 in
      if c + 1 = parties then begin
        store h addr Alpha.Insn.W64 0L;
        mb h;
        store h gen_addr Alpha.Insn.W64 (Int64.add my_gen 1L);
        mb h
      end
      else begin
        let pause = ref 3.0e-7 in
        let rec spin () =
          if load h gen_addr Alpha.Insn.W64 = my_gen then begin
            charge_cycles h h.cfg.Config.checks.Config.poll_cycles;
            flush h;
            Sim.Proc.work !pause;
            pause := Float.min (2.0 *. !pause) 2.0e-6;
            spin ()
          end
        in
        spin ()
      end)

(* --- blocking (for the OS layer) --- *)

(** [block_for h dt] — the process is blocked (in a syscall or on I/O)
    for [dt] seconds; counted in the "blocked" breakdown category. *)
let block_for h dt =
  flush h;
  h.blocked_time <- h.blocked_time +. dt;
  in_protocol h (fun () -> Sim.Proc.sleep dt)

(** [block_until h pred] — block until [pred] holds (checked when the
    process is explicitly woken). *)
let wakeup h = Sim.Proc.wakeup h.proc

let block h =
  let eng = Mchan.Net.engine (E.net h.peng) in
  let t0 = Sim.Engine.now eng in
  flush h;
  in_protocol h (fun () -> Sim.Proc.block ());
  h.blocked_time <- h.blocked_time +. (Sim.Engine.now eng -. t0)

(* --- measurement --- *)

let breakdown h =
  let st = E.stats h.pcb in
  {
    Breakdown.task = h.proc.Sim.Proc.work_time;
    read = st.E.read_stall;
    write = st.E.write_stall;
    mb = st.E.mb_stall;
    sync = h.ep.Sync.sync_stall;
    blocked = h.blocked_time;
    msg = h.proc.Sim.Proc.msg_time;
  }

let pstats h = E.stats h.pcb

(** Shared loads+stores this process issued in API mode. *)
let accesses h = h.accesses

(** Requests this process re-issued after a bounce off a stale home. *)
let bounces h = (E.stats h.pcb).E.bounces

(* --- IR mode --- *)

(** [alpha_runtime h] — the machine interface for interpreter execution:
    raw accesses hit the node image (or private memory); the pseudo-
    instruction callbacks enter the protocol. *)
let alpha_runtime h =
  {
    Alpha.Runtime.hz = h.cfg.Config.cpu_hz;
    load =
      (fun addr w -> if is_shared h addr then E.raw_read h.pcb addr w else private_read h addr w);
    store =
      (fun addr w v ->
        if is_shared h addr then E.raw_write h.pcb addr w v else private_write h addr w v);
    load_check =
      (fun value addr w -> if is_shared h addr then load_check h addr w value else value);
    store_check = (fun addr _w -> if is_shared h addr then store_check h addr);
    batch_check = batch_check h;
    ll = (fun addr w -> if is_shared h addr then E.raw_ll h.pcb addr w else private_read h addr w);
    sc =
      (fun addr w v ->
        if is_shared h addr then E.raw_sc h.pcb addr w v
        else begin
          private_write h addr w v;
          true
        end);
    ll_check = (fun addr -> if is_shared h addr then ll_check h addr);
    sc_check =
      (fun addr w v ->
        if is_shared h addr then sc_check h addr w v else Alpha.Runtime.Run_in_hardware);
    mb = (fun () -> ());
    mb_check = (fun () -> in_protocol h (fun () -> E.mb h.pcb));
    poll = (fun () -> in_protocol h (fun () -> E.poll h.pcb));
    prefetch_excl =
      (fun addr -> if is_shared h addr then in_protocol h (fun () -> E.prefetch_excl h.pcb addr));
    charge = (fun n -> charge_cycles h n);
    (* MP synchronisation system calls (lock id in a0; barrier id in
       a0, parties in a1) — the IR-mode twin of [lock]/[unlock]/
       [barrier] above, sharing their release/fence semantics. *)
    syscall =
      (fun name regs ->
        let a0 = Int64.to_int regs.(16) and a1 = Int64.to_int regs.(17) in
        if name = Alpha.Runtime.sync_lock_proc then begin
          lock h a0;
          true
        end
        else if name = Alpha.Runtime.sync_unlock_proc then begin
          unlock h a0;
          true
        end
        else if name = Alpha.Runtime.sync_barrier_proc then begin
          barrier h ~id:a0 ~parties:a1;
          true
        end
        else false);
  }

(** [run_program h program ~entry ?args ()] — execute an (instrumented)
    program on this process. *)
let run_program ?max_steps h program ~entry ?args () =
  let rt = alpha_runtime h in
  let outcome = Alpha.Interp.run ?max_steps program rt ~entry ?args () in
  flush h;
  outcome
