(** The simulated cluster: nodes of SMP processors connected by a
    Memory-Channel-like network.

    The Memory Channel gives protected user-level access: a process
    transmits with a simple store to a mapped page (no OS involvement),
    and receivers detect arrival by polling a single cachable location.
    We model that as: constant [one_way_latency] + transmit occupancy on
    the sender's link ({!Link}), delivery into a {!Mailbox} by a callback,
    and a per-node {!Sim.Signal} pulsed on arrival so that stalled
    processes wake exactly at the arrival instant. *)

type coalesce = {
  co_window : float;  (** max time a message may wait for companions, seconds *)
  co_max_msgs : int;  (** flush early at this many queued messages *)
  co_max_bytes : int;  (** flush early at this many queued payload bytes *)
}

(** A window of one one-way latency trades at most one hop of added
    delay for fewer, larger frames — at 64+ nodes the protocol drowns in
    singleton messages otherwise. *)
let default_coalesce = { co_window = 4.0e-6; co_max_msgs = 16; co_max_bytes = 8192 }

type config = {
  nodes : int;
  cpus_per_node : int;
  one_way_latency : float;  (** user process to user process, seconds *)
  bandwidth : float;  (** per-link, bytes/second *)
  intra_node_latency : float;  (** shared-memory message between local processes *)
  quantum : float;  (** OS scheduling quantum *)
  switch_cost : float;  (** context switch cost *)
  coalescing : coalesce option;
      (** per-(src, dst)-link batching of remote messages; [None] (the
          default) is the exact legacy path — every message its own
          frame, bit-identical timing *)
}

(** Constants of the prototype cluster in Section 6.1: four AlphaServer
    4100s (4 x 300 MHz each), 4 us one-way latency, 60 MB/s per link. *)
let default_config =
  {
    nodes = 4;
    cpus_per_node = 4;
    one_way_latency = 4.0e-6;
    bandwidth = 60.0e6;
    intra_node_latency = 1.0e-6;
    quantum = 10.0e-3;
    switch_cost = 25.0e-6;
    coalescing = None;
  }

(* One open batch per directed (src, dst) link: delivers queued newest
   first, flushed by a window timer or by size/count overflow.  The
   generation counter invalidates a timer whose batch was already
   flushed early (and whose slot may since hold a newer batch). *)
type pending = {
  mutable p_delivers : (unit -> unit) list;
  mutable p_count : int;
  mutable p_bytes : int;
  mutable p_deadline : float;
  mutable p_last_at : float;  (** latest sender cursor in the batch *)
  mutable p_gen : int;
  mutable p_open : bool;
}

type t = {
  engine : Sim.Engine.t;
  config : config;
  cpus : Sim.Proc.cpu array array;  (** indexed by node, then local cpu *)
  node_signal : Sim.Signal.t array;
  tx : Link.t array;
  next_pid : int ref;
  msg_label : Sim.Engine.label array;
      (** preallocated per-destination-node delivery label (block -1);
          messages about a specific block still build their own label *)
  pulse_dst : (unit -> unit) array;
      (** preallocated per-destination-node wakeup pulse thunks, so the
          delivery closure captures one value instead of rebuilding it *)
  mutable remote : int;
  mutable local : int;
  mutable batches : int;  (** coalesced frames put on the wire *)
  mutable batched : int;  (** messages those frames carried *)
  pending : (int * int, pending) Hashtbl.t;  (** open batches, by (src, dst) *)
  mutable reliable : Reliable.t option;
      (** installed only under a non-empty fault plan; [None] keeps the
          raw perfectly-reliable path with zero transport overhead *)
}

let create ?(plan = Fault.Plan.empty) ?(reliable_cfg = Reliable.default_config)
    ?(schedule = Sim.Engine.Fifo) config =
  if config.nodes <= 0 || config.cpus_per_node <= 0 then invalid_arg "Net.create";
  let engine = Sim.Engine.create ~schedule () in
  let next_pid = ref 0 in
  let cpus =
    Array.init config.nodes (fun node ->
        Array.init config.cpus_per_node (fun c ->
            Sim.Proc.make_cpu ~engine ~node_id:node
              ~cpu_global_id:((node * config.cpus_per_node) + c)
              ~quantum:config.quantum ~switch_cost:config.switch_cost next_pid))
  in
  let node_signal =
    Array.init config.nodes (fun n ->
        Sim.Signal.create
          ~label:{ Sim.Engine.lbl_node = n; lbl_block = -1; lbl_kind = Sim.Engine.Wakeup }
          engine)
  in
  let tx = Array.init config.nodes (fun _ -> Link.create ~bandwidth:config.bandwidth) in
  let t =
    {
      engine;
      config;
      cpus;
      node_signal;
      tx;
      next_pid;
      msg_label =
        Array.init config.nodes (fun n ->
            { Sim.Engine.lbl_node = n; lbl_block = -1; lbl_kind = Sim.Engine.Message });
      pulse_dst =
        Array.init config.nodes (fun n -> fun () -> Sim.Signal.pulse node_signal.(n));
      remote = 0;
      local = 0;
      batches = 0;
      batched = 0;
      pending = Hashtbl.create 64;
      reliable = None;
    }
  in
  if not (Fault.Plan.is_empty plan) then begin
    let phys ~at ~src_node ~dst_node ~size k =
      let arrival =
        if src_node = dst_node then at +. config.intra_node_latency
        else
          let leaves = Link.transmit t.tx.(src_node) ~now:at ~size in
          leaves +. config.one_way_latency
      in
      Sim.Engine.at engine ~label:t.msg_label.(dst_node) arrival (fun () -> k arrival)
    in
    let pulse node = Sim.Signal.pulse t.node_signal.(node) in
    t.reliable <- Some (Reliable.create ~engine ~plan ~cfg:reliable_cfg ~phys ~pulse)
  end;
  t

let reliable t = t.reliable

let engine t = t.engine
let config t = t.config
let cpu t ~node ~cpu = t.cpus.(node).(cpu)
let node_signal t node = t.node_signal.(node)
let total_cpus t = t.config.nodes * t.config.cpus_per_node

(** [nth_cpu t i] is processor [i] in node-major order (processors 0..3
    are node 0, 4..7 node 1, ...), matching the paper's placement where
    2- and 4-processor runs use one node and 16-processor runs use four. *)
let nth_cpu t i =
  let per = t.config.cpus_per_node in
  t.cpus.(i / per).(i mod per)

(* Put one frame on the wire: through the reliable transport when a
   fault plan is active, raw link + latency otherwise, its delivery
   event labeled [label]. *)
let wire_send t ~label ~at ~src_node ~dst_node ~size deliver =
  match t.reliable with
  | Some r -> Reliable.send r ~at ~src_node ~dst_node ~size deliver
  | None ->
      let leaves = Link.transmit t.tx.(src_node) ~now:at ~size in
      let arrival = leaves +. t.config.one_way_latency in
      let pulse = t.pulse_dst.(dst_node) in
      Sim.Engine.at t.engine ~label arrival (fun () ->
          deliver ();
          pulse ())

(* Close the batch and transmit it as a single frame; the carried
   delivers run back-to-back in FIFO order at the frame's arrival, with
   one pulse for the lot. *)
let flush_batch t ~src_node ~dst_node ~at p =
  p.p_open <- false;
  let delivers = List.rev p.p_delivers in
  p.p_delivers <- [];
  t.batches <- t.batches + 1;
  t.batched <- t.batched + p.p_count;
  wire_send t ~label:t.msg_label.(dst_node) ~at ~src_node ~dst_node ~size:p.p_bytes (fun () ->
      List.iter (fun d -> d ()) delivers)

let coalesced_send t co ~now ~src_node ~dst_node ~size deliver =
  let key = (src_node, dst_node) in
  let p =
    match Hashtbl.find_opt t.pending key with
    | Some p -> p
    | None ->
        let p =
          {
            p_delivers = [];
            p_count = 0;
            p_bytes = 0;
            p_deadline = 0.0;
            p_last_at = 0.0;
            p_gen = 0;
            p_open = false;
          }
        in
        Hashtbl.replace t.pending key p;
        p
  in
  if not p.p_open then begin
    p.p_open <- true;
    p.p_delivers <- [ deliver ];
    p.p_count <- 1;
    p.p_bytes <- size;
    p.p_deadline <- now +. co.co_window;
    p.p_last_at <- now;
    p.p_gen <- p.p_gen + 1;
    let gen = p.p_gen in
    Sim.Engine.at t.engine ~label:t.msg_label.(dst_node) p.p_deadline (fun () ->
        (* A handler's time cursor may have carried a queued message past
           the window deadline; the frame cannot leave before its last
           message was sent. *)
        if p.p_open && p.p_gen = gen then
          flush_batch t ~src_node ~dst_node ~at:(Float.max p.p_deadline p.p_last_at) p)
  end
  else begin
    p.p_delivers <- deliver :: p.p_delivers;
    p.p_count <- p.p_count + 1;
    p.p_bytes <- p.p_bytes + size;
    p.p_last_at <- Float.max p.p_last_at now;
    if p.p_count >= co.co_max_msgs || p.p_bytes >= co.co_max_bytes then
      flush_batch t ~src_node ~dst_node ~at:p.p_last_at p
  end

(* Per-block labels carry the block for the Guided explorer; the common
   blockless case reuses the preallocated per-destination label. *)
let delivery_label t ~dst_node ~block =
  if block < 0 then t.msg_label.(dst_node)
  else { Sim.Engine.lbl_node = dst_node; lbl_block = block; lbl_kind = Sim.Engine.Message }

(** [send t ?at ?block ~src_node ~dst_node ~size deliver] transmits a
    message; [deliver] runs at the arrival time (it should enqueue into
    the right mailbox), after which the destination node's signal is
    pulsed.  [at] defaults to the current time; protocol handlers that
    service several messages back-to-back pass their time cursor.
    [block] declares the coherence block the message concerns (default
    none): the delivery event is labeled with it plus the destination
    node, so a {!Sim.Engine.Guided} explorer can tell which same-time
    deliveries commute. *)
let send t ?at ?(block = -1) ~src_node ~dst_node ~size deliver =
  let now = match at with Some x -> x | None -> Sim.Engine.now t.engine in
  if src_node = dst_node then begin
    (* Intra-node messages move through shared memory, not the Memory
       Channel: the fault model never touches them. *)
    t.local <- t.local + 1;
    let label = delivery_label t ~dst_node ~block in
    let arrival = now +. t.config.intra_node_latency in
    let pulse = t.pulse_dst.(dst_node) in
    Sim.Engine.at t.engine ~label arrival (fun () ->
        deliver ();
        pulse ())
  end
  else begin
    t.remote <- t.remote + 1;
    match t.config.coalescing with
    | Some co -> coalesced_send t co ~now ~src_node ~dst_node ~size deliver
    | None ->
        wire_send t ~label:(delivery_label t ~dst_node ~block) ~at:now ~src_node ~dst_node ~size
          deliver
  end

let remote_messages t = t.remote
let local_messages t = t.local
let batches t = t.batches
let batched_messages t = t.batched
