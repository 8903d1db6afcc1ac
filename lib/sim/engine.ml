(** Discrete-event simulation core: a virtual clock and an event store.

    Events are thunks fired in [(time, insertion-order)] order, so the
    whole simulation is deterministic.  Everything above this module
    (CPUs, processes, the network, the coherence protocol) is expressed
    as events.

    The event store has three parts, and the next event is the least
    [(time, seq)] among their heads, so splitting it changes no firing
    order:

    - An index-only binary min-heap.  Its arrays hold only unboxed data
      — [float] times, [int] sequence numbers and [int] payload slots —
      so a sift moves no pointer and pays no write barrier.  An event's
      label and run thunk are written once, at push, into slot-indexed
      payload arrays.
    - The same-instant lane: a FIFO ring of the events due at exactly
      [now] (after any jitter draw).  A process's next step after a
      [Work] effect and a signal's waiter wake-ups are such zero-delay
      events, 41–55% of all events on the serving and LU workloads;
      they never enter the heap.  Lane entries carry increasing [seq]s
      and the clock cannot advance past them, so the lane head is the
      least of them and only a heap root or timer also due at [now],
      with a smaller [seq], can precede it.
    - Re-armable one-shot {!timer}s.  A timer has at most one pending
      firing; [arm]ing it again removes the earlier one instead of
      leaving a no-op behind.  An arm draws its [seq] (and, under a
      jittered schedule, its delay) exactly as [at] would, so the timer
      fires at the [(time, seq)] position the equivalent heap event
      would have had.  [Sim.Proc] keeps one per CPU for the quantum-end
      preempt of a spin-waiting process, which as a heap event was
      nearly always dead before it fired yet stayed queued up to a
      quantum ahead.

    Lane entries and armed timers count wherever the heap does:
    [run ~until], the [max_events] budget, quiescence, [step], [pending]
    and [Past_event].  Under the default [Fifo] schedule firing builds
    no tie set; the other schedules gather the due entries of all three
    parts, merged by [seq], into one array-based tie buffer reused
    across fires, and queue the entries not chosen again with their own
    [(time, seq)].

    The [schedule] policy chosen at [create] controls how same-time ties
    are broken.  [Fifo] (the default) fires ties in insertion order and
    is bit-identical to the historical behaviour; the other policies
    exist for the model checker in [lib/check], which reruns scenarios
    under many legal schedules.

    Every event optionally carries a {!label} — who the event belongs to
    (a node), which coherence block it touches, and what kind of thing
    it is.  The labels change nothing about execution; they exist so
    that a {!Guided} scheduler (the DPOR explorer) can see the
    dependency footprint of each runnable event. *)

(** What an event may touch, conservatively.  [-1] means "unknown /
    all": an unlabeled event must be treated as dependent with every
    other event. *)
type label = {
  lbl_node : int;  (** node whose local state the event mutates; -1 = unknown *)
  lbl_block : int;  (** coherence block the event touches; -1 = none *)
  lbl_kind : kind;
}

and kind =
  | Generic  (** unclassified (the conservative default) *)
  | Proc_step  (** a CPU scheduler step: dispatch, work slice, preempt timer *)
  | Message  (** a network message delivery at its destination node *)
  | Wakeup  (** a signal waiter waking a stalled process *)
  | Timer  (** a transport retransmit or other timeout *)

let no_label = { lbl_node = -1; lbl_block = -1; lbl_kind = Generic }

(** [dependent a b] — may the firing order of two {e same-time} events
    affect the simulation?  Conservative: unknown labels conflict with
    everything; otherwise events conflict when they share a node (both
    mutate that node's scheduler/mailbox state) or a block (both touch
    that block's coherence state, possibly at different nodes).  Two
    events on different nodes touching no common block commute: each
    only mutates its own node's state and appends to the global event
    heap, and heap insertion order within a tie-set is itself a
    scheduling decision re-exposed at the next choice point. *)
let dependent a b =
  let unknown l = l.lbl_node < 0 && l.lbl_block < 0 in
  if unknown a || unknown b then true
  else
    (a.lbl_node >= 0 && a.lbl_node = b.lbl_node)
    || (a.lbl_block >= 0 && a.lbl_block = b.lbl_block)

(** A runnable event as presented to a {!Guided} scheduler: its
    footprint plus a stable identity ([ch_seq] is the insertion sequence
    number, unchanged when a deferred event is pushed back for the next
    choice point — so an explorer can track one event across the
    successive choice points of a tie group). *)
type choice = { ch_label : label; ch_seq : int }

type schedule =
  | Fifo  (** insertion order; the historical deterministic default *)
  | Seeded of int
      (** every same-time tie-set is permuted by a splitmix64 stream
          derived from the seed; a given seed is fully reproducible *)
  | Jittered of { seed : int; prob : float; max_delay : float }
      (** like [Seeded], plus each [at] independently delays the event
          by a uniform amount in [0, max_delay] with probability [prob]
          (delays only — events never fire earlier than requested) *)
  | Guided of (choice array -> int)
      (** [f cands] picks which of the currently-tied events fires next
          (candidates are presented in insertion order, each with its
          identity and dependency footprint).  It is consulted on
          {e every} fire — including singleton tie-sets — so an explorer
          can follow the full fired-event trace.  Out-of-range answers
          fall back to index 0. *)
  | Guided_jittered of {
      seed : int;
      prob : float;
      max_delay : float;
      choose : choice array -> int;
    }
      (** [Guided] plus [Jittered]-style seeded delay injection: lets a
          guided explorer search tie-break orders of runs whose message
          timing is itself perturbed (some races only open under a
          delay).  The delay stream is drawn per [at] call, so replaying
          the same choice prefix reproduces the same delays. *)

type sched_state =
  | S_fifo
  | S_seeded of Rng.t
  | S_jittered of { ties : Rng.t; delays : Rng.t; prob : float; max_delay : float }
  | S_guided of {
      choose : choice array -> int;
      delays : (Rng.t * float * float) option;  (* rng, prob, max_delay *)
    }

(* --- the event store: an index-only heap and a same-instant lane --- *)

(* A binary min-heap over (time, seq) whose arrays hold only unboxed
   data: the sift loops move a float time, an int seq and the int
   payload [slot], so no level of a sift goes through the write barrier.
   An entry's label and run thunk are written once, at push, into
   [s_label]/[s_run] at its slot.  All the arrays share one capacity,
   and the slots not in use are stacked in
   [s_free.(0 .. capacity - q_size - 1)]. *)
type eheap = {
  mutable q_time : float array;
  mutable q_seq : int array;
  mutable q_slot : int array;
  mutable q_size : int;
  mutable s_label : label array;
  mutable s_run : (unit -> unit) array;
  mutable s_free : int array;
}

let nop () = ()

let q_create () =
  {
    q_time = [||];
    q_seq = [||];
    q_slot = [||];
    q_size = 0;
    s_label = [||];
    s_run = [||];
    s_free = [||];
  }

(* Called when full, so every old slot is in use and the new ones are
   all free. *)
let q_grow h =
  let cap = Array.length h.q_time in
  let cap' = if cap = 0 then 64 else cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  h.q_time <- extend h.q_time 0.0;
  h.q_seq <- extend h.q_seq 0;
  h.q_slot <- extend h.q_slot 0;
  h.s_label <- extend h.s_label no_label;
  h.s_run <- extend h.s_run nop;
  h.s_free <- Array.init cap' (fun k -> cap + k)

let q_push h ~time ~seq ~label run =
  if h.q_size = Array.length h.q_time then q_grow h;
  let times = h.q_time and seqs = h.q_seq and slots = h.q_slot in
  let n = h.q_size in
  let slot = h.s_free.(Array.length times - n - 1) in
  h.s_label.(slot) <- label;
  h.s_run.(slot) <- run;
  h.q_size <- n + 1;
  (* Sift up by moving the hole; the new entry is written exactly once. *)
  let i = ref n in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < times.(p) || (time = times.(p) && seq < seqs.(p)) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* The minimum entry's payload; [q_time.(0)] and [q_seq.(0)] are its key. *)
let[@inline] q_root_label h = h.s_label.(h.q_slot.(0))
let[@inline] q_root_run h = h.s_run.(h.q_slot.(0))

(* Remove the minimum entry; callers read the root first.  Its run thunk
   is cleared so a popped closure does not outlive its firing. *)
let q_drop h =
  let n = h.q_size - 1 in
  h.q_size <- n;
  let times = h.q_time and seqs = h.q_seq and slots = h.q_slot in
  let root = slots.(0) in
  h.s_run.(root) <- nop;
  h.s_free.(Array.length times - n - 1) <- root;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end

(* The same-instant lane: a FIFO ring, of power-of-two capacity, of the
   events due at exactly [now].  Its entries carry no time and come in
   increasing seq. *)
type lane = {
  mutable l_seq : int array;
  mutable l_label : label array;
  mutable l_run : (unit -> unit) array;
  mutable l_head : int;
  mutable l_len : int;
}

let lane_create () = { l_seq = [||]; l_label = [||]; l_run = [||]; l_head = 0; l_len = 0 }

(* Called when full: the entries are unrolled to start at index 0. *)
let lane_grow l =
  let cap = Array.length l.l_seq in
  let cap' = if cap = 0 then 64 else cap * 2 in
  let unroll a fill =
    Array.init cap' (fun k -> if k < cap then a.((l.l_head + k) land (cap - 1)) else fill)
  in
  l.l_seq <- unroll l.l_seq 0;
  l.l_label <- unroll l.l_label no_label;
  l.l_run <- unroll l.l_run nop;
  l.l_head <- 0

let lane_push l ~seq ~label run =
  if l.l_len = Array.length l.l_seq then lane_grow l;
  let i = (l.l_head + l.l_len) land (Array.length l.l_seq - 1) in
  l.l_seq.(i) <- seq;
  l.l_label.(i) <- label;
  l.l_run.(i) <- run;
  l.l_len <- l.l_len + 1

(* Remove the head entry; callers read it first. *)
let lane_drop l =
  let i = l.l_head in
  l.l_run.(i) <- nop;
  l.l_head <- (i + 1) land (Array.length l.l_seq - 1);
  l.l_len <- l.l_len - 1

(* --- re-armable timers --- *)

(** A one-shot timer with at most one pending firing.  It belongs to the
    engine it is armed on. *)
type timer = {
  mutable tm_time : float;
  mutable tm_seq : int;
  mutable tm_label : label;
  mutable tm_run : unit -> unit;
  mutable tm_slot : int;  (** index in the engine's armed set; -1 while idle *)
}

let timer () =
  { tm_time = Float.infinity; tm_seq = max_int; tm_label = no_label; tm_run = nop; tm_slot = -1 }

(* Sentinel for "no timer": it sorts after every event, so the hot loops
   compare against it without a special case.  It is never armed. *)
let never = timer ()

type t = {
  mutable now : float;
  mutable seq : int;
  heap : eheap;
  lane : lane;  (** pending events due at exactly [now] *)
  (* The armed timers, densely packed in [armed.(0 .. n_armed-1)], and
     the earliest of them in (time, seq) order ([never] when none). *)
  mutable armed : timer array;
  mutable n_armed : int;
  mutable first : timer;
  mutable fired : int;
  sched : sched_state;
  (* The tie buffer, reused across fires: same-time entries are popped
     into these parallel arrays instead of a freshly-allocated list. *)
  mutable tb_seq : int array;
  mutable tb_label : label array;
  mutable tb_run : (unit -> unit) array;
  mutable tb_tm : timer array;  (** the entry's timer; [never] for heap and lane entries *)
}

(** Raised by [at] when asked to schedule an event before [now].  The
    payload records where the simulation stood so the offending call
    site can be located from a log alone. *)
exception
  Past_event of { requested : float; now : float; fired : int; pending : int }

let () =
  Printexc.register_printer (function
    | Past_event { requested; now; fired; pending } ->
        Some
          (Printf.sprintf
             "Sim.Engine.Past_event { requested = %.9g; now = %.9g; fired = \
              %d; pending = %d }"
             requested now fired pending)
    | _ -> None)

let create ?(schedule = Fifo) () =
  let sched =
    match schedule with
    | Fifo -> S_fifo
    | Seeded seed -> S_seeded (Rng.create seed)
    | Jittered { seed; prob; max_delay } ->
        let ties = Rng.create seed in
        S_jittered { ties; delays = Rng.split ties; prob; max_delay }
    | Guided f -> S_guided { choose = f; delays = None }
    | Guided_jittered { seed; prob; max_delay; choose } ->
        S_guided { choose; delays = Some (Rng.create seed, prob, max_delay) }
  in
  {
    now = 0.0;
    seq = 0;
    heap = q_create ();
    lane = lane_create ();
    armed = [||];
    n_armed = 0;
    first = never;
    fired = 0;
    sched;
    tb_seq = [||];
    tb_label = [||];
    tb_run = [||];
    tb_tm = [||];
  }

let now t = t.now
let events_fired t = t.fired
let pending t = t.heap.q_size + t.lane.l_len + t.n_armed

let[@inline] check_future t time =
  if time < t.now then
    raise (Past_event { requested = time; now = t.now; fired = t.fired; pending = pending t })

(* The time an event requested for [time] actually fires at: under a
   jittered schedule each call draws from the delay stream.  Left out of
   line on purpose: returning [time] itself spares [at] re-boxing it for
   [q_push], one float allocation per event. *)
let jitter t time =
  match t.sched with
  | S_jittered { delays; prob; max_delay; _ }
  | S_guided { delays = Some (delays, prob, max_delay); _ }
    when prob > 0.0 && Rng.float delays 1.0 < prob ->
      time +. Rng.float delays max_delay
  | _ -> time

(* Queue an event: one due at exactly [now] joins the lane (its seq is
   the largest yet), any other the heap. *)
let[@inline] push t ~time ~seq ~label run =
  if time = t.now then lane_push t.lane ~seq ~label run
  else q_push t.heap ~time ~seq ~label run

(** [at t ?label time f] schedules [f] to fire at absolute [time].
    Requires [time >= now t].  [label] (default: unknown) declares the
    event's dependency footprint for {!Guided} exploration. *)
let at t ?(label = no_label) time f =
  check_future t time;
  let time = jitter t time in
  let seq = t.seq in
  t.seq <- seq + 1;
  push t ~time ~seq ~label f

(* [a] fires before [b]. *)
let[@inline] earlier a b = a.tm_time < b.tm_time || (a.tm_time = b.tm_time && a.tm_seq < b.tm_seq)

let refresh_first t =
  let f = ref never in
  for k = 0 to t.n_armed - 1 do
    if earlier t.armed.(k) !f then f := t.armed.(k)
  done;
  t.first <- !f

let disarm t tm =
  let k = tm.tm_slot in
  let last = t.n_armed - 1 in
  let moved = t.armed.(last) in
  t.armed.(k) <- moved;
  moved.tm_slot <- k;
  t.armed.(last) <- never;
  t.n_armed <- last;
  tm.tm_slot <- -1;
  tm.tm_run <- nop;
  if t.first == tm then refresh_first t

(** [arm t tm ?label ?keep time f] gives [tm] the pending firing [f] at
    [time], under the same rules as [at t ?label time f] (past times
    raise [Past_event]; jittered schedules delay it; it takes the next
    sequence number).  A firing [tm] already has is removed — unless
    [keep] is set and that firing comes no later than the new one, in
    which case it stays and the new one is dropped. *)
let arm t tm ?(label = no_label) ?(keep = false) time f =
  check_future t time;
  let time = jitter t time in
  let seq = t.seq in
  t.seq <- seq + 1;
  if not (keep && tm.tm_slot >= 0 && tm.tm_time <= time) then begin
    tm.tm_time <- time;
    tm.tm_seq <- seq;
    tm.tm_label <- label;
    tm.tm_run <- f;
    if tm.tm_slot < 0 then begin
      if t.n_armed = Array.length t.armed then begin
        let a = Array.make (max 8 (2 * t.n_armed)) never in
        Array.blit t.armed 0 a 0 t.n_armed;
        t.armed <- a
      end;
      t.armed.(t.n_armed) <- tm;
      tm.tm_slot <- t.n_armed;
      t.n_armed <- t.n_armed + 1
    end;
    if t.first == tm then refresh_first t
    else if earlier tm t.first then t.first <- tm
  end

(* The first armed timer comes before the heap root. *)
let[@inline] timer_next t =
  let tm = t.first in
  tm != never
  &&
  let h = t.heap in
  h.q_size = 0
  || tm.tm_time < h.q_time.(0)
  || (tm.tm_time = h.q_time.(0) && tm.tm_seq < h.q_seq.(0))

(* Where the next pending event is. *)
type source = Nothing | From_lane | From_heap | From_timer

(* The least (time, seq) among the lane head, the heap root and the
   first armed timer.  The lane head is due at [now], before which
   nothing is pending, so only a heap root or a timer also due at [now],
   with a smaller seq, can precede it. *)
let[@inline] next_source t =
  let l = t.lane in
  if l.l_len > 0 then begin
    let h = t.heap and tm = t.first in
    let s = l.l_seq.(l.l_head) in
    let heap_first = h.q_size > 0 && h.q_time.(0) = t.now && h.q_seq.(0) < s in
    let s = if heap_first then h.q_seq.(0) else s in
    if tm.tm_time = t.now && tm.tm_seq < s then From_timer
    else if heap_first then From_heap
    else From_lane
  end
  else if timer_next t then From_timer
  else if t.heap.q_size > 0 then From_heap
  else Nothing

(* The next event, from [src], is later than [until]. *)
let[@inline] due_after t src until =
  match src with
  | Nothing -> false
  | From_lane -> t.now > until
  | From_heap -> t.heap.q_time.(0) > until
  | From_timer -> t.first.tm_time > until

let fire_timer t tm =
  t.now <- tm.tm_time;
  t.fired <- t.fired + 1;
  let run = tm.tm_run in
  disarm t tm;
  run ()

(* A lane entry is due now: the clock stays where it is. *)
let[@inline] fire_lane t =
  let l = t.lane in
  t.fired <- t.fired + 1;
  let run = l.l_run.(l.l_head) in
  lane_drop l;
  run ()

let[@inline] fire_root t =
  let h = t.heap in
  t.now <- h.q_time.(0);
  t.fired <- t.fired + 1;
  let run = q_root_run h in
  q_drop h;
  run ()

let[@inline] fire t = function
  | Nothing -> ()
  | From_lane -> fire_lane t
  | From_heap -> fire_root t
  | From_timer -> fire_timer t t.first

(** [after t ?label dt f] schedules [f] to fire [dt] seconds from now. *)
let after t ?label dt f = at t ?label (now t +. dt) f

(* --- tie-set machinery (non-Fifo schedules) --- *)

let tb_ensure t n =
  if Array.length t.tb_seq < n then begin
    let cap = max 16 (2 * n) in
    let seq' = Array.make cap 0 in
    let label' = Array.make cap no_label in
    let run' = Array.make cap nop in
    let tm' = Array.make cap never in
    Array.blit t.tb_seq 0 seq' 0 (Array.length t.tb_seq);
    Array.blit t.tb_label 0 label' 0 (Array.length t.tb_label);
    Array.blit t.tb_run 0 run' 0 (Array.length t.tb_run);
    Array.blit t.tb_tm 0 tm' 0 (Array.length t.tb_tm);
    t.tb_seq <- seq';
    t.tb_label <- label';
    t.tb_run <- run';
    t.tb_tm <- tm'
  end

let tb_set t j ~seq ~label ~run ~tm =
  t.tb_seq.(j) <- seq;
  t.tb_label.(j) <- label;
  t.tb_run.(j) <- run;
  t.tb_tm.(j) <- tm

(* Add an entry to the tie buffer's first [n], at its seq position. *)
let tb_insert t n ~seq ~label ~run ~tm =
  tb_ensure t (n + 1);
  let j = ref n in
  while !j > 0 && t.tb_seq.(!j - 1) > seq do
    let i = !j - 1 in
    tb_set t !j ~seq:t.tb_seq.(i) ~label:t.tb_label.(i) ~run:t.tb_run.(i) ~tm:t.tb_tm.(i);
    j := i
  done;
  tb_set t !j ~seq ~label ~run ~tm

(* Gather every event due at exactly the next event's time into the tie
   buffer, in seq order: the heap's ties, then the lane (non-empty only
   when that time is [now]), then the due timers, each inserted by seq.
   Heap and lane entries leave their store; timers stay armed until one
   is fired.  Returns (time, count). *)
let pop_ties t =
  let h = t.heap and l = t.lane in
  let time =
    match next_source t with
    | From_lane -> t.now
    | From_heap -> h.q_time.(0)
    | From_timer | Nothing -> t.first.tm_time
  in
  let n = ref 0 in
  while h.q_size > 0 && h.q_time.(0) = time do
    tb_insert t !n ~seq:h.q_seq.(0) ~label:(q_root_label h) ~run:(q_root_run h) ~tm:never;
    q_drop h;
    incr n
  done;
  while l.l_len > 0 do
    let i = l.l_head in
    tb_insert t !n ~seq:l.l_seq.(i) ~label:l.l_label.(i) ~run:l.l_run.(i) ~tm:never;
    lane_drop l;
    incr n
  done;
  for k = 0 to t.n_armed - 1 do
    let tm = t.armed.(k) in
    if tm.tm_time = time then begin
      tb_insert t !n ~seq:tm.tm_seq ~label:tm.tm_label ~run:tm.tm_run ~tm;
      incr n
    end
  done;
  (time, !n)

(* Fire tie [i], queueing the other heap and lane entries again with
   their own [(time, seq)] so a later pop sees them in unchanged
   relative order.  The lane is empty here ([pop_ties] took it all), so
   entries due [now] re-enter it in seq order. *)
let fire_choice t time n i =
  for j = 0 to n - 1 do
    if j <> i && t.tb_tm.(j) == never then
      push t ~time ~seq:t.tb_seq.(j) ~label:t.tb_label.(j) t.tb_run.(j)
  done;
  let tm = t.tb_tm.(i) in
  if tm != never then fire_timer t tm
  else begin
    t.now <- time;
    t.fired <- t.fired + 1;
    let run = t.tb_run.(i) in
    run ()
  end

(** [step t] fires one pending event — the earliest, with same-time ties
    broken by the schedule policy.  Returns [false] when nothing is
    pending. *)
let step t =
  if pending t = 0 then false
  else begin
    (match t.sched with
    | S_fifo -> fire t (next_source t)
    | S_seeded rng | S_jittered { ties = rng; _ } ->
        let time, n = pop_ties t in
        if n = 1 then fire_choice t time 1 0
        else fire_choice t time n (Rng.int rng n)
    | S_guided { choose = f; _ } ->
        let time, n = pop_ties t in
        let cands =
          Array.init n (fun j -> { ch_label = t.tb_label.(j); ch_seq = t.tb_seq.(j) })
        in
        let i = f cands in
        fire_choice t time n (if i < 0 || i >= n then 0 else i));
    true
  end

(** [run ?until ?max_events t] fires events until nothing is pending,
    the clock passes [until], or [max_events] have fired.  Returns the
    reason the run stopped. *)
type stop_reason = Quiescent | Deadline | Event_budget

let run ?until ?max_events t =
  let fired0 = t.fired in
  let until_v = match until with None -> Float.infinity | Some d -> d in
  let budget = match max_events with None -> max_int | Some m -> m in
  let reason = ref Quiescent in
  let continue = ref true in
  (match t.sched with
  | S_fifo ->
      (* The hot loop: no allocation per event — the deadline check reads
         the next event's time directly and firing pops in place.  With
         the lane empty and no timer armed, finding the next event is
         one length test and one pointer compare. *)
      while !continue do
        let src = next_source t in
        if due_after t src until_v then begin
          t.now <- Float.max t.now until_v;
          reason := Deadline;
          continue := false
        end
        else if t.fired - fired0 >= budget then begin
          reason := Event_budget;
          continue := false
        end
        else
          match src with
          | Nothing ->
              reason := Quiescent;
              continue := false
          | _ -> fire t src
      done
  | _ ->
      while !continue do
        if due_after t (next_source t) until_v then begin
          t.now <- Float.max t.now until_v;
          reason := Deadline;
          continue := false
        end
        else if t.fired - fired0 >= budget then begin
          reason := Event_budget;
          continue := false
        end
        else if not (step t) then begin
          reason := Quiescent;
          continue := false
        end
      done);
  !reason
