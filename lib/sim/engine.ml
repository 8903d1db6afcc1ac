(** Discrete-event simulation core: a virtual clock and an event heap.

    Events are thunks fired in [(time, insertion-order)] order, so the
    whole simulation is deterministic.  Everything above this module
    (CPUs, processes, the network, the coherence protocol) is expressed
    as events.

    The event store is a flat structure-of-arrays binary heap: an
    unboxed [float array] of times, an [int array] of sequence numbers,
    and parallel payload arrays for labels and run thunks.  Firing an
    event under the default [Fifo] schedule allocates nothing; the other
    schedules reuse one array-based tie buffer across fires instead of
    building a list per tie-set.  Because [(time, seq)] keys are unique,
    the pop order is independent of the heap's internal layout, so this
    representation is bit-identical to the boxed heap it replaced.

    Beside the heap sit re-armable one-shot {!timer}s.  A timer has at
    most one pending firing; [arm]ing it again removes the earlier one
    instead of leaving a no-op behind.  An arm draws its [seq] (and,
    under a jittered schedule, its delay) exactly as [at] would, so the
    timer fires at the [(time, seq)] position the equivalent heap event
    would have had, and armed timers count wherever the heap does:
    [run ~until], quiescence, [step], [pending] and [Past_event].
    [Sim.Proc] keeps one per CPU for the quantum-end preempt of a
    spin-waiting process.  As heap events those preempts were nearly
    all dead before they fired, yet stayed queued up to a quantum ahead:
    on the minidb serving workload the heap held about 1,480 (8k req/s)
    and 6,770 (48k req/s) events at each fire, against 15.5 for LU on
    16 processors.  With the timers 19 and 14 are pending.

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

let kind_to_string = function
  | Generic -> "generic"
  | Proc_step -> "proc"
  | Message -> "msg"
  | Wakeup -> "wakeup"
  | Timer -> "timer"

let pp_label ppf l =
  Format.fprintf ppf "%s@n%d" (kind_to_string l.lbl_kind) l.lbl_node;
  if l.lbl_block >= 0 then Format.fprintf ppf "/b%d" l.lbl_block

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

(* --- the flat event store --- *)

(* A structure-of-arrays binary min-heap over (time, seq) with label and
   run-thunk payload arrays: the entry record is split across four
   arrays so that push/drop never allocate. *)
type eheap = {
  mutable q_time : float array;
  mutable q_seq : int array;
  mutable q_label : label array;
  mutable q_run : (unit -> unit) array;
  mutable q_size : int;
}

let nop () = ()

let q_create () =
  { q_time = [||]; q_seq = [||]; q_label = [||]; q_run = [||]; q_size = 0 }

let q_grow h =
  let cap = Array.length h.q_time in
  let cap' = if cap = 0 then 64 else cap * 2 in
  let time' = Array.make cap' 0.0 in
  let seq' = Array.make cap' 0 in
  let label' = Array.make cap' no_label in
  let run' = Array.make cap' nop in
  Array.blit h.q_time 0 time' 0 h.q_size;
  Array.blit h.q_seq 0 seq' 0 h.q_size;
  Array.blit h.q_label 0 label' 0 h.q_size;
  Array.blit h.q_run 0 run' 0 h.q_size;
  h.q_time <- time';
  h.q_seq <- seq';
  h.q_label <- label';
  h.q_run <- run'

let q_push h ~time ~seq ~label run =
  if h.q_size = Array.length h.q_time then q_grow h;
  let times = h.q_time and seqs = h.q_seq and labels = h.q_label and runs = h.q_run in
  (* Sift up by moving the hole; the new entry is written exactly once. *)
  let i = ref h.q_size in
  h.q_size <- h.q_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < times.(p) || (time = times.(p) && seq < seqs.(p)) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      labels.(!i) <- labels.(p);
      runs.(!i) <- runs.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  labels.(!i) <- label;
  runs.(!i) <- run

(* Remove the minimum entry; callers read the root first.  The freed
   slot's run thunk is cleared so popped closures do not outlive their
   firing. *)
let q_drop h =
  h.q_size <- h.q_size - 1;
  let n = h.q_size in
  let times = h.q_time and seqs = h.q_seq and labels = h.q_label and runs = h.q_run in
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) in
    let label = labels.(n) and run = runs.(n) in
    runs.(n) <- nop;
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
          labels.(!i) <- labels.(c);
          runs.(!i) <- runs.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    labels.(!i) <- label;
    runs.(!i) <- run
  end
  else runs.(0) <- nop

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
  mutable tb_tm : timer array;  (** the entry's timer; [never] for heap entries *)
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
let pending t = t.heap.q_size + t.n_armed

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

(** [at t ?label time f] schedules [f] to fire at absolute [time].
    Requires [time >= now t].  [label] (default: unknown) declares the
    event's dependency footprint for {!Guided} exploration. *)
let at t ?(label = no_label) time f =
  check_future t time;
  let time = jitter t time in
  q_push t.heap ~time ~seq:t.seq ~label f;
  t.seq <- t.seq + 1

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

(* The next event is the first armed timer rather than the heap root. *)
let[@inline] timer_next t =
  let tm = t.first in
  tm != never
  &&
  let h = t.heap in
  h.q_size = 0
  || tm.tm_time < h.q_time.(0)
  || (tm.tm_time = h.q_time.(0) && tm.tm_seq < h.q_seq.(0))

(* The next event, if any, is later than [until]; [from_timer] is
   [timer_next t]. *)
let[@inline] next_after t ~from_timer until =
  if from_timer then t.first.tm_time > until
  else t.heap.q_size > 0 && t.heap.q_time.(0) > until

let fire_timer t tm =
  t.now <- tm.tm_time;
  t.fired <- t.fired + 1;
  let run = tm.tm_run in
  disarm t tm;
  run ()

let[@inline] fire_root t =
  let h = t.heap in
  t.now <- h.q_time.(0);
  t.fired <- t.fired + 1;
  let run = h.q_run.(0) in
  q_drop h;
  run ()

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

(* Gather every event due at exactly the next event's time into the tie
   buffer, in insertion order: the heap pops its ties FIFO, and each due
   timer is inserted by its seq.  Heap entries leave the heap; timers
   stay armed until one is fired.  Returns (time, count). *)
let pop_ties t =
  let h = t.heap in
  let time = if timer_next t then t.first.tm_time else h.q_time.(0) in
  let n = ref 0 in
  while h.q_size > 0 && h.q_time.(0) = time do
    tb_ensure t (!n + 1);
    tb_set t !n ~seq:h.q_seq.(0) ~label:h.q_label.(0) ~run:h.q_run.(0) ~tm:never;
    q_drop h;
    incr n
  done;
  for k = 0 to t.n_armed - 1 do
    let tm = t.armed.(k) in
    if tm.tm_time = time then begin
      tb_ensure t (!n + 1);
      let j = ref !n in
      while !j > 0 && t.tb_seq.(!j - 1) > tm.tm_seq do
        let i = !j - 1 in
        tb_set t !j ~seq:t.tb_seq.(i) ~label:t.tb_label.(i) ~run:t.tb_run.(i) ~tm:t.tb_tm.(i);
        j := i
      done;
      tb_set t !j ~seq:tm.tm_seq ~label:tm.tm_label ~run:tm.tm_run ~tm;
      incr n
    end
  done;
  (time, !n)

(* Fire tie [i], pushing the other heap entries back with their original
   [seq] so a later pop sees them in unchanged relative order. *)
let fire_choice t time n i =
  for j = 0 to n - 1 do
    if j <> i && t.tb_tm.(j) == never then
      q_push t.heap ~time ~seq:t.tb_seq.(j) ~label:t.tb_label.(j) t.tb_run.(j)
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
    | S_fifo -> if timer_next t then fire_timer t t.first else fire_root t
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

(** [run ?until ?max_events t] fires events until the heap is empty, the
    clock passes [until], or [max_events] have fired.  Returns the reason
    the run stopped. *)
type stop_reason = Quiescent | Deadline | Event_budget

let run ?until ?max_events t =
  let fired0 = t.fired in
  let until_v = match until with None -> Float.infinity | Some d -> d in
  let budget = match max_events with None -> max_int | Some m -> m in
  let h = t.heap in
  let reason = ref Quiescent in
  let continue = ref true in
  (match t.sched with
  | S_fifo ->
      (* The hot loop: no allocation per event — the deadline check reads
         the next event's time directly and firing pops in place.  With
         no timer armed, [timer_next] is one pointer compare. *)
      while !continue do
        let from_timer = timer_next t in
        if next_after t ~from_timer until_v then begin
          t.now <- Float.max t.now until_v;
          reason := Deadline;
          continue := false
        end
        else if t.fired - fired0 >= budget then begin
          reason := Event_budget;
          continue := false
        end
        else if from_timer then fire_timer t t.first
        else if h.q_size = 0 then begin
          reason := Quiescent;
          continue := false
        end
        else fire_root t
      done
  | _ ->
      while !continue do
        if next_after t ~from_timer:(timer_next t) until_v then begin
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
