(** Broadcast wake-up signals.

    A [Signal.t] carries no data; it wakes everything currently waiting on
    it.  Simulated processes stalled on a shared-miss reply wait on their
    node's message-arrival signal so that simulated time jumps straight to
    the next arrival instead of busy-polling in zero-length steps. *)

type t = {
  engine : Engine.t;
  label : Engine.label;
      (** footprint stamped on waiter wake-up events (a per-node signal
          passes its node so a Guided explorer can classify the wake) *)
  mutable waiters : (unit -> unit) list;
  mutable pulses : int;
}

let create ?(label = Engine.no_label) engine = { engine; label; waiters = []; pulses = 0 }

let pulses t = t.pulses

(** [wait t f] registers [f] to be called (as an event at the pulse time)
    on the next pulse. *)
let wait t f = t.waiters <- f :: t.waiters

(** [pulse t] wakes every waiter registered so far.  Waiters registered
    during the pulse (e.g. a woken process immediately waiting again) are
    kept for the next pulse. *)
let pulse t =
  t.pulses <- t.pulses + 1;
  match t.waiters with
  | [] -> ()
  | ws ->
      t.waiters <- [];
      (* Fire in registration order for determinism. *)
      List.iter (fun f -> Engine.after t.engine ~label:t.label 0.0 f) (List.rev ws)
