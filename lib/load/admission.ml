(** Admission control: the bounded accept queue in front of each server
    worker.

    Open-loop load keeps arriving past the knee, so without a bound the
    queue (and every latency percentile) grows without limit and the
    system "collapses" in the classic sense: work is still performed but
    all of it is too late to matter.  The accept queue bounds the damage
    with a per-worker capacity and one of three policies:

    - [drop:CAP] — a request arriving at a full queue is discarded
      silently; the client frees its window slot only after its own
      timeout (the worst policy for the client, the cheapest for the
      server);
    - [reject:CAP] — a full queue answers immediately with a cheap
      reject message (fail-fast; the client learns at one round trip);
    - [queue:CAP:TIMEOUT] — arrivals are queued up to CAP (rejecting
      beyond it), but a request that has waited longer than TIMEOUT by
      the time a worker picks it up is shed with a (late) reject instead
      of being served — work that would complete past its deadline is
      not worth doing. *)

type on_full = Drop_new | Reject_new

type policy = {
  cap : int;
  on_full : on_full;
  shed_timeout : float;  (** [infinity] = never shed at dequeue *)
}

let drop ~cap = { cap; on_full = Drop_new; shed_timeout = infinity }
let reject_fast ~cap = { cap; on_full = Reject_new; shed_timeout = infinity }
let queue ~cap ~timeout = { cap; on_full = Reject_new; shed_timeout = timeout }

let spec_help = "drop:CAP | reject:CAP | queue:CAP:TIMEOUT_S"

(** [of_spec s] — parse an admission spec, e.g. ["drop:64"],
    ["reject:64"] or ["queue:512:0.05"]. *)
let of_spec s =
  let fail () =
    invalid_arg (Printf.sprintf "Admission.of_spec %S; expected %s" s spec_help)
  in
  match String.split_on_char ':' s with
  | [ "drop"; cap ] -> (
      match int_of_string_opt cap with
      | Some cap when cap > 0 -> drop ~cap
      | _ -> fail ())
  | [ "reject"; cap ] -> (
      match int_of_string_opt cap with
      | Some cap when cap > 0 -> reject_fast ~cap
      | _ -> fail ())
  | [ "queue"; cap; timeout ] -> (
      match (int_of_string_opt cap, float_of_string_opt timeout) with
      | Some cap, Some timeout when cap > 0 && Float.is_finite timeout && timeout > 0.0 ->
          queue ~cap ~timeout
      | _ -> fail ())
  | _ -> fail ()

(** [to_spec p] — the spec [of_spec] parses back to [p]. *)
let to_spec p =
  match (p.on_full, p.shed_timeout) with
  | Drop_new, _ -> Printf.sprintf "drop:%d" p.cap
  | Reject_new, t when t = infinity -> Printf.sprintf "reject:%d" p.cap
  | Reject_new, t -> Printf.sprintf "queue:%d:%s" p.cap (Arrival.float_to_spec t)

(** The queue itself.  Entries carry their admission instant so dequeue
    can apply the shed timeout; counters feed the latency report. *)
type 'a t = {
  policy : policy;
  q : (float * 'a) Queue.t;
  mutable admitted : int;
  mutable dropped : int;  (** arrivals discarded silently at a full queue *)
  mutable rejected : int;  (** arrivals answered with a fast reject *)
  mutable shed : int;  (** admitted but timed out before a worker took them *)
  mutable max_depth : int;
}

let create policy = { policy; q = Queue.create (); admitted = 0; dropped = 0; rejected = 0; shed = 0; max_depth = 0 }

let depth t = Queue.length t.q
let is_empty t = Queue.is_empty t.q

(** [offer t ~now x] — apply the admission policy to an arriving
    request. *)
let offer t ~now x =
  if Queue.length t.q >= t.policy.cap then
    match t.policy.on_full with
    | Drop_new ->
        t.dropped <- t.dropped + 1;
        `Dropped
    | Reject_new ->
        t.rejected <- t.rejected + 1;
        `Rejected
  else begin
    Queue.push (now, x) t.q;
    t.admitted <- t.admitted + 1;
    if Queue.length t.q > t.max_depth then t.max_depth <- Queue.length t.q;
    `Admitted
  end

(** [take t ~now] — next request for a worker: [`Serve] if it is still
    within the shed timeout, [`Shed] if it waited too long. *)
let take t ~now =
  match Queue.take_opt t.q with
  | None -> None
  | Some (enq, x) ->
      if now -. enq > t.policy.shed_timeout then begin
        t.shed <- t.shed + 1;
        Some (x, `Shed)
      end
      else Some (x, `Serve)
