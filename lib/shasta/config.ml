(** Top-level Shasta configuration: the cluster geometry, the protocol
    parameters, and the inline-check cost model used in API mode. *)

type check_costs = {
  load_check_cycles : int;  (** flag-technique check after a load (~3 slots) *)
  store_check_cycles : int;  (** state-table check before a store (~7 slots) *)
  poll_cycles : int;  (** loop-backedge poll (3 instructions) *)
  access_cycles : int;  (** the load/store instruction itself *)
}

let default_check_costs =
  { load_check_cycles = 3; store_check_cycles = 7; poll_cycles = 3; access_cycles = 2 }

type t = {
  net : Mchan.Net.config;
  protocol : Protocol.Config.t;
  checks : check_costs;
  checks_enabled : bool;
      (** charge inline-check overhead in API mode (off = original binary
          on hardware, the baseline of Table 3) *)
  cpu_hz : float;
  private_mem_size : int;  (** per-process stack/static area, bytes *)
  fault_plan : Fault.Plan.t;
      (** injected network/node faults; the empty plan keeps the raw
          perfectly-reliable channel *)
  schedule : Sim.Engine.schedule;
      (** event tie-break policy; [Fifo] is the deterministic default,
          the others drive the schedule explorer of [lib/check] *)
}

let default =
  {
    net = Mchan.Net.default_config;
    protocol = Protocol.Config.default;
    checks = default_check_costs;
    checks_enabled = true;
    cpu_hz = Sim.Units.default_cpu_hz;
    private_mem_size = 1 lsl 20;
    fault_plan = Fault.Plan.empty;
    schedule = Sim.Engine.Fifo;
  }

(** [uniprocessor] — one processor, checks off: the "standard
    application" baseline. *)
let uniprocessor =
  {
    default with
    net = { Mchan.Net.default_config with Mchan.Net.nodes = 1; cpus_per_node = 1 };
    checks_enabled = false;
  }

let cycles t n = float_of_int n /. t.cpu_hz
