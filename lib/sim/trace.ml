(** Debug tracing for the simulator: one stderr line per traced event
    (injected faults, retransmissions), prefixed with the virtual time so
    that protocol races can be replayed from the output.

    Tracing is on when the program starts with [SHASTA_TRACE=debug] in
    its environment, and off otherwise.  Off, [f] formats nothing: no
    string is built and no [%a] printer is called. *)

let on = Option.map String.lowercase_ascii (Sys.getenv_opt "SHASTA_TRACE") = Some "debug"

(** [f engine fmt ...] prints a trace line prefixed with the virtual time. *)
let f engine fmt =
  if on then Format.eprintf ("[%a] " ^^ fmt ^^ "@.") Units.pp_time (Engine.now engine)
  else Format.ifprintf Format.err_formatter fmt
