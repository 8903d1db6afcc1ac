(* The command lines of [shasta_run], [shasta_serve] and [litmus]: every
   malformed option value must end the run before it starts with exit
   code 2 and exactly one [<program>: ...] line on stderr — no
   backtrace, no silent fallback to a default. *)

(* Run program [name] with [args]; returns (exit code, stdout, stderr). *)
let run_prog name args =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name ^ ".exe") in
  (* Trace lines would land on stderr; run with tracing off. *)
  let env =
    Array.of_list
      (List.filter
         (fun v -> not (String.starts_with ~prefix:"SHASTA_TRACE=" v))
         (Array.to_list (Unix.environment ())))
  in
  let out, inp, err = Unix.open_process_args_full exe (Array.of_list (exe :: args)) env in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED c -> (c, stdout, stderr)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "killed by signal %d" s

let run = run_prog "shasta_run"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Each invocation, and a word its one-line diagnostic must name. *)
let malformed =
  [
    ([ "--sync"; "bogus" ], "--sync");
    ([ "--variant"; "bogus" ], "--variant");
    ([ "--model"; "bogus" ], "--model");
    ([ "--migration"; "bogus" ], "--migration");
    ([ "--procs"; "0" ], "--procs");
    ([ "--procs"; "64" ], "--procs");
    ([ "--nodes"; "0" ], "--nodes");
    ([ "--cpus"; "0" ], "--cpus");
    ([ "--faults"; "bogus" ], "Plan.of_spec");
    ([ "--granularity"; "bogus" ], "Layout.of_spec");
    ([ "--line"; "0" ], "block size 0");
    ([ "--app"; "bogus" ], "unknown application");
    ([ "--app"; "LU"; "--size"; "100" ], "multiple of the block size");
  ]

(* [shasta_serve] flags, checked before the cluster is built. *)
let serve_malformed =
  [
    ([ "--arrival"; "poisson:abc" ], "Arrival.of_spec");
    ([ "--arrival"; "foo" ], "Arrival.of_spec");
    ([ "--admission"; "bogus" ], "Admission.of_spec");
    ([ "--faults"; "zzz" ], "Plan.of_spec");
    ([ "--servers"; "0" ], "--servers");
    ([ "--clients"; "0" ], "clients");
    ([ "--sweep"; "1000,x" ], "--sweep");
  ]

let litmus_malformed =
  [
    ([ "--seeds"; "-3" ], "--seeds");
    ([ "--dpor"; "--preemption-bound"; "-1"; "--only"; "dekker" ], "--preemption-bound");
  ]

let check_malformed name cases =
  List.iter
    (fun (args, names) ->
      let what = String.concat " " (name :: args) in
      let code, stdout, stderr = run_prog name args in
      Alcotest.(check int) (what ^ ": exit code") 2 code;
      Alcotest.(check string) (what ^ ": nothing on stdout") "" stdout;
      match String.split_on_char '\n' stderr with
      | [ line; "" ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S is a %s: line naming %s" what line name names)
            true
            (String.starts_with ~prefix:(name ^ ": ") line && contains line names)
      | _ -> Alcotest.failf "%s: expected one stderr line, got %S" what stderr)
    cases

let test_malformed () = check_malformed "shasta_run" malformed
let test_serve_malformed () = check_malformed "shasta_serve" serve_malformed
let test_litmus_malformed () = check_malformed "litmus" litmus_malformed

let test_well_formed () =
  let code, stdout, stderr =
    run [ "--app"; "LU"; "--procs"; "4"; "--nodes"; "2"; "--cpus"; "2"; "--size"; "24" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "nothing on stderr" "" stderr;
  Alcotest.(check bool) "validated" true (contains stdout "validated: true")

let suite =
  [
    Alcotest.test_case "malformed flags exit 2 with one line" `Quick test_malformed;
    Alcotest.test_case "well-formed flags run" `Quick test_well_formed;
    Alcotest.test_case "shasta_serve malformed flags exit 2 with one line" `Quick
      test_serve_malformed;
    Alcotest.test_case "litmus negative counts exit 2 with one line" `Quick
      test_litmus_malformed;
  ]
