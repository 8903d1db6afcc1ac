(* The command lines of [shasta_run], [shasta_serve] and [litmus]: every
   malformed option value must end the run before it starts with exit
   code 2 and exactly one [<program>: ...] line on stderr — no
   backtrace, no silent fallback to a default. *)

(* Every run here ends in well under a second; one that has not exited
   after [time_limit] seconds is killed and fails its case, so a
   regression that makes a program spin fails the suite instead of
   hanging it. *)
let time_limit = 10.0

(* Run program [name] with [args]; returns (exit code, stdout, stderr).
   The output goes to files, not pipes, so the child never blocks on a
   full pipe while we wait for it. *)
let run_prog name args =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name ^ ".exe") in
  (* Trace lines would land on stderr; run with tracing off. *)
  let env =
    Array.of_list
      (List.filter
         (fun v -> not (String.starts_with ~prefix:"SHASTA_TRACE=" v))
         (Array.to_list (Unix.environment ())))
  in
  let out_file = Filename.temp_file "cli" ".out" and err_file = Filename.temp_file "cli" ".err" in
  let open_out f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_fd = open_out out_file and err_fd = open_out err_file in
  let pid = Unix.create_process_env exe (Array.of_list (exe :: args)) env null out_fd err_fd in
  List.iter Unix.close [ null; out_fd; err_fd ];
  let deadline = Unix.gettimeofday () +. time_limit in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | _, status -> Some status
  in
  let status = wait () in
  let slurp f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  let stdout = slurp out_file in
  let stderr = slurp err_file in
  match status with
  | None ->
      Alcotest.failf "%s %s: no exit within %.0f s; killed" name (String.concat " " args)
        time_limit
  | Some (Unix.WEXITED c) -> (c, stdout, stderr)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "killed by signal %d" s

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
    (* Non-finite numbers: NaN fails every range comparison, so each
       check must reject it explicitly. *)
    ([ "--app"; "LU"; "--faults"; "drop=nan" ], "drop=nan");
    ([ "--app"; "LU"; "--faults"; "dup=inf" ], "dup=inf");
    ([ "--app"; "LU"; "--faults"; "delay=0.1:nan" ], "delay_max");
    ([ "--app"; "LU"; "--faults"; "link=0-1:drop=nan" ], "drop=nan");
    ([ "--app"; "LU"; "--faults"; "stall=1@nan:0.001" ], "Plan.stall");
    ([ "--app"; "LU"; "--faults"; "stall=1@0.001:inf" ], "Plan.stall");
    ([ "--app"; "LU"; "--faults"; "crash=0@inf" ], "Plan.crash");
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
    ([ "--arrival"; "poisson:inf" ], "Arrival");
    ([ "--arrival"; "poisson:nan" ], "Arrival");
    ([ "--arrival"; "mmpp:1000,nan,2000,0.01" ], "Arrival");
    ([ "--admission"; "queue:64:nan" ], "Admission.of_spec");
    ([ "--admission"; "queue:64:inf" ], "Admission.of_spec");
    ([ "--faults"; "drop=nan" ], "drop=nan");
    ([ "--duration"; "nan" ], "duration");
    ([ "--duration"; "inf" ], "duration");
    ([ "--scan-share"; "nan" ], "scan_share");
    ([ "--sweep"; "1000,inf" ], "--sweep");
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

(* The spec parsers behind those flags, fed random spec-like strings
   (a keyword, then characters of the spec grammars): each either
   parses or raises [Invalid_argument], which the programs turn into
   their one-line error; any other exception would escape as a
   backtrace. *)
let gen_spec =
  let keywords =
    [ ""; "poisson:"; "mmpp:"; "drop:"; "reject:"; "queue:"; "seed="; "drop="; "delay=";
      "stall="; "crash="; "link="; "fine=" ]
  in
  let chars = "0123456789.,:;=@-*+ekmnaifx " in
  QCheck.Gen.(
    map2 ( ^ ) (oneofl keywords)
      (string_size ~gen:(map (String.get chars) (int_bound (String.length chars - 1)))
         (int_range 0 24)))

let parsers =
  [
    ("Arrival.of_spec", fun s -> ignore (Load.Arrival.of_spec s));
    ("Admission.of_spec", fun s -> ignore (Load.Admission.of_spec s));
    ("Fault.Plan.of_spec", fun s -> ignore (Fault.Plan.of_spec s));
    ("Layout.specs_of_spec", fun s -> ignore (Protocol.Layout.specs_of_spec ~size:(1 lsl 20) s));
  ]

let qcheck_parsers_reject_cleanly =
  QCheck.Test.make ~name:"spec parsers raise only Invalid_argument" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_spec)
    (fun s ->
      List.iter
        (fun (name, parse) ->
          try parse s with
          | Invalid_argument _ -> ()
          | e -> QCheck.Test.fail_reportf "%s %S raised %s" name s (Printexc.to_string e))
        parsers;
      true)

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
    QCheck_alcotest.to_alcotest qcheck_parsers_reject_cleanly;
  ]
