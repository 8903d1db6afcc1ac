(* One run of one benchmark workload, printed as a single JSON object on
   stdout.  perfbench/run.py starts this program several times per
   measurement and aggregates the runs; see perfbench/README.md.

     perfbench.exe --workload NAME --seed N [--trace-out FILE]

   With --trace-out the run is traced: host-time spans around each call
   into a layer and the runtime's GC phases are written to FILE as
   Chrome trace-event JSON, and the layer timings of Micro are taken
   after the workload. *)

module J = Load.Json

(* The digest covers every simulated-time metric and exact counter, so
   a change that only touches host code can show they are unchanged.
   Floats are hashed in hexadecimal notation: bit-exact. *)
let digest (r : Workload.result) =
  let sim =
    [
      ("sim_ms", r.Workload.sim_ms);
      ("goodput_rps", r.Workload.goodput);
      ("p50_ms", r.Workload.p50_ms);
      ("p99_ms", r.Workload.p99_ms);
      ("p999_ms", r.Workload.p999_ms);
      ("samples", float_of_int r.Workload.samples);
      ("attempted", float_of_int r.Workload.attempted);
      ("failed", float_of_int r.Workload.failed);
    ]
  in
  List.sort compare (sim @ r.Workload.counters)
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* Figures travel as strings of 17 significant digits, so run.py sees
   every bit of each value (Load.Json prints floats with 12). *)
let floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Str (Printf.sprintf "%.17g" v))) kvs)

let () =
  let workload = ref "" and seed = ref 1 and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--trace-out", Arg.Set_string trace_out, "FILE  traced run: write spans to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N [--trace-out FILE]";
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let traced = !trace_out <> "" in
  if traced then Span.enable ();
  let r =
    Span.with_ ("workload " ^ !workload) (fun () -> Workload.run !workload ~seed:!seed)
  in
  let layer =
    if not traced then []
    else begin
      Span.poll_gc ();
      let gc_share = match r.Workload.timed with Some s -> Span.gc_share s | None -> 0.0 in
      let micro = Span.with_ "layer timings" Micro.all in
      Span.write_chrome ~file:!trace_out
        ~run_id:(Printf.sprintf "%s/%d/%d" !workload !seed (Unix.getpid ()));
      [
        ("gc.time_share", gc_share);
        ("gc.lost_events", float_of_int !Span.gc_lost);
        ("rewrite.instrument_s", Span.total "Rewrite.Instrument.instrument");
        ("rewrite.verify_s", Span.total "Rewrite.Verify.verify");
      ]
      @ micro
    end
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str !workload);
            ("seed", J.Int !seed);
            ("ok", J.Bool r.Workload.ok);
            ("attempted", J.Int r.Workload.attempted);
            ("failed", J.Int r.Workload.failed);
            ("samples", J.Int r.Workload.samples);
            ("digest", J.Str (digest r));
            ("first_call", J.Str (Printf.sprintf "%.6f" r.Workload.first_call));
            ( "end_to_end",
              floats
                [
                  ("wall_s", r.Workload.wall_s);
                  ("peak_heap_mb", heap_mb);
                  ("sim_ms", r.Workload.sim_ms);
                  ("goodput_rps", r.Workload.goodput);
                  ("p50_ms", r.Workload.p50_ms);
                  ("p99_ms", r.Workload.p99_ms);
                  ("p999_ms", r.Workload.p999_ms);
                ] );
            ("counters", floats r.Workload.counters);
            ("host", floats (r.Workload.host @ layer));
          ]))
