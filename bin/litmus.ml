(* Memory-model litmus tests (Figure 2 of the paper, message passing,
   Dekker under Sc, LL/SC atomicity) run through the schedule explorer
   and coherence-checking layers of lib/check.

     dune exec bin/litmus.exe -- [--seeds N] [--jitter] [--explore]
                                 [--dpor] [--preemption-bound K]
                                 [--mutate] [--only NAME] [--out FILE]

   Every run executes with the per-message invariant checker on, a
   quiescence sweep, the scenario's outcome check and the SC trace
   oracle.  Exit status is 1 when any violation is found (or, under
   --mutate, when a seeded protocol bug goes undetected); failing
   schedules are appended to --out so CI can upload them as artifacts.
   Under --dpor every scenario (litmus kernels plus the minidb
   two-transaction scenario) is explored to a partial-order-reduction
   fixed point, optionally under --preemption-bound; per-scenario
   run/class statistics are appended to --out as JSON lines.  To
   reproduce a reported seed locally:

     dune exec bin/litmus.exe -- --seeds N       # covers seeds 1..N

   A negative --seeds or --preemption-bound ends the run before it
   starts, with one [litmus: ...] line on stderr and exit code 2. *)

let die msg =
  prerr_endline ("litmus: " ^ msg);
  exit 2

let () =
  let seeds = ref 16 in
  let jitter = ref false in
  let explore = ref false in
  let dpor = ref false in
  let pbound = ref None in
  let mutate = ref false in
  let only = ref "" in
  let out = ref "" in
  let spec =
    [
      ("--seeds", Arg.Set_int seeds, "N  seeded schedules per scenario (default 16)");
      ("--jitter", Arg.Set jitter, " also run delay-injection schedules");
      ("--explore", Arg.Set explore, " bounded exhaustive tie-set exploration");
      ("--dpor", Arg.Set dpor, " partial-order-reduced exploration to a fixed point");
      ( "--preemption-bound",
        Arg.Int (fun k -> pbound := Some k),
        "K  bound preemptions per run under --dpor (default unbounded)" );
      ("--mutate", Arg.Set mutate, " mutation harness: seeded protocol bugs must be caught");
      ( "--only",
        Arg.Set_string only,
        "NAME  restrict to the named scenario (skips the DPOR mutation pass)" );
      ("--out", Arg.Set_string out, "FILE  append failing schedules + stats JSON for CI");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "litmus [options]";
  if !seeds < 0 then die (Printf.sprintf "--seeds must be >= 0, got %d" !seeds);
  Option.iter
    (fun k -> if k < 0 then die (Printf.sprintf "--preemption-bound must be >= 0, got %d" k))
    !pbound;
  let pick scenarios =
    match !only with
    | "" -> scenarios
    | name -> (
        match
          List.filter (fun (sc : Check.Litmus.scenario) -> sc.Check.Litmus.name = name)
            scenarios
        with
        | [] -> die ("no scenario named " ^ name)
        | picked -> picked)
  in
  let artifact = Buffer.create 256 in
  let failed = ref false in
  let record fmt =
    Printf.ksprintf
      (fun s ->
        failed := true;
        Buffer.add_string artifact (s ^ "\n");
        print_endline ("  FAIL " ^ s))
      fmt
  in
  let stats_line ~driver ~scenario (st : Check.Explore.stats) =
    Buffer.add_string artifact
      (Printf.sprintf
         "{\"driver\":%S,\"scenario\":%S,\"runs\":%d,\"classes\":%d,\"choice_points\":%d,\"complete\":%b,\"truncated\":%b%s}\n"
         driver scenario st.Check.Explore.s_runs st.Check.Explore.s_classes
         st.Check.Explore.s_choice_points st.Check.Explore.s_complete
         st.Check.Explore.s_truncated
         (match !pbound with
         | Some k -> Printf.sprintf ",\"preemption_bound\":%d" k
         | None -> ""))
  in

  (* Seed sweep: FIFO default plus N seeded tie-break schedules. *)
  Printf.printf "== litmus: FIFO + %d seeded schedules per scenario ==\n%!" !seeds;
  List.iter
    (fun (sc : Check.Litmus.scenario) ->
      let fails = Check.Litmus.sweep ~seeds:!seeds [ sc ] in
      if fails = [] then
        Printf.printf "  ok   %-18s (%d runs clean)\n%!" sc.Check.Litmus.name (!seeds + 1)
      else
        List.iter
          (fun (name, seed, violations) ->
            List.iter
              (fun v -> record "scenario=%s seed=%d %s" name seed v)
              violations)
          fails)
    (pick Check.Litmus.all);

  if !jitter then begin
    Printf.printf "== litmus: %d jittered (delay-injection) schedules ==\n%!" !seeds;
    List.iter
      (fun (sc : Check.Litmus.scenario) ->
        let r = Check.Explore.jittered ~n:!seeds (Check.Litmus.as_scenario sc) in
        let fails = r.Check.Explore.failures in
        if fails = [] then
          Printf.printf "  ok   %-18s\n%!" sc.Check.Litmus.name
        else
          List.iter
            (fun (f : Check.Explore.failure) ->
              List.iter
                (fun v ->
                  record "scenario=%s schedule=%S %s" sc.Check.Litmus.name
                    f.Check.Explore.f_schedule v)
                f.Check.Explore.f_violations)
            fails)
      (pick Check.Litmus.all)
  end;

  if !explore then begin
    Printf.printf "== litmus: bounded exhaustive tie-set exploration ==\n%!";
    List.iter
      (fun (sc : Check.Litmus.scenario) ->
        let r =
          Check.Explore.exhaustive ~max_runs:100 ~max_depth:6
            (Check.Litmus.as_scenario sc)
        in
        let fails = r.Check.Explore.failures in
        let st = r.Check.Explore.stats in
        stats_line ~driver:"exhaustive" ~scenario:sc.Check.Litmus.name st;
        if fails = [] then
          Printf.printf "  ok   %-18s (%d runs, %d classes%s)\n%!"
            sc.Check.Litmus.name st.Check.Explore.s_runs
            st.Check.Explore.s_classes
            (if st.Check.Explore.s_complete then ", complete"
             else if st.Check.Explore.s_truncated then ", truncated"
             else ", budget-limited")
        else
          List.iter
            (fun (f : Check.Explore.failure) ->
              List.iter
                (fun v ->
                  record "scenario=%s schedule=%S %s" sc.Check.Litmus.name
                    f.Check.Explore.f_schedule v)
                f.Check.Explore.f_violations)
            fails)
      (pick Check.Litmus.all)
  end;

  if !dpor then begin
    Printf.printf "== litmus: DPOR exploration%s ==\n%!"
      (match !pbound with
      | Some b -> Printf.sprintf " (preemption bound %d)" b
      | None -> "");
    List.iter
      (fun (sc : Check.Litmus.scenario) ->
        let r =
          Check.Dpor.explore ?preemption_bound:!pbound
            (Check.Litmus.as_scenario sc)
        in
        let st = r.Check.Explore.stats in
        stats_line ~driver:"dpor" ~scenario:sc.Check.Litmus.name st;
        if r.Check.Explore.failures = [] then begin
          Printf.printf "  ok   %-18s (%d runs, %d classes%s)\n%!"
            sc.Check.Litmus.name st.Check.Explore.s_runs
            st.Check.Explore.s_classes
            (if st.Check.Explore.s_complete then
               if st.Check.Explore.s_truncated then ", bounded fixed point"
               else ", complete"
             else ", budget-limited");
          if not st.Check.Explore.s_complete then
            record "scenario=%s dpor did not reach a fixed point in %d runs"
              sc.Check.Litmus.name st.Check.Explore.s_runs
        end
        else
          List.iter
            (fun (f : Check.Explore.failure) ->
              List.iter
                (fun v ->
                  record "scenario=%s schedule=%S %s" sc.Check.Litmus.name
                    f.Check.Explore.f_schedule v)
                f.Check.Explore.f_violations)
            r.Check.Explore.failures)
      (pick (Check.Litmus.all @ [ Check.Txn.scenario ]));

    if !only = "" then begin
      Printf.printf "== litmus: mutation conviction under DPOR ==\n%!";
      let reports = Check.Mutation.hunt_dpor () in
      List.iter
        (fun (r : Check.Mutation.report) ->
          Format.printf "  %a@." Check.Mutation.pp_report r;
          if r.Check.Mutation.m_caught = None then
            record "mutation=%s missed under dpor after %d runs"
              r.Check.Mutation.m_label r.Check.Mutation.m_runs)
        reports
    end
  end;

  if !mutate then begin
    Printf.printf "== litmus: mutation harness (%d seeds per bug) ==\n%!" !seeds;
    let reports = Check.Mutation.hunt ~seeds:!seeds () in
    List.iter
      (fun (r : Check.Mutation.report) ->
        Format.printf "  %a@." Check.Mutation.pp_report r;
        if r.Check.Mutation.m_caught = None then
          record "mutation=%s missed after %d runs" r.Check.Mutation.m_label
            r.Check.Mutation.m_runs)
      reports
  end;

  if !out <> "" && Buffer.length artifact > 0 then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !out in
    Buffer.output_buffer oc artifact;
    close_out oc
  end;
  if !failed then begin
    print_endline "LITMUS: FAILED";
    exit 1
  end
  else print_endline "LITMUS: all checks passed"
