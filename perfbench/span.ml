(* Host-time spans around the benchmark's calls into each layer, plus
   the runtime's GC phases, written as Chrome trace-event JSON.

   Spans are recorded only when [enable] was called (the traced run);
   otherwise [with_] is a plain call, so the untraced run pays nothing.
   Both clocks are CLOCK_MONOTONIC in nanoseconds: the span clock reads
   it directly and the runtime stamps its events with it, so GC slices
   line up with the spans in the viewer. *)

let clock_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

type t = { id : int; name : string; parent : int; t0 : int64; mutable t1 : int64 }

let enabled = ref false
let finished : t list ref = ref []
let open_stack : t list ref = ref []
let next_id = ref 1

(* Outermost GC intervals as (begin, end) timestamps, newest first. *)
let gc_intervals : (int64 * int64) list ref = ref []
let gc_lost = ref 0
let gc_cursor = ref None

let enable () =
  enabled := true;
  Runtime_events.start ();
  gc_cursor := Some (Runtime_events.create_cursor None)

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_stack with [] -> 0 | s :: _ -> s.id in
    let s = { id = !next_id; name; parent; t0 = clock_ns (); t1 = 0L } in
    incr next_id;
    open_stack := s :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- clock_ns ();
        open_stack := List.tl !open_stack;
        finished := s :: !finished)
      f
  end

(** [total name] — host seconds spent in spans called [name]. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. seconds_between s.t0 s.t1 else acc)
    0.0 !finished

let find name = List.find (fun s -> s.name = name) !finished

(* GC phases nest (a minor collection inside a major slice, sub-phases
   inside both); only the outermost interval counts as GC time. *)
let poll_gc () =
  match !gc_cursor with
  | None -> ()
  | Some cursor ->
      let depth = ref 0 and start = ref 0L in
      let runtime_begin _ ts _ =
        if !depth = 0 then start := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      in
      let runtime_end _ ts _ =
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            gc_intervals := (!start, Runtime_events.Timestamp.to_int64 ts) :: !gc_intervals
        end
      in
      let lost_events _ n = gc_lost := !gc_lost + n in
      let cb = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
      ignore (Runtime_events.read_poll cursor cb None)

(** [gc_share s] — share of span [s] spent inside GC phases. *)
let gc_share s =
  let inside =
    List.fold_left
      (fun acc (a, b) ->
        let a = max a s.t0 and b = min b s.t1 in
        if b > a then Int64.add acc (Int64.sub b a) else acc)
      0L !gc_intervals
  in
  let d = Int64.sub s.t1 s.t0 in
  if d <= 0L then 0.0 else Int64.to_float inside /. Int64.to_float d

(* Chrome trace-event format: complete ("X") events with microsecond
   timestamps.  Perfetto and chrome://tracing both open it.  Benchmark
   spans go on thread 1, GC slices on thread 2 of the same process. *)
let write_chrome ~file ~run_id =
  let module J = Load.Json in
  let us t = Int64.to_float t /. 1e3 in
  let base =
    List.fold_left (fun acc s -> min acc s.t0) Int64.max_int !finished
  in
  let ev ~name ~cat ~tid ~t0 ~t1 args =
    J.Obj
      [
        ("name", J.Str name);
        ("cat", J.Str cat);
        ("ph", J.Str "X");
        ("ts", J.Float (us (Int64.sub t0 base)));
        ("dur", J.Float (us (Int64.sub t1 t0)));
        ("pid", J.Int (Unix.getpid ()));
        ("tid", J.Int tid);
        ("args", J.Obj args);
      ]
  in
  let spans =
    List.rev_map
      (fun s ->
        ev ~name:s.name ~cat:"perfbench" ~tid:1 ~t0:s.t0 ~t1:s.t1
          [ ("run_id", J.Str run_id); ("span_id", J.Int s.id); ("parent", J.Int s.parent) ])
      !finished
  in
  let gcs =
    List.rev_map
      (fun (t0, t1) -> ev ~name:"GC" ~cat:"gc" ~tid:2 ~t0 ~t1 [ ("run_id", J.Str run_id) ])
      (List.filter (fun (t0, _) -> t0 >= base) !gc_intervals)
  in
  let meta tid name =
    J.Obj
      [
        ("name", J.Str "thread_name");
        ("ph", J.Str "M");
        ("pid", J.Int (Unix.getpid ()));
        ("tid", J.Int tid);
        ("args", J.Obj [ ("name", J.Str name) ]);
      ]
  in
  let oc = open_out file in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("traceEvents", J.List ((meta 1 "perfbench" :: meta 2 "gc" :: spans) @ gcs));
            ("displayTimeUnit", J.Str "ms");
          ]));
  close_out oc
