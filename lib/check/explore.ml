(** Schedule-exploration drivers.

    A {e scenario} here is a function from a {!Sim.Engine.schedule} to
    the list of violations that run produced (empty = clean).  It must
    build a fresh cluster on every call, so runs are independent and —
    given the same schedule — bit-identical, which is what lets a
    violating seed from CI be replayed locally.

    Every driver (seeded sampling, jitter sampling, bounded-exhaustive,
    and {!Dpor.explore}) returns the same {!result}: the failures plus
    {!stats} saying how many runs were spent, whether the search space
    was covered completely, and how many Mazurkiewicz equivalence
    classes ({!Vclock.class_signature}) the explored runs fell into —
    the ratio of runs to classes is the driver's redundancy. *)

type failure = {
  f_schedule : string;  (** how to reproduce: the schedule, printably *)
  f_seed : int option;  (** the seed, for seeded/jittered schedules *)
  f_violations : string list;
}

type stats = {
  s_runs : int;
  s_complete : bool;
      (** the whole (possibly bounded) search space was covered: every
          schedule not explored is equivalent to one that was.  Always
          false for the sampling drivers. *)
  s_truncated : bool;
      (** part of the space was silently cut: choice points past the
          exhaustive driver's [max_depth], or branches pruned by the
          DPOR preemption bound *)
  s_classes : int;
      (** distinct equivalence classes among completed runs (0 when the
          driver cannot observe the fired-event trace, e.g. jitter) *)
  s_choice_points : int;  (** deepest multi-candidate tie-set seen *)
}

type result = { failures : failure list; stats : stats }

let sig_of_rev_labels rev = Vclock.class_signature (Array.of_list (List.rev rev))

(** [seeds ?base ~n scenario] — rerun under [Seeded base .. base+n-1].
    Internally replays each seed through a {!Sim.Engine.Guided} chooser
    that reproduces [Seeded] bit-for-bit (the tie RNG is drawn only on
    multi-candidate sets) while also recording the fired-label trace,
    so class statistics come for free; failures still print as
    [Seeded k] and replay under the plain seeded schedule. *)
let seeds ?(base = 1) ~n scenario =
  let classes = Hashtbl.create 64 in
  let deepest = ref 0 in
  let failures =
    List.concat_map
      (fun k ->
        let seed = base + k in
        let rng = Sim.Rng.create seed in
        let labels = ref [] in
        let depth = ref 0 in
        let chooser (cands : Sim.Engine.choice array) =
          let m = Array.length cands in
          let i =
            if m = 1 then 0
            else begin
              incr depth;
              Sim.Rng.int rng m
            end
          in
          labels := cands.(i).Sim.Engine.ch_label :: !labels;
          i
        in
        let violations = scenario (Sim.Engine.Guided chooser) in
        Hashtbl.replace classes (sig_of_rev_labels !labels) ();
        if !depth > !deepest then deepest := !depth;
        match violations with
        | [] -> []
        | violations ->
            [
              {
                f_schedule = Printf.sprintf "Seeded %d" seed;
                f_seed = Some seed;
                f_violations = violations;
              };
            ])
      (List.init n (fun i -> i))
  in
  {
    failures;
    stats =
      {
        s_runs = n;
        s_complete = false;
        s_truncated = false;
        s_classes = Hashtbl.length classes;
        s_choice_points = !deepest;
      };
  }

(** [jittered ?base ?prob ?max_delay ~n scenario] — seeded tie breaking
    plus bounded random message/event delays.  The delay RNG lives
    inside the engine, so the fired-event trace is not observable here
    and [s_classes] is 0. *)
let jittered ?(base = 1) ?(prob = 0.25) ?(max_delay = 2.0e-6) ~n scenario =
  let failures =
    List.concat_map
      (fun k ->
        let seed = base + k in
        match scenario (Sim.Engine.Jittered { seed; prob; max_delay }) with
        | [] -> []
        | violations ->
            [
              {
                f_schedule =
                  Printf.sprintf "Jittered { seed = %d; prob = %g; max_delay = %g }"
                    seed prob max_delay;
                f_seed = Some seed;
                f_violations = violations;
              };
            ])
      (List.init n (fun i -> i))
  in
  {
    failures;
    stats =
      {
        s_runs = n;
        s_complete = false;
        s_truncated = false;
        s_classes = 0;
        s_choice_points = 0;
      };
  }

(** [exhaustive ?max_runs ?max_depth scenario] — bounded DFS over
    tie-break decision vectors.  The first [max_depth] multi-candidate
    tie-sets of a run are choice points enumerated lexicographically,
    replayed from scratch each run.  Choice points beyond [max_depth]
    collapse to index 0; when that happens the result carries
    [s_truncated = true] — covering the bounded tree ([s_runs] within
    [max_runs]) is then {e not} full coverage, and [s_complete] stays
    false. *)
let exhaustive ?(max_runs = 200) ?(max_depth = 8) scenario =
  let failures = ref [] in
  let runs = ref 0 in
  let truncated = ref false in
  let deepest = ref 0 in
  let classes = Hashtbl.create 64 in
  let prefix = ref (Some []) in
  while !prefix <> None && !runs < max_runs do
    let p = Option.get !prefix in
    incr runs;
    let sizes = Hashtbl.create 32 in
    let pos = ref 0 in
    let labels = ref [] in
    let chooser (cands : Sim.Engine.choice array) =
      let n = Array.length cands in
      let i =
        if n = 1 then 0
        else begin
          let i = !pos in
          incr pos;
          if i < max_depth then Hashtbl.replace sizes i n else truncated := true;
          match List.nth_opt p i with Some d -> min d (n - 1) | None -> 0
        end
      in
      labels := cands.(i).Sim.Engine.ch_label :: !labels;
      i
    in
    (match scenario (Sim.Engine.Guided chooser) with
    | [] -> ()
    | violations ->
        failures :=
          {
            f_schedule =
              Printf.sprintf "Choose [%s]"
                (String.concat ";" (List.map string_of_int p));
            f_seed = None;
            f_violations = violations;
          }
          :: !failures);
    Hashtbl.replace classes (sig_of_rev_labels !labels) ();
    if !pos > !deepest then deepest := !pos;
    (* Lexicographic successor of the decision vector actually used. *)
    let depth = min !pos max_depth in
    let d_at i = Option.value (List.nth_opt p i) ~default:0 in
    let size_at i = Option.value (Hashtbl.find_opt sizes i) ~default:1 in
    let rec next i =
      if i < 0 then None
      else if d_at i + 1 < size_at i then
        Some (List.init (i + 1) (fun j -> if j = i then d_at j + 1 else d_at j))
      else next (i - 1)
    in
    prefix := next (depth - 1)
  done;
  let exhausted = !prefix = None in
  {
    failures = List.rev !failures;
    stats =
      {
        s_runs = !runs;
        s_complete = exhausted && not !truncated;
        s_truncated = !truncated;
        s_classes = Hashtbl.length classes;
        s_choice_points = !deepest;
      };
  }
