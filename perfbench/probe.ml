(* The host-speed probe: a fixed OCaml program, built against the
   standard library alone, that perfbench.exe starts after set-up and
   after each segment of its timed phase.  It builds and folds a
   balanced-tree map, so like the workloads it allocates, collects and
   chases pointers; its host time moves with the speed a shared host gives
   OCaml code at that moment and never with the code under test.  Prints
   its host seconds.

     probe.exe *)

module M = Map.Make (Int)

let keys = 100_000

let () =
  let t0 = Unix.gettimeofday () in
  let m = ref M.empty in
  for i = 1 to keys do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  let sum = M.fold (fun _ v acc -> acc + v) !m 0 in
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity sum);
  Printf.printf "%.9f\n" (t1 -. t0)
