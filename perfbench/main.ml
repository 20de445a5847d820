(* perfbench: the repository's benchmark.

     main.exe --workload rodinia_cli|resnet_forward|serve_mixed
              --seed N --seconds S --trace 0|1

   Sets the workload up (several times; the median is setup_s), measures
   it for S seconds, checks every output, prints human-readable lines
   and, as the last line of stdout, one JSON result: the end-to-end
   metrics of Catalog.end_to_end when untraced, the per-layer metrics of
   Catalog.per_layer when traced.  perfbench/run.sh builds and runs it. *)

open Perfbench_kit
open Common

let workloads : (string * (ctx -> outcome)) list =
  [ ("rodinia_cli", Rodinia_cli.run)
  ; ("resnet_forward", Resnet_forward.run)
  ; ("serve_mixed", Serve_mixed.run)
  ]

(* A fixed CPU-bound loop, timed before set-up and after the window.
   It does the same work on every run, so when the host slows the run
   (hypervisor steal, busy neighbours) it reads slower too: the noise
   record next to the metrics. *)
let calibration_ms () : float =
  let x, dt =
    timed (fun () ->
        let x = ref 0 in
        for i = 1 to 20_000_000 do
          x := !x lxor (i * 7)
        done;
        !x)
  in
  ignore (Sys.opaque_identity x);
  ms dt

let main (a : Args.t) (run : ctx -> outcome) : unit =
  let ctx =
    { seed = a.seed
    ; seconds = float_of_int a.seconds
    ; trace = a.trace
    ; nproc = Domain.recommended_domain_count ()
    }
  in
  say "host: nproc=%d ocaml=%s os=%s" ctx.nproc Sys.ocaml_version Sys.os_type;
  say "run: workload=%s seed=%d seconds=%d trace=%d" a.workload a.seed a.seconds
    (Bool.to_int a.trace);
  let calib0 = calibration_ms () in
  let o = run ctx in
  say "host speed: fixed loop %.2f ms before set-up, %.2f ms after the window" calib0
    (calibration_ms ());
  let setup_s = Stats.median o.setup_s in
  report ~key:"setup_s" ~what:"setup_s" setup_s ("median of " ^ samples_note o.setup_s);
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k Catalog.per_layer) then
        failwith ("workload reported an uncatalogued layer metric " ^ k))
    o.layers;
  let metrics =
    if a.trace then
      List.map
        (fun (k, u) -> (k, Option.value ~default:0.0 (List.assoc_opt k o.layers), u))
        Catalog.per_layer
    else
      List.map
        (fun (k, u) ->
          let v = if k = "setup_s" then Some setup_s else List.assoc_opt k o.end_to_end in
          (k, Option.value ~default:nan v, u))
        Catalog.end_to_end
  in
  if a.trace then begin
    say "per-layer (traced run; 0 = layer idle on this workload):";
    List.iter (fun (k, v, u) -> say "  %-36s %14.4f %s" k v u) metrics
  end;
  (* a metric that could not be measured makes the run incorrect *)
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let metrics =
    List.map (fun (k, v, u) -> (k, (if Float.is_finite v then v else 0.0), u)) metrics
  in
  say "ops: attempted=%d failed=%d" o.attempted o.failed;
  Runtime.Pool.shutdown_cached ();
  print_endline
    (Report.result_line ~correct:(o.correct && finite) ~attempted:(max 1 o.attempted)
       ~failed:o.failed metrics)

let () =
  match Args.parse (List.tl (Array.to_list Sys.argv)) with
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    prerr_endline Args.usage;
    exit 2
  | Ok a -> (
    match List.assoc_opt a.workload workloads with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" a.workload
        (String.concat ", " (List.map fst workloads));
      exit 2
    | Some run -> (
      try main a run
      with e ->
        Printf.eprintf "perfbench: %s: %s\n" a.workload (Printexc.to_string e);
        exit 1))
