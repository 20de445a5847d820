(* rodinia_cli: the paper's suite on the CLI path.

   A closed loop with one caller.  Each iteration transpiles one source
   from text (Cudafe.Codegen.compile -> Passmgr.run_pipeline ->
   Omp_lower.run -> Exec.compile), then runs the result once at the
   source's fixed size on [nproc] domains and checks its checksum
   bitwise against the serial interpreter's, computed in set-up. *)

open Perfbench_kit
open Common

(* Fixed input size per source, in Catalog.sources order.  The target
   is an Exec.run of a few milliseconds on two cores, so run time shows
   beside compile time, while the set-up oracle (the serial interpreter,
   5-25x slower than the engine) stays near 50 ms per source. *)
let sizes : (string * int * string) list =
  [ ("backprop", 128, "4x test size: ~2.5 ms run, ~40 ms oracle")
  ; ("bfs", 256, "4x test size: ~3.5 ms run, ~22 ms oracle")
  ; ("b+tree", 1024, "16x test size: queries are cheap, ~4 ms run")
  ; ("cfd", 1024, "16x test size: ~4 ms run, ~40 ms oracle")
  ; ("hotspot", 32, "2x test size: 32x32 grid, ~4 ms run, ~56 ms oracle")
  ; ("hotspot3D", 16, "2x test size: 16^3 grid, ~5 ms run, ~50 ms oracle")
  ; ("lud", 32, "2x test size: 32x32 matrix, ~2 ms run, ~40 ms oracle")
  ; ("myocyte", 1024, "32x test size: per-cell work is tiny, ~4 ms run")
  ; ("nw", 65, "odd size (64+1 sequence): ~3.5 ms run, ~66 ms oracle")
  ; ("particlefilter", 1024, "8x test size: ~4 ms run, ~46 ms oracle")
  ; ("pathfinder", 512, "16x test size: ~2.7 ms run, ~37 ms oracle")
  ; ("srad_v1", 24, "2x test size: ~3.5 ms run, ~28 ms oracle")
  ; ("srad_v2", 16, "test size: 32 costs a 140 ms oracle; ~2.5 ms run")
  ; ("streamcluster", 1024, "16x test size: ~2 ms run, ~11 ms oracle")
  ; ("matmul", 32, "2x test size: 32^3 MACs, ~2.7 ms run, ~68 ms oracle")
  ]

type source =
  { b : Rodinia.Bench_def.t
  ; key : string (* metric-safe name *)
  ; n : int
  ; oracle : float (* Interp.Eval checksum at team_size = nproc *)
  }

let args (w : Rodinia.Bench_def.workload) = Rodinia.Bench_def.args_of_workload w
let checksum (w : Rodinia.Bench_def.workload) = Interp.Mem.checksum w.buffers

(* A span around one call into a layer; the untraced run passes
   [untimed], the traced run one that records the duration. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

(* Text to compiled closures, the CLI's --cuda-lower --run path.  A
   degraded pipeline is the CLI's exit 1: a failed operation. *)
let transpile (sp : span) (b : Rodinia.Bench_def.t) :
  Ir.Op.op * Runtime.Exec.compiled =
  let m = sp.span "cudafe.codegen_ms" (fun () -> Cudafe.Codegen.compile b.cuda_src) in
  (match sp.span "core.passmgr.run_pipeline_ms" (fun () -> Core.Passmgr.run_pipeline m) with
   | Ok r when not (Core.Passmgr.degraded r) -> ()
   | Ok r -> failwith ("pipeline degraded:\n" ^ Core.Passmgr.report_to_string r)
   | Error (_, f) -> failwith (Core.Passmgr.failure_to_string f));
  ignore (sp.span "core.omp_lower_ms" (fun () -> Core.Omp_lower.run m));
  (m, sp.span "runtime.exec_compile_ms" (fun () -> Runtime.Exec.compile m b.entry))

(* Oracle checksums plus one checked warm run per source, which also
   builds the team pool. *)
let setup (ctx : ctx) : source array =
  if List.map (fun (name, _, _) -> name) sizes <> Catalog.sources then
    failwith "rodinia_cli: size table out of step with Catalog.sources";
  Array.of_list
    (List.map
       (fun (name, n, _) ->
         let b = Option.get (Rodinia.Registry.find name) in
         let m, c = transpile untimed b in
         let w = b.mk_workload n in
         ignore (Interp.Eval.run ~team_size:ctx.nproc m b.entry (args w));
         let oracle = checksum w in
         let w = b.mk_workload n in
         ignore (Runtime.Exec.run ~domains:ctx.nproc c (args w));
         if not (same_bits (checksum w) oracle) then
           failwith (name ^ ": engine checksum differs from the interpreter's");
         { b; key = Catalog.key name; n; oracle })
       sizes)

type sample =
  { src : int
  ; compile_s : float
  ; run_s : float
  ; total_s : float
  ; traced : bool
  }

(* Traced only, outside the timed iteration: every Cpuify.pipeline_stages
   entry applied in order to a fresh module of the same source.  What
   run_pipeline spends beyond their sum is its recovery harness. *)
let raw_stages (acc : Acc.t) (b : Rodinia.Bench_def.t) ~(pipeline_ms : float) :
  unit =
  let m = Cudafe.Codegen.compile b.cuda_src in
  let per = Hashtbl.create 8 in
  List.iter
    (fun (name, f) ->
      let (), dt = timed (fun () -> f m) in
      Hashtbl.replace per name
        (dt +. Option.value ~default:0.0 (Hashtbl.find_opt per name)))
    (Core.Cpuify.pipeline_stages ());
  let total = ref 0.0 in
  List.iter
    (fun st ->
      let dt = Option.value ~default:0.0 (Hashtbl.find_opt per st) in
      total := !total +. dt;
      Acc.add acc ("core.stage." ^ st ^ "_ms") (ms dt))
    Catalog.stages;
  Acc.add acc "core.passmgr.harness_ms" (pipeline_ms -. ms !total)

let run (ctx : ctx) : outcome =
  let srcs, setup_s = repeat_setup ~reps:3 ~teardown:ignore (fun () -> setup ctx) in
  (* which source each iteration transpiles: seeded permutations *)
  let next = Rng.rounds (Rng.make ctx.seed) (Array.length srcs) in
  let acc = Acc.create () in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let wrong = ref 0 in
  let spawns0 = Runtime.Pool.total_spawns () in
  let deadline = Clock.now () +. ctx.seconds in
  while Clock.now () < deadline do
    let i = next () in
    let s = srcs.(i) in
    (* the traced run alternates traced and untraced iterations, so the
       difference between the two is the tracing overhead *)
    let traced = ctx.trace && !attempted land 1 = 1 in
    incr attempted;
    let covered = ref 0.0 in
    let sp =
      if traced then
        { span =
            (fun k f ->
              let r, dt = timed f in
              Acc.add acc k (ms dt);
              covered := !covered +. dt;
              r)
        }
      else untimed
    in
    let w = s.b.mk_workload s.n in
    match
      let t0 = Clock.now () in
      let _, c = transpile sp s.b in
      let t1 = Clock.now () in
      let _, st = Runtime.Exec.run ~domains:ctx.nproc c (args w) in
      let t2 = Clock.now () in
      (t1 -. t0, t2 -. t1, t2 -. t0, st)
    with
    | exception e ->
      incr failed;
      say "rodinia_cli: %s failed: %s" s.key (Printexc.to_string e)
    | compile_s, run_s, total_s, st ->
      if not (same_bits (checksum w) s.oracle) then begin
        incr failed;
        incr wrong;
        say "rodinia_cli: %s checksum differs from the oracle" s.key
      end
      else begin
        samples := { src = i; compile_s; run_s; total_s; traced } :: !samples;
        if traced then begin
          Acc.add acc "runtime.exec.launches" (float_of_int st.launches);
          Acc.add acc "runtime.exec.barrier_phases" (float_of_int st.barrier_phases);
          Acc.add acc "runtime.exec.chunks_grabbed" (float_of_int st.chunks_grabbed);
          Acc.add acc "runtime.exec.frames_allocated" (float_of_int st.frames_allocated);
          Acc.add acc "uncovered_ms" (ms (total_s -. !covered -. run_s));
          (* Acc.add prepends: the head is this iteration's pipeline *)
          raw_stages acc s.b
            ~pipeline_ms:(List.hd (Acc.get acc "core.passmgr.run_pipeline_ms"))
        end
      end
  done;
  let samples = !samples in
  (* [summary] of [f] over each source's samples, for sources that ran *)
  let per_source ?(keep = fun _ -> true) summary f =
    List.filter_map
      (fun i ->
        match List.filter_map (fun x -> if x.src = i && keep x then Some (f x) else None) samples with
        | [] -> None
        | xs -> Some (i, summary xs))
      (List.init (Array.length srcs) Fun.id)
  in
  say "rodinia_cli: %d iterations over %d sources (%d ran), closed loop, 1 caller, %d domains"
    !attempted (Array.length srcs) (List.length (per_source Stats.median (fun x -> x.total_s)))
    ctx.nproc;
  let layers =
    if not ctx.trace then []
    else
      let med keep = per_source ~keep Stats.median (fun x -> x.total_s) in
      let untraced = med (fun x -> not x.traced) in
      let ratios =
        List.filter_map
          (fun (i, t) -> Option.map (fun u -> t /. u) (List.assoc_opt i untraced))
          (med (fun x -> x.traced))
      in
      Acc.means acc
      @ List.map
          (fun (i, v) -> ("runtime.run_ms." ^ srcs.(i).key, ms v))
          (per_source Stats.median (fun x -> x.run_s))
      @ [ ("runtime.pool.spawns", float_of_int (Runtime.Pool.total_spawns () - spawns0))
        ; ("trace.overhead_ratio", if ratios = [] then 1.0 else Stats.geomean ratios)
        ]
  in
  let end_to_end =
    if samples = [] then []
    else begin
      (* per-source medians, geomean over sources; the spread printed is
         the per-source IQR / median, averaged over sources *)
      let geo f = ms (Stats.geomean (List.map snd (per_source Stats.median f))) in
      let spread f =
        Printf.sprintf "spread=%.3f" (Stats.mean (List.map snd (per_source Stats.spread f)))
      in
      let totals = List.map (fun x -> ms x.total_s) samples in
      let tail, beyond = Stats.percentile 90.0 totals in
      let p50 = geo (fun x -> x.total_s) and warm = geo (fun x -> x.run_s) in
      let cold = geo (fun x -> x.compile_s) in
      let share = float_of_int (!attempted - !failed) /. float_of_int !attempted in
      report ~key:"latency_ms_p50" ~what:"iteration_ms_geomean" p50 (spread (fun x -> x.total_s));
      report ~key:"latency_ms_tail" ~what:"iteration_ms_p90" tail (tail_note totals beyond);
      report ~key:"warm_ms" ~what:"run_ms_geomean" warm (spread (fun x -> x.run_s));
      report ~key:"cold_ms" ~what:"compile_ms_geomean" cold (spread (fun x -> x.compile_s));
      report ~key:"slo_met_share" ~what:"correct_share" share "";
      [ ("latency_ms_p50", p50)
      ; ("latency_ms_tail", tail)
      ; ("warm_ms", warm)
      ; ("cold_ms", cold)
      ; ("slo_met_share", share)
      ]
    end
  in
  { setup_s; attempted = !attempted; failed = !failed; correct = !wrong = 0; end_to_end; layers }
