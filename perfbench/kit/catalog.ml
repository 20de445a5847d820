(* Every metric the benchmark reports, with its unit.  BENCHMARK.json at
   the repository root lists the same names; perfbench/test checks that
   the two agree. *)

(* Untraced run, every workload.  What each means on each workload is
   tabulated in perfbench/README.md. *)
let end_to_end : (string * string) list =
  [ ("setup_s", "s")
  ; ("latency_ms_p50", "ms")
  ; ("latency_ms_tail", "ms")
  ; ("warm_ms", "ms")
  ; ("cold_ms", "ms")
  ; ("slo_met_share", "ratio")
  ]

(* A name usable as a metric key: letters, digits, '_', '.', '-'. *)
let key (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
      | _ -> '_')
    s

(* The rodinia_cli source table, in Rodinia.Registry order plus matmul. *)
let sources : string list =
  [ "backprop"; "bfs"; "b+tree"; "cfd"; "hotspot"; "hotspot3D"; "lud"
  ; "myocyte"; "nw"; "particlefilter"; "pathfinder"; "srad_v1"; "srad_v2"
  ; "streamcluster"; "matmul"
  ]

(* The Cpuify.pipeline_stages names, each timed raw on rodinia_cli. *)
let stages : string list =
  [ "canonicalize"; "cse"; "mem2reg"; "licm"; "barrier-elim"; "cpuify" ]

(* The kernel names Kmgr caches for the mini-ResNet forward. *)
let kernels : string list =
  [ "add"; "avgpool_global"; "col2im"; "gemm"; "im2col"; "linear"; "log"
  ; "nll"; "relu"; "softmax"
  ]

(* Traced run.  A layer a workload does not use reads 0 there. *)
let per_layer : (string * string) list =
  [ ("cudafe.codegen_ms", "ms")
  ; ("core.passmgr.run_pipeline_ms", "ms")
  ; ("core.passmgr.harness_ms", "ms")
  ]
  @ List.map (fun s -> ("core.stage." ^ s ^ "_ms", "ms")) stages
  @ [ ("core.omp_lower_ms", "ms")
    ; ("ir.verifier_ms", "ms")
    ; ("runtime.exec_compile_ms", "ms")
    ]
  @ List.map (fun s -> ("runtime.run_ms." ^ key s, "ms")) sources
  @ [ ("runtime.exec.launches", "count")
    ; ("runtime.exec.barrier_phases", "count")
    ; ("runtime.exec.chunks_grabbed", "count")
    ; ("runtime.exec.frames_allocated", "count")
    ; ("runtime.pool.spawns", "count")
    ]
  @ List.map (fun k -> ("moccuda.kmgr.kernel_ms." ^ k, "ms")) kernels
  @ [ ("moccuda.kmgr.overhead_ms", "ms")
    ; ("moccuda.kmgr.hits", "count")
    ; ("moccuda.kmgr.compiles", "count")
    ; ("moccuda.arena.allocs", "count")
    ; ("serve.submit_ms", "ms")
    ; ("serve.queue_depth", "count")
    ; ("serve.overloaded", "count")
    ; ("serve.cache.hit_share", "ratio")
    ; ("serve.cache.quarantined", "count")
    ; ("serve.supervisor.retries", "count")
    ; ("serve.supervisor.failed", "count")
    ; ("serve.executor_kills", "count")
    ; ("serve.miss_compile_ms", "ms")
    ; ("serve.generator_late_ms", "ms")
    ; ("trace.overhead_ratio", "ratio")
    ; ("uncovered_ms", "ms")
    ]
