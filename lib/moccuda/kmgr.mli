(** The kernel manager: a compile-once cache over {!Kernels} sources,
    each compiled through the full pipeline (frontend -> fault-tolerant
    barrier lowering via {!Core.Passmgr} -> OpenMP lowering -> verifier
    -> the compiled multicore engine) and launched under a
    {!Runtime.Watchdog} deadline.

    Cache discipline follows [Serve.Cache]: MD5 keys over
    (op, shape, entry, pipeline options), a digest seal over the
    lowered IR re-verified on every hit, corrupt entries dropped and
    counted rather than trusted. *)

type t

type stats =
  { mutable compiles : int
  ; mutable hits : int
  ; mutable misses : int
  ; mutable corrupt_dropped : int
  ; mutable degraded : int
        (** kernels that did not compile at the Primary rung *)
  ; mutable interp_fallbacks : int
        (** entries the compiled engine rejected, running on the serial
            interpreter rung *)
  ; mutable launches : int
  }

type kernel_info =
  { kname : string
  ; kshape : int list
  ; krung : string
        (** the deepest ladder rung ({!Core.Passmgr.deepest}: ["primary"],
            ["skip"], ["no-mincut"] or ["no-opt-fallback"]), with
            ["+interp"] appended when the engine rejected the entry *)
  ; klaunches : int
  ; ksecs : float (** cumulative wall-clock inside launches *)
  }

(** [create ()] makes an empty manager.  [domains] (default 4) is the
    team size of every launch, [deadline_ms] (default 60000) the
    watchdog bound per launch, [options] the barrier-lowering pipeline
    configuration (part of the cache key). *)
val create :
  ?domains:int ->
  ?deadline_ms:int ->
  ?options:Core.Cpuify.options ->
  unit ->
  t

(** The cache key of a kernel under this manager's pipeline options. *)
val key : t -> Kernels.t -> string

(** Launch a kernel with the given arguments (buffer layout per the
    {!Kernels} constructor), compiling and caching it on first use.
    [domains] overrides the manager's team size for this launch.
    @raise Runtime.Exec.Timeout when the watchdog deadline expires.
    @raise Interp.Mem.Runtime_error on kernel failure. *)
val launch : ?domains:int -> t -> Kernels.t -> Interp.Mem.rv list -> unit

val stats : t -> stats
val domains : t -> int

(** Per-kernel cache entries (name order): rung, launches, seconds. *)
val kernels : t -> kernel_info list

val stats_to_string : stats -> string
