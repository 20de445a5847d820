(** The runtime rung of the degradation ladder: run an entry point on
    the parallel engine and, if that fails, tear the calling domain's
    pool down once and re-run on the serial GPU-semantics interpreter
    with fresh arguments.  Every caller that executes a lowered module
    for its user (the driver's [--run], the compile service) goes
    through {!run}; they differ only in the [on_failure] policy. *)

(** Argument synthesis: integer parameters take [sizes] in order (then
    the first size, default 64); every pointer parameter gets a buffer
    of the first size, filled with a deterministic pattern so the
    output checksum is meaningful and identical across callers. *)
val make_args : Ir.Op.op -> int list -> Interp.Mem.rv list

(** ["%.9g"] of {!Interp.Mem.checksum} over the buffer arguments: the
    semantic output, identical across serial and parallel runs of the
    same race-free program. *)
val checksum_of_args : Interp.Mem.rv list -> string

(** One line naming a parallel-engine failure — the text runtime crash
    bundles record and [--replay] compares. *)
val describe_failure : exn -> string

type path =
  | Serial of Interp.Eval.stats (** the interpreter was asked for *)
  | Parallel of Exec.stats (** the parallel engine completed *)
  | Degraded of
      { cause : exn (** why the parallel run failed *)
      ; leaked : int (** wedged domains the pool teardown leaked *)
      ; serial : Interp.Eval.stats (** the fallback run *)
      }

type outcome =
  { args : Interp.Mem.rv list (** arguments of the run that completed *)
  ; path : path
  }

(** [run ~parallel ~domains m entry sizes] executes [entry] on fresh
    {!make_args}: on the serial interpreter when [parallel] is false,
    else on {!Exec.run_module} with the given configuration.  When the
    parallel run raises, [on_failure] sees the exception first — raise
    from it to abandon the fallback — then the pool is torn down and
    the entry re-runs serially.  [Error] only when [entry] does not
    exist. *)
val run :
  ?on_failure:(exn -> unit) ->
  parallel:bool ->
  domains:int ->
  ?schedule:Schedule.policy ->
  ?chunk:int ->
  ?team_reuse:bool ->
  ?inject_fault:bool ->
  ?inject_hang:bool ->
  ?timeout_ms:int ->
  Ir.Op.op ->
  string ->
  int list ->
  (outcome, string) result

(** The run's output lines: which engine executed and its counters
    ([stats] adds the extended parallel counters), then the output
    checksum. *)
val report_lines :
  ?stats:bool -> entry:string -> domains:int -> outcome -> string list
