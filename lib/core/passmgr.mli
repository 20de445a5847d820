(** The fault-tolerant pass manager.

    Runs every stage of {!Cpuify.pipeline_stages} under a recovery
    harness: deep snapshot before the stage, exception isolation plus a
    fuel budget around it, IR verification after it, and on any failure
    a rollback to the snapshot followed by a descent of the degradation
    ladder — min-cut split, cache-everything split, skip the
    optimization, and finally a whole-pipeline fallback to the
    conservative no-opt lowering, so the pipeline always produces
    runnable barrier-free IR.  Failures are recorded in the {!report}
    and, when [crash_dir] is set, serialized as replayable
    {!Crashbundle} files. *)

type rung =
  | Primary (** the stage as configured (for cpuify: min-cut split) *)
  | No_mincut (** cpuify retried with cache-everything splitting *)
  | Skip (** optimization stage rolled back and skipped *)
  | Fallback (** whole-pipeline conservative no-opt lowering *)

val rung_to_string : rung -> string

type stage_failure =
  { stage : string
  ; stage_index : int
  ; rung : rung (** ladder rung being attempted when it failed *)
  ; exn_text : string
  ; backtrace : string
  ; bundle : string option (** crash bundle path, when one was written *)
  }

type degradation =
  { failure : stage_failure (** the failure that forced the descent *)
  ; recovered_to : rung
  }

type report =
  { degradations : degradation list (** in pipeline order *)
  ; failures : stage_failure list
        (** every failure encountered, at every rung, in order — what
            [--replay] matches a bundle against *)
  ; fell_back : bool (** the whole-pipeline no-opt fallback engaged *)
  ; bundles : string list (** crash bundle paths written *)
  }

(** Did anything have to recover? *)
val degraded : report -> bool

val failure_to_string : stage_failure -> string

(** Multi-line human-readable degradation report ("" when clean). *)
val report_to_string : report -> string

(** Speculative-edit harness over {!Ir.Clone.snapshot}/[restore]: run
    the thunk and keep its edits to the module only when it returns
    [true]; on [false] or an exception the module is restored to its
    pre-call state and the call returns [false].  Restore transplants
    fresh clones, so op/region references taken before the call dangle
    after a rollback — re-derive them.  This is the rollback substrate
    of the {!Repair} candidate search. *)
val with_rollback : Ir.Op.op -> (unit -> bool) -> bool

(** Run the full pre-OpenMP pipeline on the module, fault-tolerantly.
    [faults] is a deterministic injection plan (each entry one-shot);
    [source], [repro] and [runtime] (the active execution
    configuration, if any) are recorded verbatim in crash bundles.
    [Ok report] means the module now holds runnable barrier-free IR
    (possibly degraded — check {!degraded} / [fell_back]); [Error]
    means even the conservative fallback failed, with the report of
    everything tried plus the final failure. *)
val run_pipeline :
  ?options:Cpuify.options ->
  ?faults:Fault.plan ->
  ?crash_dir:string ->
  ?source:string ->
  ?repro:string ->
  ?runtime:Crashbundle.runtime_cfg ->
  Ir.Op.op ->
  (report, report * stage_failure) result

(** The deepest rung a report descended to: [Fallback] if the
    whole-pipeline fallback engaged, else [No_mincut] if cpuify needed
    its second rung, else [Skip] if any stage was skipped, else
    [Primary]. *)
val deepest : report -> rung

(** {1 The one lowering entry point} *)

(** The lowering recipe ([--cpuify]): the optimized ladder with
    serialized or parallel inner regions, or the ladder's last rung
    alone. *)
type mode =
  | Inner_serial
  | Inner_parallel
  | No_opt

(** The recipes under their wire/CLI names: ["inner-serial"],
    ["inner-parallel"], ["no-opt"]. *)
val modes : (string * mode) list

val mode_of_string : string -> mode option
val mode_to_string : mode -> string

(** Fuel budget of the no-opt rung when [mode] is [No_opt]. *)
val no_opt_fuel : int

type lower_error =
  | Unrecoverable of report * stage_failure
        (** even the whole-pipeline fallback failed *)
  | No_opt_failed of string (** the [No_opt] rung could not lower *)
  | Unverifiable of string (** the lowered module does not verify *)

(** The one-line diagnostic the driver and the compile service print. *)
val lower_error_to_string : lower_error -> string

(** Lower a frontend module to verified OpenMP-dialect IR, in place:
    the degradation ladder ({!run_pipeline}, whose optional arguments
    these are), or for [No_opt] its last rung alone under
    {!no_opt_fuel} (faults and crash bundles do not apply); then
    {!Omp_lower}, {!Canonicalize} and the verifier.  This is the only
    place the OpenMP options are chosen: [omp] when given, else those
    of [mode] — and always the defaults once the whole-pipeline
    fallback engaged, since the module is then the no-opt lowering.
    @raise Fuel.Exhausted if the [No_opt] rung runs out of fuel. *)
val lower :
  ?options:Cpuify.options ->
  ?faults:Fault.plan ->
  ?crash_dir:string ->
  ?source:string ->
  ?repro:string ->
  ?runtime:Crashbundle.runtime_cfg ->
  ?omp:Omp_lower.options ->
  mode:mode ->
  Ir.Op.op ->
  (report, lower_error) result
