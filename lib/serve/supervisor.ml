(* The job fault wall.

   [run_job] executes one compile(/run) job with exactly the one-shot
   CLI's semantics — the same lowering entry point
   ({!Core.Passmgr.lower}) and runtime rung ({!Runtime.Rung}), so the
   same exit codes, log lines and output checksum — inside a
   supervision harness that the one-shot driver does not need:

     - a wall-clock deadline enforced through {!Runtime.Watchdog}: the
       parallel engine gets the remaining budget as its cancel bound,
       and serving-layer hangs (the serve:hang fault) spin on the
       watchdog token instead of blocking forever;
     - the no-opt rung's fuel budget ({!Core.Passmgr.no_opt_fuel}),
       so a diverging conservative lowering raises
       {!Core.Fuel.Exhausted} instead of wedging the executor;
     - exception containment: NOTHING escapes [run_job] — every job
       death becomes a structured failure outcome plus a replayable
       rung="serve" crash bundle (format v3: duration, retry count,
       queue depth);
     - pool hygiene: a parallel failure the runtime rung absorbs tears
       the lane's pool down, and any job death after a launch rebuilds
       it ({!Runtime.Pool.rebuild}), so a poisoned team never bleeds
       into the next job — both are counted, with leaked domains;
     - retry with decorrelated-jitter backoff ({!Backoff}) for
       transient failure classes (timeouts, injected faults, corrupt
       artifacts) — deterministic failures are never retried;
     - a per-source circuit breaker: a source hash that keeps failing
       is tripped to the conservative no-opt lowering (the pass
       manager's final ladder rung) instead of burning retries forever.

   Integrity: a successful result is serialized and digest-sealed
   before it is cached or returned; the serve:corrupt fault flips a
   byte between sealing and verification, and the wall treats the
   mismatch as a transient job death — the corrupt artifact is never
   cached and never reaches the client. *)

exception Corrupt_artifact

(* --- failure description and classification --- *)

(* One line, stable across runs: it is both the client-visible error
   and the replay oracle recorded in the crash bundle. *)
let describe (e : exn) : string =
  match e with
  | Cudafe.Parser.Error e -> "parse error: " ^ e
  | Cudafe.Codegen.Error e -> "codegen error: " ^ e
  | Core.Cpuify.Stuck e -> "cpuify: " ^ e
  | Interp.Mem.Runtime_error e -> "runtime error: " ^ e
  | Core.Fault.Injected s -> "injected fault: " ^ s
  | Core.Fuel.Exhausted w -> "fuel exhausted: " ^ w
  | Runtime.Exec.Injected -> "injected fault"
  | Runtime.Exec.Unsupported s -> "unsupported: " ^ s
  | Runtime.Exec.Timeout ms ->
    Printf.sprintf "timeout: job exceeded %d ms (watchdog cancel)" ms
  | Corrupt_artifact -> "corrupt artifact: result failed its digest check"
  | Failure msg -> msg
  | e -> Printexc.to_string e

(* Transient = a re-run can plausibly succeed: watchdog timeouts and
   injected faults (one-shot by construction) and artifact corruption
   (regenerated by a re-run).  Everything else — parse errors, codegen
   errors, kernels that trap, unknown exceptions — is deterministic:
   the job would fail identically, so retrying burns service capacity
   for nothing. *)
let classify (e : exn) : Backoff.cls =
  match e with
  | Runtime.Exec.Timeout _ | Runtime.Exec.Injected | Core.Fault.Injected _
  | Corrupt_artifact | Core.Fuel.Exhausted _ ->
    Backoff.Transient
  | _ -> Backoff.Deterministic

(* --- circuit breaker --- *)

module Breaker = struct
  type state =
    { mutable fails : int (* consecutive failed attempts *)
    ; mutable tripped : bool
    ; mutable okstreak : int (* conservative successes while tripped *)
    }

  type t =
    { tbl : (string, state) Hashtbl.t (* source hash -> state *)
    ; threshold : int (* consecutive failures that trip *)
    ; recovery : int (* conservative successes that untrip *)
    ; mutable trips : int
    }

  let create ~threshold ~recovery : t =
    { tbl = Hashtbl.create 16; threshold; recovery; trips = 0 }

  let state (t : t) (hash : string) : state =
    match Hashtbl.find_opt t.tbl hash with
    | Some s -> s
    | None ->
      let s = { fails = 0; tripped = false; okstreak = 0 } in
      Hashtbl.replace t.tbl hash s;
      s

  let tripped (t : t) (hash : string) : bool = (state t hash).tripped

  let record_failure (t : t) (hash : string) : unit =
    let s = state t hash in
    s.fails <- s.fails + 1;
    s.okstreak <- 0;
    if (not s.tripped) && s.fails >= t.threshold then begin
      s.tripped <- true;
      t.trips <- t.trips + 1
    end

  (* [conservative] successes count toward half-open recovery; a direct
     success simply clears the failure streak. *)
  let record_success (t : t) (hash : string) ~(conservative : bool) : unit =
    let s = state t hash in
    if s.tripped then begin
      if conservative then begin
        s.okstreak <- s.okstreak + 1;
        if s.okstreak >= t.recovery then begin
          s.tripped <- false;
          s.fails <- 0;
          s.okstreak <- 0
        end
      end
    end
    else s.fails <- 0
end

(* --- configuration and state --- *)

type config =
  { deadline_ms : int (* per-job wall-clock budget; 0 disables *)
  ; backoff : Backoff.policy
  ; crash_dir : string option
  ; breaker_threshold : int
  ; breaker_recovery : int
  ; seed : int (* jitter seed component *)
  }

let default_config =
  { deadline_ms = 10_000
  ; backoff = Backoff.default
  ; crash_dir = None
  ; breaker_threshold = 3
  ; breaker_recovery = 3
  ; seed = 0
  }

type stats =
  { mutable jobs : int
  ; mutable completed : int
  ; mutable failed : int (* jobs that died after exhausting retries *)
  ; mutable retries : int
  ; mutable bundles : int
  ; mutable pool_rebuilds : int
  ; mutable leaked_domains : int
  ; mutable breaker_served : int (* jobs served via a tripped breaker *)
  }

type t =
  { cfg : config
  ; breaker : Breaker.t
  ; stats : stats
  }

let create (cfg : config) : t =
  { cfg
  ; breaker =
      Breaker.create ~threshold:cfg.breaker_threshold
        ~recovery:cfg.breaker_recovery
  ; stats =
      { jobs = 0
      ; completed = 0
      ; failed = 0
      ; retries = 0
      ; bundles = 0
      ; pool_rebuilds = 0
      ; leaked_domains = 0
      ; breaker_served = 0
      }
  }

let breaker_trips (t : t) : int = t.breaker.Breaker.trips

(* A one-shot-CLI-shaped repro line: --replay parses entry and sizes
   back out of it exactly like it does for runtime bundles. *)
let repro_of_job (j : Proto.job) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b "polygeist-cpu JOB.cu -cuda-lower";
  Buffer.add_string b (Printf.sprintf " --cpuify %s" j.mode);
  (match j.entry with
   | Some e -> Buffer.add_string b (Printf.sprintf " --run %s" e)
   | None -> ());
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf " --size %d" n)) j.sizes;
  Buffer.add_string b
    (Printf.sprintf " --exec %s --domains %d --schedule %s" j.exec j.domains
       j.schedule);
  if j.faults <> "" then
    Buffer.add_string b (Printf.sprintf " --inject-fault %s" j.faults);
  Buffer.add_string b " (via polygeist-cpu serve)";
  Buffer.contents b

(* --- the fault wall around one attempt --- *)

(* Pool hygiene bookkeeping: every teardown of a lane's pool is counted,
   with the wedged domains it had to leak. *)
let count_teardown (t : t) ~(leaked : int) : unit =
  t.stats.pool_rebuilds <- t.stats.pool_rebuilds + 1;
  t.stats.leaked_domains <- t.stats.leaked_domains + leaked

let rebuild_pool (t : t) ~(domains : int) : unit =
  count_teardown t ~leaked:(snd (Runtime.Pool.rebuild ~domains))

(* Run one attempt under the serve-level fault injection and the
   watchdog deadline.  Returns the outcome together with its sealed
   artifact payload.  Raises on job death — the caller (retry loop)
   owns containment. *)
let attempt (t : t) ~(conservative : bool) ~(launched : bool ref)
    ~(job : Proto.job) ~(plan : Core.Fault.plan)
    ~(serve_fault : Core.Fault.kind option) : Proto.outcome * string =
  let deadline_ms = t.cfg.deadline_ms in
  let token =
    if deadline_ms > 0 then
      Some (Runtime.Watchdog.arm ~timeout_ms:deadline_ms ~on_timeout:(fun () -> ()))
    else None
  in
  let t0 = Unix.gettimeofday () in
  let remaining_ms () =
    match token with
    | None -> 0
    | Some _ ->
      let left =
        deadline_ms - int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
      in
      max 1 left
  in
  Fun.protect
    ~finally:(fun () ->
      match token with Some tok -> Runtime.Watchdog.disarm tok | None -> ())
    (fun () ->
      let corrupt_result = ref false in
      (match serve_fault with
       | None -> ()
       | Some Core.Fault.Corrupt -> corrupt_result := true
       | Some Core.Fault.Raise ->
         raise (Core.Fault.Injected "serve:raise")
       | Some Core.Fault.Exhaust ->
         (* the job's fuel budget, exhausted immediately *)
         Core.Fuel.with_budget 0 (fun () -> Core.Fuel.tick "serve")
       | Some Core.Fault.Hang -> begin
         match token with
         | None ->
           (* no deadline to cancel the hang: degrade the injection to
              an immediate raise rather than wedging the executor *)
           raise (Core.Fault.Injected "serve:hang")
         | Some tok ->
           (* park the serving layer until the watchdog fires — the
              cancellation the deadline exists to provide *)
           while not (Runtime.Watchdog.fired tok) do
             Unix.sleepf 0.001
           done;
           raise (Runtime.Exec.Timeout deadline_ms)
       end);
      let logb = Buffer.create 256 in
      let log line = Buffer.add_string logb (line ^ "\n") in
      let m = Cudafe.Codegen.compile job.source in
      let requested =
        Option.value (Core.Passmgr.mode_of_string job.mode)
          ~default:Core.Passmgr.Inner_serial
      in
      let tripped = conservative && requested <> Core.Passmgr.No_opt in
      if tripped then
        log "circuit breaker tripped for this source: conservative no-opt \
             lowering";
      let degraded =
        match
          Core.Passmgr.lower ~faults:plan ~source:job.source
            ~repro:(repro_of_job job)
            ~mode:(if conservative then Core.Passmgr.No_opt else requested)
            m
        with
        | Ok report ->
          if Core.Passmgr.degraded report then
            log ("pipeline degraded:\n" ^ Core.Passmgr.report_to_string report);
          tripped || Core.Passmgr.degraded report
        | Error e -> failwith (Core.Passmgr.lower_error_to_string e)
      in
      let checksum, runtime_degraded =
        match job.entry with
        | None -> ("-", false)
        | Some entry -> begin
          let parallel = job.exec <> "interp" && not conservative in
          if parallel then launched := true;
          let inject_fault, inject_hang = Core.Fault.runtime_injection plan in
          let on_failure = function
            | Runtime.Exec.Timeout _ as e ->
              (* the bound came from the job deadline: this is a job-level
                 timeout, not a degradable runtime hiccup *)
              raise e
            | e ->
              log
                (Printf.sprintf
                   "parallel runtime failed (%s); degrading to the serial \
                    interpreter"
                   (describe e))
          in
          match
            Runtime.Rung.run ~on_failure ~parallel ~domains:job.domains
              ?schedule:(Runtime.Schedule.of_string job.schedule)
              ~inject_fault ~inject_hang ~timeout_ms:(remaining_ms ()) m entry
              job.sizes
          with
          | Error msg -> failwith msg
          | Ok o ->
            List.iter log
              (Runtime.Rung.report_lines ~entry ~domains:job.domains o);
            let runtime_degraded =
              match o.Runtime.Rung.path with
              | Runtime.Rung.Degraded { leaked; _ } ->
                count_teardown t ~leaked;
                true
              | Runtime.Rung.Serial _ | Runtime.Rung.Parallel _ -> false
            in
            ( Runtime.Rung.checksum_of_args o.Runtime.Rung.args
            , runtime_degraded )
        end
      in
      let o =
        { Proto.exit_code = (if degraded || runtime_degraded then 1 else 0)
        ; checksum
        ; cached = false
        ; retries = 0
        ; breaker = conservative
        ; log = Buffer.contents logb
        }
      in
      (* integrity seal: hash the artifact, then verify before it may
         be cached or returned.  serve:corrupt flips a byte in between,
         which the verification must catch. *)
      let payload = Proto.outcome_to_string o in
      let digest = Digest.string payload in
      let payload =
        if !corrupt_result && String.length payload > 0 then begin
          let b = Bytes.of_string payload in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
          Bytes.to_string b
        end
        else payload
      in
      if Digest.string payload <> digest then raise Corrupt_artifact;
      (o, payload))

(* --- the supervised job --- *)

let source_hash (j : Proto.job) : string =
  Digest.to_hex (Digest.string j.source)

let write_bundle (t : t) ~(job : Proto.job) ~(plan : Core.Fault.plan)
    ~(exn_text : string) ~(backtrace : string) ~(attempt_no : int)
    ~(duration_ms : int) ~(queue_depth : int) : string option =
  match t.cfg.crash_dir with
  | None -> None
  | Some dir -> begin
    let b =
      { Core.Crashbundle.version = Core.Crashbundle.current_version
      ; stage = "serve"
      ; stage_index = attempt_no - 1
      ; rung = "serve"
      ; exn_text
      ; backtrace
      ; repro = repro_of_job job
      ; options = Core.Cpuify.default_options
      ; faults = plan
      ; runtime =
          Some
            { Core.Crashbundle.rexec = job.exec
            ; rdomains = job.domains
            ; rschedule = job.schedule
            ; rchunk = None
            ; rseed = None
            ; rtimeout_ms =
                (if t.cfg.deadline_ms > 0 then Some t.cfg.deadline_ms
                 else None)
            }
      ; serve =
          Some
            { Core.Crashbundle.sduration_ms = duration_ms
            ; sretries = attempt_no - 1
            ; squeue_depth = queue_depth
            }
      ; source = job.source
      ; ir_before = ""
      }
    in
    match Core.Crashbundle.write ~dir b with
    | Ok path ->
      t.stats.bundles <- t.stats.bundles + 1;
      Some path
    | Error _ -> None
  end

(* Crash bundle for a job whose EXECUTOR the fleet monitor declared
   wedged: the job never returned, so there is no exception or
   backtrace — the evidence is the elapsed time.  Written by the
   monitor domain after it has won the ticket (so a job that completed
   in the race window leaves no bundle). *)
let wedge_bundle (t : t) ~(job : Proto.job) ~(elapsed_ms : int) : string option
    =
  let plan =
    match Core.Fault.plan_of_string job.Proto.faults with
    | Ok p -> p
    | Error _ -> []
  in
  t.stats.failed <- t.stats.failed + 1;
  write_bundle t ~job ~plan
    ~exn_text:
      (Printf.sprintf
         "executor wedged: job still running after %d ms (fleet deadline)"
         elapsed_ms)
    ~backtrace:"" ~attempt_no:1 ~duration_ms:elapsed_ms ~queue_depth:0

let failure_outcome ~(exn_text : string) ~(retries : int)
    ~(bundle : string option) : Proto.outcome =
  let log =
    match bundle with
    | Some path ->
      Printf.sprintf "job failed: %s\ncrash bundle: %s" exn_text path
    | None -> Printf.sprintf "job failed: %s" exn_text
  in
  { Proto.exit_code = 2
  ; checksum = "-"
  ; cached = false
  ; retries
  ; breaker = false
  ; log
  }

(* Run one job to completion under the full fault wall.  Never raises;
   never takes more than [1 + backoff.max_retries] attempts; every
   failed attempt leaves exactly one crash bundle (when crash_dir is
   set) and a rebuilt pool behind it. *)
let run_job (t : t) ~(cache : Cache.t) ~(queue_depth : int) ~(job_id : int)
    (job : Proto.job) : Proto.outcome =
  t.stats.jobs <- t.stats.jobs + 1;
  match Core.Fault.plan_of_string job.faults with
  | Error e ->
    t.stats.failed <- t.stats.failed + 1;
    failure_outcome ~exn_text:("invalid fault plan: " ^ e) ~retries:0
      ~bundle:None
  | Ok plan ->
    (* injected-fault jobs are never cached: caching would swallow the
       injection (and its crash bundle) on every later submission *)
    let cacheable = job.faults = "" in
    let key = Cache.key ~source:job.source ~flags:(Proto.job_flags job) in
    let cached_hit =
      if cacheable then
        match Cache.find cache key with
        | Some payload -> begin
          match Proto.outcome_of_string payload with
          | Ok o ->
            t.stats.completed <- t.stats.completed + 1;
            Some { o with Proto.cached = true }
          | Error _ -> None (* unparsable artifact: fall through to re-run *)
        end
        | None -> None
      else None
    in
    match cached_hit with
    | Some o -> o
    | None ->
      let hash = source_hash job in
      let serve_pending =
        ref (List.filter_map (fun (s, k) -> if s = "serve" then Some k else None) plan)
      in
      let next_serve_fault () =
        match !serve_pending with
        | [] -> None
        | k :: rest ->
          serve_pending := rest;
          Some k
      in
      let conservative = Breaker.tripped t.breaker hash in
      if conservative then begin
        (* tripped: one conservative attempt, no retries — the ladder's
           last rung either serves a degraded result or fails cleanly *)
        let launched = ref false in
        let t0 = Unix.gettimeofday () in
        match
          attempt t ~conservative:true ~launched ~job ~plan
            ~serve_fault:(next_serve_fault ())
        with
        | o, _payload ->
          Breaker.record_success t.breaker hash ~conservative:true;
          t.stats.completed <- t.stats.completed + 1;
          t.stats.breaker_served <- t.stats.breaker_served + 1;
          o
        | exception e ->
          let duration_ms =
            int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
          in
          let exn_text = describe e in
          let backtrace = Printexc.get_backtrace () in
          if !launched then rebuild_pool t ~domains:job.domains;
          Breaker.record_failure t.breaker hash;
          let bundle =
            write_bundle t ~job ~plan ~exn_text ~backtrace ~attempt_no:1
              ~duration_ms ~queue_depth
          in
          t.stats.failed <- t.stats.failed + 1;
          failure_outcome ~exn_text ~retries:0 ~bundle
      end
      else begin
        let rec go attempt_no prev_delay =
          let launched = ref false in
          let t0 = Unix.gettimeofday () in
          match
            attempt t ~conservative:false ~launched ~job ~plan
              ~serve_fault:(next_serve_fault ())
          with
          | o, payload ->
            Breaker.record_success t.breaker hash ~conservative:false;
            if cacheable then Cache.store cache key payload;
            t.stats.completed <- t.stats.completed + 1;
            { o with Proto.retries = attempt_no - 1 }
          | exception e ->
            let duration_ms =
              int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
            in
            let exn_text = describe e in
            let backtrace = Printexc.get_backtrace () in
            if !launched then rebuild_pool t ~domains:job.domains;
            Breaker.record_failure t.breaker hash;
            let bundle =
              write_bundle t ~job ~plan ~exn_text ~backtrace ~attempt_no
                ~duration_ms ~queue_depth
            in
            let cls = classify e in
            if Backoff.retryable t.cfg.backoff cls ~attempt:attempt_no then begin
              let delay =
                Backoff.delay_ms t.cfg.backoff
                  ~seed:(t.cfg.seed lxor job_id)
                  ~attempt:attempt_no ~prev_ms:prev_delay
              in
              t.stats.retries <- t.stats.retries + 1;
              Unix.sleepf (float_of_int delay /. 1000.);
              go (attempt_no + 1) delay
            end
            else begin
              t.stats.failed <- t.stats.failed + 1;
              failure_outcome ~exn_text ~retries:(attempt_no - 1) ~bundle
            end
        in
        go 1 t.cfg.backoff.Backoff.base_ms
      end

(* A single unsupervised attempt, for --replay of rung="serve" crash
   bundles: same fault wall, no retry/cache/bundle.  Returns the
   failure text on job death. *)
let replay_attempt ~(deadline_ms : int) (job : Proto.job) :
  (Proto.outcome, string) result =
  let t = create { default_config with deadline_ms; crash_dir = None } in
  match Core.Fault.plan_of_string job.Proto.faults with
  | Error e -> Error ("invalid fault plan: " ^ e)
  | Ok plan ->
    let serve_fault =
      List.find_map (fun (s, k) -> if s = "serve" then Some k else None) plan
    in
    let launched = ref false in
    (match attempt t ~conservative:false ~launched ~job ~plan ~serve_fault with
     | o, _ -> Ok o
     | exception e ->
       if !launched then ignore (Runtime.Pool.rebuild ~domains:job.Proto.domains);
       Error (describe e))
