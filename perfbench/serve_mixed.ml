(* serve_mixed: an open loop at a fixed rate into an in-process
   Serve.Server with [nproc] executor lanes and a cache directory,
   carrying compile-only jobs on the Rodinia sources.

   Most requests repeat a revision that was served before: a cache
   read.  One in [new_every] submits a new revision instead (a seeded
   [// rev N] comment), which forces a real recompile and an fsync'd
   cache-journal write.  One generator thread sends each request at its
   scheduled time with Server.submit and timestamps the reply in
   Server.on_complete; latency runs from the scheduled send, so a stall
   also charges the requests queued behind it. *)

open Perfbench_kit
open Common

(* Requests per second.  Each request costs two fsync'd in-flight
   journal records, serialized on one lock, and one in ten a compile of
   tens of milliseconds; 40/s leaves headroom when the host's disk or
   CPU slows, and a 25 s window still gives the p99 ten samples beyond
   it. *)
let rate = 40.0
let new_every = 10 (* one forced recompile per ten requests *)
let slo_ms = 500.0 (* latency limit of slo_met_share *)

(* Far above any backlog the rate can build (a miss takes tens of
   milliseconds), so a refusal means real overload. *)
let queue_cap = 4096

(* Cache directories live here, inside the checkout, and are removed
   when the run ends. *)
let work_root = ".perfbench-work"

let sources : string array =
  Array.of_list
    (List.map
       (fun name -> (Option.get (Rodinia.Registry.find name)).Rodinia.Bench_def.cuda_src)
       Catalog.sources)

let job (ctx : ctx) (source : string) : Serve.Proto.job =
  { Serve.Proto.default_job with source; entry = None; domains = ctx.nproc }

(* The artifact a reply carries: its bytes as the cache stores them.
   [cached] and [retries] describe the delivery, not the artifact (the
   fault wall stores the payload of the attempt that succeeded, with
   no retry count). *)
let artifact (o : Serve.Proto.outcome) : string =
  Serve.Proto.outcome_to_string { o with cached = false; retries = 0 }

type state =
  { server : Serve.Server.t
  ; dir : string
  ; base : string array (* first reply of every base revision *)
  }

let reps = ref 0

(* A fresh server on a fresh cache directory.  Every base revision is
   compiled once (one job at a time, so the cache content does not
   depend on lane timing) and read back once, so both the miss and the
   hit path are warm before timing. *)
let setup (ctx : ctx) : state =
  incr reps;
  let dir =
    Filename.concat work_root (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !reps)
  in
  rm_rf dir;
  let server =
    Serve.Server.create
      { Serve.Server.default_config with
        queue_cap
      ; cache_dir = Some dir
      ; executors = ctx.nproc
      }
  in
  let serve ~cached src =
    match Serve.Server.run server (job ctx src) with
    | Serve.Proto.Done o when o.exit_code = 0 && o.cached = cached -> artifact o
    | _ -> failwith "serve_mixed: warm-up job did not complete cleanly"
  in
  let base = Array.map (serve ~cached:false) sources in
  Array.iteri
    (fun i src ->
      if serve ~cached:true src <> base.(i) then
        failwith "serve_mixed: warm-up hit differs from its first reply")
    sources;
  { server; dir; base }

let teardown (st : state) : unit =
  Serve.Server.drain st.server;
  rm_rf st.dir

(* Traced only, after the window: replay a miss's source through the
   executor's compile steps (cudafe -> passmgr -> omp_lower ->
   canonicalize -> verifier), splitting a miss reply into compile time
   and queue/serve time.  Returns the whole replay and the verifier's
   part, in ms. *)
let compile_ms (source : string) : float * float =
  let t0 = Clock.now () in
  let m = Cudafe.Codegen.compile source in
  ignore (Core.Passmgr.run_pipeline m);
  ignore (Core.Omp_lower.run m);
  Core.Canonicalize.run m;
  let t1 = Clock.now () in
  Ir.Verifier.verify m;
  let t2 = Clock.now () in
  (ms (t2 -. t0), ms (t2 -. t1))

let run (ctx : ctx) : outcome =
  let st, setup_s = repeat_setup ~reps:3 ~teardown (fun () -> setup ctx) in
  let server = st.server in
  let sched =
    Schedule.serve ~seed:ctx.seed ~rate ~seconds:ctx.seconds
      ~sources:(Array.length sources) ~new_every
  in
  let n = Array.length sched in
  let due = Array.make n 0.0 and late = Array.make n 0.0 in
  let done_at = Array.make n nan and replies = Array.make n None in
  let admitted = Array.make n false and traced = Array.make n false in
  let completed = Atomic.make 0 and n_admitted = ref 0 in
  let acc = Acc.create () in
  let cache0 = Serve.Cache.stats (Serve.Server.cache server) in
  let sup0 = Serve.Server.agg_stats server in
  let kills0 = Serve.Server.executor_kills server in
  let over0 = Serve.Server.overloaded_count server in
  let start = Clock.now () in
  Array.iteri
    (fun i (r : Schedule.request) ->
      due.(i) <- start +. r.at;
      let wait = due.(i) -. Clock.now () in
      if wait > 0.0 then Unix.sleepf wait;
      let t0 = Clock.now () in
      late.(i) <- t0 -. due.(i);
      traced.(i) <- ctx.trace && i land 1 = 1;
      if traced.(i) then
        Acc.add acc "serve.queue_depth" (float_of_int (Serve.Server.queue_depth server));
      match
        Serve.Server.submit server (job ctx (Schedule.with_rev sources.(r.src) r.rev))
      with
      | `Ticket tk ->
        if traced.(i) then Acc.add acc "serve.submit_ms" (ms (Clock.now () -. t0));
        admitted.(i) <- true;
        incr n_admitted;
        Serve.Server.on_complete tk (fun o ->
            done_at.(i) <- Clock.now ();
            replies.(i) <- Some o;
            Atomic.incr completed)
      | `Overloaded _ | `Draining -> ())
    sched;
  (* the backlog drains; a ticket still open after 30 s is lost (the
     whole run must end within 180 s, drain included) *)
  let give_up = Clock.now () +. 30.0 in
  while Atomic.get completed < !n_admitted && Clock.now () < give_up do
    Unix.sleepf 0.001
  done;
  let cache1 = Serve.Cache.stats (Serve.Server.cache server) in
  let sup1 = Serve.Server.agg_stats server in
  let kills = Serve.Server.executor_kills server - kills0 in
  let overloaded = Serve.Server.overloaded_count server - over0 in
  (* gates: every accepted ticket answered with exit 0; every hit
     byte-identical to its revision's first reply that stored an
     artifact (a failed job, exit 2, stores none and is recompiled) *)
  let first = Hashtbl.create 64 in
  Array.iteri (fun src b -> Hashtbl.replace first (src, 0) b) st.base;
  let failed = ref 0 and wrong = ref 0 and met = ref 0 in
  let lat = ref [] and hit = ref [] and miss = ref [] and unexpected_miss = ref 0 in
  Array.iteri
    (fun i (r : Schedule.request) ->
      match replies.(i) with
      | None ->
        incr failed;
        if admitted.(i) then begin
          incr wrong;
          say "serve_mixed: ticket %d never answered" i
        end
      | Some o ->
        let l = ms (done_at.(i) -. due.(i)) in
        lat := l :: !lat;
        if o.cached then hit := l :: !hit else miss := (r.src, l) :: !miss;
        if (not r.fresh) && not o.cached then incr unexpected_miss;
        let b = artifact o in
        (match Hashtbl.find_opt first (r.src, r.rev) with
         | None -> if o.exit_code <> 2 then Hashtbl.replace first (r.src, r.rev) b
         | Some b0 when o.cached && b0 <> b ->
           incr wrong;
           say "serve_mixed: hit %d differs from its revision's first reply" i
         | Some _ -> ());
        if o.exit_code <> 0 then begin
          incr failed;
          say "serve_mixed: request %d exit %d: %s" i o.exit_code
            (String.trim (String.concat " | " (String.split_on_char '\n' o.log)))
        end
        else if l <= slo_ms then incr met)
    sched;
  let late_ms = Array.to_list (Array.map ms late) in
  let late_p99, _ = Stats.percentile 99.0 late_ms in
  say "serve_mixed: open loop, %.0f req/s for %.0f s, %d executors, queue cap %d"
    rate ctx.seconds ctx.nproc queue_cap;
  say "  requests=%d admitted=%d refused=%d hits=%d misses=%d (forced %d, unexpected %d)"
    n !n_admitted (n - !n_admitted) (List.length !hit) (List.length !miss)
    (Array.fold_left (fun a (r : Schedule.request) -> if r.fresh then a + 1 else a) 0 sched)
    !unexpected_miss;
  say "  generator late: p50=%.3f ms p99=%.3f ms max=%.3f ms" (Stats.median late_ms)
    late_p99 (List.fold_left Float.max 0.0 late_ms);
  let layers =
    if not ctx.trace then []
    else begin
      let fresh =
        List.filteri (fun k _ -> k < 20)
          (List.filter_map
             (fun (r : Schedule.request) ->
               if r.fresh then Some (Schedule.with_rev sources.(r.src) r.rev) else None)
             (Array.to_list sched))
      in
      let replays = List.map compile_ms fresh in
      let miss_compile = Stats.mean (List.map fst replays) in
      let pick f =
        List.filter_map Fun.id
          (List.init n (fun i ->
               match replies.(i) with
               | Some o when f i -> Some (ms (done_at.(i) -. due.(i)), o)
               | _ -> None))
      in
      let traced_replies = pick (fun i -> traced.(i)) in
      let untraced_replies = pick (fun i -> not traced.(i)) in
      let submit_mean = Stats.mean (Acc.get acc "serve.submit_ms") in
      let uncovered =
        Stats.mean
          (List.map
             (fun (l, (o : Serve.Proto.outcome)) ->
               l -. submit_mean -. if o.cached then 0.0 else miss_compile)
             traced_replies)
      in
      let lookups = cache1.hits - cache0.hits + cache1.misses - cache0.misses in
      Acc.means acc
      @ [ ("serve.overloaded", float_of_int overloaded)
        ; ( "serve.cache.hit_share"
          , float_of_int (cache1.hits - cache0.hits) /. float_of_int (max 1 lookups) )
        ; ("serve.cache.quarantined", float_of_int (cache1.quarantined - cache0.quarantined))
        ; ("serve.supervisor.retries", float_of_int (sup1.retries - sup0.retries))
        ; ("serve.supervisor.failed", float_of_int (sup1.failed - sup0.failed))
        ; ("serve.executor_kills", float_of_int kills)
        ; ("serve.miss_compile_ms", miss_compile)
        ; ("ir.verifier_ms", Stats.mean (List.map snd replays))
        ; ("serve.generator_late_ms", late_p99)
        ; ( "trace.overhead_ratio"
          , overhead_ratio ~traced:(List.map fst traced_replies)
              ~untraced:(List.map fst untraced_replies) )
        ; ("uncovered_ms", uncovered)
        ]
    end
  in
  teardown st;
  (try Sys.rmdir work_root with Sys_error _ -> ());
  let end_to_end =
    if !hit = [] || !miss = [] then []
    else begin
      let p50 = Stats.median !lat and p99, beyond = Stats.percentile 99.0 !lat in
      let hit50 = Stats.median !hit in
      let miss50 = Stats.median (List.map snd !miss) in
      (* per-source median, geomean over sources: the plain p50 of a
         15-source mixture sits in a gap between sources and jumps *)
      let miss_geo =
        Stats.geomean
          (List.filter_map
             (fun s ->
               match List.filter_map (fun (s', l) -> if s' = s then Some l else None) !miss with
               | [] -> None
               | ls -> Some (Stats.median ls))
             (List.init (Array.length sources) Fun.id))
      in
      let share = float_of_int !met /. float_of_int n in
      report ~key:"latency_ms_p50" ~what:"reply_ms_p50" p50 (samples_note !lat);
      report ~key:"latency_ms_tail" ~what:"reply_ms_p99" p99 (tail_note !lat beyond);
      report ~key:"warm_ms" ~what:"hit_reply_ms_p50" hit50 (samples_note !hit);
      report ~key:"cold_ms" ~what:"miss_reply_ms_geomean" miss_geo
        (Printf.sprintf "%s; plain miss_reply_ms_p50=%.4f" (samples_note (List.map snd !miss))
           miss50);
      report ~key:"slo_met_share" ~what:"slo_met_share" share
        (Printf.sprintf "exit 0 within %.0f ms, of all sent" slo_ms);
      [ ("latency_ms_p50", p50)
      ; ("latency_ms_tail", p99)
      ; ("warm_ms", hit50)
      ; ("cold_ms", miss_geo)
      ; ("slo_met_share", share)
      ]
    end
  in
  { setup_s; attempted = n; failed = !failed; correct = !wrong = 0; end_to_end; layers }
