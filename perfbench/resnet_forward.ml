(* resnet_forward: warm mini-ResNet forwards through the MocCUDA kernel
   tier (Resnet.run_mini_compiled) at [nproc] domains.

   A closed loop with one caller.  Every op of the network is a
   transpiled mini-CUDA kernel behind the Kmgr cache and the Arena;
   kernel compilation happens in set-up, so the compile layers do no
   work here.  Each forward's loss is checked bitwise against the
   Moccuda_expert Tensorlib reference of the same inputs. *)

open Perfbench_kit
open Common
open Moccuda
open Tensorlib

(* The shape of the network: two images of 8x8 with 8 channels, the
   shape whose 8x128x72 GEMM the ROADMAP quotes.  A warm forward takes
   tens of milliseconds on two cores, so a 10 s window holds well over
   the 100 forwards the p90 needs for ten samples beyond it. *)
let batch = 2
let hw = 8
let channels = 8

(* Distinct seeded input batches; forwards cycle through them. *)
let n_inputs = 4

type input =
  { images : Interp.Mem.buffer
  ; targets : Interp.Mem.buffer
  ; reference : float (* Tensorlib loss of the same inputs *)
  }

type state =
  { km : Kmgr.t
  ; ar : Arena.t
  ; cm : Resnet.compiled_mini
  ; inputs : input array
  ; cold_s : float (* the first forward, which compiles every kernel *)
  }

let forward (st : state) (x : input) : float =
  Resnet.run_mini_compiled st.cm st.km st.ar ~images:x.images ~targets:x.targets

let check (x : input) (loss : float) : unit =
  if not (same_bits loss x.reference) then
    failwith
      (Printf.sprintf "loss %.17g differs from the Tensorlib reference %.17g" loss
         x.reference)

(* Reference losses, a cold Kmgr (every kernel compiled on the first
   forward) and one checked warm forward per input, which fills the
   arena pool and the team pool. *)
let setup (ctx : ctx) : state =
  let model = Resnet.mini_model ~channels in
  let r = Rng.make ctx.seed in
  let inputs =
    Array.init n_inputs (fun _ ->
        let images = Tensor.rand (Rng.int r 1_000_000) [| batch; 3; hw; hw |] in
        let targets = Array.init batch (fun _ -> Rng.int r 10) in
        { images = Graph.buffer_of_tensor images
        ; targets = Graph.buffer_of_ints targets
        ; reference = Resnet.mini_forward Backends.Moccuda_expert model ~images ~targets
        })
  in
  let km = Kmgr.create ~domains:ctx.nproc () in
  let st =
    { km; ar = Arena.create (); cm = Resnet.mini_compiled model ~batch ~hw; inputs
    ; cold_s = 0.0 }
  in
  let loss, cold_s = timed (fun () -> forward st inputs.(0)) in
  check inputs.(0) loss;
  Array.iter (fun x -> check x (forward st x)) inputs;
  { st with cold_s }

(* Kernel seconds so far, summed per kernel name. *)
let kernel_secs (km : Kmgr.t) : (string * float) list =
  List.map
    (fun k ->
      ( k
      , List.fold_left
          (fun acc (ki : Kmgr.kernel_info) -> if ki.kname = k then acc +. ki.ksecs else acc)
          0.0 (Kmgr.kernels km) ))
    Catalog.kernels

let run (ctx : ctx) : outcome =
  let colds = ref [] in
  let st, setup_s =
    repeat_setup ~reps:5 ~teardown:(fun st -> colds := st.cold_s :: !colds) (fun () -> setup ctx)
  in
  let cold_samples = st.cold_s :: !colds in
  let acc = Acc.create () in
  let fwd = ref [] and traced_fwd = ref [] and untraced_fwd = ref [] in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let compiles0 = (Kmgr.stats st.km).compiles and allocs0 = Arena.allocs st.ar in
  let spawns0 = Runtime.Pool.total_spawns () in
  let deadline = Clock.now () +. ctx.seconds in
  while Clock.now () < deadline do
    let x = st.inputs.(!attempted mod n_inputs) in
    let traced = ctx.trace && !attempted land 1 = 1 in
    incr attempted;
    let before = if traced then kernel_secs st.km else [] in
    let hits0 = (Kmgr.stats st.km).hits in
    match timed (fun () -> forward st x) with
    | exception e ->
      incr failed;
      say "resnet_forward: forward failed: %s" (Printexc.to_string e)
    | loss, dt ->
      if not (same_bits loss x.reference) then begin
        incr failed;
        incr wrong;
        say "resnet_forward: loss %.17g differs from the reference %.17g" loss x.reference
      end
      else begin
        fwd := dt :: !fwd;
        if ctx.trace then begin
          if traced then traced_fwd := dt :: !traced_fwd
          else untraced_fwd := dt :: !untraced_fwd
        end;
        if traced then begin
          let kernels = ref 0.0 in
          List.iter2
            (fun (k, a) (_, b) ->
              kernels := !kernels +. (b -. a);
              Acc.add acc ("moccuda.kmgr.kernel_ms." ^ k) (ms (b -. a)))
            before (kernel_secs st.km);
          (* graph walk, arena, cache lookup and seal re-verify *)
          Acc.add acc "moccuda.kmgr.overhead_ms" (ms (dt -. !kernels));
          Acc.add acc "uncovered_ms" (ms (dt -. !kernels));
          Acc.add acc "moccuda.kmgr.hits" (float_of_int ((Kmgr.stats st.km).hits - hits0))
        end
      end
  done;
  let fwd_ms = List.map ms !fwd in
  say "resnet_forward: %d forwards, closed loop, 1 caller, %d domains, batch=%d hw=%d channels=%d"
    !attempted ctx.nproc batch hw channels;
  let layers =
    if not ctx.trace then []
    else
      Acc.means acc
      @ [ ("moccuda.kmgr.compiles", float_of_int ((Kmgr.stats st.km).compiles - compiles0))
        ; ("moccuda.arena.allocs", float_of_int (Arena.allocs st.ar - allocs0))
        ; ("runtime.pool.spawns", float_of_int (Runtime.Pool.total_spawns () - spawns0))
        ; ("trace.overhead_ratio", overhead_ratio ~traced:!traced_fwd ~untraced:!untraced_fwd)
        ]
  in
  let end_to_end =
    if fwd_ms = [] then []
    else begin
      let p50 = Stats.median fwd_ms in
      let p90, beyond = Stats.percentile 90.0 fwd_ms in
      let cold = ms (Stats.median cold_samples) in
      let share = float_of_int (!attempted - !failed) /. float_of_int !attempted in
      report ~key:"latency_ms_p50" ~what:"forward_ms_p50" p50 (samples_note fwd_ms);
      report ~key:"latency_ms_tail" ~what:"forward_ms_p90" p90 (tail_note fwd_ms beyond);
      report ~key:"warm_ms" ~what:"forward_ms_p50" p50 "every timed forward is warm";
      report ~key:"cold_ms" ~what:"cold_forward_ms" cold (samples_note cold_samples);
      report ~key:"slo_met_share" ~what:"correct_share" share "";
      [ ("latency_ms_p50", p50)
      ; ("latency_ms_tail", p90)
      ; ("warm_ms", p50)
      ; ("cold_ms", cold)
      ; ("slo_met_share", share)
      ]
    end
  in
  { setup_s; attempted = !attempted; failed = !failed; correct = !wrong = 0; end_to_end
  ; layers }
