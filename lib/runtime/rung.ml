(* The runtime rung of the degradation ladder.

   An entry point runs on the parallel engine; when that fails, the
   calling domain's pool is torn down once (a poisoned or wedged team
   must not share the process with the re-run) and the entry re-runs on
   the serial GPU-semantics interpreter with FRESH arguments, since the
   failed run may have half-mutated the previous buffers.  The one-shot
   driver and the compile service both run entry points through here,
   so argument synthesis, the fallback sequence and the output lines
   cannot drift apart between them; callers bring only their policy
   through [on_failure]. *)

(* Integer arguments come from [sizes]; every pointer parameter gets a
   buffer of the first size, filled with a deterministic pattern so the
   output checksum is meaningful. *)
let make_args (f : Ir.Op.op) (sizes : int list) : Interp.Mem.rv list =
  let default_n = match sizes with n :: _ -> n | [] -> 64 in
  let sizes = ref sizes in
  Array.to_list f.Ir.Op.regions.(0).rargs
  |> List.map (fun (p : Ir.Value.t) ->
      match p.Ir.Value.typ with
      | Ir.Types.Memref { elem; _ } ->
        if Ir.Types.is_float_dtype elem then
          Interp.Mem.Buf
            (Interp.Mem.of_float_array
               (Array.init default_n (fun i ->
                    float_of_int ((i * 7 mod 11) + 1) /. 3.0)))
        else
          Interp.Mem.Buf
            (Interp.Mem.of_int_array
               (Array.init default_n (fun i -> i * 13 mod 17)))
      | Ir.Types.Scalar d when Ir.Types.is_int_dtype d -> begin
        match !sizes with
        | n :: rest ->
          sizes := rest;
          Interp.Mem.Int n
        | [] -> Interp.Mem.Int default_n
      end
      | Ir.Types.Scalar _ -> Interp.Mem.Flt 1.0)

(* Commutative digest of the final buffer contents: identical across
   correct lowerings AND across serial/parallel executions of the same
   race-free program. *)
let checksum_of_args (args : Interp.Mem.rv list) : string =
  let bufs =
    List.filter_map (function Interp.Mem.Buf b -> Some b | _ -> None) args
    |> Array.of_list
  in
  Printf.sprintf "%.9g" (Interp.Mem.checksum bufs)

let describe_failure = function
  | Exec.Unsupported s -> "unsupported: " ^ s
  | Exec.Injected -> "injected fault"
  | Exec.Timeout ms ->
    Printf.sprintf "timeout: launch exceeded %d ms (watchdog cancel)" ms
  | Interp.Mem.Runtime_error s -> s
  | e -> Printexc.to_string e

type path =
  | Serial of Interp.Eval.stats
  | Parallel of Exec.stats
  | Degraded of
      { cause : exn
      ; leaked : int
      ; serial : Interp.Eval.stats
      }

type outcome =
  { args : Interp.Mem.rv list
  ; path : path
  }

let run ?(on_failure = ignore) ~(parallel : bool) ~(domains : int) ?schedule
    ?chunk ?team_reuse ?inject_fault ?inject_hang ?timeout_ms (m : Ir.Op.op)
    (entry : string) (sizes : int list) : (outcome, string) result =
  match Ir.Op.find_func m entry with
  | None -> Error (Printf.sprintf "no function @%s in the module" entry)
  | Some f ->
    let serial () =
      let args = make_args f sizes in
      (args, snd (Interp.Eval.run m entry args))
    in
    if not parallel then
      let args, stats = serial () in
      Ok { args; path = Serial stats }
    else begin
      let args = make_args f sizes in
      match
        Exec.run_module ~domains ?schedule ?chunk ?team_reuse ?inject_fault
          ?inject_hang ?timeout_ms m entry args
      with
      | _, stats -> Ok { args; path = Parallel stats }
      | exception cause ->
        on_failure cause;
        let leaked = Pool.teardown_cached () in
        let args, stats = serial () in
        Ok { args; path = Degraded { cause; leaked; serial = stats } }
    end

let report_lines ?(stats = false) ~(entry : string) ~(domains : int)
    (o : outcome) : string list =
  let serial_line (s : Interp.Eval.stats) =
    Printf.sprintf "executed @%s: %d ops, %d loads, %d stores, %d barrier waits"
      entry s.Interp.Eval.ops s.Interp.Eval.loads s.Interp.Eval.stores
      s.Interp.Eval.barriers
  in
  let executed =
    match o.path with
    | Serial s | Degraded { serial = s; _ } -> [ serial_line s ]
    | Parallel r ->
      Printf.sprintf
        "executed @%s: parallel runtime, %d domains, %d launches, %d barrier \
         phases, %d domain spawns"
        entry domains r.Exec.launches r.Exec.barrier_phases
        r.Exec.domain_spawns
      :: (if stats then
            [ Printf.sprintf
                "runtime stats @%s: launches=%d barrier_phases=%d \
                 domain_spawns=%d chunks_grabbed=%d frames_allocated=%d"
                entry r.Exec.launches r.Exec.barrier_phases
                r.Exec.domain_spawns r.Exec.chunks_grabbed
                r.Exec.frames_allocated
            ]
          else [])
  in
  executed
  @ [ Printf.sprintf "output checksum @%s: %s" entry (checksum_of_args o.args) ]
