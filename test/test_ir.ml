(* Unit tests for the IR core: builder, printer, verifier, clone. *)

open Ir

let scalar_f32 = Types.Scalar Types.F32

let build_simple_func () =
  Builder.func "axpy"
    [ ("a", scalar_f32)
    ; ("x", Types.memref Types.F32 [ None ])
    ; ("y", Types.memref Types.F32 [ None ])
    ; ("n", Types.Scalar Types.Index)
    ]
    (fun args ->
      let seq = Builder.Seq.create () in
      let ev op = Builder.Seq.emitv seq op in
      let e op = ignore (Builder.Seq.emit seq op) in
      let c0 = ev (Builder.const_int 0) in
      let c1 = ev (Builder.const_int 1) in
      let loop =
        Builder.for_ ~lo:c0 ~hi:args.(3) ~step:c1 (fun iv ->
            let s = Builder.Seq.create () in
            let ev' op = Builder.Seq.emitv s op in
            let xi = ev' (Builder.load args.(1) [ iv ]) in
            let yi = ev' (Builder.load args.(2) [ iv ]) in
            let ax = ev' (Builder.binop Op.Mul args.(0) xi) in
            let r = ev' (Builder.binop Op.Add ax yi) in
            ignore (Builder.Seq.emit s (Builder.store r args.(2) [ iv ]));
            Builder.Seq.to_list s)
      in
      e loop;
      e (Builder.return_ []);
      Builder.Seq.to_list seq)

let test_verify_ok () =
  let m = Builder.module_ [ build_simple_func () ] in
  match Verifier.verify_result m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verifier rejected valid IR: %s" e

let test_verify_rejects_use_before_def () =
  let dangling = Value.fresh (Types.Scalar Types.Index) in
  let f =
    Builder.func "bad" [] (fun _ ->
        let op = Builder.binop Op.Add dangling dangling in
        [ op; Builder.return_ [] ])
  in
  let m = Builder.module_ [ f ] in
  match Verifier.verify_result m with
  | Ok () -> Alcotest.fail "verifier accepted use-before-def"
  | Error _ -> ()

let test_verify_rejects_barrier_outside_parallel () =
  let f = Builder.func "bad" [] (fun _ -> [ Builder.barrier (); Builder.return_ [] ]) in
  let m = Builder.module_ [ f ] in
  match Verifier.verify_result m with
  | Ok () -> Alcotest.fail "verifier accepted stray barrier"
  | Error _ -> ()

let test_printer_mentions_structure () =
  let m = Builder.module_ [ build_simple_func () ] in
  let s = Printer.op_to_string m in
  List.iter
    (fun frag ->
      let found =
        let fl = String.length frag and sl = String.length s in
        let rec go i = i + fl <= sl && (String.sub s i fl = frag || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "printed IR missing %S:\n%s" frag s)
    [ "func.func @axpy"; "scf.for"; "memref.load"; "memref.store"
    ; "arith.mulf"; "func.return" ]

let test_clone_remaps_values () =
  let f = build_simple_func () in
  let f' = Clone.clone_op_fresh f in
  (* Collect all value ids of both; they must be disjoint. *)
  let ids op =
    let acc = ref [] in
    Op.iter
      (fun o ->
        Array.iter (fun (v : Value.t) -> acc := v.id :: !acc) o.results;
        Array.iter
          (fun (r : Op.region) ->
            Array.iter (fun (v : Value.t) -> acc := v.id :: !acc) r.rargs)
          o.regions)
      op;
    !acc
  in
  let a = ids f and b = ids f' in
  List.iter
    (fun id ->
      if List.mem id a then Alcotest.failf "clone shares value id %d" id)
    b;
  (* And the clone must still verify. *)
  match Verifier.verify_result (Builder.module_ [ f' ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clone does not verify: %s" e

let test_free_values () =
  let x = Value.fresh (Types.Scalar Types.Index) in
  let op1 = Builder.const_int 4 in
  let op2 = Builder.binop Op.Add (Op.result op1) x in
  let free = Rewrite.free_values [ op1; op2 ] in
  Alcotest.(check bool) "x is free" true (Value.Set.mem x free);
  Alcotest.(check bool)
    "op1 result is not free" false
    (Value.Set.mem (Op.result op1) free)

(* Concurrent compiles (one per serve lane) allocate SSA values from
   several domains at once: every id must still be distinct. *)
let test_fresh_ids_distinct_across_domains () =
  let per_domain = 100_000 in
  let ids =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Array.init per_domain (fun _ -> (Value.fresh scalar_f32).Value.id)))
    |> List.map Domain.join |> Array.concat
  in
  Array.sort compare ids;
  let dups = ref 0 in
  Array.iteri (fun i id -> if i > 0 && ids.(i - 1) = id then incr dups) ids;
  Alcotest.(check int) "ids allocated" (4 * per_domain) (Array.length ids);
  Alcotest.(check int) "duplicate ids" 0 !dups

let tests =
  [ Alcotest.test_case "verify ok" `Quick test_verify_ok
  ; Alcotest.test_case "verify rejects use-before-def" `Quick
      test_verify_rejects_use_before_def
  ; Alcotest.test_case "verify rejects stray barrier" `Quick
      test_verify_rejects_barrier_outside_parallel
  ; Alcotest.test_case "printer structure" `Quick test_printer_mentions_structure
  ; Alcotest.test_case "clone remaps values" `Quick test_clone_remaps_values
  ; Alcotest.test_case "free values" `Quick test_free_values
  ; Alcotest.test_case "fresh ids distinct across 4 domains" `Quick
      test_fresh_ids_distinct_across_domains
  ]
