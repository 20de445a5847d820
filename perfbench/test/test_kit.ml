(* The benchmark's helpers: statistics, seeded schedules, flag parsing,
   the result line and the metric catalogue. *)

open Perfbench_kit

let feq = Alcotest.float 1e-9
let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.(check (pair feq int)) "p90 of 1..100" (90.0, 10) (Stats.percentile 90.0 (ints 100));
  Alcotest.(check (pair feq int)) "p99 of 1..1000" (990.0, 10) (Stats.percentile 99.0 (ints 1000));
  Alcotest.(check (pair feq int)) "p50 of 4" (2.0, 2) (Stats.percentile 50.0 [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (pair feq int)) "p100" (5.0, 0) (Stats.percentile 100.0 (ints 5));
  Alcotest.(check (pair feq int)) "one sample" (7.0, 0) (Stats.percentile 99.0 [ 7. ])

let test_median_geomean () =
  Alcotest.check feq "odd median" 3.0 (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check feq "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "geomean" 4.0 (Stats.geomean [ 1.; 4.; 16. ]);
  Alcotest.check feq "geomean of one" 3.0 (Stats.geomean [ 3. ])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.(check (pair feq feq)) "1..10" (2.75, 8.25) (Stats.quartiles (ints 10));
  Alcotest.(check (pair feq feq)) "1..4" (1.25, 3.75) (Stats.quartiles (ints 4));
  Alcotest.(check (pair feq feq)) "two" (0.75, 2.25) (Stats.quartiles [ 2.; 1. ]);
  Alcotest.check feq "spread of 1..10" ((8.25 -. 2.75) /. 5.5) (Stats.spread (ints 10));
  Alcotest.check feq "spread of a constant" 0.0 (Stats.spread [ 3.; 3.; 3. ])

let sched seed = Schedule.serve ~seed ~rate:40.0 ~seconds:25.0 ~sources:15 ~new_every:10

let test_serve_schedule () =
  let a = sched 7 in
  Alcotest.(check bool) "same seed, same stream" true (a = sched 7);
  Alcotest.(check bool) "other seed, other stream" false (a = sched 8);
  Alcotest.(check int) "fixed rate" 1000 (Array.length a);
  let fresh = Array.fold_left (fun n (r : Schedule.request) -> n + Bool.to_int r.fresh) 0 a in
  Alcotest.(check int) "one new revision per ten" 100 fresh;
  let seen = Hashtbl.create 64 in
  let prev = ref neg_infinity in
  Array.iteri
    (fun i (r : Schedule.request) ->
      if r.at < !prev || r.at < 0.0 || r.at >= 25.0 then Alcotest.failf "request %d out of order" i;
      prev := r.at;
      if r.fresh then begin
        if Hashtbl.mem seen (r.src, r.rev) then Alcotest.failf "request %d reuses a nonce" i;
        Hashtbl.add seen (r.src, r.rev) ()
      end
      else if r.rev <> 0 && not (Hashtbl.mem seen (r.src, r.rev)) then
        Alcotest.failf "request %d repeats a revision never submitted" i)
    a;
  Alcotest.(check string) "base revision is the source" "x" (Schedule.with_rev "x" 0);
  Alcotest.(check string) "revision comment" "x\n// rev 42\n" (Schedule.with_rev "x" 42)

let test_rounds () =
  let take seed = let next = Rng.rounds (Rng.make seed) 15 in List.init 45 (fun _ -> next ()) in
  Alcotest.(check (list int)) "same seed, same order" (take 3) (take 3);
  let rounds = take 3 in
  for k = 0 to 2 do
    let round = List.filteri (fun i _ -> i / 15 = k) rounds in
    Alcotest.(check (list int)) "each round a permutation" (List.init 15 Fun.id)
      (List.sort compare round)
  done

let test_args () =
  (match Args.parse [ "--workload"; "w"; "--seed"; "5"; "--seconds"; "3"; "--trace"; "1" ] with
   | Ok a ->
     Alcotest.(check (list string)) "parsed" [ "w"; "5"; "3"; "true" ]
       [ a.workload; string_of_int a.seed; string_of_int a.seconds; string_of_bool a.trace ]
   | Error e -> Alcotest.fail e);
  List.iter
    (fun argv ->
      match Args.parse argv with
      | Ok _ -> Alcotest.failf "accepted %s" (String.concat " " argv)
      | Error _ -> ())
    [ []; [ "--workload"; "w"; "--trace"; "2" ]; [ "--workload"; "w"; "--seed" ]
    ; [ "--workload"; "w"; "--seconds"; "0" ]; [ "--bogus" ] ]

let test_result_line () =
  let line =
    Report.result_line ~correct:true ~attempted:3 ~failed:0
      [ ("a_ms", 1.25, "ms"); ("b", 0.1, "count") ]
  in
  Alcotest.(check string) "schema"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": \
     1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.10000000000000001, \"unit\": \"count\"}}}"
    line;
  List.iter
    (fun v -> Alcotest.check feq "all digits kept" v (float_of_string (Report.number v)))
    [ 1.0 /. 3.0; 12345.678901234; 1e-7 ];
  Alcotest.check_raises "nan is refused" (Invalid_argument "Report.number: not finite")
    (fun () -> ignore (Report.number nan))

(* Names per the benchmark contract, and BENCHMARK.json in step. *)
let test_catalog () =
  let valid s =
    s <> "" && String.length s <= 64
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
    && Catalog.key s = s
  in
  let all = Catalog.end_to_end @ Catalog.per_layer in
  List.iter (fun (n, _) -> if not (valid n) then Alcotest.failf "bad metric name %S" n) all;
  Alcotest.(check int) "names unique" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)));
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Catalog.per_layer <= 128);
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let contains s =
    let n = String.length s in
    let rec go i = i + n <= String.length json && (String.sub json i n = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (n, u) ->
      if not (contains (Printf.sprintf "\"name\": %S, \"unit\": %S" n u)) then
        Alcotest.failf "BENCHMARK.json lacks %s [%s]" n u)
    all

let () =
  Alcotest.run "perfbench"
    [ ( "stats"
      , [ Alcotest.test_case "percentile with sample count" `Quick test_percentile
        ; Alcotest.test_case "median and geomean" `Quick test_median_geomean
        ; Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles
        ] )
    ; ( "schedule"
      , [ Alcotest.test_case "serve_mixed stream" `Quick test_serve_schedule
        ; Alcotest.test_case "rodinia_cli order" `Quick test_rounds
        ] )
    ; ( "output"
      , [ Alcotest.test_case "flags" `Quick test_args
        ; Alcotest.test_case "result line schema" `Quick test_result_line
        ; Alcotest.test_case "metric catalogue" `Quick test_catalog
        ] )
    ]
