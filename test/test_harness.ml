(* Benchmark harness: runner orchestration, statistics, series, reports. *)

let test_runner_counts_ops () =
  let outcome =
    Rp_harness.Runner.run ~duration:0.05
      ~workers:
        (Array.init 3 (fun _ ~stop ->
             Rp_harness.Runner.loop_until_stop ~stop ~f:(fun () -> ())))
      ()
  in
  Alcotest.(check int) "three workers" 3
    (Array.length outcome.Rp_harness.Runner.per_worker_ops);
  Array.iter
    (fun ops -> Alcotest.(check bool) "each made progress" true (ops > 0))
    outcome.Rp_harness.Runner.per_worker_ops;
  Alcotest.(check bool) "elapsed near duration" true
    (outcome.Rp_harness.Runner.elapsed >= 0.04);
  Alcotest.(check int) "total is sum"
    (Array.fold_left ( + ) 0 outcome.Rp_harness.Runner.per_worker_ops)
    (Rp_harness.Runner.total_ops outcome);
  Alcotest.(check bool) "throughput positive" true
    (Rp_harness.Runner.throughput outcome > 0.0)

let test_runner_rejects_empty () =
  Alcotest.check_raises "no workers" (Invalid_argument "Runner.run: no workers")
    (fun () -> ignore (Rp_harness.Runner.run ~duration:0.01 ~workers:[||] ()))

let test_loop_batched () =
  let stop = Atomic.make false in
  let calls = ref 0 in
  let counter =
    Domain.spawn (fun () ->
        Rp_harness.Runner.loop_batched ~stop ~batch:64 ~f:(fun () -> incr calls))
  in
  Unix.sleepf 0.02;
  Atomic.set stop true;
  let ops = Domain.join counter in
  Alcotest.(check int) "ops counted in batch units" 0 (ops mod 64);
  Alcotest.(check int) "calls match count" ops !calls;
  Alcotest.check_raises "batch < 1"
    (Invalid_argument "Runner.loop_batched: batch < 1") (fun () ->
      ignore (Rp_harness.Runner.loop_batched ~stop ~batch:0 ~f:(fun () -> ())))

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Rp_harness.Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Rp_harness.Stats.mean [||]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0
    (Rp_harness.Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Rp_harness.Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0
    (Rp_harness.Stats.stddev [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "stddev single" 0.0 (Rp_harness.Stats.stddev [| 5.0 |])

let test_histogram () =
  let h = Rp_harness.Stats.Histogram.create () in
  Alcotest.(check int) "empty" 0 (Rp_harness.Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0
    (Rp_harness.Stats.Histogram.percentile h 99.0);
  List.iter (Rp_harness.Stats.Histogram.record h) [ 10.0; 20.0; 30.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Rp_harness.Stats.Histogram.count h);
  Alcotest.(check (float 1e-6)) "mean" 265.0 (Rp_harness.Stats.Histogram.mean h);
  (* p50 of {10,20,30,1000}: second sample (20 ns) lives in bucket [16,32). *)
  Alcotest.(check (float 1e-9)) "p50 upper bound" 32.0
    (Rp_harness.Stats.Histogram.percentile h 50.0);
  Alcotest.(check bool) "p100 covers max" true
    (Rp_harness.Stats.Histogram.percentile h 100.0 >= 1000.0)

let test_histogram_merge () =
  let a = Rp_harness.Stats.Histogram.create () in
  let b = Rp_harness.Stats.Histogram.create () in
  Rp_harness.Stats.Histogram.record a 10.0;
  Rp_harness.Stats.Histogram.record b 100.0;
  let m = Rp_harness.Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Rp_harness.Stats.Histogram.count m);
  Alcotest.(check (float 1e-6)) "merged mean" 55.0 (Rp_harness.Stats.Histogram.mean m)

let test_series () =
  let s = Rp_harness.Series.make ~label:"x" ~points:[ (1, 10.0); (4, 40.0) ] in
  Alcotest.(check (option (float 1e-9))) "y_at hit" (Some 10.0)
    (Rp_harness.Series.y_at s 1);
  Alcotest.(check (option (float 1e-9))) "y_at miss" None (Rp_harness.Series.y_at s 2);
  let scaled = Rp_harness.Series.scale s 0.5 in
  Alcotest.(check (option (float 1e-9))) "scaled" (Some 20.0)
    (Rp_harness.Series.y_at scaled 4);
  let s2 = Rp_harness.Series.make ~label:"y" ~points:[ (2, 1.0); (4, 2.0) ] in
  Alcotest.(check (list int)) "xs union sorted" [ 1; 2; 4 ]
    (Rp_harness.Series.xs [ s; s2 ])

let test_csv () =
  let s1 = Rp_harness.Series.make ~label:"a" ~points:[ (1, 1.5); (2, 2.5) ] in
  let s2 = Rp_harness.Series.make ~label:"b" ~points:[ (1, 3.0) ] in
  let csv = Rp_harness.Report.csv_of_series ~x_label:"threads" [ s1; s2 ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "threads,a,b" (List.nth lines 0);
  Alcotest.(check bool) "row 1 has both" true
    (String.length (List.nth lines 1) > String.length "1,1.5");
  (* Missing point renders as an empty cell. *)
  let row2 = List.nth lines 2 in
  Alcotest.(check bool) "row 2 trailing empty cell" true
    (String.length row2 > 0 && row2.[String.length row2 - 1] = ',')

let test_write_csv_roundtrip () =
  let path = Filename.temp_file "rp_test" ".csv" in
  let s = Rp_harness.Series.make ~label:"t" ~points:[ (1, 9.0) ] in
  Rp_harness.Report.write_csv ~path ~x_label:"n" [ s ];
  let ic = open_in path in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "n,t" header;
  Alcotest.(check string) "row" "1,9.000000" row

let with_captured_stdout f =
  let path = Filename.temp_file "rp_capture" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close fd
  in
  (match f () with
  | () -> restore ()
  | exception e ->
      restore ();
      raise e);
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  contents

let test_print_table_alignment () =
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_table ~header:[ "name"; "value" ]
          ~rows:[ [ "alpha"; "1" ]; [ "b"; "22222" ] ])
  in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines equally wide (column alignment). *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_print_series_table () =
  let s = Rp_harness.Series.make ~label:"rp" ~points:[ (1, 1.0); (16, 16.0) ] in
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_series_table ~unit_label:"Mops/s"
          ~x_label:"readers" [ s ])
  in
  Alcotest.(check bool) "mentions unit" true (Testutil.contains out "Mops/s")

let test_ascii_chart_renders () =
  let s = Rp_harness.Series.make ~label:"rp" ~points:[ (1, 1.0); (8, 8.0) ] in
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_ascii_chart ~title:"test chart" [ s ])
  in
  Alcotest.(check bool) "has title" true (Testutil.contains out "test chart");
  Alcotest.(check bool) "has legend" true (Testutil.contains out "* = rp")

let test_ascii_chart_empty () =
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_ascii_chart ~title:"empty" [])
  in
  Alcotest.(check bool) "handles no data" true (Testutil.contains out "(no data)")

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "counts ops" `Quick test_runner_counts_ops;
          Alcotest.test_case "rejects empty" `Quick test_runner_rejects_empty;
          Alcotest.test_case "loop_batched" `Quick test_loop_batched;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary stats" `Quick test_stats_basics;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        ] );
      ( "series",
        [
          Alcotest.test_case "series ops" `Quick test_series;
          Alcotest.test_case "csv rendering" `Quick test_csv;
          Alcotest.test_case "csv file round trip" `Quick test_write_csv_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "table alignment" `Quick test_print_table_alignment;
          Alcotest.test_case "series table" `Quick test_print_series_table;
          Alcotest.test_case "ascii chart" `Quick test_ascii_chart_renders;
          Alcotest.test_case "ascii chart empty" `Quick test_ascii_chart_empty;
        ] );
    ]
