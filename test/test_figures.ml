(* Smoke tests for the figure machinery and the mc-benchmark generator:
   tiny durations, structural assertions. These guarantee that
   `bin/rp_bench.exe` (the figures and their CSVs) cannot bit-rot
   silently. *)

let tiny =
  {
    Rp_figures.Figures.duration = 0.05;
    repeats = 1;
    real_threads = [ 1 ];
    model_threads = [ 1; 2; 4 ];
    mc_real_procs = [ 1 ];
    mc_model_procs = [ 1; 2 ];
    entries = 256;
    small_buckets = 512;
    large_buckets = 1024;
    csv_dir = None;
  }

let measured (r : Rp_figures.Figures.figure_result) = r.measured
let projected (r : Rp_figures.Figures.figure_result) = r.projected

let labels (series : Rp_harness.Series.t list) =
  List.map (fun (s : Rp_harness.Series.t) -> s.label) series

let positive_points (series : Rp_harness.Series.t list) =
  List.for_all
    (fun (s : Rp_harness.Series.t) ->
      s.points <> [] && List.for_all (fun (_, y) -> y > 0.0) s.points)
    series

let test_measure_lookup_throughput () =
  let tput =
    Rp_figures.Figures.measure_lookup_throughput
      ~table:(module Rp_baseline.Rp_table.Resizable)
      ~threads:1 ~duration:0.05 ~entries:128 ~buckets:256 ~resize_between:None
  in
  Alcotest.(check bool) "positive throughput" true (tput > 0.0)

let test_measure_with_resizer () =
  let tput =
    Rp_figures.Figures.measure_lookup_throughput
      ~table:(module Rp_baseline.Rp_table.Resizable)
      ~threads:1 ~duration:0.05 ~entries:128 ~buckets:256
      ~resize_between:(Some (256, 512))
  in
  Alcotest.(check bool) "readers progress during resizes" true (tput > 0.0)

let test_fig1 () =
  let r = Rp_figures.Figures.fig1 tiny in
  Alcotest.(check (list string)) "measured labels"
    [ "rp"; "rp-memb"; "ddds"; "rwlock" ]
    (labels (measured r));
  Alcotest.(check (list string)) "projected labels"
    [ "rp"; "ddds"; "rwlock"; "rp-memb" ]
    (labels (projected r));
  Alcotest.(check bool) "all points positive" true
    (positive_points (measured r) && positive_points (projected r));
  (* Projection is calibrated on the measured single-thread point. *)
  List.iter
    (fun (m : Rp_harness.Series.t) ->
      let p =
        List.find (fun (p : Rp_harness.Series.t) -> p.label = m.label) (projected r)
      in
      match (Rp_harness.Series.y_at m 1, Rp_harness.Series.y_at p 1) with
      | Some a, Some b ->
          if Float.abs (a -. b) > 1e-6 then
            Alcotest.failf "calibration mismatch for %s" m.label
      | _ -> Alcotest.fail "missing 1-thread point")
    (measured r)

let test_fig2 () =
  let r = Rp_figures.Figures.fig2 tiny in
  Alcotest.(check (list string)) "labels" [ "rp(resize)"; "ddds(resize)" ]
    (labels (measured r));
  Alcotest.(check bool) "positive" true
    (positive_points (measured r) && positive_points (projected r))

let test_fig3_fig4 () =
  List.iter
    (fun fig ->
      let r = fig tiny in
      Alcotest.(check (list string)) "labels" [ "8k"; "16k"; "resize" ]
        (labels (measured r));
      Alcotest.(check bool) "positive" true
        (positive_points (measured r) && positive_points (projected r)))
    [ Rp_figures.Figures.fig3; Rp_figures.Figures.fig4 ]

let test_fig5 () =
  let r = Rp_figures.Figures.fig5 tiny in
  Alcotest.(check (list string)) "labels"
    [ "RP GET"; "default GET"; "default SET"; "RP SET" ]
    (labels (measured r));
  Alcotest.(check bool) "positive" true
    (positive_points (measured r) && positive_points (projected r))

let test_mc_benchmark_get_hits () =
  let result =
    Memcached.Mc_benchmark.run_backend ~backend:Memcached.Store.Rp
      {
        Memcached.Mc_benchmark.default_config with
        duration = 0.05;
        keyspace = 100;
        mode = Memcached.Mc_benchmark.Get_only;
      }
  in
  Alcotest.(check bool) "made requests" true (result.requests > 0);
  Alcotest.(check int) "prefilled keyspace never misses" 0 result.misses;
  Alcotest.(check int) "hit counts match requests" result.requests result.hits;
  Alcotest.(check bool) "throughput positive" true (result.requests_per_second > 0.0)

let test_mc_benchmark_set_only () =
  let result =
    Memcached.Mc_benchmark.run_backend ~backend:Memcached.Store.Lock
      {
        Memcached.Mc_benchmark.default_config with
        duration = 0.05;
        keyspace = 100;
        mode = Memcached.Mc_benchmark.Set_only;
      }
  in
  Alcotest.(check bool) "made requests" true (result.requests > 0);
  Alcotest.(check int) "sets produce no value responses" 0
    (result.hits + result.misses)

let test_mc_benchmark_mixed () =
  let result =
    Memcached.Mc_benchmark.run_backend ~backend:Memcached.Store.Rp
      {
        Memcached.Mc_benchmark.default_config with
        duration = 0.05;
        keyspace = 100;
        workers = 2;
        mode = Memcached.Mc_benchmark.Mixed 0.5;
      }
  in
  Alcotest.(check bool) "gets happened" true (result.hits > 0);
  Alcotest.(check bool) "requests exceed gets (sets present)" true
    (result.requests > result.hits)

let test_prefill () =
  let store = Memcached.Store.create ~backend:Memcached.Store.Lock () in
  Memcached.Mc_benchmark.prefill store ~keyspace:50 ~value_size:32;
  Alcotest.(check int) "all keys present" 50 (Memcached.Store.items store);
  match Memcached.Store.get store (Rp_workload.Keygen.string_key 7) with
  | Some v -> Alcotest.(check int) "value sized" 32 (String.length v.vdata)
  | None -> Alcotest.fail "prefilled key missing"

let () =
  Alcotest.run "figures"
    [
      ( "measurement",
        [
          Alcotest.test_case "lookup throughput" `Slow test_measure_lookup_throughput;
          Alcotest.test_case "with resizer" `Slow test_measure_with_resizer;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1" `Slow test_fig1;
          Alcotest.test_case "fig2" `Slow test_fig2;
          Alcotest.test_case "fig3 and fig4" `Slow test_fig3_fig4;
          Alcotest.test_case "fig5" `Slow test_fig5;
        ] );
      ( "mc-benchmark",
        [
          Alcotest.test_case "get-only hits" `Slow test_mc_benchmark_get_hits;
          Alcotest.test_case "set-only" `Slow test_mc_benchmark_set_only;
          Alcotest.test_case "mixed" `Slow test_mc_benchmark_mixed;
          Alcotest.test_case "prefill" `Quick test_prefill;
        ] );
    ]
