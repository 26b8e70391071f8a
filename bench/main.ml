(* Bechamel micro-benchmarks: per-operation latencies of every table
   implementation and of the RCU primitives (one Test.make per
   operation, grouped per concern). The paper's figures come from
   bin/rp_bench.exe, end-to-end numbers from perfbench/run.py.

   Usage: main.exe [--quick] *)

open Bechamel
open Toolkit

(* --- micro-benchmark fixtures --- *)

let entries = 4096
let buckets = 8192

let lookup_test name (module T : Rp_baseline.Table_intf.TABLE) =
  let t = T.create ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ~size:buckets () in
  for i = 0 to entries - 1 do
    T.insert t i i
  done;
  let counter = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         counter := (!counter + 1) land (entries - 1);
         ignore (T.find t !counter)))

let miss_test name (module T : Rp_baseline.Table_intf.TABLE) =
  let t = T.create ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ~size:buckets () in
  for i = 0 to entries - 1 do
    T.insert t i i
  done;
  let counter = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         counter := (!counter + 1) land (entries - 1);
         ignore (T.find t (!counter + entries))))

let update_test name (module T : Rp_baseline.Table_intf.TABLE) =
  let t = T.create ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ~size:buckets () in
  for i = 0 to entries - 1 do
    T.insert t i i
  done;
  let counter = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         counter := (!counter + 1) land (entries - 1);
         let k = entries + !counter in
         T.insert t k k;
         ignore (T.remove t k)))

let table_lookup_tests =
  Test.make_grouped ~name:"lookup-hit"
    [
      lookup_test "rp-qsbr" (module Rp_baseline.Rp_table.Qsbr);
      lookup_test "rp-memb" (module Rp_baseline.Rp_table.Resizable);
      lookup_test "ddds" (module Rp_baseline.Ddds_ht);
      lookup_test "rwlock" (module Rp_baseline.Rwlock_ht);
      lookup_test "lock" (module Rp_baseline.Lock_ht);
      lookup_test "xu" (module Rp_baseline.Xu_ht);
    ]

let table_miss_tests =
  Test.make_grouped ~name:"lookup-miss"
    [
      miss_test "rp-qsbr" (module Rp_baseline.Rp_table.Qsbr);
      miss_test "rp-memb" (module Rp_baseline.Rp_table.Resizable);
      miss_test "ddds" (module Rp_baseline.Ddds_ht);
      miss_test "rwlock" (module Rp_baseline.Rwlock_ht);
    ]

let table_update_tests =
  Test.make_grouped ~name:"insert+remove"
    [
      update_test "rp-qsbr" (module Rp_baseline.Rp_table.Qsbr);
      update_test "rp-memb" (module Rp_baseline.Rp_table.Resizable);
      update_test "ddds" (module Rp_baseline.Ddds_ht);
      update_test "rwlock" (module Rp_baseline.Rwlock_ht);
      update_test "lock" (module Rp_baseline.Lock_ht);
      update_test "xu" (module Rp_baseline.Xu_ht);
    ]

let resize_test name size_a size_b =
  let t =
    Rp_ht.create ~initial_size:size_a ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  for i = 0 to entries - 1 do
    Rp_ht.insert t i i
  done;
  let toggle = ref false in
  Test.make ~name
    (Staged.stage (fun () ->
         toggle := not !toggle;
         Rp_ht.resize t (if !toggle then size_b else size_a)))

let resize_tests =
  Test.make_grouped ~name:"resize"
    [
      resize_test "rp-expand+shrink-2x" buckets (2 * buckets);
      resize_test "rp-expand+shrink-4x" buckets (4 * buckets);
    ]

let rcu_tests =
  let rcu = Rcu.create () in
  let reader = Rcu.reader_for_current_domain rcu in
  let q = Rcu_qsbr.create () in
  let qth = Rcu_qsbr.thread_for_current_domain q in
  Test.make_grouped ~name:"rcu"
    [
      Test.make ~name:"memb-read-section"
        (Staged.stage (fun () ->
             Rcu.read_lock reader;
             Rcu.read_unlock reader));
      Test.make ~name:"qsbr-read-section"
        (Staged.stage (fun () ->
             Rcu_qsbr.read_lock qth;
             Rcu_qsbr.read_unlock_auto ~mask:63 qth));
      Test.make ~name:"qsbr-quiescent-state"
        (Staged.stage (fun () -> Rcu_qsbr.quiescent_state qth));
      Test.make ~name:"memb-synchronize-quiescent"
        (Staged.stage (fun () -> Rcu.synchronize rcu));
      Test.make ~name:"qsbr-synchronize-self-only"
        (Staged.stage (fun () -> Rcu_qsbr.synchronize q));
    ]

let sync_tests =
  let rwlock = Rp_sync.Rwlock.create () in
  let seqlock = Rp_sync.Seqlock.create () in
  Test.make_grouped ~name:"sync"
    [
      Test.make ~name:"rwlock-read-acquire-release"
        (Staged.stage (fun () ->
             Rp_sync.Rwlock.read_lock rwlock;
             Rp_sync.Rwlock.read_unlock rwlock));
      Test.make ~name:"seqlock-read"
        (Staged.stage (fun () ->
             let s = Rp_sync.Seqlock.read_begin seqlock in
             ignore (Rp_sync.Seqlock.read_validate seqlock s)));
    ]

let workload_tests =
  let prng = Rp_workload.Prng.create ~seed:7 in
  let zipf = Rp_workload.Zipf.create ~n:100_000 () in
  Test.make_grouped ~name:"workload"
    [
      Test.make ~name:"prng-next"
        (Staged.stage (fun () -> ignore (Rp_workload.Prng.next prng)));
      Test.make ~name:"zipf-sample"
        (Staged.stage (fun () -> ignore (Rp_workload.Zipf.sample zipf prng)));
      Test.make ~name:"hash-splitmix64"
        (Staged.stage
           (let i = ref 0 in
            fun () ->
              incr i;
              ignore (Rp_hashes.Hashfn.splitmix64 !i)));
      Test.make ~name:"hash-fnv1a-14b"
        (Staged.stage (fun () ->
             ignore (Rp_hashes.Hashfn.fnv1a_string "key:0000001234")));
    ]

let protocol_tests =
  let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  ignore
    (Memcached.Store.set store ~key:"key:0000000001" ~flags:0 ~exptime:0
       ~data:(String.make 100 'x'));
  let get_request = Memcached.Protocol.Get [ "key:0000000001" ] in
  Test.make_grouped ~name:"memcached"
    [
      Test.make ~name:"encode-get"
        (Staged.stage (fun () ->
             ignore (Memcached.Protocol.encode_request get_request)));
      Test.make ~name:"store-get-rp"
        (Staged.stage (fun () ->
             ignore (Memcached.Store.get store "key:0000000001")));
      Test.make ~name:"full-get-roundtrip"
        (Staged.stage
           (let parser = Memcached.Protocol.Parser.create () in
            let rparser = Memcached.Protocol.Response_parser.create () in
            fun () ->
              Memcached.Protocol.Parser.feed parser
                (Memcached.Protocol.encode_request get_request);
              match Memcached.Protocol.Parser.next parser with
              | Some (Ok request) -> (
                  match Memcached.Server.handle store request with
                  | Some response ->
                      Memcached.Protocol.Response_parser.feed rparser
                        (Memcached.Protocol.encode_response response);
                      ignore (Memcached.Protocol.Response_parser.next rparser)
                  | None -> ())
              | Some (Error _) | None -> assert false));
    ]

let all_micro_tests =
  [
    table_lookup_tests;
    table_miss_tests;
    table_update_tests;
    resize_tests;
    rcu_tests;
    sync_tests;
    workload_tests;
    protocol_tests;
  ]

let run_micro ~quota =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  print_endline "=== Micro-benchmarks (ns/op, OLS fit) ===\n";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Printf.sprintf "%.1f" e
            | Some [] | None -> "n/a"
          in
          rows := [ name; ns ] :: !rows)
        results;
      let rows = List.sort compare !rows in
      Rp_harness.Report.print_table ~header:[ "benchmark"; "ns/op" ] ~rows;
      print_newline ())
    all_micro_tests

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  run_micro ~quota:(if quick then 0.1 else 0.5)
