(* Facade smoke test: the public API documented in the README compiles and
   behaves through Core.* paths alone. *)

let test_table_via_facade () =
  let table =
    Core.Table.create ~initial_size:8 ~hash:Core.Hash.fnv1a_string
      ~equal:String.equal ()
  in
  Core.Table.insert table "rp-hashtable" 2011;
  Alcotest.(check (option int)) "find" (Some 2011)
    (Core.Table.find table "rp-hashtable");
  Core.Table.resize table 512;
  Alcotest.(check int) "resized" 512 (Core.Table.size table);
  Alcotest.(check (option int)) "survives" (Some 2011)
    (Core.Table.find table "rp-hashtable")

let test_rcu_via_facade () =
  let rcu = Core.Rcu.create () in
  Core.Rcu.with_read_current rcu (fun () -> ());
  Core.Rcu.synchronize rcu;
  let q = Core.Rcu_qsbr.create () in
  let f = Core.Flavour.qsbr q in
  Core.Flavour.with_read f (fun () -> ())

let test_memcached_via_facade () =
  let store = Core.Memcached.Store.create ~backend:Core.Memcached.Store.Rp () in
  Alcotest.(check bool) "set" true
    (Core.Memcached.Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v"
    = Core.Memcached.Store.Stored);
  Alcotest.(check bool) "get" true (Core.Memcached.Store.get store "k" <> None)

let test_torture_via_facade () =
  let report =
    Core.Torture.run
      {
        Core.Torture.default_config with
        duration = 0.05;
        resident_keys = 64;
        churn_keys = 32;
        small_size = 16;
        large_size = 64;
      }
  in
  Alcotest.(check int) "clean" 0 (Core.Torture.violations report)

let test_sim_via_facade () =
  let p = Core.Sim.Costmodel.rp_fixed ~lambda:1.0 in
  Alcotest.(check (float 1e-9)) "usl" 16.0
    (Core.Sim.Costmodel.throughput p ~threads:16)

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "table" `Quick test_table_via_facade;
          Alcotest.test_case "rcu" `Quick test_rcu_via_facade;
          Alcotest.test_case "memcached" `Quick test_memcached_via_facade;
          Alcotest.test_case "torture" `Quick test_torture_via_facade;
          Alcotest.test_case "sim" `Quick test_sim_via_facade;
        ] );
    ]
