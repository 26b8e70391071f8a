(* The cluster plane: ketama ring math, the replication wire codec, and
   a full in-process leader -> follower -> promote cycle over real
   sockets and a real op log. *)

open Memcached
module Ring = Rp_cluster.Ring
module Wire = Rp_cluster.Repl_wire

(* --- scratch directories --- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rp-cluster-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let eventually ?(timeout = 10.) ?(label = "condition") f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" label
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ()

(* --- ring --- *)

let mk host port weight = { Ring.host; port; weight }

let test_ring_basic () =
  let ring = Ring.create [ mk "a" 1 1; mk "b" 2 1; mk "c" 3 1 ] in
  Alcotest.(check int) "members" 3 (Ring.size ring);
  (* ~100 points per weight, 4 per digest, for each of 3 members *)
  Alcotest.(check bool) "points" true (Ring.points ring >= 300);
  (* Deterministic: same key, same owner. *)
  for i = 0 to 99 do
    let key = Printf.sprintf "key-%d" i in
    let a = Ring.lookup ring key and b = Ring.lookup ring key in
    Alcotest.(check (option int)) "stable" a b
  done;
  (* Every member owns something under a uniform keyload. *)
  let counts = Array.make 3 0 in
  for i = 0 to 9_999 do
    match Ring.lookup ring (Printf.sprintf "key-%d" i) with
    | Some o -> counts.(o) <- counts.(o) + 1
    | None -> Alcotest.fail "lookup on non-empty ring"
  done;
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "member %d owns no keys" i;
      (* Ketama with 100 points/member is lumpy but not absurd. *)
      if c > 7_000 then Alcotest.failf "member %d owns %d of 10000 keys" i c)
    counts

(* The consistent-hashing promise, and the PR's acceptance bar: growing
   N members to N+1 remaps at most about K/N keys — we assert the 2x
   slack bound, against the >= K/2 a mod-N scheme would shuffle. *)
let test_ring_minimal_remap () =
  let n = 8 and k = 10_000 in
  let members = List.init n (fun i -> mk (Printf.sprintf "node%d" i) (11210 + i) 1) in
  let ring_n = Ring.create members in
  let ring_n1 = Ring.create (members @ [ mk "node8" 11218 1 ]) in
  let moved = ref 0 in
  for i = 0 to k - 1 do
    let key = Printf.sprintf "user:%d:session" i in
    match (Ring.lookup ring_n key, Ring.lookup ring_n1 key) with
    | Some a, Some b ->
        (* Members are listed in the same order, so indices align. *)
        if a <> b then begin
          incr moved;
          (* Keys only ever move TO the new member, never between old
             members — the ketama guarantee. *)
          Alcotest.(check int) "moved keys land on the new member" n b
        end
    | _ -> Alcotest.fail "lookup failed"
  done;
  let bound = 2 * k / n in
  if !moved > bound then
    Alcotest.failf "membership change remapped %d keys, bound %d (K=%d N=%d)"
      !moved bound k n;
  if !moved = 0 then Alcotest.fail "new member owns nothing"

let test_ring_weights () =
  let ring = Ring.create [ mk "small" 1 1; mk "big" 2 4 ] in
  let counts = Array.make 2 0 in
  for i = 0 to 9_999 do
    match Ring.lookup ring (Printf.sprintf "k%d" i) with
    | Some o -> counts.(o) <- counts.(o) + 1
    | None -> Alcotest.fail "lookup"
  done;
  (* 4x the weight should land well over 2x the keys. *)
  if counts.(1) < 2 * counts.(0) then
    Alcotest.failf "weight 4 member owns %d vs weight 1's %d" counts.(1)
      counts.(0)

let test_ring_avoid_slides () =
  let ring = Ring.create [ mk "a" 1 1; mk "b" 2 1; mk "c" 3 1 ] in
  let owned_by_dead = ref 0 in
  for i = 0 to 999 do
    let key = Printf.sprintf "key-%d" i in
    let owner = Option.get (Ring.lookup ring key) in
    let failover = Option.get (Ring.lookup ring ~avoid:(fun m -> m = 1) key) in
    if owner = 1 then begin
      incr owned_by_dead;
      Alcotest.(check bool) "slid off the dead member" true (failover <> 1)
    end
    else
      (* Ejection must not disturb keys the dead member never owned. *)
      Alcotest.(check int) "unaffected key kept its owner" owner failover
  done;
  Alcotest.(check bool) "test exercised the dead member" true (!owned_by_dead > 0);
  (* All avoided -> None. *)
  Alcotest.(check (option int)) "all avoided" None
    (Ring.lookup ring ~avoid:(fun _ -> true) "anything")

(* --- wire codec --- *)

let roundtrip msgs =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter (Wire.write_msg wr) msgs;
      Unix.close wr;
      let rec drain acc =
        match Wire.read_msg rd with
        | Some m -> drain (m :: acc)
        | None -> List.rev acc
      in
      drain [])

let test_wire_roundtrip () =
  let msgs =
    [
      Wire.Hello { from_gen = 42 };
      Wire.Rec
        {
          gen = 7;
          seq = 123456789;
          trace = 0x1234_5678_9abc;
          ts_us = 1_722_000_000_000_000;
          payload = "opaque \x00\xff record bytes";
        };
      Wire.Rec { gen = 0; seq = 0; trace = 0; ts_us = 0; payload = "" };
      Wire.Ack { gen = 7; seq = 123456789 };
      Wire.Ping;
    ]
  in
  let got = roundtrip msgs in
  Alcotest.(check int) "count" (List.length msgs) (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "msg" true (a = b))
    msgs got

let test_wire_corrupt () =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () ->
      (* A frame with a bad CRC must raise Corrupt, not decode. *)
      let body = "Hgarbage" in
      let b = Bytes.create (8 + String.length body) in
      Bytes.set_int32_be b 0 (Int32.of_int (String.length body));
      Bytes.set_int32_be b 4 0xDEADl (* wrong CRC *);
      Bytes.blit_string body 0 b 8 (String.length body);
      ignore (Unix.write wr b 0 (Bytes.length b));
      Unix.close wr;
      match Wire.read_msg rd with
      | exception Wire.Corrupt _ -> ()
      | Some _ -> Alcotest.fail "decoded a corrupt frame"
      | None -> Alcotest.fail "EOF instead of Corrupt")

(* --- in-process leader/follower e2e --- *)

let store_kv store key =
  Option.map (fun (v : Protocol.value) -> v.Protocol.vdata) (Store.get store key)

let test_replication_e2e () =
  with_dir @@ fun leader_dir ->
  with_dir @@ fun follower_dir ->
  Rp_trace.reset ();
  Rp_trace.configure ~sample:1 ();
  let k_req = Rp_trace.intern "test.leader_request" in
  let leader_store = Store.create () in
  let leader_persist = Persist.attach ~dir:leader_dir leader_store in
  let leader =
    Cluster.lead ~store:leader_store ~persist:leader_persist
      (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  let port = Cluster.repl_port leader in
  Alcotest.(check bool) "picked a port" true (port > 0);
  (* Writes before the follower exists: catch-up must deliver them. *)
  for i = 0 to 99 do
    ignore
      (Store.set leader_store
         ~key:(Printf.sprintf "early-%d" i)
         ~flags:i ~exptime:0
         ~data:(Printf.sprintf "value-%d" i))
  done;
  let follower_store = Store.create () in
  let follower_persist = Persist.attach ~dir:follower_dir follower_store in
  let follower =
    Cluster.follow ~store:follower_store
      ~leader:(Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      ()
  in
  Alcotest.(check bool) "follower is read-only" true
    (Store.read_only follower_store);
  eventually ~label:"catch-up" (fun () -> Cluster.applied follower >= 100);
  (* Live writes after attach, one of them inside a traced request so
     the trace id rides the stream. *)
  Rp_trace.request_begin k_req;
  let leader_trace = Rp_trace.current_trace_id () in
  ignore
    (Store.set leader_store ~key:"traced" ~flags:0 ~exptime:0 ~data:"traced-v");
  Rp_trace.request_end ();
  Alcotest.(check bool) "leader request had a trace id" true (leader_trace <> 0);
  for i = 0 to 49 do
    ignore
      (Store.set leader_store
         ~key:(Printf.sprintf "live-%d" i)
         ~flags:0 ~exptime:0 ~data:(Printf.sprintf "lv-%d" i))
  done;
  ignore (Store.delete leader_store "early-0");
  eventually ~label:"live stream" (fun () -> Cluster.applied follower >= 152);
  (* The follower state matches the leader exactly. *)
  Alcotest.(check (option string)) "early key" (Some "value-7")
    (store_kv follower_store "early-7");
  Alcotest.(check (option string)) "traced key" (Some "traced-v")
    (store_kv follower_store "traced");
  Alcotest.(check (option string)) "live key" (Some "lv-49")
    (store_kv follower_store "live-49");
  Alcotest.(check (option string)) "delete propagated" None
    (store_kv follower_store "early-0");
  (* Cross-process trace propagation (in-process here, but through the
     full socket + wire path): the apply span carries the leader's id. *)
  let events, _skipped = Rp_trace.snapshot () in
  let apply_traced =
    List.exists
      (fun (e : Rp_trace.event) ->
        e.Rp_trace.name = "repl.apply" && e.Rp_trace.trace = leader_trace)
      events
  in
  Alcotest.(check bool) "apply span joined the leader trace" true apply_traced;
  (* Read-only refusal on the follower... *)
  Alcotest.(check bool) "follower refuses client writes" true
    (match
       Dispatch.handle follower_store
         (Protocol.Set
            { key = "x"; flags = 0; exptime = 0; noreply = false; data = "y" })
     with
    | Some (Protocol.Server_error _) -> true
    | _ -> false);
  (* ...lifted by promotion, via the admin-command path. *)
  (match Dispatch.handle follower_store Protocol.Cluster_promote with
  | Some Protocol.Ok_reply -> ()
  | _ -> Alcotest.fail "cluster promote failed");
  Alcotest.(check bool) "promoted store accepts writes" true
    (Store.set follower_store ~key:"post-promote" ~flags:0 ~exptime:0
       ~data:"mine"
    = Store.Stored);
  Alcotest.(check string) "role" "promoted"
    (List.assoc "cluster_role" (Store.cluster_stats follower_store));
  (* The follower re-logged the stream: its own oplog alone rebuilds the
     replicated state (what makes a promoted replica durable). *)
  Persist.stop follower_persist;
  let reborn = Store.create () in
  let reborn_persist = Persist.attach ~dir:follower_dir reborn in
  Alcotest.(check (option string)) "follower oplog replays the stream"
    (Some "value-7") (store_kv reborn "early-7");
  Alcotest.(check (option string)) "and the promoted write"
    (Some "mine") (store_kv reborn "post-promote");
  Persist.stop reborn_persist;
  Cluster.stop follower;
  Cluster.stop leader;
  Persist.stop leader_persist;
  Rp_trace.reset ();
  (* Leftover persistence files: clean so with_dir can rmdir. *)
  List.iter
    (fun d ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (Sys.readdir d))
    [ leader_dir; follower_dir ]

let clear_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

(* A leader with an op log on loopback: [f store addr] gets its store and
   its replication address. *)
let with_leader f =
  with_dir @@ fun dir ->
  let store = Store.create () in
  let persist = Persist.attach ~dir store in
  let leader =
    Cluster.lead ~store ~persist (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  f store (Unix.ADDR_INET (Unix.inet_addr_loopback, Cluster.repl_port leader));
  Cluster.stop leader;
  Persist.stop persist;
  clear_dir dir

(* A follower that connects, dies, and reconnects resumes from its
   watermark — and duplicate delivery across the resume is harmless. *)
let test_follower_reconnect () =
  with_leader @@ fun leader_store leader ->
  for i = 0 to 49 do
    ignore
      (Store.set leader_store
         ~key:(Printf.sprintf "k-%d" i)
         ~flags:0 ~exptime:0 ~data:(Printf.sprintf "v-%d" i))
  done;
  let follower_store = Store.create () in
  let f1 = Cluster.follow ~store:follower_store ~leader () in
  eventually ~label:"first sync" (fun () -> Cluster.applied f1 >= 50);
  Cluster.stop f1;
  (* More writes while detached. *)
  for i = 50 to 79 do
    ignore
      (Store.set leader_store
         ~key:(Printf.sprintf "k-%d" i)
         ~flags:0 ~exptime:0 ~data:(Printf.sprintf "v-%d" i))
  done;
  (* New session: no persist on the follower, so from_gen restarts the
     stream from the top — duplicates the first 50, which must converge
     to identical state (idempotent records). *)
  let f2 = Cluster.follow ~store:follower_store ~leader () in
  eventually ~label:"resync" (fun () ->
      store_kv follower_store "k-79" = Some "v-79");
  for i = 0 to 79 do
    Alcotest.(check (option string))
      (Printf.sprintf "k-%d" i)
      (Some (Printf.sprintf "v-%d" i))
      (store_kv follower_store (Printf.sprintf "k-%d" i))
  done;
  Cluster.stop f2

(* Serve a QSBR follower's store on the event loop, promote it over the
   admin command, and write 2000 fresh keys to it under a deadline. A
   domain-0 thread that left the QSBR slot online stalls the grace period
   of the first table expansion, which fails the probe. *)
let promote_and_write ~label store =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-cluster-qsbr-%d.sock" (Unix.getpid ()))
  in
  let server =
    Server.start ~store
      ~config:{ Server.default_config with workers = 1 }
      (Server.Unix_socket path)
  in
  let c = Client.connect (Server.address server) in
  (match Client.promote c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "cluster promote: %s" m);
  let probe = Stall_probe.connect path in
  Stall_probe.sets ~label probe ~prefix:"p" 2000;
  Unix.close probe;
  Alcotest.(check (option string)) "promoted write visible" (Some "p-2000")
    (Option.map (fun (v : Protocol.value) -> v.vdata) (Client.get c "p-2000"));
  Client.close c;
  Server.stop server

(* The promote cycle with a QSBR follower behind the event loop — what
   every [--backend rp --replica-of] server runs. The apply thread reads
   the table on domain 0 and then blocks in its stream read. *)
let test_qsbr_promote_evloop () =
  with_leader @@ fun leader_store leader ->
  let store = Store.create ~rcu_mode:Store.Qsbr () in
  let follower = Cluster.follow ~store ~leader () in
  ignore (Store.set leader_store ~key:"k" ~flags:0 ~exptime:0 ~data:"leader");
  eventually ~label:"replicated SET" (fun () -> Cluster.applied follower >= 1);
  promote_and_write ~label:"after promote" store;
  Cluster.stop follower

(* The follower's apply thread shares domain 0's QSBR slot with every
   other systhread there, such as the guard's sweeper, whose Emergency
   actuator runs an eviction sweep. Here a second systhread runs that
   sweep over and over while records stream in past the follower's
   budget. Every record must still apply (the apply thread survives). *)
let test_qsbr_follower_beside_evictions () =
  with_leader @@ fun leader_store leader ->
  let store = Store.create ~rcu_mode:Store.Qsbr ~max_bytes:(64 * 1024) () in
  let follower = Cluster.follow ~store ~leader () in
  let sweeping = Atomic.make true in
  let sweeper =
    Thread.create
      (fun () ->
        while Atomic.get sweeping do
          ignore (Store.background store (fun () -> Store.evict_to_budget store));
          Thread.yield ()
        done)
      ()
  in
  let records = 1000 and data = String.make 512 'r' in
  for i = 1 to records do
    ignore
      (Store.set leader_store ~key:(Printf.sprintf "r%d" (i mod 500))
         ~flags:0 ~exptime:0 ~data)
  done;
  eventually ~timeout:30. ~label:"every record applied" (fun () ->
      Cluster.applied follower >= records);
  Atomic.set sweeping false;
  Thread.join sweeper;
  Alcotest.(check bool) "sweeps evicted" true (Store.evictions store > 0);
  promote_and_write ~label:"after evictions" store;
  Cluster.stop follower

(* --- client-side ejection / failover (no live servers needed) --- *)

(* Three members, none actually listening: every request fails, the
   routed member gets ejected, retries re-route, and after the retry
   budget the error escapes — live_members must drop to zero. *)
let test_client_ejection () =
  let client =
    Client.of_servers ~retries:2 ~eject_after:1 ~rejoin_after:60.
      [ ("127.0.0.1", 9, 1); ("127.0.0.1", 11, 1); ("127.0.0.1", 13, 1) ]
  in
  Alcotest.(check int) "all live initially" 3 (Client.live_members client);
  (match Client.get client "some-key" with
  | exception _ -> ()
  | _ -> Alcotest.fail "connect to port 9 should fail");
  (* eject_after=1 and retries=2: the first attempt ejects the owner,
     both retries eject their re-routed members. *)
  Alcotest.(check int) "ejected after failures" 0 (Client.live_members client);
  Client.close client

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "minimal remap" `Quick test_ring_minimal_remap;
          Alcotest.test_case "weights" `Quick test_ring_weights;
          Alcotest.test_case "avoid slides" `Quick test_ring_avoid_slides;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "corrupt" `Quick test_wire_corrupt;
        ] );
      ( "replication",
        [
          Alcotest.test_case "leader-follower-promote" `Quick
            test_replication_e2e;
          Alcotest.test_case "reconnect resumes" `Quick test_follower_reconnect;
          Alcotest.test_case "qsbr promote over event loop" `Quick
            test_qsbr_promote_evloop;
          Alcotest.test_case "qsbr follower beside evictions" `Quick
            test_qsbr_follower_beside_evictions;
        ] );
      ( "client",
        [ Alcotest.test_case "ejection" `Quick test_client_ejection ] );
    ]
