(* Synchronization substrate: rwlock (both variants), seqlock,
   spinlock, backoff, barrier — including concurrent mutual-exclusion and
   consistency checks. *)

let test_backoff_growth () =
  let b = Rp_sync.Backoff.create ~min_wait:2 ~max_wait:16 () in
  Alcotest.(check int) "starts at min" 2 (Rp_sync.Backoff.current b);
  Rp_sync.Backoff.once b;
  Alcotest.(check int) "doubles" 4 (Rp_sync.Backoff.current b);
  Rp_sync.Backoff.once b;
  Rp_sync.Backoff.once b;
  Rp_sync.Backoff.once b;
  Alcotest.(check int) "saturates at max" 16 (Rp_sync.Backoff.current b);
  Rp_sync.Backoff.reset b;
  Alcotest.(check int) "reset to min" 2 (Rp_sync.Backoff.current b)

let test_backoff_validation () =
  Alcotest.check_raises "min_wait < 1"
    (Invalid_argument "Backoff.create: min_wait < 1") (fun () ->
      ignore (Rp_sync.Backoff.create ~min_wait:0 ()));
  Alcotest.check_raises "max < min"
    (Invalid_argument "Backoff.create: max_wait < min_wait") (fun () ->
      ignore (Rp_sync.Backoff.create ~min_wait:8 ~max_wait:4 ()))

let test_spinlock_basic () =
  let l = Rp_sync.Spinlock.create () in
  Alcotest.(check bool) "initially free" false (Rp_sync.Spinlock.is_locked l);
  Rp_sync.Spinlock.acquire l;
  Alcotest.(check bool) "held" true (Rp_sync.Spinlock.is_locked l);
  Alcotest.(check bool) "try fails when held" false (Rp_sync.Spinlock.try_acquire l);
  Rp_sync.Spinlock.release l;
  Alcotest.(check bool) "try succeeds when free" true (Rp_sync.Spinlock.try_acquire l);
  Rp_sync.Spinlock.release l

let test_spinlock_releases_on_exception () =
  let l = Rp_sync.Spinlock.create () in
  (try Rp_sync.Spinlock.with_lock l (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "released" false (Rp_sync.Spinlock.is_locked l)

(* Mutual exclusion: concurrent increments of an unprotected counter under
   the lock must not lose updates. *)
let test_spinlock_mutual_exclusion () =
  let l = Rp_sync.Spinlock.create () in
  let counter = ref 0 in
  let per_domain = 20_000 in
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Rp_sync.Spinlock.with_lock l (fun () -> incr counter)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" (3 * per_domain) !counter

let rwlock_variants = [ ("spin", Rp_sync.Rwlock.create); ("blocking", Rp_sync.Rwlock.create_blocking) ]

let test_rwlock_basic make () =
  let l = make () in
  Rp_sync.Rwlock.read_lock l;
  Rp_sync.Rwlock.read_lock l;
  Alcotest.(check int) "two readers" 2 (Rp_sync.Rwlock.readers l);
  Alcotest.(check bool) "writer blocked" false (Rp_sync.Rwlock.try_write_lock l);
  Rp_sync.Rwlock.read_unlock l;
  Rp_sync.Rwlock.read_unlock l;
  Alcotest.(check bool) "writer acquires when drained" true
    (Rp_sync.Rwlock.try_write_lock l);
  Alcotest.(check bool) "reader blocked by writer" false
    (Rp_sync.Rwlock.try_read_lock l);
  Rp_sync.Rwlock.write_unlock l;
  Alcotest.(check bool) "reader acquires after writer" true
    (Rp_sync.Rwlock.try_read_lock l);
  Rp_sync.Rwlock.read_unlock l

let test_rwlock_writer_exclusion make () =
  let l = make () in
  let value = ref (0, 0) in
  let inconsistent = Atomic.make 0 in
  let stop = Atomic.make false in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Rp_sync.Rwlock.with_read l (fun () ->
                  let a, b = !value in
                  if b <> a * 2 then Atomic.incr inconsistent)
            done))
  in
  for i = 1 to 20_000 do
    Rp_sync.Rwlock.with_write l (fun () -> value := (i, i * 2))
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Alcotest.(check int) "no torn read observed" 0 (Atomic.get inconsistent)

let test_seqlock_basic () =
  let s = Rp_sync.Seqlock.create () in
  Alcotest.(check int) "starts even" 0 (Rp_sync.Seqlock.sequence s);
  let snap = Rp_sync.Seqlock.read_begin s in
  Alcotest.(check bool) "validates with no writer" true
    (Rp_sync.Seqlock.read_validate s snap);
  Rp_sync.Seqlock.write_begin s;
  Alcotest.(check bool) "stale snapshot rejected" false
    (Rp_sync.Seqlock.read_validate s snap);
  Rp_sync.Seqlock.write_end s;
  Alcotest.(check int) "even after write" 2 (Rp_sync.Seqlock.sequence s)

let test_seqlock_read_retries () =
  let s = Rp_sync.Seqlock.create () in
  let value = ref (0, 0) in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          Rp_sync.Seqlock.write_begin s;
          value := (!i, !i * 3);
          Rp_sync.Seqlock.write_end s
        done)
  in
  let torn = ref 0 in
  for _ = 1 to 50_000 do
    let a, b = Rp_sync.Seqlock.read s (fun () -> !value) in
    if b <> a * 3 then incr torn
  done;
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check int) "seqlock reads consistent" 0 !torn

let test_barrier_sync () =
  let n = 4 in
  let barrier = Rp_sync.Barrier_sync.create n in
  Alcotest.(check int) "parties" n (Rp_sync.Barrier_sync.parties barrier);
  let after = Atomic.make 0 in
  let before_max = Atomic.make 0 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            (* Every domain sees all arrivals before anyone proceeds. *)
            Rp_sync.Barrier_sync.await barrier;
            ignore (Atomic.fetch_and_add after 1);
            Rp_sync.Barrier_sync.await barrier;
            (* Reusable: second phase works too. *)
            let seen = Atomic.get after in
            if seen > Atomic.get before_max then Atomic.set before_max seen))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "all proceeded" n (Atomic.get after);
  Alcotest.(check int) "phase two saw full count" n (Atomic.get before_max)

let test_barrier_validation () =
  Alcotest.check_raises "zero parties"
    (Invalid_argument "Barrier_sync.create: parties < 1") (fun () ->
      ignore (Rp_sync.Barrier_sync.create 0))

(* Sequential model check: try_acquire succeeds iff the model says the lock
   is free, and the final observable state matches the model. *)
let prop_spinlock_try_acquire_consistent =
  QCheck.Test.make ~name:"spinlock matches a bool model" ~count:100
    QCheck.(list_of_size Gen.(int_bound 30) bool)
    (fun ops ->
      let l = Rp_sync.Spinlock.create () in
      let held = ref false in
      List.for_all
        (fun acquire ->
          if acquire then begin
            let got = Rp_sync.Spinlock.try_acquire l in
            let expected = not !held in
            if got then held := true;
            got = expected
          end
          else begin
            if !held then begin
              Rp_sync.Spinlock.release l;
              held := false
            end;
            true
          end)
        ops
      && Rp_sync.Spinlock.is_locked l = !held)

let () =
  let rwlock_tests =
    List.concat_map
      (fun (name, make) ->
        [
          Alcotest.test_case (name ^ ": basic") `Quick (test_rwlock_basic make);
          Alcotest.test_case (name ^ ": writer exclusion") `Quick
            (test_rwlock_writer_exclusion make);
        ])
      rwlock_variants
  in
  Alcotest.run "sync"
    [
      ( "backoff",
        [
          Alcotest.test_case "growth and reset" `Quick test_backoff_growth;
          Alcotest.test_case "validation" `Quick test_backoff_validation;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "basic" `Quick test_spinlock_basic;
          Alcotest.test_case "releases on exception" `Quick
            test_spinlock_releases_on_exception;
          Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutual_exclusion;
          QCheck_alcotest.to_alcotest prop_spinlock_try_acquire_consistent;
        ] );
      ("rwlock", rwlock_tests);
      ( "seqlock",
        [
          Alcotest.test_case "basic" `Quick test_seqlock_basic;
          Alcotest.test_case "reads retry across writes" `Quick
            test_seqlock_read_retries;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "synchronizes and reuses" `Quick test_barrier_sync;
          Alcotest.test_case "validation" `Quick test_barrier_validation;
        ] );
    ]
