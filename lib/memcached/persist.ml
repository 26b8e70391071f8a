module P = Rp_persist

type recovery = {
  snapshot_gen : int option;
  snapshot_records : int;
  log_records : int;
  log_bad_records : int;
  log_segments : int;
  log_truncated_bytes : int;
  post_recovery_evictions : int;
}

type t = {
  store : Store.t;
  dir : string;
  log : P.Oplog.t option;
  interval : float option;
  archive_keep : int;  (* archived generations retained by compaction *)
  recovered : recovery;
  paused : bool Atomic.t;  (* periodic snapshots suspended (guard) *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable stop_requested : bool;
  mutable stopped : bool;  (* snapshot domain has exited *)
  mutable request_seq : int;  (* snapshot_now tickets *)
  mutable complete_seq : int;
  mutable last_result : (int, string) result;
  (* snapshot-domain-private state *)
  mutable next_gen : int;
  mutable next_deadline : float;
  (* instruments, registered in the store's registry as persist_... *)
  snapshots : int Atomic.t;
  snapshot_errors : int Atomic.t;
  mutable last_records : int;
  walk_restarts : int Atomic.t;
  compactions : int Atomic.t;
  appends : Rp_obs.Counter.t;
  append_errors : Rp_obs.Counter.t;
  last_append_error : float Atomic.t;  (* unixtime of last failure, 0 = clear *)
  snapshot_hist : Rp_obs.Histogram.t;
  mutable domain : unit Domain.t option;
  (* Replication tap: observes every record that reached the op log,
     inside the store's serialization lock — tap order is log order is
     store order. The leader glue hangs its publish fan-out here. *)
  mutable tap : (gen:int -> trace:int -> P.Record.t -> unit) option;
}

let dir t = t.dir
let set_tap t f = t.tap <- f

let flush_log t =
  match t.log with Some l -> P.Oplog.flush l | None -> ()

let recovery t = t.recovered
let log_gen t = Option.map P.Oplog.gen t.log
let set_paused t v = Atomic.set t.paused v
let paused t = Atomic.get t.paused
let append_errors t = Rp_obs.Counter.read t.append_errors

let last_append_error_age t =
  match Atomic.get t.last_append_error with
  | 0.0 -> None
  | ts -> Some (Unix.gettimeofday () -. ts)

let fsync_policy t = Option.map P.Oplog.policy t.log

let set_fsync_policy t p =
  match t.log with Some l -> P.Oplog.set_policy l p | None -> ()

(* Disk footprint of the log: every on-disk segment plus bytes the live
   segment has framed but not yet flushed. This is the guard plane's
   disk-pressure numerator, so it must see growth before fsync does. *)
let oplog_bytes t =
  let on_disk =
    List.fold_left
      (fun acc (_, path) ->
        acc + (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0))
      0
      (P.Oplog.segments ~dir:t.dir)
  in
  match t.log with
  | None -> on_disk
  | Some l ->
      let live_on_disk =
        try (Unix.stat (Filename.concat t.dir (P.Oplog.filename ~gen:(P.Oplog.gen l)))).Unix.st_size
        with Unix.Unix_error _ -> 0
      in
      on_disk + max 0 (P.Oplog.bytes l - live_on_disk)

let record_of_item key (item : Item.t) =
  P.Record.Set
    {
      op = P.Record.Tset;
      key;
      flags = item.flags;
      exptime = item.exptime;
      cas = item.cas;
      data = item.data;
    }

(* Archive every snapshot and segment older than the generation just
   published — they are fully covered by it. Files are renamed to
   [<name>.old-<gen>] rather than deleted (the suffix hides them from
   both {!P.Snapshot.files} and {!P.Oplog.segments}, so recovery never
   sees them), and only the newest [archive_keep] archived generations
   are retained; older archives are deleted for real. The failpoint
   models a crash in the window between publishing the snapshot and
   pruning the log; recovery then simply replays more than it strictly
   needs to. *)
let k_snapshot = Rp_trace.intern "persist.snapshot"
let k_walk = Rp_trace.intern "persist.snapshot_walk"
let k_compact = Rp_trace.intern "persist.compact"

let archive_gen_of_name name =
  match String.rindex_opt name '-' with
  | Some i when i > 4 && String.sub name (i - 4) 4 = ".old" ->
      int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1))
  | _ -> None

let prune_archives t =
  if t.archive_keep >= 0 then begin
    let archived =
      Array.fold_left
        (fun acc name ->
          match archive_gen_of_name name with
          | Some g -> (g, Filename.concat t.dir name) :: acc
          | None -> acc)
        []
        (try Sys.readdir t.dir with Sys_error _ -> [||])
    in
    let gens =
      List.sort_uniq (fun a b -> compare b a) (List.map fst archived)
    in
    let keep = List.filteri (fun i _ -> i < t.archive_keep) gens in
    List.iter
      (fun (g, path) ->
        if not (List.mem g keep) then
          try Sys.remove path with Sys_error _ -> ())
      archived
  end

let compact t ~keep_gen =
  Rp_fault.point "persist.compact.pre";
  let prune (g, path) =
    if g < keep_gen then
      try Sys.rename path (Printf.sprintf "%s.old-%d" path g)
      with Sys_error _ -> ()
  in
  Rp_trace.with_span ~arg:keep_gen k_compact (fun () ->
      List.iter prune (P.Snapshot.files ~dir:t.dir);
      List.iter prune (P.Oplog.segments ~dir:t.dir);
      prune_archives t;
      P.Fsutil.fsync_dir t.dir);
  Atomic.incr t.compactions

(* Runs on the snapshot domain only (next_gen/next_deadline are its). *)
let do_snapshot t =
  (* The log may have rotated itself past next_gen (size cap): the
     snapshot must use a generation above every existing segment, or the
     rotate below would reopen an old one. *)
  let gen =
    match t.log with
    | Some l -> max t.next_gen (P.Oplog.gen l + 1)
    | None -> t.next_gen
  in
  t.next_gen <- gen + 1;
  (* Rotate first: from here on, concurrent mutations land in segment
     [gen], which recovery replays on top of snapshot [gen]. *)
  (match t.log with Some log -> P.Oplog.rotate log ~gen | None -> ());
  let started = Unix.gettimeofday () in
  let snap_span = Rp_trace.span_begin ~arg:gen k_snapshot in
  let count =
    P.Snapshot.write ~dir:t.dir ~gen ~iter:(fun emit ->
        let now = Store.now t.store in
        let walk_span = Rp_trace.span_begin ~arg:gen k_walk in
        let restarts =
          Store.iter_items t.store ~f:(fun key item ->
              if not (Item.is_expired item ~now) then
                emit (record_of_item key item))
        in
        Rp_trace.span_end ~arg:restarts k_walk walk_span;
        Atomic.set t.walk_restarts (Atomic.get t.walk_restarts + restarts);
        (* Walk done, read sections closed: go offline so the fsync and
           rename below never hold up a grace period. *)
        Store.reader_offline t.store)
  in
  Rp_trace.span_end ~arg:gen k_snapshot snap_span;
  Rp_obs.Histogram.observe_span t.snapshot_hist ~start:started
    ~stop:(Unix.gettimeofday ());
  Atomic.incr t.snapshots;
  t.last_records <- count;
  compact t ~keep_gen:gen;
  count

let snapshot_loop t =
  let finished = ref false in
  while not !finished do
    Mutex.lock t.mutex;
    let stop = t.stop_requested in
    let serving = t.request_seq in
    Mutex.unlock t.mutex;
    if stop then finished := true
    else begin
      let due =
        match t.interval with
        | Some _ ->
            (not (Atomic.get t.paused))
            && Unix.gettimeofday () >= t.next_deadline
        | None -> false
      in
      if serving > t.complete_seq || due then begin
        let result =
          match do_snapshot t with
          | n -> Ok n
          | exception e ->
              Atomic.incr t.snapshot_errors;
              Error (Printexc.to_string e)
        in
        (match t.interval with
        | Some dt -> t.next_deadline <- Unix.gettimeofday () +. dt
        | None -> ());
        Mutex.lock t.mutex;
        t.last_result <- result;
        if serving > t.complete_seq then t.complete_seq <- serving;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex
      end;
      (* A tick that hits a full disk (or a failpoint) must not kill the
         snapshot domain — latch the failure for the guard instead. *)
      (match t.log with
      | Some log -> (
          try P.Oplog.tick log
          with _ ->
            Rp_obs.Counter.incr t.append_errors;
            Atomic.set t.last_append_error (Unix.gettimeofday ()))
      | None -> ());
      (* Never sleep as an online QSBR reader: a parked snapshot domain
         must not stall anyone's grace period. *)
      Store.reader_offline t.store;
      Unix.sleepf 0.02
    end
  done;
  Store.reader_offline t.store;
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let register_instruments t =
  let reg = Store.registry t.store in
  let fn c () = float_of_int (Atomic.get c) in
  Rp_obs.Registry.gauge reg ~help:"1 when a persistence manager is attached"
    "persist_enabled" (fun () -> 1.);
  Rp_obs.Registry.gauge reg ~help:"1 when the op log is recording"
    "persist_aof_enabled" (fun () -> if t.log = None then 0. else 1.);
  Rp_obs.Registry.gauge reg ~help:"current op-log segment generation"
    "persist_log_gen" (fun () ->
      match t.log with None -> 0. | Some l -> float_of_int (P.Oplog.gen l));
  Rp_obs.Registry.register_counter reg ~help:"op records appended to the log"
    "persist_log_appends_total" t.appends;
  Rp_obs.Registry.register_counter reg
    ~help:"op-log appends that failed (record dropped, durability degraded)"
    "persist_log_append_errors_total" t.append_errors;
  Rp_obs.Registry.gauge reg ~help:"op-log bytes on disk across segments"
    "persist_log_bytes" (fun () -> float_of_int (oplog_bytes t));
  Rp_obs.Registry.gauge reg
    ~help:"1 when periodic snapshots are suspended by the guard"
    "persist_paused" (fun () -> if Atomic.get t.paused then 1. else 0.);
  Rp_obs.Registry.fn_counter reg ~help:"snapshots published"
    "persist_snapshots_total" (fn t.snapshots);
  Rp_obs.Registry.fn_counter reg ~help:"snapshot attempts that failed"
    "persist_snapshot_errors_total" (fn t.snapshot_errors);
  Rp_obs.Registry.fn_counter reg
    ~help:"snapshot walks restarted by a concurrent shrink"
    "persist_walk_restarts_total" (fn t.walk_restarts);
  Rp_obs.Registry.fn_counter reg ~help:"compaction passes after snapshots"
    "persist_compactions_total" (fn t.compactions);
  Rp_obs.Registry.gauge reg ~help:"records in the last published snapshot"
    "persist_snapshot_records" (fun () -> float_of_int t.last_records);
  Rp_obs.Registry.register_histogram reg
    ~help:"snapshot wall time in nanoseconds" "persist_snapshot_ns"
    t.snapshot_hist;
  Rp_obs.Registry.gauge reg ~help:"records restored from the snapshot"
    "persist_recovered_snapshot_records" (fun () ->
      float_of_int t.recovered.snapshot_records);
  Rp_obs.Registry.gauge reg ~help:"op records replayed from the log"
    "persist_recovered_log_records" (fun () ->
      float_of_int t.recovered.log_records);
  Rp_obs.Registry.gauge reg
    ~help:"torn-tail bytes truncated from the newest segment"
    "persist_recovered_log_truncated_bytes" (fun () ->
      float_of_int t.recovered.log_truncated_bytes);
  Rp_obs.Registry.gauge reg ~help:"undecodable records skipped during replay"
    "persist_recovered_log_bad_records" (fun () ->
      float_of_int t.recovered.log_bad_records);
  Rp_obs.Registry.gauge reg
    ~help:"items evicted by the post-recovery budget sweep"
    "persist_recovery_evictions" (fun () ->
      float_of_int t.recovered.post_recovery_evictions)

let attach ?snapshot_interval ?(aof = true) ?(fsync = P.Oplog.Always)
    ?(oplog_max_mb = 0) ?(archive_keep = 2) ~dir store =
  P.Fsutil.mkdir_p dir;
  (* Recovery first: snapshot, then the log tail on top of it. It runs on
     the caller's thread, which then goes on to block (the binary's main
     thread sleeps until a signal), so it is background store work. *)
  let snap, rr, swept =
    Store.background store (fun () ->
        let snap =
          P.Snapshot.load_newest ~dir ~f:(fun r -> Store.restore store r)
        in
        let from_gen = match snap with Some (g, _) -> g | None -> 0 in
        let rr =
          P.Oplog.replay ~dir ~from_gen ~f:(fun r -> Store.restore store r)
        in
        (* Eviction is never logged, so a recovered heap can exceed the
           byte budget (the snapshot predates the evictions that made it
           fit). Sweep before traffic: a restarted node must not serve
           from an over-budget heap. *)
        (snap, rr, Store.evict_to_budget store))
  in
  let recovered =
    {
      snapshot_gen = Option.map fst snap;
      snapshot_records = (match snap with Some (_, n) -> n | None -> 0);
      log_records = rr.P.Oplog.records;
      log_bad_records = rr.P.Oplog.bad_records;
      log_segments = rr.P.Oplog.segments;
      log_truncated_bytes = rr.P.Oplog.truncated_bytes;
      post_recovery_evictions = swept;
    }
  in
  (* Generations stay monotonic across restarts: past everything on disk,
     valid or not. *)
  let max_gen =
    List.fold_left
      (fun acc (g, _) -> max acc g)
      0
      (P.Snapshot.files ~dir @ P.Oplog.segments ~dir)
  in
  let log_start_gen = max_gen + 1 in
  let log =
    if aof then
      Some
        (P.Oplog.open_
           ~max_bytes:(oplog_max_mb * 1024 * 1024)
           ~dir ~gen:log_start_gen ~fsync ())
    else None
  in
  let t =
    {
      store;
      dir;
      log;
      interval = snapshot_interval;
      archive_keep;
      recovered;
      paused = Atomic.make false;
      mutex = Mutex.create ();
      cond = Condition.create ();
      stop_requested = false;
      stopped = false;
      request_seq = 0;
      complete_seq = 0;
      last_result = Ok 0;
      next_gen = log_start_gen + 1;
      next_deadline =
        (match snapshot_interval with
        | Some dt -> Unix.gettimeofday () +. dt
        | None -> infinity);
      snapshots = Atomic.make 0;
      snapshot_errors = Atomic.make 0;
      last_records = 0;
      walk_restarts = Atomic.make 0;
      compactions = Atomic.make 0;
      appends = Rp_obs.Counter.create ();
      append_errors = Rp_obs.Counter.create ();
      last_append_error = Atomic.make 0.0;
      snapshot_hist = Rp_obs.Histogram.create ();
      domain = None;
      tap = None;
    }
  in
  (match log with
  | Some l ->
      Store.set_persist_hook store
        (Some
           (fun r ->
             (* Graceful degradation under a failing disk: the mutation
                was already applied and acked in memory, so swallow the
                append failure (the record is lost — durability degrades)
                and latch it for the guard's disk-pressure source. *)
             match P.Oplog.append l r with
             | () ->
                 Rp_obs.Counter.incr t.appends;
                 if Atomic.get t.last_append_error <> 0.0 then
                   Atomic.set t.last_append_error 0.0;
                 (match t.tap with
                 | Some tap ->
                     (* Carry the serving request's trace id across the
                        wire so a follower's apply span joins the same
                        distributed trace. *)
                     tap ~gen:(P.Oplog.gen l)
                       ~trace:(Rp_trace.current_trace_id ())
                       r
                 | None -> ())
             | exception _ ->
                 Rp_obs.Counter.incr t.append_errors;
                 Atomic.set t.last_append_error (Unix.gettimeofday ())))
  | None -> ());
  register_instruments t;
  t.domain <- Some (Domain.spawn (fun () -> snapshot_loop t));
  t

let snapshot_now t =
  Mutex.lock t.mutex;
  t.request_seq <- t.request_seq + 1;
  let ticket = t.request_seq in
  while t.complete_seq < ticket && not t.stopped do
    Condition.wait t.cond t.mutex
  done;
  let result =
    if t.complete_seq < ticket then Error "persistence manager stopped"
    else t.last_result
  in
  Mutex.unlock t.mutex;
  result

let halt t ~graceful =
  Mutex.lock t.mutex;
  let already = t.stop_requested in
  t.stop_requested <- true;
  Mutex.unlock t.mutex;
  if not already then begin
    Store.set_persist_hook t.store None;
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    match t.log with
    | Some l -> if graceful then P.Oplog.close l
    | None -> ()
  end

let stop t = halt t ~graceful:true
let crash_for_testing t = halt t ~graceful:false
