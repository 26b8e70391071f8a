(** The persistence manager: glues {!Store} to {!Rp_persist}.

    One [attach] per store directory gives the store crash safety:

    - {b Warm restart}: recovery runs first — the newest valid snapshot
      is streamed into the store, then every op-log segment from that
      snapshot's generation on is replayed (the newest segment's torn
      tail, if a crash left one, is truncated away). Only then does the
      ["persist"] {!Store.plane} attach, its mutation observer feeding
      the op log.
    - {b Op log}: every acknowledged mutation is appended (inside the
      store's serialization lock) as a state-based record; fsync policy
      per {!Rp_persist.Oplog.fsync_policy}.
    - {b Snapshots}: a dedicated background domain walks the live table
      as a plain relativistic reader ({!Store.iter_items} — bounded read
      sections, no locks against writers) and streams an atomic snapshot
      file. The op log is rotated to the snapshot's generation {e before}
      the walk, so every mutation racing the walk lands in a segment that
      replay applies on top of the snapshot; state-based records make the
      duplicates harmless. After a successful snapshot, older snapshots
      and segments are compacted away.

    Everything is observable: [persist_*] instruments land in the
    store's registry (so they reach [stats persist], the Prometheus
    endpoint, and report JSON).

    Expiry and eviction are deliberately {e not} logged: dropping a dead
    or evicted item is a local decision the next run re-derives (expiry
    from absolute timestamps, eviction from its own budget), so a
    recovered store may transiently exceed the byte budget until its
    first eviction sweep. *)

type t

type recovery = {
  snapshot_gen : int option;  (** generation restored from, if any *)
  snapshot_records : int;
  log_records : int;  (** op records replayed on top of the snapshot *)
  log_bad_records : int;
  log_segments : int;
  log_truncated_bytes : int;  (** torn tail cut from the newest segment *)
  post_recovery_evictions : int;
      (** items evicted to bring a recovered over-budget heap back under
          [max_bytes] before serving traffic *)
}

val attach :
  ?snapshot_interval:float ->
  ?aof:bool ->
  ?fsync:Rp_persist.Oplog.fsync_policy ->
  ?oplog_max_mb:int ->
  ?archive_keep:int ->
  dir:string ->
  Store.t ->
  t
(** Recover [dir] into the store, run the post-recovery eviction sweep,
    start the op log (unless [aof:false]; default [true]) with [fsync]
    (default [Always]), attach the ["persist"] plane (its observer
    appends to the op log), register instruments,
    and spawn the snapshot domain. [snapshot_interval] (seconds) enables
    periodic snapshots; omitted, snapshots only happen via
    {!snapshot_now}. A positive [oplog_max_mb] (default 0 = unbounded)
    rotates op-log segments by size as well as by snapshot. Compaction
    archives superseded files as [<name>.old-<gen>] and keeps the newest
    [archive_keep] (default 2) archived generations. Attach at most once
    per store (instrument names collide otherwise), and before serving
    traffic (recovery applies records through the normal update path,
    but concurrent client mutations would interleave with replay).

    An op-log append that fails (disk full, injected fault) does {e not}
    fail the mutation: the record is dropped, durability degrades, and
    the failure is latched for {!append_errors} /
    {!last_append_error_age} — the guard plane's disk-pressure signal. *)

val recovery : t -> recovery
(** What recovery found at {!attach} time. *)

val snapshot_now : t -> (int, string) result
(** Ask the snapshot domain for an immediate snapshot and wait for it:
    [Ok records_written] or the failure ([Error] leaves the previous
    snapshot generation in place — snapshots are atomic). *)

val log_gen : t -> int option
(** Current op-log segment generation ([None] when [aof:false]). *)

val dir : t -> string
(** The persistence directory this manager was attached to. *)

val flush_log : t -> unit
(** Push the op log's pending buffer to the OS (no fsync) so a reader
    tailing the segment files ({!Rp_persist.Oplog.Tail}) can see every
    record appended so far. No-op when [aof:false]. *)

val set_tap :
  t -> (gen:int -> trace:int -> Rp_persist.Record.t -> unit) option -> unit
(** Install (or clear) the replication tap: called for every record
    immediately after its successful op-log append, still inside the
    store's serialization lock — tap order is exactly log order. [gen]
    is the segment the record landed in; [trace] is the serving
    request's flight-recorder trace id (0 when unsampled), which the
    replication stream carries to followers. The tap must be quick
    (enqueue, don't write sockets) and must not raise. *)

val oplog_bytes : t -> int
(** Total op-log bytes: on-disk segments plus unflushed frames. *)

val append_errors : t -> int
(** Op-log appends that failed (and were swallowed) so far. *)

val last_append_error_age : t -> float option
(** Seconds since the most recent append failure; [None] once an append
    has succeeded again (or if none ever failed). *)

val set_paused : t -> bool -> unit
(** Suspend/resume {e periodic} snapshots (the guard's Emergency
    actuator). {!snapshot_now} still works while paused. *)

val paused : t -> bool

val set_fsync_policy : t -> Rp_persist.Oplog.fsync_policy -> unit
(** Swap the op log's fsync policy live (no-op when [aof:false]). *)

val fsync_policy : t -> Rp_persist.Oplog.fsync_policy option

val stop : t -> unit
(** Graceful shutdown: stop the snapshot domain, sync and close the op
    log, drop the plane's observer ([stats persist] keeps the final
    counters). Idempotent. No final snapshot is taken —
    the synced log already covers everything. *)

val crash_for_testing : t -> unit
(** Simulate the process dying mid-flight ([kill -9]) as far as this
    manager can from inside one process: stop the snapshot domain and
    drop the observer {e without} syncing, flushing, or closing the op
    log cleanly. Torture scenarios follow this with direct file-level
    damage (torn tails) before re-attaching a fresh store. *)
