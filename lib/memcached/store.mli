(** The cache store: memcached semantics over a pluggable table backend.

    Two backends implement the same command set:

    - {!Lock}: stock memcached's discipline — one global lock around every
      operation, GETs included (lookup + exact-LRU bump + expiry check all
      inside the lock);
    - {!Rp}: the paper's port — GET is a wait-free relativistic lookup that
      copies the value inside the read-side critical section and bumps an
      atomic access timestamp instead of LRU list pointers; expiry falls
      back to a locked slow path; updates serialize {e per key} on a
      striped lock (stripe = key hash, aligned with the backing table's own
      writer stripes) so independent SETs/DELETEs/CAS proceed concurrently
      from different workers, and use safe relativistic memory reclamation
      (the table's deferred reclamation). CLOCK-style second-chance
      eviction replaces the exact LRU; sweeps are single-flighted and lock
      only each victim's stripe, never the whole store. *)

type backend = Lock | Rp

type rcu_mode =
  | Memb  (** safe default: readers pay two stores per section, any thread
              may touch the store at any time *)
  | Qsbr
      (** kernel-RCU-like zero-cost read sections for the {!Rp} backend
          (the event-loop serving plane's configuration). Every domain
          that touches the store becomes a QSBR participant and must
          quiesce regularly or go offline ({!reader_offline}) before
          blocking — exactly the discipline {!Evloop} workers follow.
          Threads other than the workers go through {!background}. *)

type t

type stored_result =
  | Stored
  | Not_stored
  | Exists
  | Not_found
  | Too_large  (** bigger than the largest slab chunk (1 MiB) *)

type counter_result = Cnotfound | Cnon_numeric | Cvalue of int

val create :
  ?backend:backend ->
  ?rcu_mode:rcu_mode ->
  ?max_bytes:int ->
  ?initial_size:int ->
  ?auto_resize:bool ->
  ?stripes:int ->
  ?heat_topk:int ->
  ?heat_sample:int ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [max_bytes] is the eviction budget (default 64 MiB); [initial_size] the
    initial bucket count (default 1024); [auto_resize] (default true, RP
    backend only) lets the table grow/shrink with item count; [stripes]
    (default 8, rounded up to a power of two, RP backend only) is the
    update-stripe count — also passed down as the backing table's writer
    stripe count; [heat_topk] (default 0 = off) enables the {!Rp_heat}
    workload-insight plane tracking that many heavy hitters per sketch
    — when 0 the hot-path cost is a single branch on a [None];
    [heat_sample] (default 16, power of two) is the plane's head-sampling
    period — one note in that many pays for sketch work, and exposed
    counts are scaled back (pass 1 for exact counts in tests); [clock]
    is injectable for expiry tests. [rcu_mode] (default {!Memb}) selects
    the RCU flavour backing the {!Rp} table; {!Qsbr} makes every GET a
    zero-cost read section but obliges callers to QSBR discipline. *)

val backend : t -> backend
val rcu_mode : t -> rcu_mode

val write_stripes : t -> int
(** Update-stripe count of the {!Rp} backend (1 for {!Lock} — its global
    lock is one big stripe). *)

val reader_offline : t -> unit
(** Take the calling domain's reader offline (extended quiescent state) so
    grace periods stop waiting for it — required before a {!Qsbr}-mode
    domain blocks (poll wait, long sleep). The next store access brings it
    back online automatically. No-op for {!Memb} and the {!Lock} backend. *)

val background : t -> (unit -> 'a) -> 'a
(** [background t f] runs [f] for a thread that is not an event-loop
    worker — recovery, the replication apply loop, the guard's Emergency
    sweep — and leaves the calling domain's reader offline afterwards.
    Under {!Qsbr} such threads share their domain's QSBR slot, so every
    such caller is serialized by one mutex: no two of them hold read
    sections at once, and the slot is offline whenever none is running.
    Every store access from such a thread must go through here. Not for
    event-loop workers, which own their domain's slot. For {!Memb}
    stores it is plain application. *)

(** {1 Commands} *)

val get : t -> string -> Protocol.value option
(** The GET path whose scalability the paper's figure 5 measures. *)

val get_many : t -> ?with_cas:bool -> string list -> Protocol.value list
(** Batch lookup — the multiget fast path the event loop's batch dispatch
    hits: one [cmd_get] counter add for the whole batch and, on the {!Rp}
    backend, a single read-side critical section spanning every key.
    Expired items encountered inside the batch are reaped after the
    section closes, each under its own key's update stripe. *)

val set : t -> key:string -> flags:int -> exptime:int -> data:string -> stored_result
val add : t -> key:string -> flags:int -> exptime:int -> data:string -> stored_result
val replace : t -> key:string -> flags:int -> exptime:int -> data:string -> stored_result
val append : t -> key:string -> data:string -> stored_result
val prepend : t -> key:string -> data:string -> stored_result

val cas :
  t -> key:string -> flags:int -> exptime:int -> data:string -> unique:int ->
  stored_result

val delete : t -> string -> bool
val incr : t -> string -> int -> counter_result
val decr : t -> string -> int -> counter_result
(** [decr] saturates at 0, as memcached does. *)

val touch : t -> key:string -> exptime:int -> bool
val flush_all : t -> unit

(** {1 Persistence plumbing}

    The hooks the {!Persist} manager builds on. The store itself never
    touches a disk: it reports every acknowledged mutation as a
    state-based {!Rp_persist.Record.t} (called inside the mutated key's
    serialization stripe, so the log's per-key order is the store's —
    records are replay-idempotent, making cross-key interleaving safe)
    and can walk and restore itself on request. *)

val set_persist_hook : t -> (Rp_persist.Record.t -> unit) option -> unit
(** Install (or clear) the mutation hook. The hook runs with the mutated
    key's update stripe held — concurrent mutations on other stripes may
    invoke it concurrently, so it must be thread-safe — and must be quick
    aside from its own I/O; an exception it raises fails the triggering
    command after the in-memory effect — the client then sees an error,
    i.e. an unknown outcome. *)

val iter_items : t -> f:(string -> Item.t -> unit) -> int
(** Walk every live binding. On the {!Rp} backend this is
    {!Rp_ht.iter_batched}: bounded read-side critical sections with
    re-entry between batches, so the walk never blocks writers nor
    extends a grace period beyond one batch; bindings may be seen twice
    across a concurrent expansion, and the walk restarts on a concurrent
    shrink (the return value counts restarts). The {!Lock} backend walks
    under its global lock (returns 0). *)

val restore : t -> Rp_persist.Record.t -> unit
(** Apply a recovered record: no hook re-entry, no command counters;
    expired records delete rather than store. CAS values are preserved
    and {!Item.note_restored_cas} keeps future allocations unique. *)

val replicate : t -> Rp_persist.Record.t -> unit
(** Apply a record from the replication stream: {!restore} semantics,
    {e plus} the record is re-logged through the persist hook inside the
    serialization lock — a following replica's own oplog thereby stays a
    faithful linearization of what it applied, so it can recover,
    snapshot, and lead after promotion. Bypasses {!read_only}. *)

val now : t -> float
(** The store's (injectable) clock. *)

(** {1 Overload guard plumbing}

    The {!Guard} wiring module attaches an {!Rp_guard.t}; {!Dispatch} and
    {!Binary_server} consult it to shed mutations, and the guard's
    Emergency actuators call back into {!evict_to_budget}. *)

val set_guard : t -> Rp_guard.t option -> unit
val guard : t -> Rp_guard.t option

(** {1 Cluster plumbing}

    The {!Cluster} glue flips these; {!Dispatch} and {!Binary_server}
    consult them. *)

val set_read_only : t -> bool -> unit
(** A following replica refuses client mutations; the replication
    stream itself applies through {!replicate}, which is exempt. *)

val read_only : t -> bool

val set_cluster_info : t -> (unit -> (string * string) list) option -> unit
(** Provider for the [stats cluster] section (role, watermarks,
    follower list). *)

val set_promote_hook : t -> (unit -> (string, string) result) option -> unit
(** Action behind the [cluster promote] admin command. *)

val promote : t -> (string, string) result
(** Run the promote hook ([Error "not a replica"] when none). *)

(** {1 Cold-tier plumbing}

    The {!Tier} glue installs these hooks over an {!Rp_tier.Cold_store}.
    With hooks installed, the CLOCK eviction sweep {e demotes} victims —
    appends the value to a segment file and swaps the item for a compact
    {!Item.Cold} marker, under the victim's update stripe — instead of
    dropping them; a GET that finds a marker reads the segment with no
    store lock held and reinserts under the stripe (promote-on-access,
    single-flighted per key on a dedicated promote-stripe array). Keys,
    flags, expiry and CAS never leave the RP table. *)

type tier_read_error = Tier_gone | Tier_torn

type tier_hooks = {
  th_demote : string -> string -> (int * int * int) option;
      (** [th_demote key data] appends to the tier; [(segment, offset,
          len)] on success, [None] when full/failing (the store then
          falls back to plain eviction). Runs under the victim's update
          stripe. *)
  th_read : int * int * int -> (string * string, tier_read_error) result;
      (** Positioned read of [(key, data)]; runs with no store lock held. *)
  th_mark_dead : int * int * int -> unit;
      (** Location dereferenced (delete/overwrite/promote/flush); feeds
          the tier's per-segment live accounting. Runs under the key's
          update stripe. *)
  th_admit : unit -> bool;
      (** Demotion gate (false = shed demotions; cold reads are never
          shed). *)
}

val set_tier : t -> tier_hooks option -> unit

val set_tier_info : t -> (unit -> (string * string) list) option -> unit
(** Provider for the live part of the [stats tier] section. *)

val tier_location : t -> string -> (int * int * int) option
(** The key's cold-marker location, if it is live and demoted (wait-free;
    the tier's recovery and compactor use it as the liveness oracle). *)

val tier_relocate :
  t ->
  key:string ->
  from_:int * int * int ->
  relocate:(unit -> (int * int * int) option) ->
  bool
(** Compaction step: under the key's update stripe, verify the marker
    still points at [from_], run [relocate] (copy the frame to the head
    segment), and publish a marker for the returned location. [false] =
    the record was already dead or the copy failed; nothing changed. The
    caller marks the old frame dead on [true]. *)

val tier_demotions : t -> int
val tier_promotions : t -> int

val tier_active : t -> bool
(** A tier is attached and currently admitting demotions — i.e. an
    eviction sweep turns memory overflow into disk bytes rather than
    losses. The guard's memory source keys off this: a full hot layer
    over a working tier is healthy, not overload. *)

val max_bytes : t -> int
(** The eviction budget this store was created with. *)

val evict_to_budget : t -> int
(** Synchronous eviction sweep: evict (LRU / CLOCK per backend) until
    [bytes t <= max_bytes t]. Returns the number of items evicted (0 when
    already under budget). On the {!Rp} backend the sweep holds no stripe
    across the walk — it locks each victim's stripe individually — and is
    single-flighted against store-triggered sweeps (a losing caller waits
    the winner out and re-checks before returning). *)

(** {1 Introspection}

    Command counters ([cmd_get], [cmd_set], [get_hits], [get_misses],
    [deletes], [evictions], [expired]) are striped {!Rp_obs.Counter}s — the
    GET-path ones ride the wait-free lookup as unsynchronized stores. They
    live in a per-store {!Rp_obs.Registry} together with store gauges
    ([curr_items], [bytes], …) and, for the {!Rp} backend, the full
    [rp_ht_*] / [rcu_*] instrument set of the backing table and its RCU
    instance. *)

val registry : t -> Rp_obs.Registry.t
(** The store's instrument registry (for Prometheus exposition or report
    files). *)

val stats : t -> (string * string) list
(** memcached [stats] lines: [backend] plus every store-level instrument
    (the [rp_ht_*]/[rcu_*] internals are left to {!rp_stats}). *)

val rp_stats : t -> (string * string) list
(** [stats rp] lines: the relativistic-stack instruments only ([rp_ht_*]
    lookup/insert/resize counters and histogram, [rcu_*] grace-period
    counters and latency histogram). Empty for the {!Lock} backend. *)

val persist_stats : t -> (string * string) list
(** [stats persist] lines: every [persist_*] instrument the {!Persist}
    manager registered. Empty when persistence is not attached. *)

val trace_stats : t -> (string * string) list
(** [stats trace] lines: the flight recorder's live state — sample rate,
    spans recorded/dropped, sampled-request percentage, retained slow
    requests ({!Rp_trace.stats_kv}; process-wide). *)

val guard_stats : t -> (string * string) list
(** [stats guard] lines: the overload guard's live ladder state plus
    every [guard_*] instrument. A single disabled marker when no guard
    is attached. *)

val tier_stats : t -> (string * string) list
(** [stats tier] lines: the tier glue's live view (mode, dir) plus every
    [tier_*] instrument. A single disabled marker when no tier is
    attached. *)

val cluster_stats : t -> (string * string) list
(** [stats cluster] lines: the cluster glue's live view (role, sent and
    acked watermarks, follower list / leader link). A single disabled
    marker when the cluster plane is off. *)

val heat : t -> Rp_heat.t option
(** The workload-insight plane, when the store was created with
    [heat_topk > 0]. *)

val heat_stats : t -> (string * string) list
(** [stats heat] lines: per-rank heavy-hitter detail plus every [heat_*]
    instrument (top-k labeled gauges, size histograms, stripe heatmap).
    A single disabled marker when the plane is off. *)

val heat_json : ?n:int -> t -> string
(** The [/heat] JSON document (top [n] entries per sketch, default all
    [k]); [{"heat_enabled": false}] when the plane is off. *)

val reset_stats : t -> unit
(** [stats reset]: clear the heat sketches, exemplar cells, and every
    registry histogram. Monotonic counters ([cmd_get], [evictions], ...)
    survive — matching stock memcached's reset semantics. *)

val items : t -> int

val bytes : t -> int
(** Chunk bytes charged in the slab accounting (what eviction compares to
    the budget; includes internal fragmentation, as in stock memcached). *)

val slab_stats : t -> Slab.class_stats list
val fragmentation : t -> float
val evictions : t -> int
