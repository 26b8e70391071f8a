type backend = Lock | Rp
type rcu_mode = Memb | Qsbr

type stored_result = Stored | Not_stored | Exists | Not_found | Too_large
type counter_result = Cnotfound | Cnon_numeric | Cvalue of int

(* Lock backend: item + its exact-LRU node, both only touched under the
   global lock. *)
type lock_entry = { item : Item.t; node : string Lru.node }

type lock_state = {
  table : (string, lock_entry) Rp_baseline.Lock_ht.t;
  lru : string Lru.t;
}

(* Rp backend: wait-free reads; updates serialize per key on a striped
   lock (stripe = key hash land mask, the same fnv1a hash the table
   stripes on, so one store stripe maps into one table stripe and
   independent SETs/DELETEs/CAS from different evloop workers proceed
   concurrently). The CLOCK queue holds (key, last_access seen when
   enqueued) pairs for second-chance eviction; it has its own leaf mutex
   [clock_mu] — always acquired *inside* a stripe (or alone), never the
   other way around — and sweeps are single-flighted through [sweeping]
   and run with no stripe held, locking each victim's stripe as they
   go. *)
type rp_state = {
  rp : (string, Item.t) Rp_ht.t;
  update_stripes : Mutex.t array;  (* power of two *)
  update_mask : int;
  clock_mu : Mutex.t;
  clockq : (string * float) Queue.t;
  sweeping : bool Atomic.t;
  (* Promotion single-flight: a flash crowd on one demoted key does one
     disk read. Same mask as the update stripes, but a separate array —
     a promoter holds its promote stripe ACROSS the disk read and only
     then takes the key's update stripe, so promote stripe > update
     stripe in the lock order and the two must not share mutexes. *)
  promote_stripes : Mutex.t array;
}

type state = Lock_state of lock_state | Rp_state of rp_state

(* --- cold-tier plumbing (see [Tier] for the manager) ---

   The store never touches segment files itself: the glue installs these
   hooks and the eviction sweep / GET path call through them. Locations
   are bare ints ([Item.Cold] fields) so this module stays independent of
   the tier's own types. *)

type tier_read_error = Tier_gone | Tier_torn

type tier_hooks = {
  th_demote : string -> string -> (int * int * int) option;
      (** [th_demote key data] appends to the cold tier, returning the
          (segment, offset, len) location, or [None] when the tier is
          full or failing (caller falls back to plain eviction). Called
          under the victim's update stripe. *)
  th_read : int * int * int -> (string * string, tier_read_error) result;
      (** Positioned read of [(key, data)]; called with NO store lock
          held (only the key's promote stripe). *)
  th_mark_dead : int * int * int -> unit;
      (** The location is no longer referenced (delete / overwrite /
          promote / flush). Called under the key's update stripe. *)
  th_admit : unit -> bool;
      (** Demotion gate — false under guard Emergency (shed demotions,
          never cold reads). *)
}

type t = {
  state : state;
  (* Persistence hook, installed by [Persist.attach]: called with the op
     record of every acknowledged mutation, inside the mutated key's
     serialization stripe, so the op log's per-key order is the store's
     per-key order (records are state-based and replay-idempotent, so
     cross-key interleaving is free — see [Rp_persist.Record]). *)
  mutable persist_hook : (Rp_persist.Record.t -> unit) option;
  (* Some when the Rp backend runs on the QSBR flavour (zero-cost read
     sections). Readers must then respect QSBR discipline: the event-loop
     workers go offline around their poll wait, and the update stripes are
     acquired with a quiescing spin. *)
  qsbr : Rcu_qsbr.t option;
  (* Serializes QSBR store work done outside the event-loop workers; see
     [background]. *)
  background_mu : Mutex.t;
  (* Overload guard, attached by [Guard.install]: dispatch consults it to
     shed mutations; [guard_stats] renders its live ladder state. *)
  mutable guard : Rp_guard.t option;
  (* A following replica refuses client mutations (dispatch checks this);
     the replication stream itself applies through [replicate], which
     bypasses the flag. *)
  mutable read_only : bool;
  (* Cluster glue, installed by [Cluster]: the live [stats cluster]
     section and the [cluster promote] admin action. *)
  mutable cluster_info : (unit -> (string * string) list) option;
  mutable promote_hook : (unit -> (string, string) result) option;
  (* Cold-tier hooks, installed by [Tier.attach]; [tier_info] renders the
     live [stats tier] section. *)
  mutable tier : tier_hooks option;
  mutable tier_info : (unit -> (string * string) list) option;
  max_bytes : int;
  slab : Slab.t;  (* chunk-level accounting; eviction compares chunk bytes *)
  clock : unit -> float;
  (* Workload-insight plane (Some iff created with [heat_topk > 0]).
     Every hot-path emission sits behind one branch on this option, so
     an unconfigured plane costs nothing but that branch. *)
  heat : Rp_heat.t option;
  (* striped counters, registered in [registry] under their stats names.
     GET-path counters ride the wait-free lookup, so they must never be a
     shared atomic RMW. *)
  registry : Rp_obs.Registry.t;
  get_hits : Rp_obs.Counter.t;
  get_misses : Rp_obs.Counter.t;
  cmd_get : Rp_obs.Counter.t;
  cmd_set : Rp_obs.Counter.t;
  deletes : Rp_obs.Counter.t;
  evicted : Rp_obs.Counter.t;
  expired : Rp_obs.Counter.t;
  clock_chances : Rp_obs.Counter.t;
  evict_sweep_us : Rp_obs.Histogram.t;  (* CLOCK sweep wall time, us *)
  (* Tier traffic counters. [tier_demotions] is deliberately separate
     from [evicted]: operators must be able to tell "moved to disk" from
     "lost" — an eviction wave that demotes costs latency, one that
     drops costs data. *)
  tier_demotions : Rp_obs.Counter.t;
  tier_promotions : Rp_obs.Counter.t;
  tier_read_errors : Rp_obs.Counter.t;
  (* A CRC-valid frame holding the WRONG key is not media corruption —
     it means marker/segment bookkeeping is off. Counted apart from torn
     frames so a tier accounting bug is distinguishable in stats. *)
  tier_read_mismatches : Rp_obs.Counter.t;
  tier_read_us : Rp_obs.Histogram.t;  (* cold read wall time, us *)
  tier_demote_us : Rp_obs.Histogram.t;  (* demote append wall time, us *)
}

(* Flight-recorder span names. The read-section and update spans are
   detail-tier (recorded only inside a head-sampled request); the CLOCK
   sweep is control-tier — rare and worth seeing unconditionally. *)
let k_read_section = Rp_trace.intern "store.read_section"
let k_update = Rp_trace.intern "store.update"
let k_evict_sweep = Rp_trace.intern "store.evict_sweep"
let k_tier_demote = Rp_trace.intern "tier.demote"
let k_tier_promote = Rp_trace.intern "tier.promote"

let hash_key = Rp_hashes.Hashfn.fnv1a_string

let create ?(backend = Rp) ?(rcu_mode = Memb) ?(max_bytes = 64 * 1024 * 1024)
    ?(initial_size = 1024) ?(auto_resize = true) ?(stripes = 8)
    ?(heat_topk = 0) ?(heat_sample = 16) ?(clock = Unix.gettimeofday) () =
  let qsbr =
    match (backend, rcu_mode) with Rp, Qsbr -> Some (Rcu_qsbr.create ()) | _ -> None
  in
  let nstripes =
    let rec pow2 n = if n >= stripes then n else pow2 (n * 2) in
    pow2 1
  in
  let state =
    match backend with
    | Lock ->
        Lock_state
          {
            table =
              Rp_baseline.Lock_ht.create ~hash:hash_key ~equal:String.equal
                ~size:initial_size ();
            lru = Lru.create ();
          }
    | Rp ->
        (* The table stripes on the same fnv1a hash with its own (also
           power-of-two) stripe array, so a store stripe maps onto a fixed
           set of table stripes and two ops serialized here never contend
           below. *)
        let rp =
          match qsbr with
          | Some q ->
              Rp_ht.create ~flavour:(Flavour.qsbr q) ~initial_size ~auto_resize
                ~stripes:nstripes ~hash:hash_key ~equal:String.equal ()
          | None ->
              Rp_ht.create ~initial_size ~auto_resize ~stripes:nstripes
                ~hash:hash_key ~equal:String.equal ()
        in
        Rp_state
          {
            rp;
            update_stripes = Array.init nstripes (fun _ -> Mutex.create ());
            update_mask = nstripes - 1;
            clock_mu = Mutex.create ();
            clockq = Queue.create ();
            sweeping = Atomic.make false;
            promote_stripes = Array.init nstripes (fun _ -> Mutex.create ());
          }
  in
  let registry = Rp_obs.Registry.create () in
  let counter name help = Rp_obs.Registry.counter registry ~help name in
  let t =
    {
      state;
      persist_hook = None;
      qsbr;
      background_mu = Mutex.create ();
      guard = None;
      read_only = false;
      cluster_info = None;
      promote_hook = None;
      tier = None;
      tier_info = None;
      max_bytes;
      slab = Slab.create ();
      clock;
      heat = (if heat_topk > 0 then
           Some (Rp_heat.create ~k:heat_topk ~sample_every:heat_sample ())
         else None);
      registry;
      get_hits = counter "get_hits" "GETs that found a live item";
      get_misses = counter "get_misses" "GETs that missed or hit an expired item";
      cmd_get = counter "cmd_get" "GET commands (one per key)";
      cmd_set = counter "cmd_set" "storage commands";
      deletes = counter "deletes" "DELETE commands";
      evicted = counter "evictions" "items evicted to fit the byte budget";
      expired = counter "expired" "items dropped on expiry";
      clock_chances =
        counter "clock_second_chances"
          "CLOCK eviction second chances granted to recently-touched items";
      evict_sweep_us =
        Rp_obs.Registry.histogram registry
          ~help:
            "wall time of CLOCK eviction sweeps, microseconds (second \
             chances included)"
          "eviction_sweep_us";
      tier_demotions =
        counter "tier_demotions_total"
          "evictions demoted to the cold tier instead of dropped";
      tier_promotions =
        counter "tier_promotions_total"
          "cold items promoted back to RAM on access";
      tier_read_errors =
        counter "tier_read_errors_total"
          "cold reads that failed for good (torn record or vanished segment)";
      tier_read_mismatches =
        counter "tier_read_mismatches_total"
          "cold reads that returned a CRC-valid frame for a different key \
           (tier location bookkeeping bug, not media corruption)";
      tier_read_us =
        Rp_obs.Registry.histogram registry
          ~help:"cold-tier positioned read wall time, microseconds"
          "tier_read_us";
      tier_demote_us =
        Rp_obs.Registry.histogram registry
          ~help:"cold-tier demotion (segment append) wall time, microseconds"
          "tier_demote_us";
    }
  in
  Rp_trace.register_instruments registry;
  (* Gauges read live store state; histograms and table/RCU counters come
     from the layers below via their observe hooks. *)
  let gauge name help f = Rp_obs.Registry.gauge registry ~help name f in
  gauge "curr_items" "live items"
    (fun () ->
      float_of_int
        (match t.state with
        | Lock_state ls -> Rp_baseline.Lock_ht.length ls.table
        | Rp_state rs -> Rp_ht.length rs.rp));
  gauge "bytes" "chunk bytes charged in the slab accounting"
    (fun () -> float_of_int (Slab.allocated_bytes t.slab));
  gauge "bytes_requested" "payload bytes before slab rounding"
    (fun () -> float_of_int (Slab.requested_bytes t.slab));
  gauge "slab_fragmentation" "1 - requested/allocated"
    (fun () -> Slab.fragmentation t.slab);
  gauge "slab_classes_in_use" "slab classes with at least one chunk"
    (fun () -> float_of_int (List.length (Slab.stats t.slab)));
  gauge "hash_buckets" "current bucket count of the backing table"
    (fun () ->
      float_of_int
        (match t.state with
        | Lock_state ls -> Rp_baseline.Lock_ht.size ls.table
        | Rp_state rs -> Rp_ht.size rs.rp));
  (match t.state with
  | Rp_state rs -> (
      Rp_ht.observe rs.rp registry;
      match qsbr with
      | None -> Rcu.observe (Rp_ht.rcu rs.rp) registry
      | Some q ->
          (* Flavoured tables have no memb instance; expose the QSBR
             grace-period counter and participant count instead. *)
          Rp_obs.Registry.fn_counter registry
            ~help:"QSBR grace periods completed" "rcu_grace_periods_total"
            (fun () -> float_of_int (Rcu_qsbr.grace_periods q));
          Rp_obs.Registry.gauge registry
            ~help:"QSBR participant threads registered" "rcu_qsbr_threads"
            (fun () -> float_of_int (Rcu_qsbr.registered_threads q)))
  | Lock_state _ -> ());
  (match t.heat with
  | None -> ()
  | Some h ->
      let stripe_heat =
        match t.state with
        | Rp_state rs -> fun () -> Rp_ht.stripe_heat rs.rp
        | Lock_state _ -> fun () -> [||]
      in
      Rp_heat.register h registry ~stripe_heat);
  t

let backend t = match t.state with Lock_state _ -> Lock | Rp_state _ -> Rp
let rcu_mode t = match t.qsbr with Some _ -> Qsbr | None -> Memb

let write_stripes t =
  match t.state with
  | Lock_state _ -> 1
  | Rp_state rs -> Array.length rs.update_stripes
let registry t = t.registry
let max_bytes t = t.max_bytes
let set_guard t g = t.guard <- g
let guard t = t.guard
let set_read_only t b = t.read_only <- b
let read_only t = t.read_only
let set_cluster_info t f = t.cluster_info <- f
let set_promote_hook t f = t.promote_hook <- f
let set_tier t h = t.tier <- h
let set_tier_info t f = t.tier_info <- f

let promote t =
  match t.promote_hook with
  | None -> Error "not a replica"
  | Some f -> f ()

(* Take the calling domain's QSBR reader offline (no-op for memb / Lock):
   event-loop workers call this before blocking in poll so grace periods
   never wait on a sleeping worker; the next read section re-onlines. *)
let reader_offline t =
  match t.state with
  | Rp_state rs -> (Rp_ht.flavour rs.rp).Flavour.thread_offline ()
  | Lock_state _ -> ()

(* A QSBR slot belongs to a domain, so every systhread on that domain
   shares one: the recovery code on the main thread, the replication
   apply thread, the guard's Emergency sweep. Interleaved, one thread's
   offline would strip a sibling's open read section (or raise), and a
   thread that blocks without going offline leaves the slot online with
   a stale counter, so the next grace period waits forever. Running all
   such work one caller at a time, each leaving the slot offline, rules
   out both. *)
let background t f =
  match t.qsbr with
  | None -> f ()
  | Some _ ->
      Mutex.lock t.background_mu;
      Fun.protect
        ~finally:(fun () ->
          reader_offline t;
          Mutex.unlock t.background_mu)
        f

(* memcached's REALTIME_MAXDELTA: protocol exptimes up to 30 days are
   relative seconds; anything larger is an absolute Unix timestamp. *)
let realtime_maxdelta = 30 * 24 * 60 * 60

(* Protocol exptime -> absolute Unix seconds, resolved once here at the
   original operation. The persistence log stores this absolute value, so
   replay after a restart re-expires items at the same wall-clock instant
   no matter when recovery runs — a relative offset re-applied at replay
   time would silently extend every TTL by the downtime. *)
let absolute_exptime t exptime =
  if exptime = 0 then 0.0 (* never expires *)
  else if exptime < 0 then epsilon_float (* expired since the dawn of time *)
  else if exptime <= realtime_maxdelta then
    t.clock () +. float_of_int exptime (* relative seconds from now *)
  else float_of_int exptime (* already an absolute Unix time *)

let value_of_item ?(with_cas = false) key (item : Item.t) : Protocol.value =
  {
    vkey = key;
    vflags = item.flags;
    vdata = item.data;
    vcas = (if with_cas then Some item.cas else None);
  }

(* --- persistence hook --- *)

let set_persist_hook t hook = t.persist_hook <- hook
let now t = t.clock ()

(* Callers invoke these while holding the backend's serialization lock
   for the mutated key (the Lock backend's table lock / the Rp backend's
   key stripe), which is what keeps the log a faithful per-key history. *)
let record t r = match t.persist_hook with None -> () | Some h -> h r

let record_set t ~op key (item : Item.t) =
  match t.persist_hook with
  | None -> ()
  | Some h ->
      (* State-based record: the resulting item, not the command's
         arguments — replay is idempotent and convergent (see
         [Rp_persist.Record]). *)
      h
        (Rp_persist.Record.Set
           {
             op;
             key;
             flags = item.flags;
             exptime = item.exptime;
             cas = item.cas;
             data = item.data;
           })

(* --- heat plane emission (each call is one branch when the plane is
   off; the plane itself is plain stripe-discipline stores) --- *)

let[@inline] heat_hit t key data =
  match t.heat with
  | None -> ()
  | Some h -> Rp_heat.note_hit h key ~vbytes:(String.length data)

let[@inline] heat_miss t key =
  match t.heat with None -> () | Some h -> Rp_heat.note_miss h key

let[@inline] heat_set t key ~vbytes =
  match t.heat with None -> () | Some h -> Rp_heat.note_set h ~vbytes key

(* Mutations with no payload of their own (touch, incr/decr). *)
let[@inline] heat_mutation t key =
  match t.heat with None -> () | Some h -> Rp_heat.note_set h key

let[@inline] heat_delete t key =
  match t.heat with None -> () | Some h -> Rp_heat.note_delete h key

let[@inline] heat_tier_demote t ~vbytes =
  match t.heat with None -> () | Some h -> Rp_heat.note_tier_demote h ~vbytes

let[@inline] heat_tier_promote t ~vbytes =
  match t.heat with None -> () | Some h -> Rp_heat.note_tier_promote h ~vbytes

(* Exemplar stamp beside a [Histogram.observe] of the same value. *)
let[@inline] heat_slo t name value =
  match t.heat with None -> () | Some h -> Rp_heat.note_slo h name value

(* --- Lock backend primitives (global lock held by callers below) --- *)

let lock_find_live t ls key ~now =
  match Rp_baseline.Lock_ht.unsafe_find ls.table key with
  | None -> None
  | Some entry ->
      if Item.is_expired entry.item ~now then begin
        ignore (Rp_baseline.Lock_ht.unsafe_remove ls.table key);
        Lru.remove ls.lru entry.node;
        Slab.refund t.slab (Item.size_bytes ~key entry.item);
        Rp_obs.Counter.incr t.expired;
        None
      end
      else Some entry

let lock_delete t ls key =
  match Rp_baseline.Lock_ht.unsafe_find ls.table key with
  | None -> false
  | Some entry ->
      ignore (Rp_baseline.Lock_ht.unsafe_remove ls.table key);
      Lru.remove ls.lru entry.node;
      Slab.refund t.slab (Item.size_bytes ~key entry.item);
      true

let lock_evict_until_fits t ls =
  let exhausted = ref false in
  while (not !exhausted) && Slab.allocated_bytes t.slab > t.max_bytes do
    match Lru.pop_back ls.lru with
    | None -> exhausted := true (* nothing left to evict *)
    | Some victim -> (
        match Rp_baseline.Lock_ht.unsafe_find ls.table victim with
        | None -> ()
        | Some entry ->
            ignore (Rp_baseline.Lock_ht.unsafe_remove ls.table victim);
            Slab.refund t.slab (Item.size_bytes ~key:victim entry.item);
            Rp_obs.Counter.incr t.evicted)
  done

(* [evict:false] defers budget enforcement to a later sweep — recovery
   replay uses it so mid-replay eviction can't churn items a later log
   record would have refreshed or deleted anyway. *)
let lock_store ?(evict = true) t ls key (item : Item.t) =
  ignore (lock_delete t ls key);
  let node = Lru.push_front ls.lru key in
  Rp_baseline.Lock_ht.unsafe_insert ls.table key { item; node };
  ignore (Slab.charge t.slab (Item.size_bytes ~key item));
  if evict then lock_evict_until_fits t ls

(* --- Rp backend update locking --- *)

(* Acquire one update stripe. Under QSBR a plain blocking lock could
   deadlock: the holder may be inside wait-for-readers (a table resize
   pass or a deferred-reclamation flush) while we sit here online and
   non-quiescent, so it would wait on us forever. Spin with try_lock
   instead, announcing a quiescent state each round (we hold no
   RCU-protected references while asking for a writer stripe). *)
let lock_update t (m : Mutex.t) =
  match t.qsbr with
  | None -> Mutex.lock m
  | Some q ->
      if not (Mutex.try_lock m) then begin
        let th = Rcu_qsbr.thread_for_current_domain q in
        let can_quiesce =
          Rcu_qsbr.is_online th && not (Rcu_qsbr.in_critical_section th)
        in
        let rec spin () =
          if not (Mutex.try_lock m) then begin
            if can_quiesce then Rcu_qsbr.quiescent_state th;
            Domain.cpu_relax ();
            spin ()
          end
        in
        spin ()
      end

(* Serialize an update on the stripe its key hashes to. Lock ordering:
   store stripe > table stripe (taken inside Rp_ht calls) > clock_mu;
   never acquire upward. *)
let with_stripe t (rs : rp_state) ~hash f =
  let m = rs.update_stripes.(hash land rs.update_mask) in
  let span = Rp_trace.span_begin_sampled k_update in
  lock_update t m;
  match f () with
  | v ->
      Mutex.unlock m;
      Rp_trace.span_end_sampled k_update span;
      v
  | exception e ->
      Mutex.unlock m;
      Rp_trace.span_end_sampled k_update span;
      raise e

(* Cross-stripe operations (flush_all and its replicated/recovered form)
   stop every writer by taking all stripes in ascending index order. *)
let with_all_stripes t (rs : rp_state) f =
  let n = Array.length rs.update_stripes in
  for i = 0 to n - 1 do
    lock_update t rs.update_stripes.(i)
  done;
  match f () with
  | v ->
      for i = n - 1 downto 0 do
        Mutex.unlock rs.update_stripes.(i)
      done;
      v
  | exception e ->
      for i = n - 1 downto 0 do
        Mutex.unlock rs.update_stripes.(i)
      done;
      raise e

(* The CLOCK queue's leaf mutex: holders only touch the queue (no grace
   periods, no stripes), so a blocking lock is safe even under QSBR. *)
let clock_push (rs : rp_state) entry =
  Mutex.lock rs.clock_mu;
  Queue.add entry rs.clockq;
  Mutex.unlock rs.clock_mu

let clock_pop (rs : rp_state) =
  Mutex.lock rs.clock_mu;
  let v = Queue.take_opt rs.clockq in
  Mutex.unlock rs.clock_mu;
  v

let clock_len (rs : rp_state) =
  Mutex.lock rs.clock_mu;
  let n = Queue.length rs.clockq in
  Mutex.unlock rs.clock_mu;
  n

(* --- Rp backend primitives (the key's update stripe held by callers) --- *)

(* Whenever a cold marker leaves the table (delete, overwrite, promote,
   flush), its segment frame becomes garbage: tell the tier so per-segment
   live accounting — and through it, compaction — stays exact. *)
let tier_mark_dead t (item : Item.t) =
  match (item.location, t.tier) with
  | Item.Cold { segment; offset; len }, Some h -> h.th_mark_dead (segment, offset, len)
  | _, _ -> ()

let rp_delete t rs key =
  match Rp_ht.find rs.rp key with
  | None -> false
  | Some item ->
      ignore (Rp_ht.remove rs.rp key);
      Slab.refund t.slab (Item.size_bytes ~key item);
      tier_mark_dead t item;
      true

(* CLOCK-queue invariant: a key is enqueued iff its item is hot. Demotion
   stores a marker over a hot item whose queue entry the sweep just popped
   (no push — markers are evicted by tier budget, not the CLOCK); any
   store over a cold marker brings the key back to RAM and re-enqueues. *)
let rp_store t rs key (item : Item.t) =
  (match Rp_ht.find rs.rp key with
  | Some old ->
      Slab.refund t.slab (Item.size_bytes ~key old);
      if Item.is_cold old then begin
        tier_mark_dead t old;
        if not (Item.is_cold item) then
          clock_push rs (key, Atomic.get item.last_access)
      end
  | None ->
      if not (Item.is_cold item) then
        clock_push rs (key, Atomic.get item.last_access));
  (* replace publishes atomically: readers see the old or new item, never a
     torn one; the unlinked old item is reclaimed after a grace period. *)
  Rp_ht.replace rs.rp key item;
  ignore (Slab.charge t.slab (Item.size_bytes ~key item))

(* Demote one eviction victim to the cold tier: append (key, value) to
   the current segment and swap the item for a compact cold marker that
   keeps flags/expiry/CAS in RAM. Runs under the victim's update stripe
   (the caller's). Returns false — fall back to plain eviction — when no
   tier is attached, the guard is shedding demotions, the item is
   expired (nothing worth keeping), or the append failed/overflowed. *)
let rp_demote t rs key (item : Item.t) =
  match t.tier with
  | None -> false
  | Some hooks ->
      if (not (hooks.th_admit ())) || Item.is_expired item ~now:(t.clock ()) then
        false
      else begin
        let started = Rp_trace.now_ns () in
        let span = Rp_trace.span_begin_sampled k_tier_demote in
        let demoted =
          match hooks.th_demote key item.data with
          | Some (segment, offset, len) ->
              let marker =
                Item.make ~cas:item.cas
                  ~location:(Item.Cold { segment; offset; len })
                  ~flags:item.flags ~exptime:item.exptime ~data:""
                  ~now:(Atomic.get item.last_access) ()
              in
              rp_store t rs key marker;
              Rp_obs.Counter.incr t.tier_demotions;
              heat_tier_demote t ~vbytes:(String.length item.data);
              true
          | None -> false
        in
        Rp_trace.span_end_sampled k_tier_demote span;
        let us = (Rp_trace.now_ns () - started) / 1000 in
        Rp_obs.Histogram.observe t.tier_demote_us us;
        heat_slo t "tier_demote_us" us;
        demoted
      end

(* Resolve the live value of [item] while HOLDING the key's update stripe
   (the caller's): the read-modify-write commands — append/prepend,
   incr/decr, touch — need a demoted key's real value, not the marker's
   "". Reading under the stripe is safe: the tier's own mutex is a leaf
   below every store lock (demotion already appends under this very
   stripe), and the frame cannot move mid-read because compaction's
   relocate step needs this same stripe — which also makes [Tier_gone]
   unreachable here, so any failure is final: the value is gone, and the
   caller drops the marker rather than operate on "". Hot items return
   their data directly. *)
let resolve_cold_locked t key (item : Item.t) =
  match item.Item.location with
  | Item.Hot -> Some item.Item.data
  | Item.Cold { segment; offset; len } -> (
      match t.tier with
      | None -> None (* marker with no tier attached (shutdown window) *)
      | Some hooks -> (
          let started = Rp_trace.now_ns () in
          let r = hooks.th_read (segment, offset, len) in
          let us = (Rp_trace.now_ns () - started) / 1000 in
          Rp_obs.Histogram.observe t.tier_read_us us;
          heat_slo t "tier_read_us" us;
          match r with
          | Ok (rkey, data) when String.equal rkey key -> Some data
          | Ok _ ->
              Rp_obs.Counter.incr t.tier_read_mismatches;
              Rp_obs.Counter.incr t.tier_read_errors;
              None
          | Error _ ->
              Rp_obs.Counter.incr t.tier_read_errors;
              None))

(* CLOCK second-chance eviction: pop (key, last_access at enqueue); a key
   touched since its enqueue gets requeued with the newer stamp — but only
   while the sweep's second-chance budget lasts. The budget is the queue
   length when the sweep starts, so every loop turn either frees memory,
   drops a stale entry, or spends a chance: a sweep over a table of
   all-hot keys (readers re-touching every item faster than we pop)
   terminates after at most 2x the queue length instead of spinning
   unboundedly. Once the budget is gone the sweep degrades to FIFO, which
   still frees memory.

   The sweeper holds NO stripe across the sweep — it locks each victim's
   own stripe just long enough to re-check and unlink it, so a sweep
   triggered by one writer never stalls writers on unrelated stripes.
   Caller must hold the [sweeping] flag (single-flight). *)
let rp_sweep_locked t rs =
  if Slab.allocated_bytes t.slab > t.max_bytes then begin
    (* Time the whole sweep, second-chance requeues included: its tail is
       the CLOCK degradation the all-hot torture worries about. *)
    let sweep_start = Rp_trace.now_ns () in
    let sweep_span = Rp_trace.span_begin k_evict_sweep in
    let chances = ref (clock_len rs) in
    let exhausted = ref false in
    while (not !exhausted) && Slab.allocated_bytes t.slab > t.max_bytes do
      match clock_pop rs with
      | None -> exhausted := true
      | Some (key, seen_access) ->
          with_stripe t rs ~hash:(hash_key key) (fun () ->
              match Rp_ht.find rs.rp key with
              | None -> () (* already deleted *)
              | Some item when Item.is_cold item ->
                  (* Stale queue entry: the key was demoted and re-stored
                     since (markers live outside the CLOCK). Just drop
                     the entry — the marker is the tier's to manage. *)
                  ()
              | Some item ->
                  let last = Atomic.get item.last_access in
                  if last > seen_access && !chances > 0 then begin
                    decr chances;
                    Rp_obs.Counter.incr t.clock_chances;
                    clock_push rs (key, last)
                  end
                  else if not (rp_demote t rs key item) then begin
                    ignore (rp_delete t rs key);
                    Rp_obs.Counter.incr t.evicted
                  end)
    done;
    Rp_trace.span_end k_evict_sweep sweep_span;
    let us = (Rp_trace.now_ns () - sweep_start) / 1000 in
    Rp_obs.Histogram.observe t.evict_sweep_us us;
    heat_slo t "eviction_sweep_us" us
  end

(* Post-store budget enforcement. Mutating commands call this AFTER
   releasing their stripe (a sweep locks victim stripes itself); the CAS
   single-flights concurrent triggers so racing writers don't convoy on
   eviction — the one sweeper runs until the heap fits. *)
let rp_sweep t rs =
  if
    Slab.allocated_bytes t.slab > t.max_bytes
    && Atomic.compare_and_set rs.sweeping false true
  then
    Fun.protect
      ~finally:(fun () -> Atomic.set rs.sweeping false)
      (fun () -> rp_sweep_locked t rs)

(* Blocking variant for [evict_to_budget]: callers there (post-recovery
   attach, the guard's Emergency actuator) need the budget actually met on
   return, so losing the single-flight race means waiting the sweeper out
   and re-checking. *)
let rp_evict_to_budget t rs =
  let rec go () =
    if Slab.allocated_bytes t.slab > t.max_bytes then
      if Atomic.compare_and_set rs.sweeping false true then begin
        let before = Slab.allocated_bytes t.slab in
        Fun.protect
          ~finally:(fun () -> Atomic.set rs.sweeping false)
          (fun () -> rp_sweep_locked t rs);
        (* A sweep that freed nothing had an empty CLOCK queue: with a
           tier attached the residue can be all cold markers, which are
           not evictable — stop rather than spin on an unmeetable
           budget. *)
        if Slab.allocated_bytes t.slab < before then go ()
      end
      else begin
        Domain.cpu_relax ();
        go ()
      end
  in
  go ()

(* --- GET --- *)

let rp_expire_if_dead t rs ~now key =
  with_stripe t rs ~hash:(hash_key key) (fun () ->
      match Rp_ht.find rs.rp key with
      | Some again when Item.is_expired again ~now ->
          ignore (rp_delete t rs key);
          Rp_obs.Counter.incr t.expired
      | Some _ | None -> ())

(* [expired_acc]: when the caller holds a batch-wide read section open it
   must not take an update stripe inline (the holder could be waiting for
   readers — us included). Expired keys are collected and reaped by the
   caller after the section closes. A cold hit is likewise only REPORTED
   here (`Cold): resolving it means a disk read and a stripe acquisition,
   which the caller does outside any read section. *)
let get_rp_raw t rs ?(with_cas = false) ?expired_acc key =
  let now = t.clock () in
  (* Fast path: wait-free lookup; the value is copied out inside the
     table's read-side critical section. *)
  match Rp_ht.find rs.rp key with
  | None ->
      Rp_obs.Counter.incr t.get_misses;
      heat_miss t key;
      `Miss
  | Some item ->
      if Item.is_expired item ~now then begin
        (* Slow path: expiry needs the update lock. *)
        (match expired_acc with
        | Some acc -> acc := key :: !acc
        | None -> rp_expire_if_dead t rs ~now key);
        Rp_obs.Counter.incr t.get_misses;
        heat_miss t key;
        `Miss
      end
      else if Item.is_cold item then `Cold (* hit/miss counted at resolution *)
      else begin
        Item.touch_access item ~now;
        Rp_obs.Counter.incr t.get_hits;
        heat_hit t key item.data;
        `Hit (value_of_item ~with_cas key item)
      end

(* Resolve a cold hit: one positioned segment read, then reinsert under
   the key's update stripe (promote-on-access). The disk read happens
   with no store lock held — only the key's promote stripe, whose sole
   job is single-flighting: a flash crowd on one demoted key queues here
   and every loser finds the item already hot on its own pass.

   Races are re-resolved by re-reading the table (bounded retries): a
   compaction can relocate the marker mid-read (read returns [Tier_gone]
   — the fresh marker points at the copy), a SET can replace it (we find
   it hot and return that), a DELETE can win (miss). A torn record is
   final: the value is gone, so the marker is dropped — later GETs miss
   fast instead of re-reading a bad frame. *)
let rec promote_attempt t rs ~with_cas ~hooks key tries =
  let now = t.clock () in
  match Rp_ht.find rs.rp key with
  | None ->
      Rp_obs.Counter.incr t.get_misses;
      heat_miss t key;
      None
  | Some item when Item.is_expired item ~now ->
      rp_expire_if_dead t rs ~now key;
      Rp_obs.Counter.incr t.get_misses;
      heat_miss t key;
      None
  | Some item -> (
      match item.Item.location with
      | Item.Hot ->
          Item.touch_access item ~now;
          Rp_obs.Counter.incr t.get_hits;
          heat_hit t key item.data;
          Some (value_of_item ~with_cas key item)
      | Item.Cold { segment; offset; len } -> (
          let started = Rp_trace.now_ns () in
          let r = hooks.th_read (segment, offset, len) in
          let read_us = (Rp_trace.now_ns () - started) / 1000 in
          Rp_obs.Histogram.observe t.tier_read_us read_us;
          heat_slo t "tier_read_us" read_us;
          match r with
          | Ok (rkey, data) when String.equal rkey key -> (
              let promoted =
                with_stripe t rs ~hash:(hash_key key) (fun () ->
                    match Rp_ht.find rs.rp key with
                    | Some cur when cur == item ->
                        (* Marker unchanged since the read: publish the
                           hot item ([rp_store] refunds the marker, marks
                           its frame dead, re-enqueues in the CLOCK). *)
                        let hot =
                          Item.make ~cas:item.Item.cas ~flags:item.Item.flags
                            ~exptime:item.Item.exptime ~data ~now ()
                        in
                        rp_store t rs key hot;
                        Some (value_of_item ~with_cas key hot)
                    | _ -> None)
              in
              match promoted with
              | Some v ->
                  Rp_obs.Counter.incr t.tier_promotions;
                  Rp_obs.Counter.incr t.get_hits;
                  heat_tier_promote t ~vbytes:(String.length data);
                  heat_hit t key data;
                  Some v
              | None ->
                  if tries > 0 then
                    promote_attempt t rs ~with_cas ~hooks key (tries - 1)
                  else begin
                    Rp_obs.Counter.incr t.get_misses;
                    heat_miss t key;
                    None
                  end)
          | Error Tier_gone when tries > 0 ->
              promote_attempt t rs ~with_cas ~hooks key (tries - 1)
          | Ok _ | Error Tier_torn | Error Tier_gone ->
              (match r with
              | Ok _ -> Rp_obs.Counter.incr t.tier_read_mismatches
              | Error _ -> ());
              Rp_obs.Counter.incr t.tier_read_errors;
              with_stripe t rs ~hash:(hash_key key) (fun () ->
                  match Rp_ht.find rs.rp key with
                  | Some cur when cur == item -> ignore (rp_delete t rs key)
                  | _ -> ());
              Rp_obs.Counter.incr t.get_misses;
              heat_miss t key;
              None))

let promote_and_get t rs ~with_cas key =
  match t.tier with
  | None ->
      (* A marker with no tier attached (shutdown window): unreadable. *)
      Rp_obs.Counter.incr t.get_misses;
      heat_miss t key;
      None
  | Some hooks ->
      let span = Rp_trace.span_begin_sampled k_tier_promote in
      let m = rs.promote_stripes.(hash_key key land rs.update_mask) in
      lock_update t m;
      let v =
        match promote_attempt t rs ~with_cas ~hooks key 3 with
        | v ->
            Mutex.unlock m;
            v
        | exception e ->
            Mutex.unlock m;
            Rp_trace.span_end_sampled k_tier_promote span;
            raise e
      in
      Rp_trace.span_end_sampled k_tier_promote span;
      (* Promotion re-charged the full value: settle the budget (the sweep
         may well demote something colder in its place). *)
      rp_sweep t rs;
      v

let get_lock t ls ?(with_cas = false) key =
  let now = t.clock () in
  Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
      match lock_find_live t ls key ~now with
      | None ->
          Rp_obs.Counter.incr t.get_misses;
          heat_miss t key;
          None
      | Some entry ->
          Lru.touch ls.lru entry.node;
          Item.touch_access entry.item ~now;
          Rp_obs.Counter.incr t.get_hits;
          heat_hit t key entry.item.data;
          Some (value_of_item ~with_cas key entry.item))

let get t key =
  Rp_obs.Counter.incr t.cmd_get;
  match t.state with
  | Lock_state ls -> get_lock t ls key
  | Rp_state rs -> (
      match get_rp_raw t rs key with
      | `Hit v -> Some v
      | `Miss -> None
      | `Cold -> promote_and_get t rs ~with_cas:false key)

(* The multiget fast path the event loop's batch dispatch hits: one
   [cmd_get] add for the whole batch and — on the Rp backend — one
   read-side critical section spanning every lookup (inner sections nest
   for free), instead of a counter bump and section per key. *)
let get_many t ?(with_cas = false) keys =
  Rp_obs.Counter.add t.cmd_get (List.length keys);
  match t.state with
  | Lock_state ls -> List.filter_map (fun key -> get_lock t ls ~with_cas key) keys
  | Rp_state rs ->
      let expired_acc = ref [] in
      let section = Rp_trace.span_begin_sampled ~arg:(List.length keys) k_read_section in
      let pass =
        Flavour.with_read (Rp_ht.flavour rs.rp) (fun () ->
            List.map
              (fun key -> (key, get_rp_raw t rs ~with_cas ~expired_acc key))
              keys)
      in
      Rp_trace.span_end_sampled k_read_section section;
      (match !expired_acc with
      | [] -> ()
      | dead ->
          (* Reap outside the batch read section, each key under its own
             stripe. *)
          let now = t.clock () in
          List.iter (fun key -> rp_expire_if_dead t rs ~now key) dead);
      (* Cold hits resolve here, after the section closed — promotion
         takes stripes and reads disk, neither of which belongs inside a
         batch-wide read section. Response order is preserved. *)
      List.filter_map
        (fun (key, outcome) ->
          match outcome with
          | `Hit v -> Some v
          | `Miss -> None
          | `Cold -> promote_and_get t rs ~with_cas key)
        pass

(* --- storage commands --- *)

(* [guard] inspects the current live item (if any) and decides whether the
   store proceeds; shared by set/add/replace/cas. *)
let fits_slab t ~key ~data =
  Slab.class_of_size t.slab
    (String.length key + String.length data + Item.overhead_bytes)
  <> None

let storage_command t ~op ~key ~flags ~exptime ~data ~guard =
  Rp_obs.Counter.incr t.cmd_set;
  heat_set t key ~vbytes:(String.length data);
  let now = t.clock () in
  let exptime = absolute_exptime t exptime in
  if not (fits_slab t ~key ~data) then Too_large
  else
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          let live = lock_find_live t ls key ~now in
          match guard (Option.map (fun e -> e.item) live) with
          | Error result -> result
          | Ok () ->
              let item = Item.make ~flags ~exptime ~data ~now () in
              lock_store t ls key item;
              record_set t ~op key item;
              Stored)
  | Rp_state rs ->
      let result =
        with_stripe t rs ~hash:(hash_key key) (fun () ->
            let live =
              match Rp_ht.find rs.rp key with
              | Some item when not (Item.is_expired item ~now) -> Some item
              | Some _ | None -> None
            in
            match guard live with
            | Error result -> result
            | Ok () ->
                let item = Item.make ~flags ~exptime ~data ~now () in
                rp_store t rs key item;
                record_set t ~op key item;
                Stored)
      in
      rp_sweep t rs;
      result

let set t ~key ~flags ~exptime ~data =
  storage_command t ~op:Rp_persist.Record.Tset ~key ~flags ~exptime ~data
    ~guard:(fun _ -> Ok ())

let add t ~key ~flags ~exptime ~data =
  storage_command t ~op:Rp_persist.Record.Tadd ~key ~flags ~exptime ~data
    ~guard:(function
    | Some _ -> Error Not_stored
    | None -> Ok ())

let replace t ~key ~flags ~exptime ~data =
  storage_command t ~op:Rp_persist.Record.Treplace ~key ~flags ~exptime ~data
    ~guard:(function
    | Some _ -> Ok ()
    | None -> Error Not_stored)

let cas t ~key ~flags ~exptime ~data ~unique =
  storage_command t ~op:Rp_persist.Record.Tcas ~key ~flags ~exptime ~data
    ~guard:(function
    | None -> Error Not_found
    | Some (item : Item.t) -> if item.cas = unique then Ok () else Error Exists)

(* append/prepend read the live value and store the concatenation, keeping
   the existing flags and expiry (memcached semantics). *)
let concat_command t ~op ~key ~data ~build =
  Rp_obs.Counter.incr t.cmd_set;
  heat_set t key ~vbytes:(String.length data);
  let now = t.clock () in
  let perform (item : Item.t) ~old_data store =
    let combined = build old_data data in
    if not (fits_slab t ~key ~data:combined) then Too_large
    else begin
      let fresh =
        Item.make ~flags:item.flags ~exptime:item.exptime ~data:combined
          ~now ()
      in
      store fresh;
      record_set t ~op key fresh;
      Stored
    end
  in
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          match lock_find_live t ls key ~now with
          | None -> Not_stored
          | Some entry ->
              perform entry.item ~old_data:entry.item.data (fun fresh ->
                  lock_store t ls key fresh))
  | Rp_state rs ->
      let result =
        with_stripe t rs ~hash:(hash_key key) (fun () ->
            match Rp_ht.find rs.rp key with
            | Some item when not (Item.is_expired item ~now) -> (
                (* A demoted key concatenates against its real (cold)
                   value. A frame lost for good means the value is gone:
                   drop the marker and report NOT_STORED rather than
                   store just the suffix/prefix. *)
                match resolve_cold_locked t key item with
                | None ->
                    ignore (rp_delete t rs key);
                    Not_stored
                | Some old_data ->
                    perform item ~old_data (fun fresh ->
                        rp_store t rs key fresh))
            | Some _ | None -> Not_stored)
      in
      rp_sweep t rs;
      result

let append t ~key ~data =
  concat_command t ~op:Rp_persist.Record.Tappend ~key ~data
    ~build:(fun old d -> old ^ d)

let prepend t ~key ~data =
  concat_command t ~op:Rp_persist.Record.Tprepend ~key ~data
    ~build:(fun old d -> d ^ old)

let delete t key =
  Rp_obs.Counter.incr t.deletes;
  heat_delete t key;
  let perform deleted =
    (* Tombstone even on NOT_FOUND: eviction is not logged, so a key can
       be absent from memory yet still durable (plain eviction is the
       tier's fallback when a demote fails) — an acknowledged DELETE
       must leave it durably dead either way or it resurrects on
       replay. Replaying a delete of a missing key is a no-op. *)
    record t (Rp_persist.Record.Delete key);
    deleted
  in
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          perform (lock_delete t ls key))
  | Rp_state rs ->
      with_stripe t rs ~hash:(hash_key key) (fun () ->
          perform (rp_delete t rs key))

(* incr/decr rewrite the stored decimal string; decr saturates at zero. *)
let counter_command t ~op key delta ~apply =
  heat_mutation t key;
  let now = t.clock () in
  let compute (item : Item.t) ~data store =
    match int_of_string_opt (String.trim data) with
    | None -> Cnon_numeric
    | Some n ->
        let next = apply n delta in
        let fresh =
          Item.make ~flags:item.flags ~exptime:item.exptime
            ~data:(string_of_int next) ~now ()
        in
        store fresh;
        (* Logged as the produced value, not the delta: replaying an incr
           against a snapshot that already absorbed it must not double. *)
        record_set t ~op key fresh;
        Cvalue next
  in
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          match lock_find_live t ls key ~now with
          | None -> Cnotfound
          | Some entry ->
              compute entry.item ~data:entry.item.data (fun fresh ->
                  lock_store t ls key fresh))
  | Rp_state rs ->
      let result =
        with_stripe t rs ~hash:(hash_key key) (fun () ->
            match Rp_ht.find rs.rp key with
            | Some item when not (Item.is_expired item ~now) -> (
                (* A demoted counter parses its real (cold) value — the
                   marker's "" would turn a valid counter non-numeric. *)
                match resolve_cold_locked t key item with
                | None ->
                    ignore (rp_delete t rs key);
                    Cnotfound
                | Some data ->
                    compute item ~data (fun fresh -> rp_store t rs key fresh))
            | Some _ | None -> Cnotfound)
      in
      rp_sweep t rs;
      result

let incr t key delta =
  counter_command t ~op:Rp_persist.Record.Tincr key delta
    ~apply:(fun n d -> n + d)

let decr t key delta =
  counter_command t ~op:Rp_persist.Record.Tdecr key delta
    ~apply:(fun n d -> max 0 (n - d))

let touch t ~key ~exptime =
  heat_mutation t key;
  let now = t.clock () in
  let exptime = absolute_exptime t exptime in
  let retouch (item : Item.t) ~data store =
    let fresh =
      Item.make ~cas:item.cas ~flags:item.flags ~exptime ~data ~now ()
    in
    store fresh;
    record_set t ~op:Rp_persist.Record.Ttouch key fresh;
    true
  in
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          match lock_find_live t ls key ~now with
          | None -> false
          | Some entry ->
              retouch entry.item ~data:entry.item.data (fun fresh ->
                  lock_store t ls key fresh))
  | Rp_state rs ->
      let result =
        with_stripe t rs ~hash:(hash_key key) (fun () ->
            match Rp_ht.find rs.rp key with
            | Some item when not (Item.is_expired item ~now) -> (
                (* Touch on a demoted key promotes it: the new expiry is
                   durably logged as a state record, which carries the
                   full value — rebuilding from the marker's "" would
                   destroy the value (and log the destruction). *)
                match resolve_cold_locked t key item with
                | None ->
                    ignore (rp_delete t rs key);
                    false
                | Some data ->
                    retouch item ~data (fun fresh -> rp_store t rs key fresh))
            | Some _ | None -> false)
      in
      rp_sweep t rs;
      result

let flush_all_with t ~log =
  let finish () = if log then record t Rp_persist.Record.Flush_all in
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          let keys = ref [] in
          Rp_baseline.Lock_ht.unsafe_iter ls.table ~f:(fun k _ -> keys := k :: !keys);
          List.iter (fun k -> ignore (lock_delete t ls k)) !keys;
          finish ())
  | Rp_state rs ->
      with_all_stripes t rs (fun () ->
          let keys = Rp_ht.fold rs.rp ~init:[] ~f:(fun acc k _ -> k :: acc) in
          List.iter (fun k -> ignore (rp_delete t rs k)) keys;
          finish ())

let flush_all t = flush_all_with t ~log:true

let items t =
  match t.state with
  | Lock_state ls -> Rp_baseline.Lock_ht.length ls.table
  | Rp_state rs -> Rp_ht.length rs.rp

(* --- persistence plumbing (see [Persist] for the manager) --- *)

(* The snapshotter's walk. On the Rp backend this is the whole point of
   the design: a batched relativistic read (bounded read sections, never
   the update mutex), so a multi-second walk over a large table neither
   blocks writers nor extends any grace period beyond one batch. The Lock
   backend has no choice but to hold its global lock. *)
(* Cold items would otherwise walk out with empty data — and a snapshot
   that persisted a marker's "" would LOSE the value once log compaction
   pruned the original SET record. Read the segment through instead,
   outside the walk's read sections. The marker can move under us
   (compaction relocates, a SET replaces, a DELETE wins): re-resolve from
   the table, bounded; a key that vanished was deleted (logged), a torn
   frame is already lost either way. *)
let rec iter_resolve_cold t rs ~hooks ~f key tries =
  match Rp_ht.find rs.rp key with
  | None -> ()
  | Some item -> (
      match item.Item.location with
      | Item.Hot -> f key item
      | Item.Cold { segment; offset; len } -> (
          match hooks.th_read (segment, offset, len) with
          | Ok (rkey, data) when String.equal rkey key ->
              f key
                (Item.make ~cas:item.Item.cas ~flags:item.Item.flags
                   ~exptime:item.Item.exptime ~data ~now:(t.clock ()) ())
          | Error Tier_gone when tries > 0 ->
              iter_resolve_cold t rs ~hooks ~f key (tries - 1)
          | Ok _ ->
              Rp_obs.Counter.incr t.tier_read_mismatches;
              Rp_obs.Counter.incr t.tier_read_errors
          | Error _ -> Rp_obs.Counter.incr t.tier_read_errors))

let iter_items t ~f =
  match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          Rp_baseline.Lock_ht.unsafe_iter ls.table ~f:(fun k e -> f k e.item));
      0
  | Rp_state rs ->
      let cold = ref [] in
      let restarts =
        Rp_ht.iter_batched rs.rp ~f:(fun key (item : Item.t) ->
            if Item.is_cold item then cold := key :: !cold else f key item)
      in
      (match (!cold, t.tier) with
      | [], _ | _, None -> ()
      | keys, Some hooks ->
          List.iter (fun key -> iter_resolve_cold t rs ~hooks ~f key 3) keys);
      restarts

(* Apply a recovered or replicated record: same primitives as the live
   commands, but no command counters (neither a warm restart nor the
   replication stream is client traffic). With [log], the record is
   re-logged through the persist hook inside the serialization lock —
   that is how a follower's own oplog stays a faithful linearization of
   what it applied, so it can itself recover, snapshot, and (after
   promotion) lead. Recovery replay uses [log:false]: it must not re-log
   itself. Already-expired items are dropped rather than stored —
   deterministic, since records carry absolute expiry times. *)
let apply_record ?(log = false) t r =
  let finish () = if log then record t r in
  match r with
  | Rp_persist.Record.Set { key; flags; exptime; cas; data; _ } ->
      Item.note_restored_cas cas;
      let now = t.clock () in
      let item = Item.make ~cas ~flags ~exptime ~data ~now () in
      if Item.is_expired item ~now then
        ignore
          (match t.state with
          | Lock_state ls ->
              Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
                  let d = lock_delete t ls key in
                  finish ();
                  d)
          | Rp_state rs ->
              with_stripe t rs ~hash:(hash_key key) (fun () ->
                  let d = rp_delete t rs key in
                  finish ();
                  d))
      else begin
        (* No inline eviction: replay may overshoot the budget; the
           post-recovery sweep in {!Persist.attach} settles the heap once
           the full recovered state is known. (On the Rp backend
           [rp_store] never sweeps — only live commands call [rp_sweep]
           after releasing their stripe.) *)
        match t.state with
        | Lock_state ls ->
            Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
                lock_store ~evict:false t ls key item;
                finish ())
        | Rp_state rs ->
            with_stripe t rs ~hash:(hash_key key) (fun () ->
                rp_store t rs key item;
                finish ())
      end
  | Rp_persist.Record.Delete key ->
      ignore
        (match t.state with
        | Lock_state ls ->
            Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
                let d = lock_delete t ls key in
                finish ();
                d)
        | Rp_state rs ->
            with_stripe t rs ~hash:(hash_key key) (fun () ->
                let d = rp_delete t rs key in
                finish ();
                d))
  | Rp_persist.Record.Flush_all -> flush_all_with t ~log

let restore t r = apply_record ~log:false t r
let replicate t r = apply_record ~log:true t r

let bytes t = Slab.allocated_bytes t.slab
let slab_stats t = Slab.stats t.slab
let fragmentation t = Slab.fragmentation t.slab

let evictions t = Rp_obs.Counter.read t.evicted
let tier_demotions t = Rp_obs.Counter.read t.tier_demotions
let tier_promotions t = Rp_obs.Counter.read t.tier_promotions

let tier_active t =
  match t.tier with Some hooks -> hooks.th_admit () | None -> false

(* --- compaction plumbing (the [Tier] glue drives it) --- *)

(* The location of [key]'s cold marker, if it has one. Wait-free. *)
let tier_location t key =
  match t.state with
  | Lock_state _ -> None
  | Rp_state rs -> (
      match Rp_ht.find rs.rp key with
      | Some ({ Item.location = Item.Cold { segment; offset; len }; _ } as item)
        when not (Item.is_expired item ~now:(t.clock ())) ->
          Some (segment, offset, len)
      | Some _ | None -> None)

(* Copying-compaction step: under the key's update stripe, verify the
   marker still points at [from_] and, if so, run [relocate] (the glue's
   append-a-copy-to-the-head) and swap in a marker for the new location.
   The old frame is NOT marked dead here — the caller does that on a
   [true] return, keeping append/mark ownership in one place. False
   means the record was already dead (promoted, overwritten, deleted) or
   the copy failed (tier full): nothing was changed. *)
let tier_relocate t ~key ~from_ ~relocate =
  match t.state with
  | Lock_state _ -> false
  | Rp_state rs ->
      let sfrom, ofrom, lfrom = from_ in
      with_stripe t rs ~hash:(hash_key key) (fun () ->
          match Rp_ht.find rs.rp key with
          | Some ({ Item.location = Item.Cold { segment; offset; len }; _ } as item)
            when segment = sfrom && offset = ofrom && len = lfrom -> (
              match relocate () with
              | Some (segment, offset, len) ->
                  let marker =
                    Item.make ~cas:item.Item.cas
                      ~location:(Item.Cold { segment; offset; len })
                      ~flags:item.Item.flags ~exptime:item.Item.exptime
                      ~data:"" ~now:(Atomic.get item.Item.last_access) ()
                  in
                  (* Same-size marker swap: publish directly (no queue or
                     tier bookkeeping — old frame is the caller's). *)
                  Slab.refund t.slab (Item.size_bytes ~key item);
                  Rp_ht.replace rs.rp key marker;
                  ignore (Slab.charge t.slab (Item.size_bytes ~key marker));
                  true
              | None -> false)
          | Some _ | None -> false)

(* On-demand budget sweep: bring the heap back under [max_bytes] now
   instead of waiting for the next store to trigger eviction. Used by
   post-recovery attach (a restarted node must not serve over budget) and
   as the guard's Emergency actuator. Returns the number evicted. *)
let evict_to_budget t =
  let before = Rp_obs.Counter.read t.evicted in
  (match t.state with
  | Lock_state ls ->
      Rp_baseline.Lock_ht.with_lock ls.table (fun () ->
          lock_evict_until_fits t ls)
  | Rp_state rs -> rp_evict_to_budget t rs);
  Rp_obs.Counter.read t.evicted - before

let has_prefix p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* "stats rp" filter: relativistic-stack instruments only. *)
let rp_instrument name = has_prefix "rp_ht_" name || has_prefix "rcu_" name

(* "stats persist" filter: everything [Persist.attach] registers. *)
let persist_instrument name = has_prefix "persist_" name

(* "stats trace" filter: the flight recorder's registry instruments. *)
let trace_instrument name = has_prefix "trace_" name

(* "stats guard" filter: everything [Guard.install] registers. *)
let guard_instrument name = has_prefix "guard_" name

(* "stats tier" filter: the cold-tier instruments. *)
let tier_instrument name = has_prefix "tier_" name

(* "stats heat" filter: the workload-insight instruments. *)
let heat_instrument name = has_prefix "heat_" name

let stats t =
  ("backend", match backend t with Lock -> "lock" | Rp -> "rp")
  :: Rp_obs.Registry.to_stats
       ~filter:(fun n ->
         (* tier_demotions_total stays in the default section, right next
            to [evictions]: "moved to disk" vs "lost" is an operator-facing
            distinction, not tier-plane internals. *)
         n = "tier_demotions_total"
         || not
              (rp_instrument n || persist_instrument n || trace_instrument n
             || guard_instrument n || tier_instrument n || heat_instrument n))
       t.registry

let rp_stats t = Rp_obs.Registry.to_stats ~filter:rp_instrument t.registry

let persist_stats t =
  Rp_obs.Registry.to_stats ~filter:persist_instrument t.registry

(* "stats trace": live flight-recorder state (sample rate, span and drop
   counts, retained slow requests). One recorder serves the process, so
   the section reads [Rp_trace] directly rather than the registry. *)
let trace_stats (_ : t) = Rp_trace.stats_kv ()

(* "stats cluster": the cluster glue's live view (role, watermarks,
   follower list). A store with no cluster attachment reports only that
   the plane is off. *)
let cluster_stats t =
  match t.cluster_info with
  | None -> [ ("cluster_enabled", "0") ]
  | Some f -> ("cluster_enabled", "1") :: f ()

(* "stats tier": the glue's live view (mode, dir) first, then every
   tier_* instrument (demote/promote counters, read/demote latency
   histograms, byte gauges the glue registered). *)
let tier_stats t =
  match t.tier_info with
  | None -> [ ("tier_enabled", "0") ]
  | Some f ->
      (("tier_enabled", "1") :: f ())
      @ Rp_obs.Registry.to_stats ~filter:tier_instrument t.registry

(* "stats guard": the live ladder first (state name, per-source
   pressures), then the registered guard_* instruments (shed counter,
   slow-client kills from the evloop, ...). *)
let guard_stats t =
  match t.guard with
  | None -> [ ("guard_enabled", "0") ]
  | Some g ->
      let live = ("guard_enabled", "1") :: Rp_guard.stats_kv g in
      let seen = List.map fst live in
      live
      @ Rp_obs.Registry.to_stats
          ~filter:(fun n -> guard_instrument n && not (List.mem n seen))
          t.registry

let heat t = t.heat

(* "stats heat": the registered heat_* instruments (tracked totals,
   top-k labeled gauges, size histograms, stripe heatmap) plus the
   bounded per-rank detail lines ([Rp_heat.stats_kv]). *)
let heat_stats t =
  match t.heat with
  | None -> [ ("heat_enabled", "0") ]
  | Some h ->
      (("heat_enabled", "1") :: Rp_heat.stats_kv h)
      @ Rp_obs.Registry.to_stats ~filter:heat_instrument t.registry

let heat_json ?n t =
  match t.heat with
  | None -> "{\"heat_enabled\":false}"
  | Some h -> Rp_heat.to_json ?n h

(* "stats reset": clear the resettable workload-insight state — heat
   sketches, exemplar cells, and every registry histogram — while
   leaving monotonic counters (cmd_get, evictions, ...) untouched, as
   real memcached does. *)
let reset_stats t =
  (match t.heat with None -> () | Some h -> Rp_heat.reset h);
  Rp_obs.Registry.reset_histograms t.registry
