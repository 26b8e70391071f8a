(** Wires the generic {!Rp_guard} degradation ladder into this stack.

    {!install} creates the guard, feeds it the store-level pressure
    sources, registers its actuators, and attaches its {!plane} to the
    store (so {!Dispatch}, {!Binary_server} and {!Server}'s accept path
    start consulting its gate). {!watch_tier}, {!watch_persist} and
    {!watch_server} add the sources that need those subsystems. Call in
    startup order — install, attach the tier and persistence, start the
    server, watch each — then {!Rp_guard.start} the sweeper. *)

val plane : Rp_guard.t -> Store.plane
(** The guard as a store plane: [stats guard] shows its live ladder then
    its [guard_*] instruments; its gate refuses {!Store.Mutation}s while
    the ladder sheds them (counting each shed) and {!Store.Connection}s
    in [Emergency]. {!install} attaches it. *)

val install :
  ?watermarks:Rp_guard.watermarks ->
  ?interval:float ->
  ?stall_window:float ->
  Store.t ->
  Rp_guard.t
(** Create a guard and attach it to [store]:
    - ["mem"] source — [Store.bytes / Store.max_bytes];
    - ["rcu"] source — Shed-level pressure while the RCU stall watchdog's
      counter has moved within [stall_window] seconds (default 1);
    - adaptive trace sampling — head-sample 16x more often (1-in-N/16)
      whenever the ladder leaves [Healthy];
    - Emergency actuator — an immediate {!Store.evict_to_budget} sweep;
    - [guard_*] instruments in the store registry;
    - its {!plane}, attached to the store.

    The sweeper is {e not} started; call {!Rp_guard.start} once all
    sources are wired. *)

val watch_tier : Rp_guard.t -> Tier.t -> unit
(** Add the ["tier"] source — cold-tier bytes over its budget — and the
    Emergency actuator: pause compaction and shed demotions (cold reads
    are never shed) until the ladder descends. *)

val watch_server : Rp_guard.t -> Server.t -> unit
(** Add the ["conns"] admission source: live connections over the
    server's admission capacity. *)

val watch_persist :
  Rp_guard.t -> ?error_window:float -> ?log_budget_mb:int -> Persist.t -> unit
(** Add the ["disk"] source — Emergency-latch pressure (2.0) while an
    op-log append has failed within [error_window] seconds (default 1),
    plus op-log growth against [log_budget_mb] (0 = ignore growth) — and
    the Emergency actuators: pause periodic snapshots and relax
    [fsync Always] to group commit ([Every 0.1]) until the ladder leaves
    [Emergency]. *)
