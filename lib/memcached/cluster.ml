(* Cluster glue: wires Rp_cluster's replication plane into a running
   store + persistence manager, and backs the [stats cluster] section
   and the [cluster promote] admin command. *)

module P = Rp_persist

type role = Leader | Replica | Promoted

type leader_state = {
  l_listener : Rp_cluster.Repl_leader.t;
  l_persist : Persist.t;
}

type follower_state = {
  f_follower : Rp_cluster.Repl_follower.t;
  f_leader_name : string;
  f_applied : Rp_obs.Counter.t;
  f_decode_errors : Rp_obs.Counter.t;
  f_lag_us : Rp_obs.Histogram.t; (* publish->apply, leader clock vs ours *)
}

type state = L of leader_state | F of follower_state

type t = {
  store : Store.t;
  mutable role : role;
  mutable state : state;
  mutable stopped : bool;
}

let role t = t.role
let role_name = function Leader -> "leader" | Replica -> "replica" | Promoted -> "promoted"

let k_apply = Rp_trace.intern "repl.apply"

(* --- leader --- *)

let leader_info t ls () =
  let fstats = Rp_cluster.Repl_leader.stats ls.l_listener in
  let base =
    [
      ("cluster_role", role_name t.role);
      ("cluster_repl_port", string_of_int (Rp_cluster.Repl_leader.port ls.l_listener));
      ( "cluster_records_streamed",
        string_of_int (Rp_cluster.Repl_leader.records_streamed ls.l_listener) );
      ("cluster_resyncs", string_of_int (Rp_cluster.Repl_leader.resyncs ls.l_listener));
      ("cluster_followers", string_of_int (List.length fstats));
    ]
  in
  let per_follower i (s : Rp_cluster.Repl_leader.follower_stat) =
    let p = Printf.sprintf "cluster_follower_%d" i in
    [
      (p ^ "_peer", s.fs_peer);
      (p ^ "_connected", if s.fs_connected then "1" else "0");
      (p ^ "_caught_up", if s.fs_caught_up then "1" else "0");
      (p ^ "_sent_seq", string_of_int s.fs_sent_seq);
      (p ^ "_sent_gen", string_of_int s.fs_sent_gen);
      (p ^ "_acked_seq", string_of_int s.fs_acked_seq);
      (p ^ "_acked_gen", string_of_int s.fs_acked_gen);
    ]
  in
  base @ List.concat (List.mapi per_follower fstats)

let lead ~store ~persist addr =
  let listener =
    Rp_cluster.Repl_leader.start ~dir:(Persist.dir persist)
      ~flush:(fun () -> Persist.flush_log persist)
      addr
  in
  let ls = { l_listener = listener; l_persist = persist } in
  let t = { store; role = Leader; state = L ls; stopped = false } in
  (* The tap runs inside the store's serialization lock: publish only
     enqueues (never blocks on sockets), so the lock hold stays short. *)
  Persist.set_tap persist
    (Some
       (fun ~gen ~trace r ->
         Rp_cluster.Repl_leader.publish listener ~gen ~trace (P.Record.encode r)));
  Store.set_cluster_info store (Some (leader_info t ls));
  let reg = Store.registry store in
  Rp_obs.Registry.gauge reg ~help:"cluster role (1 leader, 2 replica, 3 promoted)"
    "cluster_role" (fun () ->
      match t.role with Leader -> 1. | Replica -> 2. | Promoted -> 3.);
  Rp_obs.Registry.fn_counter reg ~help:"records streamed to followers"
    "cluster_records_streamed_total" (fun () ->
      float_of_int (Rp_cluster.Repl_leader.records_streamed listener));
  Rp_obs.Registry.fn_counter reg
    ~help:"follower queue overflows that forced a disk resync"
    "cluster_resyncs_total" (fun () ->
      float_of_int (Rp_cluster.Repl_leader.resyncs listener));
  t

(* --- follower --- *)

let follower_info t fs () =
  let f = fs.f_follower in
  let snap = Rp_obs.Histogram.snapshot fs.f_lag_us in
  [
    ("cluster_role", role_name t.role);
    ("cluster_leader", fs.f_leader_name);
    ("cluster_connected", if Rp_cluster.Repl_follower.connected f then "1" else "0");
    ("cluster_applied", string_of_int (Rp_cluster.Repl_follower.applied f));
    ("cluster_applied_gen", string_of_int (Rp_cluster.Repl_follower.applied_gen f));
    ("cluster_reconnects", string_of_int (Rp_cluster.Repl_follower.reconnects f));
    ("cluster_decode_errors", string_of_int (Rp_obs.Counter.read fs.f_decode_errors));
    ("cluster_apply_lag_us_p50", string_of_int (Rp_obs.Histogram.percentile snap 0.5));
    ("cluster_apply_lag_us_p99", string_of_int (Rp_obs.Histogram.percentile snap 0.99));
    ("cluster_read_only", if Store.read_only t.store then "1" else "0");
  ]

let name_of_sockaddr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let promote t =
  match t.state with
  | L _ -> Error "not a replica"
  | F fs ->
      if t.role = Promoted then Error "already promoted"
      else begin
        (* Order matters: stop the stream first so no replicated apply
           races the first client write, then open the write path. *)
        Rp_cluster.Repl_follower.stop fs.f_follower;
        t.role <- Promoted;
        Store.set_read_only t.store false;
        Ok "promoted"
      end

let follow ~store ?persist ~leader () =
  ignore persist;
  Store.set_read_only store true;
  let applied = Rp_obs.Counter.create () in
  let decode_errors = Rp_obs.Counter.create () in
  let lag_us = Rp_obs.Histogram.create () in
  let apply ~gen:_ ~trace ~ts_us payload =
    match P.Record.decode payload with
    | Error _ ->
        (* A record the leader framed but we cannot decode: count it and
           move on — killing the session would just replay the same
           bytes forever. *)
        Rp_obs.Counter.incr decode_errors
    | Ok r ->
        (* Adopt the leader request's trace id: the follower's apply
           span lands in the same distributed trace in Perfetto. *)
        Rp_trace.request_begin ~trace k_apply;
        Fun.protect
          ~finally:(fun () -> Rp_trace.request_end ())
          (fun () ->
            (* The next thing this thread does is block in its stream
               read: under QSBR it must leave its domain's slot offline,
               or every later grace period (the first client write after
               promote) waits on it forever. *)
            Store.background store (fun () -> Store.replicate store r));
        Rp_obs.Counter.incr applied;
        (* Catch-up records stream with ts_us = 0 (their send time is not
           an apply deadline); lag is only meaningful for live ones. *)
        if ts_us > 0 then begin
          let lag = int_of_float (Unix.gettimeofday () *. 1e6) - ts_us in
          if lag >= 0 then Rp_obs.Histogram.observe lag_us lag
        end
  in
  let follower = Rp_cluster.Repl_follower.start ~leader ~apply () in
  let fs =
    {
      f_follower = follower;
      f_leader_name = name_of_sockaddr leader;
      f_applied = applied;
      f_decode_errors = decode_errors;
      f_lag_us = lag_us;
    }
  in
  let t = { store; role = Replica; state = F fs; stopped = false } in
  Store.set_cluster_info store (Some (follower_info t fs));
  Store.set_promote_hook store (Some (fun () -> promote t));
  let reg = Store.registry store in
  Rp_obs.Registry.gauge reg ~help:"cluster role (1 leader, 2 replica, 3 promoted)"
    "cluster_role" (fun () ->
      match t.role with Leader -> 1. | Replica -> 2. | Promoted -> 3.);
  Rp_obs.Registry.register_counter reg ~help:"records applied from the stream"
    "cluster_applied_total" applied;
  Rp_obs.Registry.register_counter reg
    ~help:"stream records that failed to decode (skipped)"
    "cluster_decode_errors_total" decode_errors;
  Rp_obs.Registry.register_histogram reg
    ~help:"publish-to-apply lag in microseconds (leader clock vs ours)"
    "cluster_apply_lag_us" lag_us;
  Rp_obs.Registry.gauge reg ~help:"1 while the replication link is up"
    "cluster_connected" (fun () ->
      if Rp_cluster.Repl_follower.connected follower then 1. else 0.);
  t

(* --- shared --- *)

let repl_port t =
  match t.state with
  | L ls -> Rp_cluster.Repl_leader.port ls.l_listener
  | F _ -> 0

let applied t =
  match t.state with
  | L _ -> 0
  | F fs -> Rp_cluster.Repl_follower.applied fs.f_follower

let connected t =
  match t.state with
  | L _ -> true
  | F fs -> Rp_cluster.Repl_follower.connected fs.f_follower

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    match t.state with
    | L ls ->
        Persist.set_tap ls.l_persist None;
        Rp_cluster.Repl_leader.stop ls.l_listener
    | F fs ->
        if t.role <> Promoted then Rp_cluster.Repl_follower.stop fs.f_follower
  end
