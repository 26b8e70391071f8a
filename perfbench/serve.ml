(* A memcached server with a failpoint armed, for the sensitivity test.

   The shipped binary has no way to arm a failpoint, so this wires the
   same pieces bin/memcached_server.ml wires for the flags the benchmark
   passes (rp backend, event loop, QSBR store, op log, guard), arms the
   requested site through the public Rp_fault API, and serves until
   SIGTERM. The sensitivity test runs its unfaulted baseline through
   this same launcher, so both sides differ only in the armed site. *)

module M = Memcached

type fault = { site : string; delay_s : float; every : int }

(* SITE:DELAY_US:EVERY, e.g. rp_ht.stripe.lock:200:2 *)
let fault_of_string s =
  match String.split_on_char ':' s with
  | [ site; us; every ] -> (
      match (float_of_string_opt us, int_of_string_opt every) with
      | Some us, Some every when us >= 0. && every >= 1 ->
          Ok { site; delay_s = us /. 1e6; every }
      | _ -> Error ("bad fault spec: " ^ s))
  | _ -> Error ("bad fault spec (want SITE:DELAY_US:EVERY): " ^ s)

let arm f =
  Rp_fault.arm f.site ~trigger:(Rp_fault.Every f.every)
    ~action:(Rp_fault.Delay f.delay_s)

let main args =
  let socket = ref "" and mem_mb = ref 64 and workers = ref 2 in
  let heat_topk = ref 0 and data_dir = ref "" and guard = ref true in
  let fsync = ref "always" and faults = ref [] in
  let only v flag s = if s <> v then raise (Arg.Bad (flag ^ " must be " ^ v)) in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH");
      ("-m", Arg.Set_int mem_mb, "MB");
      ("--workers", Arg.Set_int workers, "N");
      ("--heat-topk", Arg.Set_int heat_topk, "K");
      ("--data-dir", Arg.Set_string data_dir, "DIR");
      ("--fsync-policy", Arg.Set_string fsync, "POLICY");
      ( "--snapshot-interval",
        Arg.String (only "0" "--snapshot-interval"),
        "0 (periodic snapshots stay off)" );
      ("--guard", Arg.Bool (fun b -> guard := b), "BOOL");
      ("--backend", Arg.String (only "rp" "--backend"), "rp (the only backend served)");
      ("--event-loop", Arg.Unit ignore, " (always on)");
      ( "--fault",
        Arg.String
          (fun s ->
            match fault_of_string s with
            | Ok f -> faults := f :: !faults
            | Error e -> raise (Arg.Bad e)),
        "SITE:DELAY_US:EVERY" );
    ]
  in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("serve" :: args)) spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench serve [options]";
  let store =
    M.Store.create ~backend:M.Store.Rp ~rcu_mode:M.Store.Qsbr
      ~max_bytes:(!mem_mb * 1024 * 1024) ~heat_topk:!heat_topk ()
  in
  let g = if !guard then Some (M.Guard.install store) else None in
  let persist =
    if !data_dir = "" then None
    else
      let fsync =
        match Rp_persist.Oplog.policy_of_string !fsync with
        | Ok p -> p
        | Error e -> failwith e
      in
      let p = M.Persist.attach ~fsync ~dir:!data_dir store in
      Option.iter (fun g -> M.Guard.watch_persist g p) g;
      Some p
  in
  let config =
    { M.Server.default_config with mode = M.Server.Event_loop; workers = !workers }
  in
  let server = M.Server.start ~store ~config (M.Server.Unix_socket !socket) in
  Option.iter
    (fun g ->
      M.Guard.watch_server g server;
      Rp_guard.start g)
    g;
  List.iter arm !faults;
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  while not !stop do
    Unix.sleepf 0.05
  done;
  Rp_fault.reset ();
  Option.iter Rp_guard.stop g;
  M.Server.stop server;
  Option.iter M.Persist.stop persist
