(* Leader-side replication: a listener that streams oplog records to
   followers.

   Each follower connection gets two sources merged into one ordered
   stream:

   - catch-up: a {!Rp_persist.Oplog.Tail} cursor over the leader's
     segment files, from the generation the follower's Hello asked for;
   - live tap: the persistence glue calls {!publish} for every record
     the moment it is appended (inside the store's update serialization,
     so tap order = log order = store order), and each follower owns a
     bounded queue of those entries.

   The handoff between the two leans on the op records being idempotent
   state (DESIGN.md §11): the tap is armed BEFORE the disk cursor
   starts, so the two sources overlap rather than gap, and duplicates
   are harmless. When a follower reaches the end of the on-disk bytes
   the sender drains disk once more under the queue lock (after forcing
   the leader's pending buffer to the OS via [flush]), clears the queue
   — everything in it is now behind the cursor — and switches to
   queue-only streaming. A queue overflow (slow follower) falls back to
   the disk cursor the same way, so a lagging replica degrades to
   catch-up mode instead of blocking the leader or losing records.

   Each sent record carries a per-connection sequence number; the
   follower acks the highest applied (seq, gen) and those watermarks are
   what `stats cluster` exposes. *)

module Oplog = Rp_persist.Oplog

let queue_cap = 8192
let ping_idle_s = 0.1
let idle_poll_s = 0.002

type entry = { e_gen : int; e_trace : int; e_payload : string }

type follower = {
  id : int;
  fd : Unix.file_descr;
  peer : string;
  queue : entry Queue.t;
  qmutex : Mutex.t;
  mutable overflowed : bool;
  mutable sent_seq : int;
  mutable sent_gen : int;
  mutable acked_seq : int;
  mutable acked_gen : int;
  mutable caught_up : bool;
  mutable alive : bool;
}

type t = {
  dir : string;
  flush : unit -> unit;
  listen_fd : Unix.file_descr;
  port : int;
  mutex : Mutex.t; (* followers list + next_id *)
  mutable followers : follower list;
  mutable next_id : int;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  streamed : int Atomic.t;
  resyncs : int Atomic.t; (* overflow-driven falls back to disk *)
}

type follower_stat = {
  fs_peer : string;
  fs_connected : bool;
  fs_caught_up : bool;
  fs_sent_seq : int;
  fs_sent_gen : int;
  fs_acked_seq : int;
  fs_acked_gen : int;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p
  | exception Unix.Unix_error _ -> "?"

(* ------------------------------------------------------------------ *)
(* Publish (called from the persist tap, inside store serialization) *)

let publish t ~gen ~trace payload =
  let entry = { e_gen = gen; e_trace = trace; e_payload = payload } in
  Mutex.lock t.mutex;
  let fws = t.followers in
  Mutex.unlock t.mutex;
  List.iter
    (fun f ->
      if f.alive then begin
        Mutex.lock f.qmutex;
        if Queue.length f.queue >= queue_cap then f.overflowed <- true
        else Queue.push entry f.queue;
        Mutex.unlock f.qmutex
      end)
    fws

(* ------------------------------------------------------------------ *)
(* Per-follower streaming *)

let send_rec t f ~gen ~trace ~ts_us payload =
  f.sent_seq <- f.sent_seq + 1;
  f.sent_gen <- max f.sent_gen gen;
  Atomic.incr t.streamed;
  Repl_wire.write_msg f.fd
    (Repl_wire.Rec { gen; seq = f.sent_seq; trace; ts_us; payload })

(* Drain the disk cursor to its current end. Caller decides locking. *)
let rec drain_disk t f cur =
  match Oplog.Tail.next cur with
  | `Record (gen, payload) ->
      send_rec t f ~gen ~trace:0 ~ts_us:0 payload;
      drain_disk t f cur
  | `Caught_up -> ()

(* Catch-up -> live handoff: force pending bytes out, read disk dry,
   then drop the queue (everything in it predates the flush, so the
   cursor just sent it). Holding [qmutex] briefly blocks the tap —
   acceptable, handoffs are rare. *)
let handoff_to_live t f cur =
  Mutex.lock f.qmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock f.qmutex)
    (fun () ->
      t.flush ();
      drain_disk t f cur;
      Queue.clear f.queue;
      f.overflowed <- false);
  f.caught_up <- true

let ack_loop f =
  let rec loop () =
    match Repl_wire.read_msg f.fd with
    | Some (Repl_wire.Ack { gen; seq }) ->
        if seq > f.acked_seq then f.acked_seq <- seq;
        if gen > f.acked_gen then f.acked_gen <- gen;
        loop ()
    | Some _ -> loop () (* unexpected but harmless *)
    | None -> ()
  in
  (try loop () with Repl_wire.Corrupt _ | Unix.Unix_error _ -> ());
  f.alive <- false

let serve_follower t f =
  (* First message must be the follower's resume point. *)
  match Repl_wire.read_msg f.fd with
  | Some (Repl_wire.Hello { from_gen }) ->
      ignore (Thread.create ack_loop f);
      let cur = Oplog.Tail.create ~dir:t.dir ~from_gen in
      Fun.protect
        ~finally:(fun () -> Oplog.Tail.close cur)
        (fun () ->
          t.flush ();
          let last_send = ref (Unix.gettimeofday ()) in
          let rec live () =
            if t.stopped || not f.alive then ()
            else begin
              Mutex.lock f.qmutex;
              let overflow = f.overflowed in
              let batch = Queue.create () in
              if not overflow then Queue.transfer f.queue batch;
              Mutex.unlock f.qmutex;
              if overflow then begin
                (* Slow follower: the tap dropped entries. Disk has
                   everything — fall back to catch-up mode. *)
                Atomic.incr t.resyncs;
                f.caught_up <- false;
                catchup ()
              end
              else if Queue.is_empty batch then begin
                let now = Unix.gettimeofday () in
                if now -. !last_send > ping_idle_s then begin
                  Repl_wire.write_msg f.fd Repl_wire.Ping;
                  last_send := now
                end;
                Thread.delay idle_poll_s;
                live ()
              end
              else begin
                let now_us =
                  int_of_float (Unix.gettimeofday () *. 1e6)
                in
                Queue.iter
                  (fun e ->
                    send_rec t f ~gen:e.e_gen ~trace:e.e_trace ~ts_us:now_us
                      e.e_payload)
                  batch;
                last_send := Unix.gettimeofday ();
                live ()
              end
            end
          and catchup () =
            if t.stopped || not f.alive then ()
            else begin
              t.flush ();
              drain_disk t f cur;
              handoff_to_live t f cur;
              live ()
            end
          in
          catchup ())
  | Some _ | None -> ()

let follower_cleanup t f =
  f.alive <- false;
  close_quiet f.fd;
  Mutex.lock t.mutex;
  t.followers <- List.filter (fun g -> g.id <> f.id) t.followers;
  Mutex.unlock t.mutex

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        let f =
          {
            id = 0;
            fd;
            peer = peer_name fd;
            queue = Queue.create ();
            qmutex = Mutex.create ();
            overflowed = false;
            sent_seq = 0;
            sent_gen = 0;
            acked_seq = 0;
            acked_gen = 0;
            caught_up = false;
            alive = true;
          }
        in
        Mutex.lock t.mutex;
        t.next_id <- t.next_id + 1;
        let f = { f with id = t.next_id } in
        (* The tap starts feeding the queue the moment the follower is
           listed — before its disk catch-up begins, so the two sources
           overlap instead of gapping. *)
        t.followers <- f :: t.followers;
        Mutex.unlock t.mutex;
        ignore
          (Thread.create
             (fun () ->
               (try serve_follower t f
                with Repl_wire.Corrupt _ | Unix.Unix_error _ | Sys_error _ -> ());
               follower_cleanup t f)
             ());
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> if not t.stopped then loop ()
  in
  loop ()

let start ~dir ~flush addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
  Unix.bind fd addr;
  Unix.listen fd 16;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let t =
    {
      dir;
      flush;
      listen_fd = fd;
      port;
      mutex = Mutex.create ();
      followers = [];
      next_id = 0;
      stopped = false;
      accept_thread = None;
      streamed = Atomic.make 0;
      resyncs = Atomic.make 0;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* shutdown, not just close: a close does not wake a thread blocked
       in accept/read on the fd, a shutdown does. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    close_quiet t.listen_fd;
    Mutex.lock t.mutex;
    let fws = t.followers in
    t.followers <- [];
    Mutex.unlock t.mutex;
    List.iter
      (fun f ->
        f.alive <- false;
        (try Unix.shutdown f.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        close_quiet f.fd)
      fws;
    match t.accept_thread with Some th -> Thread.join th | None -> ()
  end

let port t = t.port
let records_streamed t = Atomic.get t.streamed
let resyncs t = Atomic.get t.resyncs

let stats t =
  Mutex.lock t.mutex;
  let fws = t.followers in
  Mutex.unlock t.mutex;
  List.rev_map
    (fun f ->
      {
        fs_peer = f.peer;
        fs_connected = f.alive;
        fs_caught_up = f.caught_up;
        fs_sent_seq = f.sent_seq;
        fs_sent_gen = f.sent_gen;
        fs_acked_seq = f.acked_seq;
        fs_acked_gen = f.acked_gen;
      })
    fws
