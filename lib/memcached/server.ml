let version_string = Version.string

(* Kept as the stable public name; the implementation lives in Dispatch so
   the event-loop plane can reach it without a module cycle. *)
let handle = Dispatch.handle

type address = Unix_socket of string | Tcp of int | Inet of string * int
type mode = Event_loop

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "cannot resolve host %S" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))

let sockaddr_of = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | Inet (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

type config = {
  max_connections : int;
  max_inflight : int;  (* admission cap below max_connections; 0 = off *)
  idle_timeout : float;
  listen_backlog : int;
  read_buffer_size : int;
  tcp_nodelay : bool;
  mode : mode;
  workers : int;
  conn_write_cap : int;  (* per-conn pending-write bytes; 0 = off *)
  drain_deadline : float;  (* slow-client kill deadline; <= 0 = off *)
}

let default_config =
  {
    max_connections = 1024;
    max_inflight = 0;
    idle_timeout = 0.0;
    listen_backlog = 64;
    read_buffer_size = 16384;
    tcp_nodelay = true;
    mode = Event_loop;
    workers = 0;
    conn_write_cap = 1_048_576;
    drain_deadline = 30.0;
  }

let effective_workers config =
  if config.workers > 0 then config.workers
  else Domain.recommended_domain_count ()

let k_accept = Rp_trace.intern "server.accept"

type t = {
  addr : address;
  config : config;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  running : bool Atomic.t;
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  evloop : Evloop.t;
}

let reject fd msg =
  (try
     Io.write_all fd (Protocol.encode_response (Protocol.Server_error msg))
   with Unix.Unix_error _ | Rp_fault.Injected _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let live t = Evloop.live_connections t.evloop

(* The admission cap: [max_inflight] (when set) trims below
   [max_connections] — the guard plane's knob for "the workers are
   saturated; new sockets only add queueing". *)
let admission_cap config =
  if config.max_inflight > 0 then
    min config.max_inflight config.max_connections
  else config.max_connections

(* What (if anything) to refuse this accept with. Emergency closes the
   door entirely: established connections keep their wait-free GETs, but
   new sockets would only deepen the overload. *)
let refusal t store =
  if live t >= admission_cap t.config then
    Some
      (if t.config.max_inflight > 0 && live t < t.config.max_connections then
         "overloaded"
       else "too many connections")
  else
    match Store.guard store with
    | Some g when not (Rp_guard.accepting g) -> Some "overloaded"
    | _ -> None

let accept_loop t store =
  let next_id = ref 0 in
  while Atomic.get t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if not (Atomic.get t.running) then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          match refusal t store with
          | Some msg ->
              Atomic.incr t.rejected;
              Rp_obs.Trace.emit Rp_obs.Trace.default ~arg:(-1)
                "server.conn.drop";
              reject fd msg
          | None ->
              let id = !next_id in
              incr next_id;
              Atomic.incr t.accepted;
              if t.config.tcp_nodelay then Io.set_tcp_nodelay fd;
              Rp_obs.Trace.emit Rp_obs.Trace.default ~arg:id
                "server.conn.accept";
              Rp_trace.instant ~arg:id k_accept;
              Evloop.submit t.evloop ~id fd
        end
    | exception Unix.Unix_error _ -> ()
  done

let start ~store ?(config = default_config) addr =
  if config.max_connections < 1 then
    invalid_arg "Server.start: max_connections < 1";
  if config.listen_backlog < 1 then
    invalid_arg "Server.start: listen_backlog < 1";
  if config.read_buffer_size < 1 then
    invalid_arg "Server.start: read_buffer_size < 1";
  Io.ignore_sigpipe ();
  (match addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ | Inet _ -> ());
  let domain, sockaddr = sockaddr_of addr in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd sockaddr;
  Unix.listen listen_fd config.listen_backlog;
  (* Port 0 asks the kernel for any free port; reflect the one it picked
     back into the advertised address so [address] names a reachable
     endpoint (children spawned with [-p 0] print it for their parent). *)
  let addr =
    match (addr, Unix.getsockname listen_fd) with
    | Tcp 0, Unix.ADDR_INET (_, p) -> Tcp p
    | Inet (h, 0), Unix.ADDR_INET (_, p) -> Inet (h, p)
    | _ -> addr
  in
  let evloop =
    Evloop.create ~store
      {
        Evloop.workers = effective_workers config;
        idle_timeout = config.idle_timeout;
        read_buffer_size = config.read_buffer_size;
        conn_write_cap = config.conn_write_cap;
        drain_deadline = config.drain_deadline;
      }
  in
  let t =
    {
      addr;
      config;
      listen_fd;
      accept_thread = None;
      running = Atomic.make true;
      accepted = Atomic.make 0;
      rejected = Atomic.make 0;
      evloop;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t store) ());
  let reg = Store.registry store in
  let fn c () = float_of_int (Atomic.get c) in
  Rp_obs.Registry.fn_counter reg ~help:"connections accepted"
    "server_connections_accepted_total" (fn t.accepted);
  Rp_obs.Registry.fn_counter reg ~help:"connections rejected at the cap"
    "server_connections_rejected_total" (fn t.rejected);
  Rp_obs.Registry.gauge reg ~help:"live connections" "server_connections_active"
    (fun () -> float_of_int (live t));
  t

let stop t =
  Atomic.set t.running false;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  Evloop.stop t.evloop;
  match t.addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ | Inet _ -> ()

let active_connections t = live t
let capacity t = admission_cap t.config
let rejected_connections t = Atomic.get t.rejected
let address t = t.addr

let workers t = Evloop.worker_count t.evloop
