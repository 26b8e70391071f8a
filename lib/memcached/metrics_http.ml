(* Minimal HTTP/1.0 exposition endpoint. One thread per connection is
   fine — scrapers poll at second granularity. Routes:
     /metrics (or /)  Prometheus text
     /json            the registry as JSON
     /trace           the flight recorder as Chrome trace-event JSON
     /heat            the workload-insight plane (heat provider attached)
   anything else is a 404. *)

type t = {
  listen_fd : Unix.file_descr;
  accept_thread : Thread.t;
  running : bool Atomic.t;
  port : int;
}

let prometheus_type = "text/plain; version=0.0.4"
let json_type = "application/json"

let respond fd ~status ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status content_type (String.length body)
  in
  try Io.write_all fd (head ^ body)
  with Unix.Unix_error _ | Rp_fault.Injected _ -> ()

(* The (path, query) from a "GET /path?query HTTP/1.x" request line.
   Anything unparseable routes like "/" (the scrape default). *)
let request_target data =
  match String.split_on_char ' ' data with
  | _meth :: target :: _ when String.length target > 0 && target.[0] = '/' ->
      (match String.index_opt target '?' with
      | Some q ->
          ( String.sub target 0 q,
            Some (String.sub target (q + 1) (String.length target - q - 1)) )
      | None -> (target, None))
  | _ -> ("/", None)

(* /heat accepts a single [n=<positive int>] parameter (top-n cutoff).
   Anything else in the query is a client error — a malformed scrape
   config should answer 400, never 500 or a silently wrong document. *)
let heat_query query =
  match query with
  | None | Some "" -> Ok None
  | Some q ->
      List.fold_left
        (fun acc part ->
          match acc with
          | Error _ -> acc
          | Ok _ -> (
              match String.index_opt part '=' with
              | Some eq when String.sub part 0 eq = "n" -> (
                  let v =
                    String.sub part (eq + 1) (String.length part - eq - 1)
                  in
                  match int_of_string_opt v with
                  | Some n when n > 0 -> Ok (Some n)
                  | Some _ | None ->
                      Error (Printf.sprintf "bad n value: %s\n" v))
              | Some _ | None ->
                  Error (Printf.sprintf "unknown query parameter: %s\n" part)))
        (Ok None)
        (String.split_on_char '&' q)

let serve ?heat registry fd =
  let buf = Bytes.create 4096 in
  let n =
    try Io.read fd buf with
    | Unix.Unix_error _ | End_of_file | Rp_fault.Injected _ -> 0
  in
  let path, query = request_target (Bytes.sub_string buf 0 n) in
  (match path with
  | "/" | "/metrics" ->
      respond fd ~status:"200 OK" ~content_type:prometheus_type
        (Rp_obs.Registry.to_prometheus registry)
  | "/json" ->
      respond fd ~status:"200 OK" ~content_type:json_type
        (Rp_obs.Registry.to_json registry)
  | "/trace" ->
      respond fd ~status:"200 OK" ~content_type:json_type
        (Rp_trace.export_json ())
  | "/heat" -> (
      match heat with
      | None ->
          respond fd ~status:"404 Not Found" ~content_type:"text/plain"
            "no such endpoint: /heat\n"
      | Some f -> (
          match heat_query query with
          | Ok n -> respond fd ~status:"200 OK" ~content_type:json_type (f n)
          | Error msg ->
              respond fd ~status:"400 Bad Request" ~content_type:"text/plain"
                msg))
  | path ->
      respond fd ~status:"404 Not Found" ~content_type:"text/plain"
        (Printf.sprintf "no such endpoint: %s\n" path));
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t ?heat registry =
  while Atomic.get t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if not (Atomic.get t.running) then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else ignore (Thread.create (fun () -> serve ?heat registry fd) ())
    | exception Unix.Unix_error _ -> ()
  done

let start ~registry ?heat port =
  Io.ignore_sigpipe ();
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listen_fd 16;
  (* port 0 lets the OS pick; report the bound port for tests *)
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let t =
    {
      listen_fd;
      accept_thread = Thread.self ();
      running = Atomic.make true;
      port;
    }
  in
  {
    t with
    accept_thread = Thread.create (fun () -> accept_loop t ?heat registry) ();
  }

let port t = t.port

let stop t =
  Atomic.set t.running false;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Thread.join t.accept_thread
