(* A memcached server child process and blocking text-protocol
   connections to it over a Unix-domain socket. *)

module P = Memcached.Protocol

type server = { pid : int; socket : string; data_dir : string option }

(* Work files live under [dir] (relative to the checkout): the socket,
   the server's log and, when the shape persists, a fresh data dir. *)
let spawn ~argv ~dir ~(shape : Shape.t) ~guard ~tag =
  Util.mkdir_p dir;
  let socket = Filename.concat dir (Printf.sprintf "%s.sock" tag) in
  (try Sys.remove socket with Sys_error _ -> ());
  let data_dir =
    if shape.persist then begin
      let d = Filename.concat dir (tag ^ ".data") in
      Util.rm_rf d;
      Util.mkdir_p d;
      Some d
    end
    else None
  in
  let args = argv @ Shape.server_args shape ~socket ~data_dir ~guard in
  let log =
    Unix.openfile (Filename.concat dir (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process (List.hd args) (Array.of_list args) Unix.stdin log log)
  in
  { pid; socket; data_dir }

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let alive s =
  match waitpid_noeintr [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* SIGTERM, then SIGKILL after 5 s; always reaps the child. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match waitpid_noeintr [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  (try Sys.remove s.socket with Sys_error _ -> ());
  Option.iter Util.rm_rf s.data_dir

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  parser : P.Response_parser.t;
}

let connect_once socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX socket);
    { fd; rbuf = Bytes.create 65536; parser = P.Response_parser.create () }
  with e ->
    Unix.close fd;
    raise e

(* Connect once the server listens; fails after 20 s or if it died. *)
let connect s =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    match connect_once s.socket with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
        if Unix.gettimeofday () > deadline || not (alive s) then raise e;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all c s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd s off (len - off))
  in
  go 0

(* Read until [n] responses have been parsed, calling [f i response]
   as each one completes. [on_read] brackets every read(2). *)
let read_responses ?(on_read = fun f -> f ()) ?(on_parse = fun f -> f ()) c n f =
  let got = ref 0 in
  while !got < n do
    let k = on_read (fun () -> Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf)) in
    if k = 0 then failwith "server closed the connection";
    on_parse (fun () ->
        P.Response_parser.feed c.parser (Bytes.sub_string c.rbuf 0 k);
        let rec drain () =
          if !got < n then
            match P.Response_parser.next c.parser with
            | Some r ->
                f !got r;
                incr got;
                drain ()
            | None -> ()
        in
        drain ())
  done

let request c req =
  write_all c (P.encode_request req);
  let out = ref None in
  read_responses c 1 (fun _ r -> out := Some r);
  Option.get !out

let stats c =
  match request c (P.Stats None) with
  | Ok (P.Stats_reply kv) -> kv
  | _ -> failwith "stats: unexpected reply"

let stat kv name =
  match List.assoc_opt name kv with
  | Some v -> Option.value ~default:nan (float_of_string_opt v)
  | None -> nan
