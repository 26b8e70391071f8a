(* Writing to a peer-closed socket must surface as EPIPE, not kill the
   process (stock memcached ignores SIGPIPE the same way). Forced once by
   every socket-endpoint constructor. *)
let ignore_sigpipe_once =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let ignore_sigpipe () = Lazy.force ignore_sigpipe_once

(* Wait until [fd] is ready in the given direction. EINTR during the
   wait restarts it. *)
let rec wait_ready ~for_write fd =
  let r, w = if for_write then ([], [ fd ]) else ([ fd ], []) in
  try ignore (Unix.select r w [] (-1.0))
  with Unix.Unix_error (Unix.EINTR, _, _) -> wait_ready ~for_write fd

let write_all ?(fault = "") fd s =
  let bytes = Bytes.unsafe_of_string s in
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then begin
      let want = len - off in
      let want = if fault = "" then want else Rp_fault.io_cap fault want in
      match Unix.write fd bytes off want with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          wait_ready ~for_write:true fd;
          go off
    end
  in
  go 0

(* --- non-blocking variants (event-loop plane) ---

   These never wait: the caller's poll set decides when to try again. EINTR
   is retried inline; EAGAIN/EWOULDBLOCK surfaces as [`Would_block]. The
   [fault] site works as on the blocking path, so torture scenarios can
   tear or shrink event-loop I/O. *)

let read_nonblock ?(fault = "") fd buf =
  let want = Bytes.length buf in
  let want = if fault = "" then want else Rp_fault.io_cap fault want in
  let rec go () =
    match Unix.read fd buf 0 want with
    | 0 -> `Eof
    | n -> `Data n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Would_block
  in
  go ()

let write_nonblock ?(fault = "") fd s ~off =
  let len = String.length s - off in
  let want = if fault = "" then len else Rp_fault.io_cap fault len in
  let rec go () =
    match Unix.write_substring fd s off want with
    | n -> `Wrote n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Would_block
  in
  go ()

let set_tcp_nodelay fd =
  (* Best-effort: meaningless (and an error) on AF_UNIX sockets. *)
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let read ?(fault = "") fd buf =
  let want = Bytes.length buf in
  let want = if fault = "" then want else Rp_fault.io_cap fault want in
  let rec go () =
    match Unix.read fd buf 0 want with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_ready ~for_write:false fd;
        go ()
  in
  go ()
