(** Hardened socket I/O shared by the server and both clients.

    One implementation of the classic retry loop: transient [Unix.EINTR] /
    [EAGAIN] / [EWOULDBLOCK] results are retried (waiting for readiness
    via [select] where appropriate) instead of tearing down the
    connection, short writes are continued, and every transfer can be
    routed through an {!Rp_fault} I/O site so tests can shrink, stall, or
    tear it deterministically. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (idempotent) so a write to a peer-closed
    socket raises [Unix.EPIPE] instead of killing the process. Called by
    {!Server.start} and both client [connect]s. *)

val write_all : ?fault:string -> Unix.file_descr -> string -> unit
(** Write the whole string, retrying short writes and transient errors.
    [fault] names an {!Rp_fault.io_cap} site evaluated before each chunk
    (a [Truncate_io] there forces short writes; a [Raise] models a torn
    connection). *)

val read : ?fault:string -> Unix.file_descr -> Bytes.t -> int
(** Read at most [Bytes.length buf] bytes into [buf] (from offset 0),
    returning the count (0 = peer closed). Retries transient errors.
    [fault] as in {!write_all} ([Truncate_io] caps the request, splitting
    reads). *)

(** {1 Non-blocking variants (event-loop plane)}

    These never wait for readiness — the caller's poll set decides when to
    retry. EINTR is retried inline; EAGAIN/EWOULDBLOCK surfaces as
    [`Would_block]. [fault] works as in {!write_all}. *)

val read_nonblock :
  ?fault:string -> Unix.file_descr -> Bytes.t -> [ `Data of int | `Eof | `Would_block ]
(** One read attempt into [buf] from offset 0. [`Data n] delivered [n > 0]
    bytes; [`Eof] means the peer closed. *)

val write_nonblock :
  ?fault:string -> Unix.file_descr -> string -> off:int -> [ `Wrote of int | `Would_block ]
(** One write attempt of [s] from [off] to the end. [`Wrote n] may be
    short; the caller keeps the remainder. *)

val set_tcp_nodelay : Unix.file_descr -> unit
(** Disable Nagle on a TCP socket (best-effort no-op elsewhere), so small
    pipelined responses are not held back for coalescing timers. *)
