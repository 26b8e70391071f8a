(* Per-connection state machine for the event-loop plane.

   A connection owns a fixed read buffer, an incremental protocol parser
   (text or binary, decided by the first byte, as in stock memcached), and
   a reusable output buffer. One poll wakeup drains *all* complete
   pipelined requests buffered on the socket, dispatches them as a batch,
   and coalesces every response into a single write — no per-command
   syscall, no per-command response string. Partial writes park the
   remainder in [pending]; the worker then polls the fd for writability
   and stops reading until the backlog drains (backpressure). *)

type proto =
  | Detect
  | Text of Protocol.Parser.t
  | Binary of Binary_protocol.Parser.t

(* Flight-recorder span names (request tier: every request gets a B/E
   pair so the tail trigger has a substrate; the conn.* spans bracket
   the batch so request spans nest under their dispatch). *)
let k_fill = Rp_trace.intern "conn.fill"
let k_batch = Rp_trace.intern "conn.dispatch"
let k_flush = Rp_trace.intern "conn.flush"
let k_req = Rp_trace.intern "req.text"
let k_req_bin = Rp_trace.intern "req.binary"
let k_encode = Rp_trace.intern "conn.encode"

type t = {
  fd : Unix.file_descr;
  id : int;
  rbuf : Bytes.t;
  out : Buffer.t;
  mutable pending : string;  (* rendered but unwritten response bytes *)
  mutable pending_off : int;
  mutable proto : proto;
  mutable closing : bool;  (* flush remaining output, then close *)
  mutable last_active : float;
  mutable last_progress : float;  (* last write(2) that moved bytes *)
  mutable backlog : bool;  (* parser holds requests the write cap deferred *)
  reads : Rp_obs.Counter.t;  (* read(2) calls that moved bytes *)
  writes : Rp_obs.Counter.t;  (* write(2) calls that moved bytes *)
}

(* Above this, a drained output buffer releases its storage instead of
   pinning the high-water mark for the connection's lifetime. *)
let out_retain_bytes = 262_144

let create ~id ~buffer_size ~reads ~writes fd =
  {
    fd;
    id;
    rbuf = Bytes.create buffer_size;
    out = Buffer.create 256;
    pending = "";
    pending_off = 0;
    proto = Detect;
    closing = false;
    last_active = Unix.gettimeofday ();
    last_progress = Unix.gettimeofday ();
    backlog = false;
    reads;
    writes;
  }

let fd t = t.fd
let id t = t.id
let closing t = t.closing
let last_active t = t.last_active
let wants_write t = t.pending <> "" || Buffer.length t.out > 0
let has_backlog t = t.backlog

let pending_bytes t =
  String.length t.pending - t.pending_off + Buffer.length t.out

(* Slow-client deadline base: the later of "last byte we received" and
   "last byte the peer drained". A long-idle keepalive connection is not
   slow (nothing owed to it); a connection we owe bytes that accepts none
   is. *)
let no_progress_since t = Float.max t.last_active t.last_progress

let feed t s =
  match t.proto with
  | Detect ->
      if s <> "" then
        if s.[0] = Binary_protocol.magic_request_byte then begin
          let p = Binary_protocol.Parser.create () in
          Binary_protocol.Parser.feed p s;
          t.proto <- Binary p
        end
        else begin
          let p = Protocol.Parser.create () in
          Protocol.Parser.feed p s;
          t.proto <- Text p
        end
  | Text p -> Protocol.Parser.feed p s
  | Binary p -> Binary_protocol.Parser.feed p s

(* Drain the socket, feeding the parser, until a read comes back short
   (the socket held less than was asked for), would block, or hits EOF.
   Stopping at a short read saves the EAGAIN read that would otherwise
   end every wakeup; bytes that land after it make the fd readable again
   for the next poll. A read capped by a failpoint asks for the cap, so
   a capped read that fills it keeps draining. Raises like any socket
   read (Unix_error, injected faults); the worker treats that as a torn
   connection. *)
let fill t =
  let rec go () =
    match Io.read_nonblock ~fault:"server.read.split" t.fd t.rbuf with
    | `Would_block -> `Ok
    | `Eof -> `Eof
    | `Data (n, asked) ->
        Rp_obs.Counter.incr t.reads;
        t.last_active <- Unix.gettimeofday ();
        feed t (Bytes.sub_string t.rbuf 0 n);
        if n < asked then `Ok else go ()
  in
  Rp_trace.with_span ~arg:t.id k_fill go

(* Execute every complete request buffered in the parser, rendering
   responses into [t.out]. Returns the batch size (dispatched commands,
   protocol errors included). [max_out] caps the rendered-but-unwritten
   bytes: past it, remaining parsed requests stay in the parser
   ([has_backlog] goes true) until a flush makes room — one pipelining
   client that never reads can pin at most ~cap of coalescer memory. *)
let dispatch ?(max_out = max_int) t store =
  let over_cap () = pending_bytes t >= max_out in
  match t.proto with
  | Detect -> 0
  | Text p ->
      let rec go n =
        if t.closing then n
        else if over_cap () then begin
          t.backlog <- true;
          n
        end
        else
          match Protocol.Parser.next p with
          | None ->
              t.backlog <- false;
              n
          | Some (Error msg) ->
              let reply =
                if msg = "ERROR" then Protocol.Error_reply
                else Protocol.Client_error msg
              in
              Protocol.encode_response_into t.out reply;
              go (n + 1)
          | Some (Ok Protocol.Quit) ->
              t.closing <- true;
              n + 1
          | Some (Ok request) ->
              Rp_trace.request_begin ~arg:t.id k_req;
              (match Dispatch.handle store request with
              | Some response ->
                  let enc = Rp_trace.span_begin_sampled k_encode in
                  Protocol.encode_response_into t.out response;
                  Rp_trace.span_end_sampled k_encode enc
              | None -> ());
              Rp_trace.request_end ();
              go (n + 1)
      in
      Rp_trace.with_span ~arg:t.id k_batch (fun () -> go 0)
  | Binary p ->
      let rec go n =
        if t.closing then n
        else if over_cap () then begin
          t.backlog <- true;
          n
        end
        else
          match Binary_protocol.Parser.next p with
          | None ->
              t.backlog <- false;
              n
          | Some (Error _) ->
              (* Binary framing errors are unrecoverable: flush what was
                 already rendered, then drop, as stock memcached does. *)
              t.closing <- true;
              n
          | Some (Ok request) ->
              Rp_trace.request_begin ~arg:t.id k_req_bin;
              List.iter
                (fun response ->
                  Binary_protocol.encode_response_into t.out response)
                (Binary_server.handle store request);
              Rp_trace.request_end ();
              if Binary_server.quit_requested request then t.closing <- true;
              go (n + 1)
      in
      Rp_trace.with_span ~arg:t.id k_batch (fun () -> go 0)

(* Push pending then freshly rendered bytes. [`Want_write] means the
   socket backed up: the worker polls for writability. Socket errors and
   injected tears report [`Closed]. *)
let flush t =
  let had_output = wants_write t in
  let span = if had_output then Rp_trace.span_begin ~arg:t.id k_flush else -1 in
  let rec push () =
    if t.pending <> "" then
      match
        Io.write_nonblock ~fault:"server.write.partial" t.fd t.pending
          ~off:t.pending_off
      with
      | `Would_block -> `Want_write
      | `Wrote n ->
          Rp_obs.Counter.incr t.writes;
          t.last_progress <- Unix.gettimeofday ();
          let off = t.pending_off + n in
          if off >= String.length t.pending then begin
            t.pending <- "";
            t.pending_off <- 0;
            push ()
          end
          else begin
            t.pending_off <- off;
            push ()
          end
    else if Buffer.length t.out > 0 then begin
      let s = Buffer.contents t.out in
      if Buffer.length t.out > out_retain_bytes then Buffer.reset t.out
      else Buffer.clear t.out;
      t.pending <- s;
      t.pending_off <- 0;
      push ()
    end
    else `Done
  in
  let verdict =
    try push () with Unix.Unix_error _ | Rp_fault.Injected _ -> `Closed
  in
  Rp_trace.span_end ~arg:t.id k_flush span;
  verdict
