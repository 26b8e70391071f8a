(** Text-protocol request dispatch onto the {!Store}, shared by the
    event-loop workers ({!Evloop}/{!Conn}) and the in-process benchmark
    loopback. *)

val stored_reply : Store.stored_result -> Protocol.response

val handle : Store.t -> Protocol.request -> Protocol.response option
(** Execute one request. [None] means no response is sent (noreply flag, or
    [Quit], which the connection loop treats as close). *)
