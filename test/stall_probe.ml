(* Deadline-bounded request probes for QSBR servers.

   A grace period on a QSBR store waits for every registered reader slot
   to pass a quiescent state. A slot that some thread left online with a
   stale counter makes that wait last forever, and the worker that asked
   for it stops answering. These probes talk to a server over a raw unix
   socket ([connect]), read each reply, and fail the test once [timeout]
   seconds have passed in all, so such a stall fails instead of hanging
   the suite. On failure nothing is stopped: stopping a worker stuck in a
   grace period would hang too. *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* Send [req], then read until the reply ends with [until]. *)
let exchange ~label ~deadline fd req ~until =
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Bytes.create 4096 in
  let rec read_reply acc =
    if String.ends_with ~suffix:until acc then acc
    else
      let left = deadline -. Unix.gettimeofday () in
      match
        if left > 0. then Unix.select [ fd ] [] [] left else ([], [], [])
      with
      | [], _, _ ->
          Alcotest.failf "%s: %S never answered (grace period stalled)" label
            req
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Alcotest.failf "%s: connection closed after %S" label req
          | k -> read_reply (acc ^ Bytes.sub_string buf 0 k))
  in
  read_reply ""

(* SET [n] fresh keys [prefix-1] .. [prefix-n], each to its own name.
   New keys grow the table, and each expansion waits for a grace
   period. *)
let sets ?(timeout = 10.) ~label fd ~prefix n =
  let deadline = Unix.gettimeofday () +. timeout in
  for i = 1 to n do
    let key = Printf.sprintf "%s-%d" prefix i in
    let req =
      Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" key (String.length key) key
    in
    match exchange ~label ~deadline fd req ~until:"\r\n" with
    | "STORED\r\n" -> ()
    | reply -> Alcotest.failf "%s: SET %s answered %S" label key reply
  done

(* GET each of [keys] (hit or miss). *)
let gets ?(timeout = 10.) ~label fd keys =
  let deadline = Unix.gettimeofday () +. timeout in
  List.iter
    (fun key ->
      ignore
        (exchange ~label ~deadline fd
           (Printf.sprintf "get %s\r\n" key)
           ~until:"END\r\n"))
    keys
