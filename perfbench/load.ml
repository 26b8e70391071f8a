(* The closed-loop load generator: one client domain per connection
   writes a batch, reads every response, checks them, and only then
   sends the next batch. *)

module P = Memcached.Protocol

(* What one client saw. Latencies and completions are recorded only
   in measured runs; warm-up and prefill requests are checked and
   counted but not timed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable gets : int;
  mutable hits : int;
  mutable sets : int;
  get_lat : Util.Ibuf.t;
  set_lat : Util.Ibuf.t;
  mutable done_ : int;  (** completed requests, measured runs only *)
  mutable sets_done : int;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    gets = 0;
    hits = 0;
    sets = 0;
    get_lat = Util.Ibuf.create ();
    set_lat = Util.Ibuf.create ();
    done_ = 0;
    sets_done = 0;
  }

let merge ts =
  let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
  let lat f = Util.Ibuf.concat (List.map f ts) in
  {
    attempted = sum (fun t -> t.attempted);
    failed = sum (fun t -> t.failed);
    gets = sum (fun t -> t.gets);
    hits = sum (fun t -> t.hits);
    sets = sum (fun t -> t.sets);
    get_lat = lat (fun t -> t.get_lat);
    set_lat = lat (fun t -> t.set_lat);
    done_ = sum (fun t -> t.done_);
    sets_done = sum (fun t -> t.sets_done);
  }

let max_batch = 64

(* Check one response against the operation that caused it. *)
let check ctx tally op (r : (P.response, string) result) =
  match (op, r) with
  | `Get id, Ok (P.Values [ v ]) ->
      tally.gets <- tally.gets + 1;
      tally.hits <- tally.hits + 1;
      if not (v.P.vkey = ctx.Shape.names.(id) && Shape.check_value ctx id v.P.vdata)
      then tally.failed <- tally.failed + 1
  | `Get _, Ok (P.Values []) ->
      tally.gets <- tally.gets + 1;
      if ctx.Shape.shape.misses_fail then tally.failed <- tally.failed + 1
  | `Set _, Ok P.Stored -> tally.sets <- tally.sets + 1
  | `Set _, _ ->
      tally.sets <- tally.sets + 1;
      tally.failed <- tally.failed + 1
  | `Get _, _ ->
      tally.gets <- tally.gets + 1;
      tally.failed <- tally.failed + 1

(* Run [next_batch ()] batches while [more ()] holds. With a recorder,
   every batch becomes a [client.batch] span whose children cover the
   client's own work (encode, parse, verify) and its waits on the
   socket (write, read). *)
let run ?rec_ ~ctx ~(conn : Mc.conn) ~record ~more ~next_batch tally =
  let buf = Buffer.create 4096 in
  let lat = Array.make max_batch 0 in
  let got = Array.make max_batch (Ok P.Stored) in
  let dead = ref false in
  let batch_no = ref 0 in
  while (not !dead) && more () do
    let ops : Shape.op array = next_batch () in
    let n = Array.length ops in
    incr batch_no;
    let root =
      match rec_ with
      | Some r -> Spans.enter r ~req:!batch_no ~count:n "client.batch"
      | None -> -1
    in
    let span name f =
      match rec_ with
      | Some r -> Spans.with_span r ~parent:root ~req:!batch_no ~count:n name (fun _ -> f ())
      | None -> f ()
    in
    let payload =
      span "client.encode" (fun () ->
          Buffer.clear buf;
          Array.iter
            (fun op -> Buffer.add_string buf (P.encode_request (Shape.request ctx op)))
            ops;
          Buffer.contents buf)
    in
    let t0 = Util.now_ns () in
    tally.attempted <- tally.attempted + n;
    (try
       span "client.write" (fun () -> Mc.write_all conn payload);
       Mc.read_responses
         ~on_read:(fun f -> span "client.read" f)
         ~on_parse:(fun f -> span "client.parse" f)
         conn n
         (fun i r ->
           lat.(i) <- Util.now_ns () - t0;
           got.(i) <- r)
     with Unix.Unix_error _ | Failure _ ->
       tally.failed <- tally.failed + n;
       dead := true);
    if not !dead then begin
      span "client.verify" (fun () ->
          Array.iteri (fun i op -> check ctx tally op got.(i)) ops);
      if record then begin
        tally.done_ <- tally.done_ + n;
        Array.iteri
          (fun i op ->
            match op with
            | `Get _ -> Util.Ibuf.add tally.get_lat lat.(i)
            | `Set _ ->
                tally.sets_done <- tally.sets_done + 1;
                Util.Ibuf.add tally.set_lat lat.(i))
          ops
      end
    end;
    match rec_ with Some r -> ignore (Spans.exit r root) | None -> ()
  done

let mix_batches ctx rng () =
  Array.init ctx.Shape.shape.batch (fun _ -> Shape.draw ctx rng)

(* Write every key in [ranks] at version 0, [depth] requests per batch. *)
let prefill ~ctx ~conn ~ranks ~depth tally =
  let pos = ref 0 in
  let n = Array.length ranks in
  let next_batch () =
    let k = min depth (n - !pos) in
    let ops : Shape.op array =
      Array.init k (fun i -> `Set (ctx.Shape.key_of_rank.(ranks.(!pos + i)), 0))
    in
    pos := !pos + k;
    ops
  in
  run ~ctx ~conn ~record:false ~more:(fun () -> !pos < n) ~next_batch tally
