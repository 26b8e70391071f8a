(* The traced run: per-layer metrics, timed from outside.

   Every figure comes from spans the benchmark records around its own
   calls into a module's public functions (nothing inside lib/ is
   instrumented), or from counters the program already exports. Each
   layer is measured on the workload shape whose end-to-end metrics it
   should move:

   - rcu, rp_ht (resize side): the resize-lookup flip;
   - store GET path, heat, protocol, dispatch, and the request rung
     (parse -> dispatch -> encode, in process): the read-zipf stream;
   - store SET path, eviction, persist, stripe contention: the
     write-evict stream;
   - serving and client: the socket run of the traced workload
     (read-zipf when the traced workload is resize-lookup);
   - guard: the write-evict shape with the guard at its defaults.

   A layer's in-process cost is measured in [rounds] alternating rounds
   and reported as the median round. *)

module M = Memcached
module P = M.Protocol

let rounds = 5

(* The rung's figures are small differences between loops of ~10 ms;
   more rounds steady their medians. *)
let rung_rounds = 9

type ctx = {
  rec_ : Spans.recorder;  (** the main domain's spans *)
  mutable checked : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;
  mutable notes : (string * string) list;
}

let note c k v = c.notes <- (k, Printf.sprintf "%.1f" v) :: c.notes

let metric c name v unit = c.metrics <- (name, v, unit) :: c.metrics

(* Run [f] once untimed, so every loop is timed with the caches its own
   first pass warmed rather than whatever the loop before it left; then
   time a second run inside a span covering [count] operations. Returns
   ns per operation. *)
let timed c ~count name f =
  f ();
  let id = Spans.enter c.rec_ ~count name in
  f ();
  float_of_int (Spans.exit c.rec_ id) /. float_of_int count

(* Minor-heap words allocated by [f], less the probe's own cost. *)
let words f =
  let probe = Gc.minor_words () -. Gc.minor_words () in
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0 +. probe

(* --- rcu and rp_ht: the resize-lookup flip --- *)

let rcu_read_section c =
  let rcu = Rcu.create () in
  let r = Rcu.register rcu in
  let n = 1_000_000 in
  let per =
    List.init rounds (fun _ ->
        timed c ~count:n "rcu.read_section" (fun () ->
            for _ = 1 to n do
              Rcu.read_lock r;
              Rcu.read_unlock r
            done))
  in
  Rcu.unregister rcu r;
  metric c "rcu.read_section_ns" (Util.median_l per) "ns"

(* Alternating untraced and traced flips; returns traced/untraced
   lookups per second. *)
let resize_lookup c ~seed ~seconds =
  let t = E2e.build_table () in
  let rcu = Rp_ht.rcu t in
  let reader = Spans.recorder 1 and writer = Spans.recorder 2 in
  let gps = ref 0 and resizes = ref 0 in
  let on_batch f = Spans.with_span reader ~count:256 "rp_ht.find" (fun _ -> f ()) in
  let on_resize target f =
    let g0 = (Rcu.stats rcu).Rcu.grace_periods in
    Spans.with_span writer ~req:target "rp_ht.resize" (fun _ -> f ());
    gps := !gps + (Rcu.stats rcu).Rcu.grace_periods - g0;
    incr resizes;
    if !resizes land 1 = 0 then
      Spans.with_span writer "rcu.synchronize" (fun _ -> Rcu.synchronize rcu)
  in
  let rs0 = Rp_ht.resize_stats t in
  let window = seconds /. 20. in
  let plain = ref [] and traced = ref [] in
  for i = 0 to 2 do
    let tl = E2e.rl_tally () in
    E2e.flip t ~seed:(seed + i) ~seconds:window ~record:false tl;
    plain := (float_of_int tl.E2e.finds /. window) :: !plain;
    let tl' = E2e.rl_tally () in
    E2e.flip ~on_batch ~on_resize t ~seed:(seed + 10 + i) ~seconds:window ~record:false tl';
    traced := (float_of_int tl'.E2e.finds /. window) :: !traced;
    c.checked <- c.checked + tl.E2e.finds + tl'.E2e.finds;
    c.failed <- c.failed + tl.E2e.bad + tl'.E2e.bad
  done;
  let rs1 = Rp_ht.resize_stats t in
  (match Rp_ht.validate t with Ok () -> () | Error _ -> c.failed <- c.failed + 1);
  let spans = Spans.all [ reader; writer ] in
  let resize_ms =
    Array.of_list
      (List.map (fun s -> Spans.dur s) (Spans.named "rp_ht.resize" spans))
  in
  let q p = Util.int_quantile resize_ms p /. 1e6 in
  let sync_us =
    List.map (fun s -> float_of_int (Spans.dur s) /. 1e3) (Spans.named "rcu.synchronize" spans)
  in
  metric c "rp_ht.find_ns" (Spans.per_op_ns "rp_ht.find" spans) "ns";
  metric c "rp_ht.resize_ms_p50" (q 0.5) "ms";
  metric c "rp_ht.resize_ms_p99" (q 0.99) "ms";
  metric c "rp_ht.unzip_passes_per_expand"
    (Util.ratio
       (float_of_int (rs1.Rp_ht.unzip_passes - rs0.Rp_ht.unzip_passes))
       (float_of_int (rs1.Rp_ht.expands - rs0.Rp_ht.expands)))
    "count";
  metric c "rcu.synchronize_us" (Util.median_l sync_us) "us";
  metric c "rcu.grace_periods_per_resize"
    (Util.ratio (float_of_int !gps) (float_of_int !resizes))
    "count";
  ([ reader; writer ], Util.ratio (Util.median_l !traced) (Util.median_l !plain))

(* --- the in-process request rung --- *)

type stream = {
  ctx : Shape.ctx;
  ops : Shape.op array array;
  wire : string array;  (** each batch's request bytes *)
  reqs : P.request array array;
  nreq : int;
}

let stream ctx ~seed ~batches =
  let rng = Rp_workload.Prng.create ~seed in
  let ops = Array.init batches (fun _ -> Load.mix_batches ctx rng ()) in
  let reqs = Array.map (Array.map (Shape.request ctx)) ops in
  {
    ctx;
    ops;
    wire =
      Array.map
        (fun rs -> String.concat "" (Array.to_list (Array.map P.encode_request rs)))
        reqs;
    reqs;
    nreq = Array.fold_left (fun a b -> a + Array.length b) 0 reqs;
  }

let prefill_store ctx store =
  let sh = ctx.Shape.shape in
  for r = 0 to sh.Shape.prefill - 1 do
    let id = ctx.Shape.key_of_rank.(r) in
    ignore
      (M.Store.set store ~key:ctx.Shape.names.(id) ~flags:0 ~exptime:0
         ~data:(Shape.value ctx id 0))
  done

let direct store = function
  | P.Get keys -> ignore (M.Store.get_many store keys)
  | P.Set { key; flags; exptime; data; _ } ->
      ignore (M.Store.set store ~key ~flags ~exptime ~data)
  | _ -> invalid_arg "direct"

type rung = {
  parse : float;  (** per request, in place inside the stamped rung *)
  dispatch : float;
  encode : float;
  bare : float;  (** per request, the rung run bare *)
  dispatch_self : float;
  parse_words : float;
  encode_words : float;
}

(* The request rung: the event loop's per-request path over the stream,
   one batch at a time as Conn.dispatch runs it: Parser.next, then
   Dispatch.handle, then encode_response_into. Each round times the
   rung bare ("request.rung"), then runs it again stamping the cycle
   counter after every layer call and charging each interval to the
   layer it closes; the bare rung and the sum of the layers should
   agree. Spans around each call would cost more than the calls they
   time, so the stamped pass records one span per batch. Dispatch's own
   cost is Dispatch.handle minus the Store call it makes, each timed in
   its own loop: the Store call runs inside lib/, where nothing can be
   stamped. The responses are checked like the socket client's. *)
let rung c ~store ~tag (s : stream) =
  let buf = Buffer.create 65536 in
  let responses = Array.map (Array.map (M.Dispatch.handle store)) s.reqs in
  let parse_l = 0 and dispatch_l = 1 and encode_l = 2 in
  (* [lap l] closes an interval of layer [l]; [on_batch b n f] wraps a
     batch of [n] requests. *)
  let pass ~on_batch ~lap =
    let p = P.Parser.create () in
    Array.iteri
      (fun b w ->
        on_batch b (Array.length s.reqs.(b)) (fun () ->
            Buffer.clear buf;
            P.Parser.feed p w;
            lap parse_l;
            let rec drain () =
              let next = P.Parser.next p in
              lap parse_l;
              match next with
              | Some (Ok r) ->
                  let resp = M.Dispatch.handle store r in
                  lap dispatch_l;
                  Option.iter (P.encode_response_into buf) resp;
                  lap encode_l;
                  drain ()
              | Some (Error _) -> drain ()
              | None -> ()
            in
            drain ()))
      s.wire
  in
  (* Each interval also holds one lap's own cost (a counter read and two
     stores); it is measured here and taken back out of every layer. *)
  let acc = Array.make 3 0 and laps = Array.make 3 0 and stamp = ref 0 in
  let lap l =
    let t = Util.ticks () in
    acc.(l) <- acc.(l) + (t - !stamp);
    laps.(l) <- laps.(l) + 1;
    stamp := t
  in
  let lap_cost =
    let n = 100_000 in
    let t0 = Util.ticks () in
    for _ = 1 to n do
      lap 0
    done;
    float_of_int (Util.ticks () - t0) /. float_of_int n
  in
  let stamped_pass () =
    Array.fill acc 0 3 0;
    Array.fill laps 0 3 0;
    pass ~lap ~on_batch:(fun b n f ->
        Spans.with_span c.rec_ ~req:b ~count:n ("rung.batch" ^ tag) (fun _ ->
            stamp := Util.ticks ();
            f ()));
    let k = Lazy.force Util.ns_per_tick /. float_of_int s.nreq in
    Array.init 3 (fun l -> (float_of_int acc.(l) -. (float_of_int laps.(l) *. lap_cost)) *. k)
  in
  let parse_loop () =
    let p = P.Parser.create () in
    Array.iter
      (fun w ->
        P.Parser.feed p w;
        let rec drain () =
          match P.Parser.next p with
          | Some r ->
              ignore (Sys.opaque_identity r);
              drain ()
          | None -> ()
        in
        drain ())
      s.wire
  in
  let encode_loop () =
    Array.iter
      (fun rs ->
        Buffer.clear buf;
        Array.iter (Option.iter (P.encode_response_into buf)) rs)
      responses
  in
  (* Paired loops swap order every round, so that neither side of a
     comparison always runs second. *)
  let pair odd f g = if odd then let y = g () in (f (), y) else let x = f () in (x, g ()) in
  let one_round i =
    let odd = i land 1 = 1 in
    let bare, layers =
      pair odd
        (fun () ->
          timed c ~count:s.nreq ("request.rung" ^ tag) (fun () ->
              pass ~lap:ignore ~on_batch:(fun _ _ f -> f ())))
        stamped_pass
    in
    let store_direct, dispatch_only =
      pair odd
        (fun () ->
          timed c ~count:s.nreq ("store.direct" ^ tag) (fun () ->
              Array.iter (Array.iter (direct store)) s.reqs))
        (fun () ->
          timed c ~count:s.nreq ("dispatch.only" ^ tag) (fun () ->
              Array.iter
                (Array.iter (fun r -> ignore (Sys.opaque_identity (M.Dispatch.handle store r))))
                s.reqs))
    in
    {
      parse = layers.(parse_l);
      dispatch = layers.(dispatch_l);
      encode = layers.(encode_l);
      bare;
      dispatch_self = dispatch_only -. store_direct;
      parse_words = words parse_loop /. float_of_int s.nreq;
      encode_words = words encode_loop /. float_of_int s.nreq;
    }
  in
  let rs = List.init rung_rounds one_round in
  let tally = Load.tally () in
  Array.iteri
    (fun b ops ->
      Array.iteri
        (fun i op ->
          Load.check s.ctx tally op
            (match responses.(b).(i) with Some r -> Ok r | None -> Error "none"))
        ops)
    s.ops;
  c.checked <- c.checked + tally.Load.gets + tally.Load.sets;
  c.failed <- c.failed + tally.Load.failed;
  let med f = Util.median_l (List.map f rs) in
  ( {
    parse = med (fun r -> r.parse);
    dispatch = med (fun r -> r.dispatch);
    encode = med (fun r -> r.encode);
    bare = med (fun r -> r.bare);
    dispatch_self = med (fun r -> r.dispatch_self);
    parse_words = med (fun r -> r.parse_words);
    encode_words = med (fun r -> r.encode_words);
  },
    (* Per round, so both sides of the comparison share the host's state. *)
    med (fun r -> Float.abs (r.bare -. (r.parse +. r.dispatch +. r.encode)) /. r.bare) )

(* --- the read-zipf GET path: store, heat, the lock comparator --- *)

let read_path c ~seed =
  let ctx = Shape.create Shape.read_zipf ~seed in
  let mk ?(backend = M.Store.Rp) heat =
    let s =
      M.Store.create ~backend ~rcu_mode:M.Store.Qsbr
        ~max_bytes:(Shape.read_zipf.mem_mb * 1024 * 1024) ~heat_topk:heat ()
    in
    prefill_store ctx s;
    s
  in
  let s_heat = mk Shape.read_zipf.heat_topk in
  let s_plain = mk 0 in
  let s_lock = mk ~backend:M.Store.Lock 0 in
  let st = stream ctx ~seed:(seed + 1) ~batches:512 in
  let keys =
    Array.map
      (fun rs ->
        List.concat_map (function P.Get ks -> ks | _ -> []) (Array.to_list rs))
      st.reqs
  in
  let nkeys = Array.fold_left (fun a k -> a + List.length k) 0 keys in
  let gets s () = Array.iter (fun ks -> ignore (M.Store.get_many s ks)) keys in
  let per =
    List.init rounds (fun _ ->
        let h = timed c ~count:nkeys "store.get_many" (gets s_heat) in
        let p = timed c ~count:nkeys "store.get_many.heat_off" (gets s_plain) in
        let l = timed c ~count:nkeys "store.get_many.lock" (gets s_lock) in
        (h, p, l))
  in
  metric c "store.get_many_ns_per_key" (Util.median_l (List.map (fun (h, _, _) -> h) per)) "ns";
  metric c "store.get_words" (words (gets s_heat) /. float_of_int nkeys) "words";
  metric c "store.get_ns.lock" (Util.median_l (List.map (fun (_, _, l) -> l) per)) "ns";
  metric c "heat.get_overhead_ratio"
    (Util.median_l (List.map (fun (h, p, _) -> h /. p) per))
    "ratio";
  let r, unaccounted = rung c ~store:s_heat ~tag:"" st in
  List.iter (fun (k, v) -> note c ("read_zipf.rung." ^ k) v)
    [ ("parse_ns", r.parse); ("dispatch_ns", r.dispatch); ("encode_ns", r.encode);
      ("bare_ns", r.bare) ];
  metric c "protocol.parse_ns" r.parse "ns";
  metric c "protocol.encode_ns" r.encode "ns";
  metric c "protocol.parse_words" r.parse_words "words";
  metric c "protocol.encode_words" r.encode_words "words";
  metric c "dispatch.self_ns" r.dispatch_self "ns";
  metric c "ladder.unaccounted_share" unaccounted "ratio";
  r

(* --- the write-evict SET path: store, eviction, persist, stripes --- *)

let write_path c ~dir ~seed =
  let sh = Shape.write_evict in
  let ctx = Shape.create sh ~seed in
  let mk () =
    M.Store.create ~backend:M.Store.Rp ~rcu_mode:M.Store.Qsbr
      ~max_bytes:(sh.mem_mb * 1024 * 1024) ()
  in
  let s_plain = mk () and s_log = mk () in
  let data_dir = Filename.concat dir "ladder.data" in
  Util.rm_rf data_dir;
  Util.mkdir_p data_dir;
  let persist =
    M.Persist.attach ~fsync:(Rp_persist.Oplog.Every 0.1) ~dir:data_dir s_log
  in
  Fun.protect
    ~finally:(fun () ->
      M.Persist.stop persist;
      Util.rm_rf data_dir)
    (fun () ->
      prefill_store ctx s_plain;
      prefill_store ctx s_log;
      let rng = Rp_workload.Prng.create ~seed:(seed + 2) in
      let ops n = Array.init n (fun _ -> Shape.draw ctx rng) in
      let tally = Load.tally () in
      let apply s op =
        match op with
        | `Get id ->
            let v = M.Store.get s ctx.Shape.names.(id) in
            Load.check ctx tally op (Ok (P.Values (Option.to_list v)))
        | `Set (id, version) ->
            let r =
              M.Store.set s ~key:ctx.Shape.names.(id) ~flags:0 ~exptime:0
                ~data:(Shape.value ctx id version)
            in
            Load.check ctx tally op (Ok (M.Dispatch.stored_reply r))
      in
      let warm = ops 4000 in
      Array.iter (apply s_plain) warm;
      Array.iter (apply s_log) warm;
      let reg s name =
        Option.value ~default:nan (Rp_obs.Registry.value (M.Store.registry s) name)
      in
      let sets = ref 0 and set_words = ref 0. and evicting = Util.Ibuf.create () in
      let ev0 = M.Store.evictions s_plain in
      let lazy0 = reg s_plain "rp_ht_lazy_splits_total" in
      let log0 = M.Persist.oplog_bytes persist and log_sets = ref 0 in
      (* Every SET and GET is its own span; [name] tells the stores apart. *)
      let measure s name stream =
        Array.iter
          (fun op ->
            match op with
            | `Get id ->
                let key = ctx.Shape.names.(id) in
                let v =
                  Spans.with_span c.rec_ ("store.get" ^ name) (fun _ -> M.Store.get s key)
                in
                Load.check ctx tally op (Ok (P.Values (Option.to_list v)))
            | `Set (id, version) ->
                let key = ctx.Shape.names.(id) and data = Shape.value ctx id version in
                let e0 = M.Store.evictions s in
                let sp = Spans.enter c.rec_ ("store.set" ^ name) in
                let w0 = Gc.minor_words () in
                let r = M.Store.set s ~key ~flags:0 ~exptime:0 ~data in
                let w1 = Gc.minor_words () in
                let ns = Spans.exit c.rec_ sp in
                Load.check ctx tally op (Ok (M.Dispatch.stored_reply r));
                if name = "" then begin
                  incr sets;
                  set_words := !set_words +. (w1 -. w0);
                  if M.Store.evictions s > e0 then Util.Ibuf.add evicting ns
                end
                else incr log_sets)
          stream
      in
      let first = c.rec_.Spans.len in
      let overhead =
        List.init rounds (fun _ ->
            let stream = ops 2000 in
            let mark = c.rec_.Spans.len in
            measure s_plain "" stream;
            measure s_log ".persist" stream;
            let spans = Array.to_list (Array.sub c.rec_.Spans.items mark (c.rec_.Spans.len - mark)) in
            let med name =
              Util.median_l (List.map (fun s -> float_of_int (Spans.dur s)) (Spans.named name spans))
            in
            med "store.set.persist" -. med "store.set")
      in
      let spans = Array.to_list (Array.sub c.rec_.Spans.items first (c.rec_.Spans.len - first)) in
      let durs name = Array.of_list (List.map Spans.dur (Spans.named name spans)) in
      let q = Util.int_quantile in
      let set_ns = durs "store.set" in
      metric c "store.set_ns_p50" (q set_ns 0.5) "ns";
      metric c "store.set_ns_p99" (q set_ns 0.99) "ns";
      metric c "store.set_words" (!set_words /. float_of_int !sets) "words";
      metric c "store.get_ns" (q (durs "store.get") 0.5) "ns";
      metric c "store.eviction_sweep_us_p99" (q (Util.Ibuf.to_array evicting) 0.99 /. 1e3) "us";
      metric c "store.evictions_per_set"
        (float_of_int (M.Store.evictions s_plain - ev0) /. float_of_int !sets)
        "count";
      metric c "store.slab_fragmentation" (M.Store.fragmentation s_plain) "ratio";
      metric c "rp_ht.lazy_splits_per_set"
        ((reg s_plain "rp_ht_lazy_splits_total" -. lazy0) /. float_of_int !sets)
        "count";
      metric c "persist.set_overhead_ns" (Util.median_l overhead) "ns";
      metric c "persist.log_bytes_per_set"
        (float_of_int (M.Persist.oplog_bytes persist - log0) /. float_of_int !log_sets)
        "bytes";
      (* Two writer domains on one store: how often a stripe is taken. *)
      let acq0 = reg s_plain "rp_ht_stripe_acquisitions_total" in
      let con0 = reg s_plain "rp_ht_stripe_contended_total" in
      M.Store.reader_offline s_plain;
      let until = Util.now_ns () + 1_000_000_000 in
      let ds =
        Array.init 2 (fun d ->
            Domain.spawn (fun () ->
                let rng = Rp_workload.Prng.create ~seed:(seed + 100 + d) in
                let t = Load.tally () in
                while Util.now_ns () < until do
                  let op = Shape.draw ctx rng in
                  match op with
                  | `Get id ->
                      let v = M.Store.get s_plain ctx.Shape.names.(id) in
                      Load.check ctx t op (Ok (P.Values (Option.to_list v)))
                  | `Set (id, version) ->
                      let r =
                        M.Store.set s_plain ~key:ctx.Shape.names.(id) ~flags:0
                          ~exptime:0 ~data:(Shape.value ctx id version)
                      in
                      Load.check ctx t op (Ok (M.Dispatch.stored_reply r))
                done;
                M.Store.reader_offline s_plain;
                t))
      in
      let ts = Array.to_list (Array.map Domain.join ds) in
      let acq = reg s_plain "rp_ht_stripe_acquisitions_total" -. acq0 in
      let con = reg s_plain "rp_ht_stripe_contended_total" -. con0 in
      metric c "rp_ht.stripe_contended_share" (Util.ratio con acq) "ratio";
      let all = Load.merge (tally :: ts) in
      c.checked <- c.checked + all.Load.gets + all.Load.sets;
      c.failed <- c.failed + all.Load.failed;
      (* The write-evict request rung, for the serving figure. *)
      let st = stream ctx ~seed:(seed + 3) ~batches:1000 in
      fst (rung c ~store:s_log ~tag:".write_evict" st))

(* --- guard: a full cache under the shipped guard defaults --- *)

let guard_shed c ~argv ~dir ~seed =
  let shape = { Shape.write_evict with prefill = Shape.write_evict.keys } in
  let t = Load.tally () in
  E2e.with_stand ~argv ~dir ~shape ~seed ~guard:true ~tag:"guard" t (fun _ -> ());
  (* Here a refused SET is the quantity measured, not a fault. *)
  metric c "guard.full_cache_shed_share"
    (Util.ratio (float_of_int t.Load.failed) (float_of_int t.Load.attempted))
    "ratio";
  c.checked <- c.checked + t.Load.attempted

(* --- serving and client: the socket run, traced and untraced --- *)

let serving c ~argv ~dir ~(shape : Shape.t) ~seed ~seconds ~rung_ns =
  let pre = Load.tally () in
  E2e.with_stand ~argv ~dir ~shape ~seed ~guard:false ~tag:"trace" pre (fun st ->
      let conn = st.E2e.conns.(0) in
      let warm = E2e.drive st ~seed ~stream:0 ~seconds:0.3 ~record:false in
      ignore (Mc.request conn (P.Stats (Some "reset")));
      let s0 = Mc.stats conn in
      let window = seconds /. 16. in
      let recs = [| Spans.recorder 3; Spans.recorder 4 |] in
      let plain = ref [] and traced = ref [] and measured = ref [] in
      for i = 0 to 1 do
        let m = E2e.drive st ~seed ~stream:(2 + (2 * i)) ~seconds:window ~record:true in
        plain := (float_of_int m.Load.done_ /. window) :: !plain;
        let m' =
          E2e.drive ~recorders:recs st ~seed ~stream:(3 + (2 * i)) ~seconds:window ~record:true
        in
        traced := (float_of_int m'.Load.done_ /. window) :: !traced;
        measured := m :: m' :: !measured
      done;
      let s1 = Mc.stats conn in
      let reqs = float_of_int (Load.merge !measured).Load.attempted in
      let m = Load.merge (pre :: warm :: !measured) in
      let delta name = Mc.stat s1 name -. Mc.stat s0 name in
      let spans = Spans.all (Array.to_list recs) in
      let total name = float_of_int (fst (Spans.totals name spans)) in
      let traced_reqs = float_of_int (snd (Spans.totals "client.batch" spans)) in
      let client_ns = (total "client.encode" +. total "client.parse") /. traced_reqs in
      let socket_ns = (total "client.write" +. total "client.read") /. traced_reqs in
      metric c "client.self_ns" client_ns "ns";
      metric c "serving.self_us" ((socket_ns -. rung_ns) /. 1e3) "us";
      metric c "serving.read_syscalls_per_req" (delta "server_read_syscalls_total" /. reqs) "count";
      metric c "serving.write_syscalls_per_req" (delta "server_write_syscalls_total" /. reqs) "count";
      metric c "serving.wakeups_per_req" (delta "server_worker_wakeups_total" /. reqs) "count";
      metric c "serving.batch_requests_p50" (Mc.stat s1 "server_batch_requests_p50") "count";
      c.checked <- c.checked + m.Load.attempted;
      c.failed <- c.failed + m.Load.failed;
      (Array.to_list recs, Util.ratio (Util.median_l !traced) (Util.median_l !plain)))

(* The traced run's phases scale with [seconds], capped at 10 s so that
   a traced run stays near 20 s at any --seconds. *)
let run ~argv ~dir ~out ~workload ~seed ~seconds : E2e.outcome =
  let seconds = Float.min seconds 10. in
  let c = { rec_ = Spans.recorder 0; checked = 0; failed = 0; metrics = []; notes = [] } in
  rcu_read_section c;
  let rl_recs, rl_overhead = resize_lookup c ~seed ~seconds in
  let read_rung = read_path c ~seed in
  let we_rung = write_path c ~dir ~seed in
  guard_shed c ~argv ~dir ~seed;
  let shape, rung_ns =
    if workload = "write-evict" then (Shape.write_evict, we_rung.bare)
    else (Shape.read_zipf, read_rung.bare)
  in
  let sock_recs, sock_overhead = serving c ~argv ~dir ~shape ~seed ~seconds ~rung_ns in
  metric c "trace.overhead_ratio"
    (if workload = "resize-lookup" then rl_overhead else sock_overhead)
    "ratio";
  let path = Filename.concat out (Printf.sprintf "spans-%s-s%d.jsonl" workload seed) in
  Spans.write_jsonl path ((c.rec_ :: rl_recs) @ sock_recs);
  {
    E2e.metrics = List.rev c.metrics;
    attempted = max 1 c.checked;
    failed = c.failed;
    notes = List.rev (("spans", path) :: c.notes);
  }
