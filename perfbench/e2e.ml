(* End-to-end runs: what a user of the system sees, measured with
   tracing off. *)

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  notes : (string * string) list;  (** sample counts and the like, for the log *)
}

(* The p50 and p99, in microseconds, of each sub-run's latency samples
   (nanoseconds), then the median sub-run of each. *)
let latency bufs =
  let per = List.map (fun b -> Util.int_quantiles (Util.Ibuf.to_array b) [ 0.5; 0.99 ]) bufs in
  let med i = Util.median_l (List.map (fun qs -> List.nth qs i /. 1e3) per) in
  (med 0, med 1)

(* A started server with its two load connections, prefilled. *)
type stand = { server : Mc.server; conns : Mc.conn array; ctx : Shape.ctx }

let clients = 2

let teardown st =
  Array.iter Mc.close st.conns;
  Mc.stop st.server

(* Run [f c conn] on one domain per connection and collect the results. *)
let per_conn st f =
  let ds = Array.mapi (fun c conn -> Domain.spawn (fun () -> f c conn)) st.conns in
  Array.to_list (Array.map Domain.join ds)

(* Spawn the server, connect, write the prefill from both connections
   in parallel. [tally] collects the prefill's checks. *)
let stand_up ~argv ~dir ~(shape : Shape.t) ~seed ~guard ~tag tally =
  let ctx = Shape.create shape ~seed in
  let server = Mc.spawn ~argv ~dir ~shape ~guard ~tag in
  match Array.init clients (fun _ -> Mc.connect server) with
  | exception e ->
      Mc.stop server;
      raise e
  | conns ->
      let st = { server; conns; ctx } in
      let depth = if shape.value_size > 1024 then 8 else 32 in
      let ranks c =
        Array.of_list
          (List.filter (fun r -> r mod clients = c) (List.init shape.prefill Fun.id))
      in
      let m =
        Load.merge
          (per_conn st (fun c conn ->
               let t = Load.tally () in
               Load.prefill ~ctx ~conn ~ranks:(ranks c) ~depth t;
               t))
      in
      tally.Load.attempted <- tally.Load.attempted + m.attempted;
      tally.Load.failed <- tally.Load.failed + m.failed;
      st

(* Run the mix on both connections for [seconds], timing the requests
   when [record]; [recorders] (one per connection) turn on the
   client-side spans. *)
let drive ?recorders st ~seed ~stream ~seconds ~record =
  let until = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let base = Rp_workload.Prng.create ~seed in
  Load.merge
    (per_conn st (fun c conn ->
         let rng = Rp_workload.Prng.split base ((stream * clients) + c) in
         let t = Load.tally () in
         let rec_ = Option.map (fun rs -> rs.(c)) recorders in
         Load.run ?rec_ ~ctx:st.ctx ~conn ~record
           ~more:(fun () -> Util.now_ns () < until)
           ~next_batch:(Load.mix_batches st.ctx rng) t;
         t))

let with_stand ~argv ~dir ~shape ~seed ~guard ~tag tally f =
  let st = stand_up ~argv ~dir ~shape ~seed ~guard ~tag tally in
  Fun.protect ~finally:(fun () -> teardown st) (fun () -> f st)

(* A run is [stands] sub-runs, each on a freshly started and prefilled
   server measured for a [stands]th of the time. Every figure is the
   median sub-run, so a slow stretch of the host moves one sub-run
   rather than the whole figure. Set-up is timed per stand. *)
let stands = 5

let median_rate subs ~seconds count =
  Util.median_l (List.map (fun s -> float_of_int (count s) /. seconds) subs)

let run_memcached ~argv ~dir ~(shape : Shape.t) ~seed ~seconds =
  let prefill = Load.tally () in
  let sub_s = seconds /. float_of_int stands in
  let subs =
    List.init stands (fun i ->
        let t0 = Util.now_ns () in
        with_stand ~argv ~dir ~shape ~seed ~guard:false ~tag:"e2e" prefill (fun st ->
            let setup = Util.seconds_since t0 in
            let warm = drive st ~seed ~stream:(2 * i) ~seconds:0.5 ~record:false in
            let m = drive st ~seed ~stream:((2 * i) + 1) ~seconds:sub_s ~record:true in
            (setup, warm, m, Util.peak_rss_mb st.server.Mc.pid)))
  in
  let m = Load.merge (List.map (fun (_, _, m, _) -> m) subs) in
  let warm = Load.merge (List.map (fun (_, w, _, _) -> w) subs) in
  let attempted = prefill.attempted + warm.attempted + m.attempted in
  let failed = prefill.failed + warm.failed + m.failed in
  let rate count = median_rate subs ~seconds:sub_s (fun (_, _, m, _) -> count m) in
  let get50, get99 = latency (List.map (fun (_, _, m, _) -> m.Load.get_lat) subs) in
  let set50, set99 = latency (List.map (fun (_, _, m, _) -> m.Load.set_lat) subs) in
  {
    metrics =
      [
        ("setup_s", Util.median_l (List.map (fun (s, _, _, _) -> s) subs), "s");
        ("ops_s", rate (fun m -> m.Load.done_), "1/s");
        ("read_p50_us", get50, "us");
        ("read_p99_us", get99, "us");
        ("write_p50_us", set50, "us");
        ("write_p99_us", set99, "us");
        ("writes_s", rate (fun m -> m.Load.sets_done), "1/s");
        ("hit_ratio", Util.ratio (float_of_int m.hits) (float_of_int m.gets), "ratio");
        ("peak_rss_mb", Util.median_l (List.map (fun (_, _, _, r) -> r) subs), "MB");
      ];
    attempted;
    failed;
    notes =
      [
        ( "ops_per_sub_run",
          String.concat " " (List.map (fun (_, _, m, _) -> string_of_int m.Load.done_) subs) );
        ("get_samples", string_of_int m.gets);
        ("set_samples", string_of_int m.sets);
        ("failed_share", string_of_float (Util.ratio (float_of_int failed) (float_of_int attempted)));
      ];
  }

(* --- resize-lookup: the paper's Fig. 2 setting, in process --- *)

let rl_entries = 4096
let rl_small = 8192
let rl_large = 16384
let rl_expected k = (k * 7919) + 1

(* A plain table (default memb RCU) holding [rl_entries] ints, sized to
   the small end of the flip. *)
let build_table () =
  let t = Rp_ht.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  for k = 0 to rl_entries - 1 do
    Rp_ht.insert t k (rl_expected k)
  done;
  Rp_ht.resize t rl_small;
  t

type rl_tally = {
  mutable finds : int;
  mutable resizes : int;
  find_lat : Util.Ibuf.t;  (** one find in 64, timed alone *)
  resize_lat : Util.Ibuf.t;
  mutable bad : int;
}

let rl_tally () =
  {
    finds = 0;
    resizes = 0;
    find_lat = Util.Ibuf.create ();
    resize_lat = Util.Ibuf.create ();
    bad = 0;
  }

(* One reader domain of uniform finds (every result checked) and one
   domain flipping the size between [rl_small] and [rl_large], for
   [seconds]; latencies are sampled when [record]. [on_batch] wraps each
   batch of 256 finds (the traced run puts a span there); [on_resize]
   wraps each resize. *)
let flip ?(on_batch = fun f -> f ()) ?(on_resize = fun _ f -> f ()) t ~seed
    ~seconds ~record tl =
  let until = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let rng = Rp_workload.Prng.create ~seed in
  let keys = Array.init 65536 (fun _ -> Rp_workload.Prng.below rng rl_entries) in
  let reader =
    Domain.spawn (fun () ->
        let i = ref 0 in
        let bad = ref 0 in
        let check k = function
          | Some v when v = rl_expected k -> ()
          | _ -> incr bad
        in
        while Util.now_ns () < until do
          on_batch (fun () ->
              for j = 0 to 255 do
                let k = keys.(!i land 65535) in
                incr i;
                if j land 63 = 0 then begin
                  let a = Util.now_ns () in
                  let r = Rp_ht.find t k in
                  let b = Util.now_ns () in
                  if record then Util.Ibuf.add tl.find_lat (b - a);
                  check k r
                end
                else check k (Rp_ht.find t k)
              done)
        done;
        (!i, !bad))
  in
  let resizer =
    Domain.spawn (fun () ->
        let n = ref 0 in
        let target = ref rl_large in
        while Util.now_ns () < until do
          let a = Util.now_ns () in
          on_resize !target (fun () -> Rp_ht.resize t !target);
          if record then Util.Ibuf.add tl.resize_lat (Util.now_ns () - a);
          incr n;
          target := if !target = rl_large then rl_small else rl_large
        done;
        !n)
  in
  let finds, bad = Domain.join reader in
  let resizes = Domain.join resizer in
  tl.bad <- tl.bad + bad;
  tl.finds <- tl.finds + finds;
  tl.resizes <- tl.resizes + resizes

(* As for the memcached workloads, [stands] sub-runs, each on a fresh
   table with fresh domains; set-up (the table build) is timed
   [builds] times per stand. *)
let run_resize_lookup ~seed ~seconds =
  let builds = 7 in
  let sub_s = seconds /. float_of_int stands in
  let subs =
    List.init stands (fun i ->
        let times =
          List.init builds (fun _ ->
              let t0 = Util.now_ns () in
              let t = build_table () in
              (Util.seconds_since t0, t))
        in
        let t = snd (List.hd times) in
        let warm = rl_tally () in
        flip t ~seed:(seed + (2 * i)) ~seconds:0.2 ~record:false warm;
        let tl = rl_tally () in
        flip t ~seed:(seed + (2 * i) + 1) ~seconds:sub_s ~record:true tl;
        let valid = Rp_ht.validate t in
        (List.map fst times, warm, tl, valid))
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 subs in
  let finds = sum (fun (_, w, tl, _) -> w.finds + tl.finds) in
  let attempted = finds + sum (fun (_, w, tl, _) -> w.resizes + tl.resizes + 1) in
  let failed =
    sum (fun (_, w, tl, v) -> w.bad + tl.bad + if Result.is_ok v then 0 else 1)
  in
  let rate count = median_rate subs ~seconds:sub_s (fun (_, _, tl, _) -> count tl) in
  let find_lat = List.map (fun (_, _, tl, _) -> tl.find_lat) subs in
  let find50, find99 = latency find_lat in
  let resize50, resize99 = latency (List.map (fun (_, _, tl, _) -> tl.resize_lat) subs) in
  let bad = sum (fun (_, w, tl, _) -> w.bad + tl.bad) in
  {
    metrics =
      [
        ("setup_s", Util.median_l (List.concat_map (fun (b, _, _, _) -> b) subs), "s");
        ("ops_s", rate (fun tl -> tl.finds + tl.resizes), "1/s");
        ("read_p50_us", find50, "us");
        ("read_p99_us", find99, "us");
        ("write_p50_us", resize50, "us");
        ("write_p99_us", resize99, "us");
        ("writes_s", rate (fun tl -> tl.resizes), "1/s");
        ("hit_ratio", Util.ratio (float_of_int (finds - bad)) (float_of_int finds), "ratio");
        ("peak_rss_mb", Util.peak_rss_mb 0, "MB");
      ];
    attempted;
    failed;
    notes =
      [
        ("find_samples", string_of_int (List.fold_left (fun a b -> a + Util.Ibuf.length b) 0 find_lat));
        ("resize_samples", string_of_int (sum (fun (_, _, tl, _) -> tl.resizes)));
        ( "validate",
          String.concat " "
            (List.map (fun (_, _, _, v) -> match v with Ok () -> "ok" | Error e -> e) subs) );
        ("failed_share", string_of_float (Util.ratio (float_of_int failed) (float_of_int attempted)));
      ];
  }
