(* rp_trace: always-on sampling flight recorder.

   Causal span tracing across the serving, RCU, and persistence planes.
   The recording discipline mirrors Rp_obs.Stripe: every domain owns one
   stripe slot exclusively, so span records are plain unsynchronized
   stores into a per-domain preallocated ring — no atomics, no locks, no
   allocation on the emit path. Records stamp the CPU cycle counter
   (noalloc C stub, a few ns per read); decode converts ticks to
   CLOCK_MONOTONIC nanoseconds through a calibrated rate.

   Three emission tiers keep the read path honest:

   - request tier: one B/E record pair per protocol request, emitted at
     protocol altitude (syscall-dominated) regardless of sampling — this
     is the substrate the tail trigger retains when a request blows its
     latency budget;
   - detail tier: per-operation spans (table lookup, read section, oplog
     append/fsync) emitted only while the current domain is inside a
     head-sampled request. When no sampled request is in flight anywhere
     the guard is a single atomic load and branch;
   - control tier: rare, always-emitted spans (grace periods, resize and
     unzip passes, snapshots, CLOCK sweeps, rotation).

   Records are stamped with their ring sequence number at both ends; a
   concurrent exporter validates the double stamp and skips records torn
   by a wrap-around overwrite. The owning domain itself never observes a
   torn record. *)

module Stripe = Rp_obs.Stripe
module Counter = Rp_obs.Counter

external now_ns : unit -> int = "rp_trace_now_ns" [@@noalloc]
external now_ticks : unit -> int = "rp_trace_now_ticks" [@@noalloc]

(* ------------------------------------------------------------------ *)
(* Tick calibration                                                    *)

(* Records stamp the CPU cycle counter (a few ns per read) instead of
   CLOCK_MONOTONIC (~30 ns through the vDSO) — at two stamps per span
   the clock would otherwise dominate the fully-sampled emit cost. The
   pair below anchors the two clocks at module init; every later
   [refine] turns the widening window into a rate estimate, and decode
   converts ticks back to monotonic nanoseconds. *)
let cal_ticks0 = now_ticks ()
let cal_mono0 = now_ns ()

(* ns per tick; 0. until first calibrated. Only cold paths and the
   request tier touch it. *)
let ns_per_tick = Atomic.make 0.

let refine () =
  let t = now_ticks () in
  let m = now_ns () in
  let dt = t - cal_ticks0 in
  if dt <= 0 then (
    let r = Atomic.get ns_per_tick in
    if r > 0. then r else 1.)
  else begin
    let r = float_of_int (m - cal_mono0) /. float_of_int dt in
    Atomic.set ns_per_tick r;
    r
  end

let[@inline] ticks_to_ns rate t =
  cal_mono0 + int_of_float (float_of_int (t - cal_ticks0) *. rate)

(* ------------------------------------------------------------------ *)
(* Record layout                                                       *)

(* Words per record. [seq] is stamped at both ends so exporters can
   detect a record overwritten mid-read; phases match Chrome trace-event
   semantics. Request and control spans emit B/E pairs (a hang shows the
   open B); detail spans emit one complete X record at span end — half
   the ring traffic on the hottest path. *)
let rec_words = 9
let phase_b = 0
let phase_e = 1
let phase_i = 2
let phase_x = 3

let capacity = Stripe.capacity
let stride = Stripe.stride

(* ------------------------------------------------------------------ *)
(* Interned span names                                                 *)

let names_mutex = Mutex.create ()
let max_kinds = 512
let names = Array.make max_kinds ""
let names_count = Atomic.make 0

let intern name =
  Mutex.lock names_mutex;
  let n = Atomic.get names_count in
  let found = ref (-1) in
  (try
     for i = 0 to n - 1 do
       if String.equal names.(i) name then begin
         found := i;
         raise Exit
       end
     done
   with Exit -> ());
  let id =
    match !found with
    | -1 ->
        if n >= max_kinds then n - 1 (* overflow: reuse the last kind *)
        else begin
          names.(n) <- name;
          Atomic.set names_count (n + 1);
          n
        end
    | i -> i
  in
  Mutex.unlock names_mutex;
  id

let name_of id = if id >= 0 && id < Atomic.get names_count then names.(id) else "?"

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let enabled = Atomic.make true
let sample = Atomic.make 1024
let slow_ns = Atomic.make 100_000_000 (* 100 ms *)

(* The tail trigger compares tick durations, so the ns budget is
   mirrored in ticks; 0 means "recompute from the current rate" (set
   whenever the budget or the calibration moves). *)
let slow_ticks = Atomic.make 0

(* 1024 records * 9 words = 72 KiB per domain: the ring stays L2-resident,
   so fully-sampled emission streams into cache instead of fighting the
   table's pointer chase for DRAM bandwidth (measurably ~2x the span cost
   when the ring spills). Still ~10x the span count of any one request,
   which is all the tail trigger needs to retain a window. *)
let buffer_records = Atomic.make 1024
let slow_capacity = 32

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)

(* Parent stack depth. Beyond this, spans still emit but parent links
   pin to the deepest tracked ancestor. *)
let max_depth = 32

type ctx = {
  mutable trace_id : int; (* 0 = no request in flight on this slot *)
  mutable sampled : bool;
  mutable req_kind : int;
  mutable req_arg : int;
  mutable req_span : int;
  mutable req_start : int; (* ns *)
  mutable req_cursor : int; (* ring cursor at request begin *)
  mutable req_depth0 : int; (* stack depth when the request opened *)
  mutable depth : int;
  stack : int array; (* enclosing span ids; parent = stack.(depth-1) *)
  tstack : int array; (* begin ticks of open detail spans, same indexing *)
  astack : int array; (* begin args of open detail spans, same indexing *)
  mutable req_count : int; (* per-slot request counter (head sampler) *)
}

let make_ctx () =
  {
    trace_id = 0;
    sampled = false;
    req_kind = 0;
    req_arg = 0;
    req_span = 0;
    req_start = 0;
    req_cursor = 0;
    req_depth0 = 0;
    depth = 0;
    stack = Array.make max_depth 0;
    tstack = Array.make max_depth 0;
    astack = Array.make max_depth 0;
    req_count = 0;
  }

let ctxs = Array.init capacity (fun _ -> make_ctx ())

(* Count of head-sampled requests currently in flight across the whole
   process: the detail-tier fast guard. 0 almost always at 1-in-1024. *)
let sampled_active = Atomic.make 0

(* Per-slot span rings, allocated lazily on a slot's first emission so an
   idle process does not pay capacity * buffer words. [cursors] and
   [span_seqs] are stride-padded like every striped instrument. *)
let rings = Array.make capacity [||]
let rings_mutex = Mutex.create ()
let cursors = Array.make (capacity * stride) 0
let span_seqs = Array.make (capacity * stride) 0

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let reqs_total = Counter.create ()
let reqs_sampled = Counter.create ()
let spans_dropped = Counter.create () (* lost from slow-request windows *)
let slow_retained_c = Counter.create ()
let slow_evicted_c = Counter.create ()

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

(* Ring capacities are rounded up to powers of two so the emit path
   masks instead of dividing (integer division is ~20 cycles, twice the
   cost of the rest of a record). *)
let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (2 * acc)

let ensure_ring slot =
  let r = Array.unsafe_get rings slot in
  if Array.length r > 0 then r
  else begin
    Mutex.lock rings_mutex;
    let r = rings.(slot) in
    let r =
      if Array.length r > 0 then r
      else begin
        let n = pow2_at_least (max 64 (Atomic.get buffer_records)) 64 in
        let fresh = Array.make (n * rec_words) 0 in
        rings.(slot) <- fresh;
        fresh
      end
    in
    Mutex.unlock rings_mutex;
    r
  end

(* One record: plain stores only, into memory this domain owns. [dur]
   is ticks, meaningful only for [phase_x] records.

   The slot's write offset rides in the spare word next to its cursor
   (same cache line), stored un-wrapped and folded on the next emission
   — the path never divides by the record size (integer division is
   ~20 cycles, a third of the whole record cost). The fold also clamps
   an offset gone stale when [configure] swapped the ring from another
   thread mid-emission; the double seq stamp flags the one record that
   lands out of phase. *)
let[@inline] emit slot kind phase ~trace ~span ~parent ~arg ~ts ~dur =
  let ring = ensure_ring slot in
  let ci = slot * stride in
  let c = Array.unsafe_get cursors ci in
  let base = Array.unsafe_get cursors (ci + 1) in
  let base = if base + rec_words > Array.length ring then 0 else base in
  Array.unsafe_set ring base (c + 1);
  Array.unsafe_set ring (base + 1) ((kind lsl 2) lor phase);
  Array.unsafe_set ring (base + 2) ts;
  Array.unsafe_set ring (base + 3) dur;
  Array.unsafe_set ring (base + 4) trace;
  Array.unsafe_set ring (base + 5) span;
  Array.unsafe_set ring (base + 6) parent;
  Array.unsafe_set ring (base + 7) arg;
  Array.unsafe_set ring (base + 8) (c + 1);
  Array.unsafe_set cursors ci (c + 1);
  Array.unsafe_set cursors (ci + 1) (base + rec_words)

let[@inline] fresh_span slot =
  let si = slot * stride in
  let seq = Array.unsafe_get span_seqs si + 1 in
  Array.unsafe_set span_seqs si seq;
  (seq * capacity) + slot

let[@inline] push ctx span =
  if ctx.depth < max_depth then ctx.stack.(ctx.depth) <- span;
  ctx.depth <- ctx.depth + 1

let[@inline] pop ctx = if ctx.depth > 0 then ctx.depth <- ctx.depth - 1

let[@inline] current_parent ctx =
  if ctx.depth = 0 then 0
  else ctx.stack.(min ctx.depth max_depth - 1)

let span_begin_at slot kind arg =
  let ctx = Array.unsafe_get ctxs slot in
  let span = fresh_span slot in
  emit slot kind phase_b ~trace:ctx.trace_id ~span ~parent:(current_parent ctx)
    ~arg ~ts:(now_ticks ()) ~dur:0;
  push ctx span;
  span

let span_end_at slot kind arg span =
  let ctx = Array.unsafe_get ctxs slot in
  pop ctx;
  emit slot kind phase_e ~trace:ctx.trace_id ~span ~parent:0 ~arg
    ~ts:(now_ticks ()) ~dur:0

(* A span id encodes its owning slot in the low bits ([fresh_span]:
   seq * capacity + slot, capacity a power of two), so the end path
   skips the domain-local-storage read the begin already paid. *)
let[@inline] slot_of_span span = span land (capacity - 1)

(* Control tier: rare events, recorded whenever tracing is enabled. *)
let span_begin ?(arg = 0) kind =
  if not (Atomic.get enabled) then -1
  else span_begin_at (Stripe.index ()) kind arg

let span_end ?(arg = 0) kind span =
  if span >= 0 then span_end_at (slot_of_span span) kind arg span

let instant ?(arg = 0) kind =
  if Atomic.get enabled then begin
    let slot = Stripe.index () in
    let ctx = Array.unsafe_get ctxs slot in
    emit slot kind phase_i ~trace:ctx.trace_id ~span:(fresh_span slot)
      ~parent:(current_parent ctx) ~arg ~ts:(now_ticks ()) ~dur:0
  end

(* Detail tier: only inside a head-sampled request. The common case
   (nothing sampled anywhere) is one atomic load and a branch.

   Detail spans write NO begin record: begin pushes the span id, the
   begin tick, and the begin arg onto per-slot stacks, and end emits one
   complete X record — half the ring traffic of a B/E pair on the
   hottest path (the fully-sampled lookup). A hang inside a detail span
   leaves no open B in the ring, which is acceptable at this tier: the
   request B above it is always recorded and shows the stall. *)
let[@inline] sampling_now () =
  Atomic.get sampled_active > 0 && (Array.unsafe_get ctxs (Stripe.index ())).sampled

let[@inline] span_begin_sampled ?(arg = 0) kind =
  ignore kind;
  if Atomic.get sampled_active = 0 then -1
  else begin
    let slot = Stripe.index () in
    let ctx = Array.unsafe_get ctxs slot in
    if not ctx.sampled then -1
    else begin
      let span = fresh_span slot in
      let d = ctx.depth in
      if d < max_depth then begin
        Array.unsafe_set ctx.stack d span;
        Array.unsafe_set ctx.tstack d (now_ticks ());
        Array.unsafe_set ctx.astack d arg
      end;
      ctx.depth <- d + 1;
      span
    end
  end

let[@inline] span_end_sampled ?(arg = 0) kind span =
  if span >= 0 then begin
    let slot = slot_of_span span in
    let ctx = Array.unsafe_get ctxs slot in
    let ts = now_ticks () in
    let d = ctx.depth - 1 in
    if d >= 0 then ctx.depth <- d;
    let ts0, arg0 =
      if d >= 0 && d < max_depth then
        (Array.unsafe_get ctx.tstack d, Array.unsafe_get ctx.astack d)
      else (ts, 0)
    in
    let arg = if arg <> 0 then arg else arg0 in
    emit slot kind phase_x ~trace:ctx.trace_id ~span
      ~parent:(current_parent ctx) ~arg ~ts:ts0 ~dur:(ts - ts0)
  end

let instant_sampled ?(arg = 0) kind =
  if Atomic.get sampled_active > 0 then begin
    let slot = Stripe.index () in
    let ctx = Array.unsafe_get ctxs slot in
    if ctx.sampled then
      emit slot kind phase_i ~trace:ctx.trace_id ~span:(fresh_span slot)
        ~parent:(current_parent ctx) ~arg ~ts:(now_ticks ()) ~dur:0
  end

let with_span ?arg kind f =
  let s = span_begin ?arg kind in
  match f () with
  | v ->
      span_end ?arg kind s;
      v
  | exception e ->
      span_end ?arg kind s;
      raise e

(* ------------------------------------------------------------------ *)
(* Decoded events                                                      *)

type event = {
  name : string;
  phase : int; (* phase_b | phase_e | phase_i | phase_x *)
  ts_ns : int;
  dur_ns : int; (* complete-span duration; 0 unless phase_x *)
  trace : int;
  span : int;
  parent : int;
  arg : int;
  domain : int; (* stripe slot *)
  seq : int; (* per-slot ring sequence, for stable ordering *)
}

(* ------------------------------------------------------------------ *)
(* Slow-request retention (tail trigger)                               *)

type slow_entry = {
  slow_trace : int;
  slow_dur_ns : int;
  slow_arg : int;
  slow_domain : int;
  slow_events : event list;
  slow_dropped : int; (* window records lost to ring wrap-around *)
}

let slow_mutex = Mutex.create ()
let slow_log : slow_entry option array = Array.make slow_capacity None
let slow_next = ref 0

(* Decode one record if its double seq stamp is intact. [rate] converts
   the record's tick stamp to monotonic nanoseconds. *)
let decode_record ring cap slot c ~rate =
  let base = c land (cap - 1) * rec_words in
  let s0 = Array.unsafe_get ring base in
  let s1 = Array.unsafe_get ring (base + 8) in
  if s0 <> c + 1 || s1 <> c + 1 then None
  else
    let kp = ring.(base + 1) in
    Some
      {
        name = name_of (kp lsr 2);
        phase = kp land 3;
        ts_ns = ticks_to_ns rate ring.(base + 2);
        dur_ns = int_of_float (float_of_int ring.(base + 3) *. rate);
        trace = ring.(base + 4);
        span = ring.(base + 5);
        parent = ring.(base + 6);
        arg = ring.(base + 7);
        domain = slot;
        seq = c;
      }

let retain_slow slot ctx dur end_ts =
  ignore end_ts;
  let ring = rings.(slot) in
  let cap = Array.length ring / rec_words in
  if cap > 0 then begin
    let rate = refine () in
    let cur = cursors.(slot * stride) in
    let first = max ctx.req_cursor (cur - cap) in
    let dropped = first - ctx.req_cursor in
    if dropped > 0 then Counter.add spans_dropped dropped;
    let evs = ref [] in
    for c = cur - 1 downto first do
      match decode_record ring cap slot c ~rate with
      | Some e -> evs := e :: !evs
      | None -> ()
    done;
    let entry =
      {
        slow_trace = ctx.trace_id;
        slow_dur_ns = dur;
        slow_arg = ctx.req_arg;
        slow_domain = slot;
        slow_events = !evs;
        slow_dropped = dropped;
      }
    in
    Mutex.lock slow_mutex;
    let i = !slow_next mod slow_capacity in
    if slow_log.(i) <> None then Counter.incr slow_evicted_c;
    slow_log.(i) <- Some entry;
    incr slow_next;
    Counter.incr slow_retained_c;
    Mutex.unlock slow_mutex
  end

(* ------------------------------------------------------------------ *)
(* Request context                                                     *)

let request_begin ?(arg = 0) ?(trace = 0) kind =
  if Atomic.get enabled then begin
    let slot = Stripe.index () in
    let ctx = Array.unsafe_get ctxs slot in
    Counter.incr reqs_total;
    let n = ctx.req_count in
    ctx.req_count <- n + 1;
    let s = Atomic.get sample in
    let sampled = s <= 1 || n mod s = 0 in
    if sampled then begin
      Counter.incr reqs_sampled;
      Atomic.incr sampled_active
    end;
    (* A request already in flight on this slot means interleaved
       threads on one domain (say a follower's replication apply thread
       beside another domain-0 caller): close its accounting so
       [sampled_active] cannot leak. *)
    if ctx.sampled then Atomic.decr sampled_active;
    let span = fresh_span slot in
    (* The request nests under whatever span encloses it on this domain
       (the event loop's batch-dispatch span), so nesting stays intact
       across pipelined batches. *)
    let parent = current_parent ctx in
    (* [trace] carries a propagated cross-process trace id (replication
       apply on a follower): the span id stays local, but every record
       in this request groups under the originating trace. *)
    ctx.trace_id <- (if trace <> 0 then trace else span);
    ctx.sampled <- sampled;
    ctx.req_kind <- kind;
    ctx.req_arg <- arg;
    ctx.req_span <- span;
    ctx.req_depth0 <- ctx.depth;
    ctx.req_cursor <- cursors.(slot * stride);
    let ts = now_ticks () in
    ctx.req_start <- ts;
    emit slot kind phase_b ~trace:ctx.trace_id ~span ~parent ~arg ~ts ~dur:0;
    push ctx span
  end

(* The latency budget in ticks, recomputing (and recalibrating) when the
   budget or the rate moved. Cold in steady state: one atomic load. *)
let slow_budget_ticks () =
  let st = Atomic.get slow_ticks in
  if st > 0 then st
  else begin
    let rate = refine () in
    let st = max 1 (int_of_float (float_of_int (Atomic.get slow_ns) /. rate)) in
    Atomic.set slow_ticks st;
    st
  end

let request_end () =
  if Atomic.get enabled then begin
    let slot = Stripe.index () in
    let ctx = Array.unsafe_get ctxs slot in
    if ctx.trace_id <> 0 then begin
      let ts = now_ticks () in
      emit slot ctx.req_kind phase_e ~trace:ctx.trace_id ~span:ctx.req_span
        ~parent:0 ~arg:ctx.req_arg ~ts ~dur:0;
      if ctx.sampled then begin
        ctx.sampled <- false;
        Atomic.decr sampled_active
      end;
      let dur = ts - ctx.req_start in
      if dur >= slow_budget_ticks () then begin
        let dur_ns = int_of_float (float_of_int dur *. refine ()) in
        retain_slow slot ctx dur_ns ts
      end;
      ctx.trace_id <- 0;
      (* Restore the enclosing stack even if the handler leaked spans. *)
      ctx.depth <- ctx.req_depth0
    end
  end

let in_request () =
  (Array.unsafe_get ctxs (Stripe.index ())).trace_id <> 0

let current_trace_id () = (Array.unsafe_get ctxs (Stripe.index ())).trace_id

(* ------------------------------------------------------------------ *)
(* Configuration (cont.)                                               *)

let configure ?sample:s ?slow_ms ?buffer () =
  (match s with Some n -> Atomic.set sample (max 1 n) | None -> ());
  (match slow_ms with
  | Some ms ->
      Atomic.set slow_ns (int_of_float (ms *. 1e6));
      Atomic.set slow_ticks 0
  | None -> ());
  match buffer with
  | Some n ->
      let n = pow2_at_least (max 64 n) 64 in
      if n <> Atomic.get buffer_records then begin
        Atomic.set buffer_records n;
        (* Swap every allocated ring; emitting domains pick the fresh
           ring up on their next record. Configure at startup or from
           tests, not while latency matters. *)
        Mutex.lock rings_mutex;
        for slot = 0 to capacity - 1 do
          if Array.length rings.(slot) > 0 then begin
            rings.(slot) <- Array.make (n * rec_words) 0;
            cursors.(slot * stride) <- 0;
            cursors.((slot * stride) + 1) <- 0
          end
        done;
        Mutex.unlock rings_mutex
      end
  | None -> ()

let sample_every () = Atomic.get sample
let slow_budget_ms () = float_of_int (Atomic.get slow_ns) /. 1e6
let buffer_size () = Atomic.get buffer_records

(* Reset the head sampler so tests get a deterministic sampling pattern:
   with [seed] s and rate N, the requests sampled on a slot are exactly
   those with (s + i) mod N = 0 for the i-th request after the reset. *)
let reset_sampler ?(seed = 0) () =
  Array.iter (fun ctx -> ctx.req_count <- seed) ctxs

(* Tests only: drop every recorded span, slow entry, and counter. *)
let reset () =
  Mutex.lock rings_mutex;
  for slot = 0 to capacity - 1 do
    let r = rings.(slot) in
    if Array.length r > 0 then Array.fill r 0 (Array.length r) 0;
    cursors.(slot * stride) <- 0;
    cursors.((slot * stride) + 1) <- 0
  done;
  Mutex.unlock rings_mutex;
  Mutex.lock slow_mutex;
  Array.fill slow_log 0 slow_capacity None;
  slow_next := 0;
  Mutex.unlock slow_mutex;
  Counter.reset reqs_total;
  Counter.reset reqs_sampled;
  Counter.reset spans_dropped;
  Counter.reset slow_retained_c;
  Counter.reset slow_evicted_c

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

(* Snapshot the rings: newest records first per slot, then globally
   ordered by timestamp (stable within a slot by ring sequence, so B/E
   pairs born at the same nanosecond never swap). Returns the events and
   the count of records skipped because a concurrent writer overwrote
   them mid-read. *)
let snapshot ?(max_events = max_int) () =
  let torn = ref 0 in
  let all = ref [] in
  let total = ref 0 in
  (* One rate for the whole snapshot, so the tick→ns map is monotone
     across every decoded record. *)
  let rate = refine () in
  for slot = 0 to capacity - 1 do
    let ring = rings.(slot) in
    let cap = Array.length ring / rec_words in
    if cap > 0 then begin
      let cur = cursors.(slot * stride) in
      let first = max 0 (cur - cap) in
      for c = cur - 1 downto first do
        match decode_record ring cap slot c ~rate with
        | Some e ->
            all := e :: !all;
            incr total
        | None -> incr torn
      done
    end
  done;
  let events =
    List.sort
      (fun a b ->
        if a.ts_ns <> b.ts_ns then compare a.ts_ns b.ts_ns
        else if a.domain <> b.domain then compare a.domain b.domain
        else compare a.seq b.seq)
      !all
  in
  let events =
    if !total <= max_events then events
    else
      (* Keep the newest [max_events]. *)
      let drop = !total - max_events in
      let rec skip n l = if n = 0 then l else skip (n - 1) (List.tl l) in
      skip drop events
  in
  (events, !torn)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Process-start base so exported microsecond timestamps stay small.
   Decoded [ts_ns] values are anchored at [cal_mono0] by construction. *)
let ts_base = cal_mono0

let add_event_json buf e =
  let ph =
    if e.phase = phase_b then "B"
    else if e.phase = phase_e then "E"
    else if e.phase = phase_x then "X"
    else "i"
  in
  let cat =
    match String.index_opt e.name '.' with
    | Some i -> String.sub e.name 0 i
    | None -> e.name
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
       (json_escape e.name) (json_escape cat) ph
       (float_of_int (e.ts_ns - ts_base) /. 1e3)
       e.domain);
  if e.phase = phase_i then Buffer.add_string buf ",\"s\":\"t\"";
  if e.phase = phase_x then
    Buffer.add_string buf
      (Printf.sprintf ",\"dur\":%.3f" (float_of_int e.dur_ns /. 1e3));
  Buffer.add_string buf
    (Printf.sprintf
       ",\"args\":{\"trace\":%d,\"span\":%d,\"parent\":%d,\"arg\":%d,\"domain\":%d}}"
       e.trace e.span e.parent e.arg e.domain)

let export_json ?max_events () =
  let events, torn = snapshot ?max_events () in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      add_event_json buf e)
    events;
  Buffer.add_string buf
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"torn\":%d}}"
       torn);
  Buffer.contents buf

let slow_snapshot () =
  Mutex.lock slow_mutex;
  let out = ref [] in
  for i = slow_capacity - 1 downto 0 do
    let idx = (!slow_next + i) mod slow_capacity in
    match slow_log.(idx) with Some e -> out := e :: !out | None -> ()
  done;
  Mutex.unlock slow_mutex;
  (* Newest first. *)
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let spans_recorded () =
  let n = ref 0 in
  for slot = 0 to capacity - 1 do
    n := !n + cursors.(slot * stride)
  done;
  !n

let stats_kv () =
  let reqs = Counter.read reqs_total in
  let sampled = Counter.read reqs_sampled in
  let pct = if reqs = 0 then 0. else 100. *. float_of_int sampled /. float_of_int reqs in
  [
    ("trace_enabled", if Atomic.get enabled then "1" else "0");
    ("trace_sample", string_of_int (Atomic.get sample));
    ("trace_slow_ms", Printf.sprintf "%g" (slow_budget_ms ()));
    ("trace_buffer_records", string_of_int (Atomic.get buffer_records));
    ("trace_spans", string_of_int (spans_recorded ()));
    ("trace_spans_dropped", string_of_int (Counter.read spans_dropped));
    ("trace_requests", string_of_int reqs);
    ("trace_requests_sampled", string_of_int sampled);
    ("trace_sampled_pct", Printf.sprintf "%.4f" pct);
    ("trace_slow_retained", string_of_int (Counter.read slow_retained_c));
    ("trace_slow_evicted", string_of_int (Counter.read slow_evicted_c));
  ]

let register_instruments registry =
  Rp_obs.Registry.fn_counter registry "trace_spans_total"
    ~help:"Span records written to the flight-recorder rings" (fun () ->
      float_of_int (spans_recorded ()));
  Rp_obs.Registry.fn_counter registry "trace_spans_dropped_total"
    ~help:"Span records lost from slow-request windows to ring wrap-around"
    (fun () -> float_of_int (Counter.read spans_dropped));
  Rp_obs.Registry.fn_counter registry "trace_requests_total"
    ~help:"Requests seen by the flight recorder" (fun () ->
      float_of_int (Counter.read reqs_total));
  Rp_obs.Registry.fn_counter registry "trace_requests_sampled_total"
    ~help:"Requests head-sampled for detail spans" (fun () ->
      float_of_int (Counter.read reqs_sampled));
  Rp_obs.Registry.fn_counter registry "trace_slow_retained_total"
    ~help:"Requests force-retained by the tail trigger" (fun () ->
      float_of_int (Counter.read slow_retained_c))
