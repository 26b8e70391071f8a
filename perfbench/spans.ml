(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   program's public functions: name, start, end, parent span and request
   id, plus how many operations the span covers (a span around a loop of
   n calls has [count = n]). Each domain records into its own recorder;
   the recorders are written out when the run ends, one JSON array per
   span after a header line naming the fields. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request (or batch) id; -1 when the span has none *)
  count : int;
  start_ns : int;
  mutable end_ns : int;
}

type recorder = { tag : int; mutable items : span array; mutable len : int }

let dummy =
  { id = -1; name = ""; parent = -1; req = -1; count = 0; start_ns = 0; end_ns = 0 }

let recorder tag = { tag; items = Array.make 256 dummy; len = 0 }

(* Span ids carry their recorder's tag in the high bits, so ids from
   different domains never collide. *)
let tag_shift = 40

let enter r ?(parent = -1) ?(req = -1) ?(count = 1) name =
  if r.len = Array.length r.items then begin
    let a = Array.make (2 * r.len) dummy in
    Array.blit r.items 0 a 0 r.len;
    r.items <- a
  end;
  let id = (r.tag lsl tag_shift) lor r.len in
  r.items.(r.len) <-
    { id; name; parent; req; count; start_ns = Util.now_ns (); end_ns = 0 };
  r.len <- r.len + 1;
  id

let dur s = s.end_ns - s.start_ns

(* Close span [id]; returns its duration in nanoseconds. *)
let exit r id =
  let s = r.items.(id land ((1 lsl tag_shift) - 1)) in
  s.end_ns <- Util.now_ns ();
  dur s

let with_span r ?parent ?req ?count name f =
  let id = enter r ?parent ?req ?count name in
  let v = f id in
  ignore (exit r id);
  v

let all rs =
  List.concat_map (fun r -> Array.to_list (Array.sub r.items 0 r.len)) rs

let named name spans = List.filter (fun s -> s.name = name) spans

(* Total duration and total operation count of every span with [name]. *)
let totals name spans =
  List.fold_left
    (fun (d, c) s -> if s.name = name then (d + dur s, c + s.count) else (d, c))
    (0, 0) spans

(* Nanoseconds per covered operation over every span with [name]. *)
let per_op_ns name spans =
  let d, c = totals name spans in
  if c = 0 then nan else float_of_int d /. float_of_int c

let write_jsonl path rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "{\"fields\":[\"id\",\"name\",\"parent\",\"req\",\"count\",\"start_ns\",\"end_ns\"]}\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "[%d,%S,%d,%d,%d,%d,%d]\n" s.id s.name s.parent s.req
            s.count s.start_ns s.end_ns)
        (all rs))
