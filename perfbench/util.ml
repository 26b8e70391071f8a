(* Clocks, growable sample buffers and order statistics. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* The CPU cycle counter, and its rate against the monotonic clock. *)
external ticks : unit -> int = "perfbench_ticks" [@@noalloc]

let ns_per_tick =
  lazy
    (let t0 = now_ns () and k0 = ticks () in
     Unix.sleepf 0.02;
     float_of_int (now_ns () - t0) /. float_of_int (max 1 (ticks () - k0)))

(* A growable int array (latency samples in nanoseconds). *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let add b v =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    Array.unsafe_set b.data b.len v;
    b.len <- b.len + 1

  let length b = b.len
  let to_array b = Array.sub b.data 0 b.len

  let concat bs =
    let a = Array.concat (List.map to_array bs) in
    { data = (if Array.length a = 0 then Array.make 1024 0 else a); len = Array.length a }
end

(* Rearrange [a] so that [a.(k)] holds the value a sort would put
   there (quickselect: linear time, where a full sort of millions of
   latency samples would dominate a run's bookkeeping). *)
let select (a : int array) k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

(* Nearest-rank quantiles [qs] of integer samples; [nan] when there are
   none. *)
let int_quantiles (a : int array) qs =
  let n = Array.length a in
  let s = Array.copy a in
  List.map
    (fun q ->
      if n = 0 then nan
      else
        let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
        float_of_int (select s (max 0 (min (n - 1) i))))
    qs

let int_quantile a q = List.hd (int_quantiles a [ q ])

(* Median with linear interpolation between the middle pair. *)
let median (a : float array) =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

let median_l l = median (Array.of_list l)

let ratio num den = if den = 0. then 0. else num /. den

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

(* Peak resident set size (VmHWM) of a process, in megabytes. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let text = try read_file path with Sys_error _ -> "" in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  match line with
  | None -> nan
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path
