(* Scratch directories and polling, shared by the tests that touch disk
   or wait on background threads. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* A fresh empty directory, unique per process and call. *)
let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rp-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let eventually ?(timeout = 10.) ?(label = "condition") f =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (f ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" label;
    Thread.delay 0.005
  done

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Overhead gates: [on] and [off] each run one fixed batch of work.
   Time [rounds] rounds of both, alternating which side goes first, and
   return each side's fastest round [(on, off)] in seconds. A round only
   ever gains time from outside (preemption, a GC slice, a noisy
   neighbour), so over many short rounds each minimum converges on that
   side's own cost, where a few long rounds each carry the weather of
   the moment they ran in. *)
let min_round_times ~rounds ~on ~off =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best_on = ref infinity and best_off = ref infinity in
  for r = 1 to rounds do
    if r land 1 = 0 then begin
      best_on := Float.min !best_on (time on);
      best_off := Float.min !best_off (time off)
    end
    else begin
      best_off := Float.min !best_off (time off);
      best_on := Float.min !best_on (time on)
    end
  done;
  (!best_on, !best_off)

(* A small JSON reader for the machine-written documents the tests
   check (the Perfetto trace export). Numbers read as floats; a \u
   escape passes through raw. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse s =
    let len = String.length s and pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
    in
    let peek () = if !pos < len then s.[!pos] else '\000' in
    let rec ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          ws ()
      | _ -> ()
    in
    let expect c =
      ws ();
      if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
      incr pos
    in
    let literal word v =
      let n = String.length word in
      if !pos + n <= len && String.sub s !pos n = word then begin
        pos := !pos + n;
        v
      end
      else fail "bad literal"
    in
    let str () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
            let e = peek () in
            incr pos;
            Buffer.add_string buf
              (match e with
              | '"' | '\\' | '/' -> String.make 1 e
              | 'n' -> "\n"
              | 't' -> "\t"
              | 'r' -> "\r"
              | 'b' -> "\b"
              | 'f' -> "\012"
              | 'u' -> "\\u"
              | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char buf c;
            go ()
      in
      go ()
    in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let rec value () =
      ws ();
      match peek () with
      | '{' ->
          incr pos;
          Obj
            (items '}' (fun () ->
                 let k = str () in
                 expect ':';
                 (k, value ())))
      | '[' ->
          incr pos;
          List (items ']' value)
      | '"' -> Str (str ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | c when is_num c -> (
          let start = !pos in
          while !pos < len && is_num s.[!pos] do
            incr pos
          done;
          match float_of_string_opt (String.sub s start (!pos - start)) with
          | Some f -> Num f
          | None -> fail "bad number")
      | _ -> fail "unexpected byte"
    and items : 'a. char -> (unit -> 'a) -> 'a list =
     fun close item ->
      ws ();
      if peek () = close then begin
        incr pos;
        []
      end
      else
        let rec more acc =
          let acc = item () :: acc in
          ws ();
          match peek () with
          | ',' ->
              incr pos;
              more acc
          | c when c = close ->
              incr pos;
              List.rev acc
          | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
        in
        more []
    in
    let v = value () in
    ws ();
    if !pos <> len then fail "trailing bytes";
    v

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
end
