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
