(* The benchmark program: one workload per invocation.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --server PATH [--serve-self] [--fault SITE:DELAY_US:EVERY]
     perfbench.exe serve [server options]   (see serve.ml)

   Prints "# key value" lines for the log, then as its last line one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer ones, and the spans go to <out>/spans-*.jsonl. *)

let workloads = [ "read-zipf"; "write-evict"; "resize-lookup" ]

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let print_outcome (o : E2e.outcome) =
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v) o.notes;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) o.metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (finite && o.failed = 0) o.attempted o.failed (json_metrics o.metrics)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then
    Serve.main (List.tl (List.tl (Array.to_list Sys.argv)))
  else begin
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
    let server = ref "" and serve_self = ref false and fault = ref "" in
    let out = ref ".perfbench_out" in
    let spec =
      [
        ("--workload", Arg.Set_string workload, String.concat "|" workloads);
        ("--seed", Arg.Set_int seed, "N");
        ("--seconds", Arg.Set_float seconds, "S");
        ("--trace", Arg.Set_int trace, "0|1");
        ("--server", Arg.Set_string server, "PATH memcached_server binary");
        ("--serve-self", Arg.Set serve_self, " serve through 'perfbench.exe serve'");
        ("--fault", Arg.Set_string fault, "SITE:DELAY_US:EVERY failpoint to arm");
        ("--out", Arg.Set_string out, "DIR work files, logs and spans");
      ]
    in
    Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe";
    if not (List.mem !workload workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    let fault_spec = !fault in
    let fault =
      if fault_spec = "" then None
      else
        match Serve.fault_of_string fault_spec with
        | Ok f -> Some f
        | Error e ->
            prerr_endline e;
            exit 2
    in
    let argv =
      if !serve_self then
        [ Sys.executable_name; "serve" ]
        @ match fault with Some _ -> [ "--fault"; fault_spec ] | None -> []
      else [ !server ]
    in
    let needs_server = !workload <> "resize-lookup" || !trace <> 0 in
    if needs_server && (not !serve_self) && not (Sys.file_exists !server) then begin
      prerr_endline ("server binary not found: " ^ !server);
      exit 2
    end;
    let dir = Filename.concat !out (Printf.sprintf "w%d" (Unix.getpid ())) in
    Util.mkdir_p dir;
    Fun.protect
      ~finally:(fun () -> Util.rm_rf dir)
      (fun () ->
        let o =
          match (!workload, !trace) with
          | "resize-lookup", 0 ->
              Option.iter Serve.arm fault;
              E2e.run_resize_lookup ~seed:!seed ~seconds:!seconds
          | w, 0 ->
              E2e.run_memcached ~argv ~dir ~shape:(Option.get (Shape.of_name w))
                ~seed:!seed ~seconds:!seconds
          | w, _ ->
              Ladder.run ~argv ~dir ~out:!out ~workload:w ~seed:!seed ~seconds:!seconds
        in
        print_outcome o)
  end
