(* Stats-section key sets, pinned. Every section of four representative
   stores — bare Rp, bare Lock, a fully wired leader (persist + tier +
   guard + heat + cluster) and a following replica — is queried through
   both protocol front ends. The two must return the same keys, in the
   same order, and the keys must match [sections.expected] line for line
   ("<store> <section> <key>", "-" for an empty section, "<error>" for a
   rejected one). Run with SECTIONS_DUMP=<file> to write the current lines
   there instead of checking them. *)

open Memcached
open Testutil

let sections =
  [ ""; "rp"; "persist"; "trace"; "guard"; "tier"; "cluster"; "heat";
    "reset"; "bogus" ]

let text_keys store name =
  let arg = if name = "" then None else Some name in
  match Dispatch.handle store (Protocol.Stats arg) with
  | Some (Protocol.Stats_reply kv) -> List.map fst kv
  | Some (Protocol.Client_error _) -> [ "<error>" ]
  | _ -> Alcotest.fail "stats: unexpected text reply"

let binary_keys store key =
  let req =
    { Binary_protocol.opcode = Stat; key; value = ""; extras = ""; opaque = 1;
      cas = 0 }
  in
  match Binary_server.handle store req with
  | [ { status = Binary_protocol.Invalid_arguments; _ } ] -> [ "<error>" ]
  | replies ->
      List.filter_map
        (fun (r : Binary_protocol.response) ->
          if r.r_key = "" then None else Some r.r_key)
        replies

let lines label store =
  List.concat_map
    (fun name ->
      let keys = text_keys store name in
      Alcotest.(check (list string))
        (label ^ " stats " ^ name) keys (binary_keys store name);
      let section = if name = "" then "default" else name in
      List.map
        (Printf.sprintf "%s %s %s" label section)
        (if keys = [] then [ "-" ] else keys))
    sections

(* A deterministic workload, so heat's top-k detail lines are stable. *)
let workload store =
  for i = 0 to 19 do
    let key = Printf.sprintf "k%02d" i in
    ignore (Store.set store ~key ~flags:0 ~exptime:0 ~data:"v");
    for _ = 0 to i mod 4 do
      ignore (Store.get store key)
    done
  done

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let test_key_sets () =
  with_dir @@ fun persist_dir ->
  with_dir @@ fun tier_dir ->
  let rp = Store.create ~backend:Store.Rp () in
  let lock = Store.create ~backend:Store.Lock () in
  List.iter workload [ rp; lock ];
  let wired = Store.create ~backend:Store.Rp ~heat_topk:8 ~heat_sample:1 () in
  let guard = Guard.install wired in
  let tier = Result.get_ok (Tier.attach ~dir:tier_dir ~max_mb:4 wired) in
  Guard.watch_tier guard tier;
  let persist = Persist.attach ~dir:persist_dir wired in
  let leader = Cluster.lead ~store:wired ~persist (loopback 0) in
  let replica = Store.create ~backend:Store.Rp () in
  let follower =
    Cluster.follow ~store:replica ~leader:(loopback (Cluster.repl_port leader)) ()
  in
  Fun.protect ~finally:(fun () ->
      Cluster.stop follower;
      Cluster.stop leader;
      Persist.stop persist;
      Tier.stop tier)
  @@ fun () ->
  workload wired;
  eventually ~label:"catch-up" (fun () -> Cluster.applied follower >= 20);
  eventually ~label:"leader sees its follower" (fun () ->
      let cluster = Option.get (Store.section wired "cluster") in
      List.mem ("cluster_followers", "1") cluster);
  let actual =
    lines "rp" rp @ lines "lock" lock @ lines "wired" wired
    @ lines "follower" replica
  in
  match Sys.getenv_opt "SECTIONS_DUMP" with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) actual)
  | None ->
      let expected =
        In_channel.with_open_text "sections.expected" In_channel.input_lines
      in
      Alcotest.(check (list string)) "pinned key sets" expected actual

let () =
  Alcotest.run "sections"
    [
      ( "stats",
        [ Alcotest.test_case "key sets, both protocols" `Quick test_key_sets ] );
    ]
