type storage = {
  key : string;
  flags : int;
  exptime : int;
  noreply : bool;
  data : string;
}

type request =
  | Get of string list
  | Gets of string list
  | Set of storage
  | Add of storage
  | Replace of storage
  | Append of storage
  | Prepend of storage
  | Cas of storage * int
  | Delete of { key : string; noreply : bool }
  | Incr of { key : string; delta : int; noreply : bool }
  | Decr of { key : string; delta : int; noreply : bool }
  | Touch of { key : string; exptime : int; noreply : bool }
  | Stats of string option
  | Trace_dump of int option  (** [trace dump [n]]: flight-recorder export *)
  | Heat_dump of int option  (** [heat dump [n]]: workload-insight export *)
  | Cluster_promote  (** [cluster promote]: replica -> leader *)
  | Flush_all of { noreply : bool }
  | Version
  | Quit

type value = { vkey : string; vflags : int; vdata : string; vcas : int option }

type response =
  | Values of value list
  | Stored
  | Not_stored
  | Exists
  | Not_found
  | Deleted
  | Touched
  | Ok_reply
  | Version_reply of string
  | Number of int
  | Stats_reply of (string * string) list
  | Trace_json of string
      (** one line of trace-event JSON, terminated by [END] *)
  | Client_error of string
  | Server_error of string
  | Error_reply

let crlf = "\r\n"

(* memcached key rules over [s.[a .. a+len-1]], so the parser can check a
   key in place before copying it out of the line. *)
let rec key_chars_ok s i stop =
  i = stop
  || (let c = String.unsafe_get s i in
      c > ' ' && c <> '\x7f' && key_chars_ok s (i + 1) stop)

let key_span_valid s a len = len >= 1 && len <= 250 && key_chars_ok s a (a + len)

let request_key_valid key = key_span_valid key 0 (String.length key)

(* --- encoding --- *)

let encode_storage verb ({ key; flags; exptime; noreply; data } : storage) extra =
  Printf.sprintf "%s %s %d %d %d%s%s%s%s%s" verb key flags exptime
    (String.length data) extra
    (if noreply then " noreply" else "")
    crlf data crlf

let encode_request = function
  | Get keys -> "get " ^ String.concat " " keys ^ crlf
  | Gets keys -> "gets " ^ String.concat " " keys ^ crlf
  | Set s -> encode_storage "set" s ""
  | Add s -> encode_storage "add" s ""
  | Replace s -> encode_storage "replace" s ""
  | Append s -> encode_storage "append" s ""
  | Prepend s -> encode_storage "prepend" s ""
  | Cas (s, unique) -> encode_storage "cas" s (Printf.sprintf " %d" unique)
  | Delete { key; noreply } ->
      Printf.sprintf "delete %s%s%s" key (if noreply then " noreply" else "") crlf
  | Incr { key; delta; noreply } ->
      Printf.sprintf "incr %s %d%s%s" key delta (if noreply then " noreply" else "") crlf
  | Decr { key; delta; noreply } ->
      Printf.sprintf "decr %s %d%s%s" key delta (if noreply then " noreply" else "") crlf
  | Touch { key; exptime; noreply } ->
      Printf.sprintf "touch %s %d%s%s" key exptime
        (if noreply then " noreply" else "")
        crlf
  | Stats None -> "stats" ^ crlf
  | Stats (Some arg) -> "stats " ^ arg ^ crlf
  | Trace_dump None -> "trace dump" ^ crlf
  | Trace_dump (Some n) -> Printf.sprintf "trace dump %d%s" n crlf
  | Heat_dump None -> "heat dump" ^ crlf
  | Heat_dump (Some n) -> Printf.sprintf "heat dump %d%s" n crlf
  | Cluster_promote -> "cluster promote" ^ crlf
  | Flush_all { noreply } ->
      Printf.sprintf "flush_all%s%s" (if noreply then " noreply" else "") crlf
  | Version -> "version" ^ crlf
  | Quit -> "quit" ^ crlf

(* Decimal digits of [n <= 0], most significant first. Working on the
   non-positive side covers [min_int], whose magnitude has no [int]. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int n]'s bytes, written straight into [buf]. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

(* A direct recursion rather than [List.iter]: a closure over [buf]
   would be allocated on every call. *)
let rec add_values buf = function
  | [] -> Buffer.add_string buf "END\r\n"
  | { vkey; vflags; vdata; vcas } :: rest ->
      Buffer.add_string buf "VALUE ";
      Buffer.add_string buf vkey;
      Buffer.add_char buf ' ';
      add_int buf vflags;
      Buffer.add_char buf ' ';
      add_int buf (String.length vdata);
      (match vcas with
      | None -> ()
      | Some cas ->
          Buffer.add_char buf ' ';
          add_int buf cas);
      Buffer.add_string buf crlf;
      Buffer.add_string buf vdata;
      Buffer.add_string buf crlf;
      add_values buf rest

(* Renders straight into a caller-owned buffer so a pipelined batch of
   responses coalesces without one string allocation per command; the
   common replies allocate nothing at all. *)
let encode_response_into buf = function
  | Values values -> add_values buf values
  | Stored -> Buffer.add_string buf "STORED\r\n"
  | Not_stored -> Buffer.add_string buf "NOT_STORED\r\n"
  | Exists -> Buffer.add_string buf "EXISTS\r\n"
  | Not_found -> Buffer.add_string buf "NOT_FOUND\r\n"
  | Deleted -> Buffer.add_string buf "DELETED\r\n"
  | Touched -> Buffer.add_string buf "TOUCHED\r\n"
  | Ok_reply -> Buffer.add_string buf "OK\r\n"
  | Version_reply v ->
      Buffer.add_string buf "VERSION ";
      Buffer.add_string buf v;
      Buffer.add_string buf crlf
  | Number n ->
      add_int buf n;
      Buffer.add_string buf crlf
  | Stats_reply stats ->
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf "STAT ";
          Buffer.add_string buf k;
          Buffer.add_char buf ' ';
          Buffer.add_string buf v;
          Buffer.add_string buf crlf)
        stats;
      Buffer.add_string buf "END\r\n"
  | Trace_json json ->
      Buffer.add_string buf json;
      Buffer.add_string buf "\r\nEND\r\n"
  | Client_error msg ->
      Buffer.add_string buf "CLIENT_ERROR ";
      Buffer.add_string buf msg;
      Buffer.add_string buf crlf
  | Server_error msg ->
      Buffer.add_string buf "SERVER_ERROR ";
      Buffer.add_string buf msg;
      Buffer.add_string buf crlf
  | Error_reply -> Buffer.add_string buf "ERROR\r\n"

let encode_response response =
  let buf = Buffer.create 128 in
  encode_response_into buf response;
  Buffer.contents buf

(* --- shared incremental buffer --- *)

module Inbuf = struct
  type t = { mutable data : string; mutable pos : int }

  let create () = { data = ""; pos = 0 }

  let feed t s =
    if t.pos > 0 && t.pos = String.length t.data then begin
      t.data <- s;
      t.pos <- 0
    end
    else if s <> "" then begin
      (* Compact occasionally so pos never grows without bound. *)
      if t.pos > 4096 then begin
        t.data <- String.sub t.data t.pos (String.length t.data - t.pos);
        t.pos <- 0
      end;
      t.data <- t.data ^ s
    end

  let available t = String.length t.data - t.pos

  (* Top-level rather than local to [line_end]: a local function over
     [data] would allocate its closure on every call. *)
  let rec crlf_from data last i =
    if i >= last then -1
    else if String.unsafe_get data i = '\r' && String.unsafe_get data (i + 1) = '\n'
    then i
    else crlf_from data last (i + 1)

  (* Index of the CR of the first CRLF at or after [pos], or -1. *)
  let line_end t = crlf_from t.data (String.length t.data - 1) t.pos

  (* A CRLF-terminated line, without the terminator. *)
  let take_line t =
    let i = line_end t in
    if i < 0 then None
    else begin
      let line = String.sub t.data t.pos (i - t.pos) in
      t.pos <- i + 2;
      Some line
    end

  (* Drop buffered bytes up to and including the next CRLF. Returns
     [true] once a CRLF was consumed; [false] when the buffer ran dry
     first (a trailing '\r' is kept so a CRLF split across feed chunks
     is still recognised). *)
  let discard_line t =
    let i = line_end t in
    if i >= 0 then begin
      t.pos <- i + 2;
      true
    end
    else begin
      let len = String.length t.data in
      t.data <- (if len > t.pos && t.data.[len - 1] = '\r' then "\r" else "");
      t.pos <- 0;
      false
    end

  (* [n] data bytes followed by CRLF. *)
  let take_block t n =
    if available t < n + 2 then None
    else begin
      let block = String.sub t.data t.pos n in
      let terminated =
        t.data.[t.pos + n] = '\r' && t.data.[t.pos + n + 1] = '\n'
      in
      t.pos <- t.pos + n + 2;
      Some (block, terminated)
    end
end

(* --- request parser --- *)

module Parser = struct
  type pending = {
    verb : string;
    key : string;
    flags : int;
    exptime : int;
    bytes : int;
    noreply : bool;
    cas : int option;
  }

  type state = Await_line | Await_data of pending | Discard_line

  (* A command line is parsed where it lies in the input buffer: its
     space-separated non-empty tokens are recorded as [starts]/[stops]
     offsets into [line], and only the strings the request keeps (keys,
     a stats argument) are copied out. *)
  type t = {
    inbuf : Inbuf.t;
    max_line : int;
    mutable state : state;
    mutable line : string;
    mutable starts : int array;
    mutable stops : int array;
    mutable ntok : int;
  }

  let create ?(max_line = 8192) () =
    if max_line < 1 then invalid_arg "Protocol.Parser.create: max_line < 1";
    {
      inbuf = Inbuf.create ();
      max_line;
      state = Await_line;
      line = "";
      starts = Array.make 8 0;
      stops = Array.make 8 0;
      ntok = 0;
    }

  let feed t s = Inbuf.feed t.inbuf s
  let buffered_bytes t = Inbuf.available t.inbuf

  let push_token t a b =
    if t.ntok = Array.length t.starts then begin
      let grow arr = Array.append arr (Array.make (Array.length arr) 0) in
      t.starts <- grow t.starts;
      t.stops <- grow t.stops
    end;
    t.starts.(t.ntok) <- a;
    t.stops.(t.ntok) <- b;
    t.ntok <- t.ntok + 1

  let rec skip_spaces s stop i =
    if i < stop && String.unsafe_get s i = ' ' then skip_spaces s stop (i + 1) else i

  let rec token_end s stop i =
    if i < stop && String.unsafe_get s i <> ' ' then token_end s stop (i + 1) else i

  let rec tokens_from t s stop i =
    let a = skip_spaces s stop i in
    if a < stop then begin
      let b = token_end s stop a in
      push_token t a b;
      tokens_from t s stop b
    end

  (* The tokens of [s.[a .. stop-1]]: what [String.split_on_char ' ']
     then dropping empty strings would give, without building either. *)
  let tokenize t s a stop =
    t.line <- s;
    t.ntok <- 0;
    tokens_from t s stop a

  let tok_len t i = t.stops.(i) - t.starts.(i)
  let tok t i = String.sub t.line t.starts.(i) (tok_len t i)

  let rec same_bytes s a lit k =
    k = String.length lit
    || (String.unsafe_get s (a + k) = String.unsafe_get lit k && same_bytes s a lit (k + 1))

  (* Token [i] equals [lit]. *)
  let tok_is t i lit =
    tok_len t i = String.length lit && same_bytes t.line t.starts.(i) lit 0

  let key_ok t i = key_span_valid t.line t.starts.(i) (tok_len t i)

  exception Not_int

  (* Decimal digits of [s.[i .. stop-1]] as a non-negative int, or -1 at
     the first non-digit. *)
  let rec digits s stop i n =
    if i = stop then n
    else
      let c = String.unsafe_get s i in
      if c >= '0' && c <= '9' then digits s stop (i + 1) ((n * 10) + Char.code c - 48)
      else -1

  (* Token [i] as [int_of_string] reads it, raising [Not_int] where that
     gives [None]. A plain decimal of at most 18 digits (no overflow
     possible) is read in place; anything else, such as a sign-only,
     hex or overlong token, goes through [int_of_string_opt] itself. *)
  let int_tok t i =
    let s = t.line and a = t.starts.(i) and stop = t.stops.(i) in
    let neg = String.unsafe_get s a = '-' in
    let d = if neg then a + 1 else a in
    let n = if stop - d >= 1 && stop - d <= 18 then digits s stop d 0 else -1 in
    if n >= 0 then if neg then -n else n
    else match int_of_string_opt (tok t i) with Some n -> n | None -> raise_notrace Not_int

  (* What follows the first [n] tokens: nothing, or exactly "noreply". *)
  let tail t n =
    if t.ntok = n then `Plain
    else if t.ntok = n + 1 && tok_is t n "noreply" then `Noreply
    else `Other

  (* The verb as a shared literal, so it can be matched without copying
     it out of the line; "" for an unknown verb. *)
  let verbs =
    [| "get"; "set"; "gets"; "delete"; "incr"; "decr"; "touch"; "add"; "replace";
       "append"; "prepend"; "cas"; "stats"; "trace"; "heat"; "cluster";
       "flush_all"; "version"; "quit" |]

  let rec verb_from t k =
    if k = Array.length verbs then ""
    else if tok_is t 0 verbs.(k) then verbs.(k)
    else verb_from t (k + 1)

  let storage_of pending data : storage =
    {
      key = pending.key;
      flags = pending.flags;
      exptime = pending.exptime;
      noreply = pending.noreply;
      data;
    }

  let finish_storage pending data =
    let s = storage_of pending data in
    match pending.verb with
    | "set" -> Ok (Set s)
    | "add" -> Ok (Add s)
    | "replace" -> Ok (Replace s)
    | "append" -> Ok (Append s)
    | "prepend" -> Ok (Prepend s)
    | "cas" -> (
        match pending.cas with
        | Some unique -> Ok (Cas (s, unique))
        | None -> Error "cas without unique")
    | verb -> Error ("unknown storage verb " ^ verb)

  (* [verb key flags exptime bytes [unique] [noreply]]. *)
  let parse_storage_line t verb =
    let fixed = if verb = "cas" then 6 else 5 in
    if t.ntok < fixed then Error "bad command line format"
    else
      match if fixed = 6 then Some (int_tok t 5) else None with
      | exception Not_int -> Error "bad cas unique"
      | cas -> (
          match (int_tok t 2, int_tok t 3, int_tok t 4) with
          | exception Not_int -> Error "bad command line format"
          | flags, exptime, bytes when bytes >= 0 ->
              if not (key_ok t 1) then Error "bad key"
              else (
                match tail t fixed with
                | `Other -> Error "bad command line format"
                | (`Plain | `Noreply) as r ->
                    Ok { verb; key = tok t 1; flags; exptime; bytes; noreply = r = `Noreply; cas })
          | _ -> Error "bad command line format")

  let rec keys_ok t i = i = t.ntok || (key_ok t i && keys_ok t (i + 1))
  let rec keys_from t i acc = if i = 0 then acc else keys_from t (i - 1) (tok t i :: acc)

  let parse_keys t ~no_keys make =
    if t.ntok = 1 then Error no_keys
    else if keys_ok t 1 then Ok (make (keys_from t (t.ntok - 1) []))
    else Error "bad key"

  (* [verb key <int> [noreply]], the shape of incr, decr and touch. *)
  let key_int_noreply t ~bad ~bad_int ~valid make =
    if t.ntok >= 3 && key_ok t 1 then
      match tail t 3 with
      | `Other -> Error bad
      | (`Plain | `Noreply) as r -> (
          match int_tok t 2 with
          | n when valid n -> Ok (make (tok t 1) n (r = `Noreply))
          | _ | (exception Not_int) -> Error bad_int)
    else Error bad

  (* [verb "dump" [n > 0]], the shape of trace dump and heat dump. *)
  let dump_request t ~bad ~bad_count make =
    if t.ntok = 2 && tok_is t 1 "dump" then Ok (make None)
    else if t.ntok = 3 && tok_is t 1 "dump" then
      match int_tok t 2 with
      | n when n > 0 -> Ok (make (Some n))
      | _ | (exception Not_int) -> Error bad_count
    else Error bad

  let parse_line t =
    if t.ntok = 0 then None (* empty line: ignore, keep reading *)
    else
      match verb_from t 0 with
      | "get" -> Some (parse_keys t ~no_keys:"bad get: no keys" (fun keys -> Get keys))
      | "gets" -> Some (parse_keys t ~no_keys:"bad gets: no keys" (fun keys -> Gets keys))
      | ("set" | "add" | "replace" | "append" | "prepend" | "cas") as verb -> (
          match parse_storage_line t verb with
          | Ok pending ->
              t.state <- Await_data pending;
              None
          | Error e -> Some (Error e))
      | "delete" ->
          Some
            (if t.ntok >= 2 && key_ok t 1 then
               match tail t 2 with
               | `Plain -> Ok (Delete { key = tok t 1; noreply = false })
               | `Noreply -> Ok (Delete { key = tok t 1; noreply = true })
               | `Other -> Error "bad delete"
             else Error "bad delete")
      | "incr" ->
          Some
            (key_int_noreply t ~bad:"bad incr" ~bad_int:"invalid numeric delta argument"
               ~valid:(fun d -> d >= 0)
               (fun key delta noreply -> Incr { key; delta; noreply }))
      | "decr" ->
          Some
            (key_int_noreply t ~bad:"bad decr" ~bad_int:"invalid numeric delta argument"
               ~valid:(fun d -> d >= 0)
               (fun key delta noreply -> Decr { key; delta; noreply }))
      | "touch" ->
          Some
            (key_int_noreply t ~bad:"bad touch" ~bad_int:"bad touch"
               ~valid:(fun _ -> true)
               (fun key exptime noreply -> Touch { key; exptime; noreply }))
      | "stats" -> (
          match t.ntok with
          | 1 -> Some (Ok (Stats None))
          | 2 -> Some (Ok (Stats (Some (tok t 1))))
          | _ -> Some (Error "bad stats"))
      | "trace" ->
          Some
            (dump_request t ~bad:"bad trace" ~bad_count:"bad trace dump count" (fun n ->
                 Trace_dump n))
      | "heat" ->
          Some
            (dump_request t ~bad:"bad heat" ~bad_count:"bad heat dump count" (fun n ->
                 Heat_dump n))
      | "cluster" ->
          if t.ntok = 2 && tok_is t 1 "promote" then Some (Ok Cluster_promote)
          else Some (Error "bad cluster")
      | "flush_all" -> (
          match tail t 1 with
          | `Plain -> Some (Ok (Flush_all { noreply = false }))
          | `Noreply -> Some (Ok (Flush_all { noreply = true }))
          | `Other -> Some (Error "bad flush_all"))
      | "version" -> Some (Ok Version)
      | "quit" -> Some (Ok Quit)
      | _ -> Some (Error "ERROR")

  let rec next t =
    match t.state with
    | Await_line ->
        let ib = t.inbuf in
        let eol = Inbuf.line_end ib in
        if eol < 0 then
          (* No CRLF in the buffer. If the partial line has already
             outgrown the bound, report once and start discarding, so a
             client streaming an endless line cannot balloon the buffer. *)
          if Inbuf.available ib > t.max_line then begin
            t.state <- Discard_line;
            ignore (Inbuf.discard_line ib);
            Some (Error "line too long")
          end
          else None
        else begin
          let start = ib.pos in
          ib.pos <- eol + 2;
          if eol - start > t.max_line then Some (Error "line too long")
          else begin
            tokenize t ib.data start eol;
            match parse_line t with
            | Some _ as result -> result
            | None -> next t (* storage header consumed; try for the data *)
          end
        end
    | Discard_line ->
        (* Resynchronise at the next CRLF, dropping everything before it. *)
        if Inbuf.discard_line t.inbuf then begin
          t.state <- Await_line;
          next t
        end
        else None
    | Await_data pending -> (
        match Inbuf.take_block t.inbuf pending.bytes with
        | None -> None
        | Some (data, terminated) ->
            t.state <- Await_line;
            if not terminated then Some (Error "bad data chunk")
            else Some (finish_storage pending data))

  let tokens line =
    let t = create () in
    tokenize t line 0 (String.length line);
    List.init t.ntok (tok t)
end

(* --- response parser (client side) --- *)

module Response_parser = struct
  type state =
    | Start
    | In_values of value list
    | Value_data of { vkey : string; vflags : int; bytes : int; vcas : int option; acc : value list }
    | In_stats of (string * string) list
    | In_trace of string  (* the JSON line; awaiting its END *)

  type t = { inbuf : Inbuf.t; mutable state : state }

  let create () = { inbuf = Inbuf.create (); state = Start }
  let feed t s = Inbuf.feed t.inbuf s

  let parse_value_header parts =
    match parts with
    | [ vkey; vflags; bytes ] -> (
        match (int_of_string_opt vflags, int_of_string_opt bytes) with
        | Some f, Some b when b >= 0 -> Ok (vkey, f, b, None)
        | _ -> Error "bad VALUE header")
    | [ vkey; vflags; bytes; cas ] -> (
        match
          (int_of_string_opt vflags, int_of_string_opt bytes, int_of_string_opt cas)
        with
        | Some f, Some b, Some c when b >= 0 -> Ok (vkey, f, b, Some c)
        | _ -> Error "bad VALUE header")
    | _ -> Error "bad VALUE header"

  let rec next t =
    match t.state with
    | Start -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some line when String.length line > 0 && line.[0] = '{' ->
            (* trace dump: one line of JSON, then END *)
            t.state <- In_trace line;
            next t
        | Some line -> (
            let parts =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match parts with
            | [ "STORED" ] -> Some (Ok Stored)
            | [ "NOT_STORED" ] -> Some (Ok Not_stored)
            | [ "EXISTS" ] -> Some (Ok Exists)
            | [ "NOT_FOUND" ] -> Some (Ok Not_found)
            | [ "DELETED" ] -> Some (Ok Deleted)
            | [ "TOUCHED" ] -> Some (Ok Touched)
            | [ "OK" ] -> Some (Ok Ok_reply)
            | [ "END" ] -> Some (Ok (Values []))
            | [ "ERROR" ] -> Some (Ok Error_reply)
            | "VERSION" :: rest -> Some (Ok (Version_reply (String.concat " " rest)))
            | "CLIENT_ERROR" :: rest ->
                Some (Ok (Client_error (String.concat " " rest)))
            | "SERVER_ERROR" :: rest ->
                Some (Ok (Server_error (String.concat " " rest)))
            | "VALUE" :: header -> (
                match parse_value_header header with
                | Ok (vkey, vflags, bytes, vcas) ->
                    t.state <- Value_data { vkey; vflags; bytes; vcas; acc = [] };
                    next t
                | Error e -> Some (Error e))
            | "STAT" :: key :: rest ->
                t.state <- In_stats [ (key, String.concat " " rest) ];
                next t
            | [ number ] when int_of_string_opt number <> None ->
                Some (Ok (Number (int_of_string number)))
            | _ -> Some (Error ("unparseable response line: " ^ line))))
    | In_values acc -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some line -> (
            let parts =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match parts with
            | [ "END" ] ->
                t.state <- Start;
                Some (Ok (Values (List.rev acc)))
            | "VALUE" :: header -> (
                match parse_value_header header with
                | Ok (vkey, vflags, bytes, vcas) ->
                    t.state <- Value_data { vkey; vflags; bytes; vcas; acc };
                    next t
                | Error e ->
                    t.state <- Start;
                    Some (Error e))
            | _ ->
                t.state <- Start;
                Some (Error ("unexpected line in VALUE stream: " ^ line))))
    | Value_data { vkey; vflags; bytes; vcas; acc } -> (
        match Inbuf.take_block t.inbuf bytes with
        | None -> None
        | Some (data, terminated) ->
            if not terminated then begin
              t.state <- Start;
              Some (Error "bad value data chunk")
            end
            else begin
              t.state <- In_values ({ vkey; vflags; vdata = data; vcas } :: acc);
              next t
            end)
    | In_stats acc -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some line -> (
            let parts =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match parts with
            | [ "END" ] ->
                t.state <- Start;
                Some (Ok (Stats_reply (List.rev acc)))
            | "STAT" :: key :: rest ->
                t.state <- In_stats ((key, String.concat " " rest) :: acc);
                next t
            | _ ->
                t.state <- Start;
                Some (Error ("unexpected line in STAT stream: " ^ line))))
    | In_trace json -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some "END" ->
            t.state <- Start;
            Some (Ok (Trace_json json))
        | Some line ->
            t.state <- Start;
            Some (Error ("unexpected line after trace JSON: " ^ line)))
end
