(* The memcached workloads' traffic shapes, and the key and value
   encoding every correctness check relies on.

   A value encodes the key it was written under and a write version:
   ["<key id>.<version>|"] followed by a slice of a seeded filler string
   chosen by (key id, version). A GET hit is correct only when its bytes
   equal the value regenerated from the version it claims, and that
   version was issued for that key. *)

type t = {
  name : string;
  keys : int;  (** key space; ranks drawn Zipf(theta) over it *)
  theta : float;
  value_size : int;
  get_share : float;
  batch : int;  (** requests pipelined per write on each connection *)
  mem_mb : int;  (** server eviction budget (-m) *)
  heat_topk : int;
  persist : bool;  (** op log on, in a fresh directory per server *)
  prefill : int;  (** keys written (hottest ranks first) before the run *)
  misses_fail : bool;  (** every key stays resident, so a miss is a fault *)
}

(* All 100,000 items (about 15 MB) fit the 64 MB budget, so nothing is
   ever evicted and a GET miss can only be a fault. *)
let read_zipf =
  {
    name = "read-zipf";
    keys = 100_000;
    theta = 0.99;
    value_size = 64;
    get_share = 0.95;
    batch = 16;
    mem_mb = 64;
    heat_topk = 64;
    persist = false;
    prefill = 100_000;
    misses_fail = true;
  }

(* 32,768 x 4 KiB is 128 MiB against a 32 MiB budget: the store evicts
   on nearly every SET. The prefill writes about one budget's worth,
   hottest keys first, so the run starts from a full cache.

   The measured runs serve it with --guard false: under the shipped
   guard defaults a full cache sits at memory pressure of about 1.0,
   above the Emergency line, and the server then refuses every SET and
   every new connection for good. The traced run measures that refusal
   as guard.full_cache_shed_share, with the guard at its defaults. *)
let write_evict =
  {
    name = "write-evict";
    keys = 32_768;
    theta = 0.99;
    value_size = 4096;
    get_share = 0.5;
    batch = 1;
    mem_mb = 32;
    heat_topk = 0;
    persist = true;
    prefill = 8_192;
    misses_fail = false;
  }

let of_name = function
  | "read-zipf" -> Some read_zipf
  | "write-evict" -> Some write_evict
  | _ -> None

(* Server flags for the shape; [guard] false adds [--guard false]. *)
let server_args t ~socket ~data_dir ~guard =
  [ "--backend"; "rp"; "--event-loop"; "--workers"; "2"; "--socket"; socket;
    "-m"; string_of_int t.mem_mb ]
  @ (if t.heat_topk > 0 then [ "--heat-topk"; string_of_int t.heat_topk ] else [])
  @ (match data_dir with
    | Some d ->
        [ "--data-dir"; d; "--fsync-policy"; "every:100"; "--snapshot-interval"; "0" ]
    | None -> [])
  @ if guard then [] else [ "--guard"; "false" ]

(* Everything seeded: the rank-to-key permutation, the filler, the
   per-client operation streams. *)
type ctx = {
  shape : t;
  key_of_rank : int array;
  names : string array;  (** key id -> key string *)
  zipf : Rp_workload.Zipf.t;
  filler : string;
  versions : int Atomic.t;  (** next write version; 0 is the prefill's *)
  issued : int Atomic.t array;  (** per key id: highest version sent *)
}

let key_name id = Printf.sprintf "key:%08d" id

let create t ~seed =
  let rng = Rp_workload.Prng.create ~seed in
  let key_of_rank = Array.init t.keys Fun.id in
  Rp_workload.Prng.shuffle rng key_of_rank;
  let filler =
    String.init ((2 * t.value_size) + 64) (fun _ ->
        Char.chr (Char.code 'a' + Rp_workload.Prng.below rng 26))
  in
  {
    shape = t;
    key_of_rank;
    names = Array.init t.keys key_name;
    zipf = Rp_workload.Zipf.create ~theta:t.theta ~n:t.keys ();
    filler;
    versions = Atomic.make 1;
    issued = Array.init t.keys (fun _ -> Atomic.make 0);
  }

let value c id version =
  let head = Printf.sprintf "%d.%d|" id version in
  let rest = c.shape.value_size - String.length head in
  let off = ((id * 131) + (version * 7)) mod (c.shape.value_size + 32) in
  head ^ String.sub c.filler off rest

(* Allocate a fresh version for a SET of key [id]; the issued watermark
   is raised before the request is sent. *)
let next_version c id =
  let v = Atomic.fetch_and_add c.versions 1 in
  let cell = c.issued.(id) in
  let rec raise_to () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then raise_to ()
  in
  raise_to ();
  v

(* Check a GET hit byte for byte. *)
let check_value c id data =
  match String.index_opt data '|' with
  | None -> false
  | Some bar -> (
      match String.split_on_char '.' (String.sub data 0 bar) with
      | [ i; v ] -> (
          match (int_of_string_opt i, int_of_string_opt v) with
          | Some i, Some v ->
              i = id && v <= Atomic.get c.issued.(id) && String.equal data (value c id v)
          | _ -> false)
      | _ -> false)

(* One operation of the mix. *)
type op = [ `Get of int  (** key id *) | `Set of int * int  (** key id, version *) ]

let draw c rng : op =
  let id = c.key_of_rank.(Rp_workload.Zipf.sample c.zipf rng) in
  if Rp_workload.Prng.float rng < c.shape.get_share then `Get id
  else `Set (id, next_version c id)

let request c : op -> Memcached.Protocol.request = function
  | `Get id -> Memcached.Protocol.Get [ c.names.(id) ]
  | `Set (id, version) ->
      Memcached.Protocol.Set
        { key = c.names.(id); flags = 0; exptime = 0; noreply = false;
          data = value c id version }
