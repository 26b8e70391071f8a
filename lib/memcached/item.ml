(* Where an item's value lives. [Hot] values are in [data]; a [Cold]
   item was demoted to the disk tier — [data] is empty and the location
   names the segment frame holding the real value (plain ints so this
   module stays free of tier dependencies). Flags, expiry and CAS stay
   in RAM either way: expiry checks and CAS arbitration never touch
   disk. *)
type location = Hot | Cold of { segment : int; offset : int; len : int }

type t = {
  flags : int;
  exptime : float;
  data : string;
  cas : int;
  created : float;
  referenced : bool Atomic.t;
  location : location;
}

let next_cas = Atomic.make 1
let overhead_bytes = 48

let make ?cas ?(location = Hot) ~flags ~exptime ~data ~now () =
  let cas = match cas with Some c -> c | None -> Atomic.fetch_and_add next_cas 1 in
  { flags; exptime; data; cas; created = now; referenced = Atomic.make false; location }

(* Replayed items keep their original CAS; push the allocator past them so
   post-recovery items never collide with a restored version. *)
let rec note_restored_cas cas =
  let cur = Atomic.get next_cas in
  if cas >= cur && not (Atomic.compare_and_set next_cas cur (cas + 1)) then
    note_restored_cas cas

let is_expired t ~now = t.exptime > 0.0 && t.exptime <= now
let is_cold t = t.location <> Hot
(* Read before write: a hot item's bit is already set, so the GET that
   finds it set leaves the shared cache line clean — one write per sweep
   lap, not one per hit. *)
let mark_referenced t =
  if not (Atomic.get t.referenced) then Atomic.set t.referenced true

let is_referenced t = Atomic.get t.referenced
let clear_referenced t = Atomic.set t.referenced false
let size_bytes ~key t = String.length key + String.length t.data + overhead_bytes
