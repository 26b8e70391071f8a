(** A stored cache item.

    Immutable payload ([data], [flags]) plus one mutable bit of CLOCK
    bookkeeping: [referenced], which the RP GET fast path may set from
    inside a read-side critical section (atomic so lock-free readers and
    the eviction sweep can share it). *)

type location =
  | Hot  (** value in [data] *)
  | Cold of { segment : int; offset : int; len : int }
      (** value demoted to the disk tier; [data] is empty and these plain
          ints name the segment frame holding it (see {!Rp_tier.location}
          — kept as bare ints so this module has no tier dependency).
          Flags, expiry and CAS stay in RAM either way. *)

type t = {
  flags : int;
  exptime : float;  (** absolute expiry in Unix seconds; 0. = never *)
  data : string;
  cas : int;  (** unique version for compare-and-swap (gets/cas) *)
  created : float;
  referenced : bool Atomic.t;
      (** CLOCK referenced bit: false at creation, set by accesses, cleared
          by the eviction sweep when it grants a second chance *)
  location : location;
}

val make :
  ?cas:int ->
  ?location:location ->
  flags:int -> exptime:float -> data:string -> now:float -> unit -> t
(** [now] stamps [created]; [location] defaults to {!Hot}. The referenced
    bit starts clear. *)

val note_restored_cas : int -> unit
(** Tell the CAS allocator a recovered item carries [cas], so versions
    minted after a warm restart stay unique (monotonic past any replayed
    value). Thread-safe. *)

val is_expired : t -> now:float -> bool

val is_cold : t -> bool
(** True when the value lives in the disk tier ([location <> Hot]). *)

val mark_referenced : t -> unit
(** Set the referenced bit. Reads it first, so an item whose bit is
    already set is not written: a hot item costs one shared write per
    sweep lap. Safe from concurrent lock-free readers. *)

val is_referenced : t -> bool

val clear_referenced : t -> unit
(** Clear the referenced bit (the sweep's second chance). *)

val size_bytes : key:string -> t -> int
(** Approximate memory footprint used for the eviction budget: key + data +
    a fixed per-item overhead (matching memcached's accounting style). *)

val overhead_bytes : int
