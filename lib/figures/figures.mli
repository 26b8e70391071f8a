(** One entry point per paper figure.

    Each figure runs in two modes and prints both:

    - {b measured}: real execution on this host — domains, real tables, real
      contention. On a single-core container the thread axis cannot show
      parallel speedup, so measured curves are reported for the available
      thread counts and used to {e calibrate} the model;
    - {b projected}: the {!Simcore} cost model seeded with the measured
      single-thread rate, projecting the paper's 1–16-thread (or 1–12
      process) axis on a 16-way cache-coherent machine.

    EXPERIMENTS.md records both next to the paper's curves. *)

type options = {
  duration : float;  (** seconds per measured point *)
  repeats : int;  (** measured points take the best of this many runs *)
  real_threads : int list;  (** thread counts to actually execute *)
  model_threads : int list;  (** thread counts for the model projection *)
  mc_real_procs : int list;  (** mc-benchmark worker counts to execute *)
  mc_model_procs : int list;  (** worker counts for the projection *)
  entries : int;  (** table occupancy for the microbenchmarks *)
  small_buckets : int;  (** the "8k" size *)
  large_buckets : int;  (** the "16k" size *)
  csv_dir : string option;  (** write per-figure CSVs here if set *)
}

val default_options : options

type figure_result = {
  measured : Rp_harness.Series.t list;
  projected : Rp_harness.Series.t list;
}

val fig1 : options -> figure_result
(** Fixed-size baseline: RP vs DDDS vs rwlock, pure lookups. *)

val fig2 : options -> figure_result
(** Continuous resizing (8k <-> 16k flip loop): RP vs DDDS. *)

val fig3 : options -> figure_result
(** RP: fixed 8k vs fixed 16k vs continuous resize. *)

val fig4 : options -> figure_result
(** DDDS: fixed 8k vs fixed 16k vs continuous resize. *)

val fig5 : options -> figure_result
(** memcached: RP GET / default GET / default SET / RP SET vs workers. *)

val run_all : options -> unit
(** Run and print every figure. *)

(** {1 Building blocks (exposed for tests and the CLI)} *)

val measure_lookup_throughput :
  table:Rp_baseline.Table_intf.table ->
  threads:int ->
  duration:float ->
  entries:int ->
  buckets:int ->
  resize_between:(int * int) option ->
  float
(** Ops/s of [threads] reader domains doing lookups of resident keys, with an
    optional extra domain flipping the table between two sizes. *)

val print_figure :
  title:string -> x_label:string -> options -> string -> figure_result -> unit
(** Render one figure (tables + ASCII chart + optional CSV named by the
    given slug). *)
