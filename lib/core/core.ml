(** Public facade: one module that re-exports the whole library.

    [Core.Table] is the paper's contribution — the resizable relativistic
    hash table. Everything else is the substrate it rests on (RCU, the
    relativistic list), the baselines it is evaluated against, and the
    evaluation machinery (workloads, harness, cost model, mini-memcached). *)

module Rcu = Rcu
module Rcu_qsbr = Rcu_qsbr
module Flavour = Flavour
module Table = Rp_ht
module Torture = Rp_torture.Torture
module Unzip = Unzip
module List_rp = Rp_list
module Hash = Rp_hashes.Hashfn
module Size = Rp_hashes.Size

module Sync = struct
  module Rwlock = Rp_sync.Rwlock
  module Seqlock = Rp_sync.Seqlock
  module Spinlock = Rp_sync.Spinlock
  module Backoff = Rp_sync.Backoff
  module Barrier = Rp_sync.Barrier_sync
end

module Baseline = struct
  module type TABLE = Rp_baseline.Table_intf.TABLE

  module Lock_ht = Rp_baseline.Lock_ht
  module Rwlock_ht = Rp_baseline.Rwlock_ht
  module Ddds_ht = Rp_baseline.Ddds_ht
  module Xu_ht = Rp_baseline.Xu_ht
  module Rp_table = Rp_baseline.Rp_table
end

module Workload = struct
  module Prng = Rp_workload.Prng
  module Zipf = Rp_workload.Zipf
  module Keygen = Rp_workload.Keygen
  module Opmix = Rp_workload.Opmix
end

module Harness = struct
  module Runner = Rp_harness.Runner
  module Stats = Rp_harness.Stats
  module Series = Rp_harness.Series
  module Report = Rp_harness.Report
end

module Sim = struct
  module Machine = Simcore.Machine
  module Costmodel = Simcore.Costmodel
  module Predict = Simcore.Predict
end

module Memcached = struct
  module Item = Memcached.Item
  module Lru = Memcached.Lru
  module Store = Memcached.Store
  module Protocol = Memcached.Protocol
  module Binary_protocol = Memcached.Binary_protocol
  module Binary_server = Memcached.Binary_server
  module Binary_client = Memcached.Binary_client
  module Server = Memcached.Server
  module Client = Memcached.Client
  module Mc_benchmark = Memcached.Mc_benchmark
end
