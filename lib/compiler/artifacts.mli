(** The persistent content-addressed artifact store.

    One MD5-sealed file per [bt] (simulator block table) or [verdict]
    (safety report) result under [<cache root>/artifacts/], keyed by a
    structural hash of exactly the stage's inputs: the weight-free
    {!Gat_isa.Fingerprint} digest of the virtual program, the
    stage-relevant scalar parameters (and for [bt] the
    {!Gat_arch.Gpu.identity} of the device), and a per-stage format
    version.  Variants that differ only in the block count (BC) or the
    problem size N key identically and share every stored result,
    across runs and across processes.  The schedule, register
    allocation and coalescing stages are memoized in memory only
    ({!Codegen_cache}).

    Hard invariant: a store-served result is bit-identical to a
    recomputed one.  Floats travel as [%h] hex literals, an exact
    round-trip; corruption, truncation or a format-version mismatch
    reads as a miss, never as wrong data.  I/O failure degrades the
    store (warn once, latch, compute uncached) exactly like the sweep
    cache.

    Chaos hooks: the [artifact-read] / [artifact-write] fault sites.
    Observability: [artifact.{hits,misses,stores,degraded_writes,
    bytes_read,bytes_written}] counters plus per-stage
    [artifact.{bt,verdict}.{hits,misses}]. *)

val dir : unit -> string
(** The artifact directory, [<cache root>/artifacts] — shares
    {!Gat_util.Cache_dir.root} with the sweep cache. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** [false] makes every find a silent [None] and every store a no-op
    ([gat --no-cache]). *)

val degraded : unit -> bool
(** The store hit an I/O failure and has latched itself off for
    writes. *)

val reset_degraded : unit -> unit

type stats = { hits : int; misses : int; stores : int; degraded_writes : int }

val stats : unit -> stats
(** Aggregate process-lifetime counters (all stages combined). *)

val reset_stats : unit -> unit

(** {1 Stage keys}

    Keys are stable hex strings; compute once, then [find_*] and (on a
    miss) [store_*] with the same key.  All keys are weight-free: the
    launch geometry never moves them. *)

val bt_key :
  gpu:Gat_arch.Gpu.t ->
  params:Params.t ->
  regs_per_thread:int ->
  Gat_isa.Program.t ->
  string
(** Per {e virtual} program, device, and the occupancy-relevant
    scalars (TC, L1 preference, staging, allocated registers) — the
    backend pipeline downstream of the virtual program is
    deterministic, so the virtual digest subsumes the physical one. *)

val verdict_key : threads_per_block:int -> Gat_isa.Program.t -> string
(** Per {e virtual} program and TC; the verifier never reads the
    device, the block count or the problem size. *)

(** {1 Stage entries} *)

val find_bt : key:string -> Block_table.t option
(** The full simulator table, label index rebuilt.  An entry whose
    category count disagrees with the current throughput model reads
    as a miss. *)

val store_bt : key:string -> Block_table.t -> unit

val find_verdict : key:string -> Gat_analysis.Verify.report option
(** The full safety report, findings included. *)

val store_verdict : key:string -> Gat_analysis.Verify.report -> unit

(** {1 Maintenance} — for the [gat cache] subcommands. *)

val entries : unit -> string list
(** Absolute paths of every [.art] entry, sorted by name. *)

val disk_usage : unit -> int * int
(** [(files, bytes)] over {!entries}. *)

val clear : unit -> int
(** Delete every entry; returns the number removed. *)
