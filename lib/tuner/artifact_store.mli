(** [gat cache gc]: bound gat's whole persistent cache tree — the
    sweep cache ([.sweep]/[.ckpt] under [Gat_util.Cache_dir.root]),
    the content-addressed artifact store ([artifacts/*.art]) and idle
    shard coordination state — to a byte budget by evicting
    least-recently-used files first.  Per-store inspection and
    clearing live with each store ({!Disk_cache},
    {!Gat_compiler.Artifacts}). *)

type gc_result = {
  files : int;  (** Candidate files examined. *)
  bytes : int;  (** Their total size before eviction. *)
  removed_files : int;
  removed_bytes : int;
}

val gc : max_bytes:int -> gc_result
(** Evict least-recently-used cache files (sweep entries, checkpoints,
    stage artifacts, orphaned temp files, and shard coordination state
    from directories with no live lease — see {!Shard.gc_candidates})
    until the total is at most [max_bytes].  Live lease files and the
    in-flight partial checkpoints they protect are never candidates.
    Recency is [max(atime, mtime)] — honest under relatime mounts —
    with the path as a stable tiebreak.  Removal errors are skipped,
    never fatal. *)
