(* Backend memoization across the launch-geometry axes of a sweep.

   Schedule, register allocation and the static coalescing analysis
   depend only on the instruction streams, which TC and BC never
   shape; lowering bakes the launch geometry exclusively into the
   per-block execution weights.  The cache key is therefore the
   weight-free structural digest of the virtual program
   ([Fingerprint.program]) plus the device identity: every variant in
   the TC×BC plane of a sweep keys identically and compiles the
   backend exactly once per process.

   In memory only.  A cold atax/K20 sweep runs the backend for 5 code
   classes, about 5 ms in total — less than persisting and reading the
   results back would cost.

   The digest subsumes the old structural-equality walk: two programs
   with equal digests have equal labels, bodies and terminators, so
   re-attaching the current variant's weights is a positional zip. *)

open Gat_isa

type outcome = {
  program : Program.t;
  alloc_stats : Regalloc.stats;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
}

type entry = {
  out_blocks : Basic_block.t list;
  out_stats : Regalloc.stats;
  out_summary : (string * Gat_analysis.Coalescing.access list) list;
}

type stats = { classes : int; hits : int; misses : int }

let table : (string * string, entry) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0
let m_hits = Gat_util.Metrics.counter "cache.codegen.hits"
let m_misses = Gat_util.Metrics.counter "cache.codegen.misses"
let t_key = Gat_util.Metrics.timer "compile.key"

let stats () =
  Gat_util.Pool.with_lock lock (fun () ->
      { classes = Hashtbl.length table; hits = !hit_count; misses = !miss_count })

let clear () =
  Gat_util.Pool.with_lock lock (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0)

(* Re-attach the current variant's weights to the cached output blocks.
   Equal digests guarantee equal labels and layout order, and the
   backend passes preserve both, so a positional zip is exact. *)
let reweight vp_blocks out_blocks =
  List.map2
    (fun (v : Basic_block.t) (o : Basic_block.t) ->
      Basic_block.make ~weight:v.Basic_block.weight
        ~active_frac:v.Basic_block.active_frac o.Basic_block.label
        o.Basic_block.body o.Basic_block.term)
    vp_blocks out_blocks

let compute gpu vp =
  let scheduled =
    Gat_util.Trace.span "compile.schedule" (fun () -> Schedule.program vp)
  in
  let program, alloc_stats =
    Gat_util.Trace.span "compile.regalloc" (fun () -> Regalloc.run gpu scheduled)
  in
  let mem_summary =
    Gat_util.Trace.span "compile.coalescing" (fun () ->
        Gat_analysis.Coalescing.block_transactions gpu (Gat_cfg.Cfg.of_program vp))
  in
  { program; alloc_stats; mem_summary }

let run ~(gpu : Gat_arch.Gpu.t) ~(params : Params.t) (vp : Program.t) =
  ignore params;
  (* The digest covers everything the backend reads — the params that
     shape code (unroll, staging, fast_math) already shaped [vp], so
     they need no separate key component. *)
  let key =
    Gat_util.Trace.span "compile.key" @@ fun () ->
    Gat_util.Metrics.time t_key @@ fun () ->
    (Gat_arch.Gpu.identity gpu, Fingerprint.program vp)
  in
  let cached =
    Gat_util.Pool.with_lock lock (fun () -> Hashtbl.find_opt table key)
  in
  match cached with
  | Some e ->
      Gat_util.Pool.with_lock lock (fun () -> incr hit_count);
      Gat_util.Metrics.incr m_hits;
      let blocks = reweight vp.Program.blocks e.out_blocks in
      let program =
        Program.make ~name:vp.Program.name ~target:vp.Program.target
          ~regs_per_thread:e.out_stats.Regalloc.regs_used
          ~smem_static:vp.Program.smem_static
          ~smem_dynamic:vp.Program.smem_dynamic blocks
      in
      { program; alloc_stats = e.out_stats; mem_summary = e.out_summary }
  | None ->
      let r = compute gpu vp in
      Gat_util.Metrics.incr m_misses;
      Gat_util.Pool.with_lock lock (fun () ->
          incr miss_count;
          Hashtbl.replace table key
            {
              out_blocks = r.program.Program.blocks;
              out_stats = r.alloc_stats;
              out_summary = r.mem_summary;
            });
      r
