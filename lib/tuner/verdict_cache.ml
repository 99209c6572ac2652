(* Per-variant safety-verdict memoization on the shared structural key.

   The verifier reads only the instruction structure of the lowered
   (virtual-register) program and the thread count — never the
   per-block weights (the only BC-dependent part of the code), the
   device, or the problem size.  The key is therefore the weight-free
   structural digest of the virtual program plus TC: one verification
   per code class per TC, shared across every BC and N point of a
   sweep, with the digest subsuming the structural-equality walk this
   cache used to carry.

   Two tiers: the in-memory table for same-process sharing, then the
   persistent artifact store for sharing across runs and processes.
   Both keys are timed as [verify.key] (trace span and metrics
   timer). *)

open Gat_isa

type stats = { classes : int; hits : int; misses : int }

let table : (string * int, Gat_analysis.Verify.report) Hashtbl.t =
  Hashtbl.create 64

let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0
let m_hits = Gat_util.Metrics.counter "cache.verdict.hits"
let m_misses = Gat_util.Metrics.counter "cache.verdict.misses"
let t_key = Gat_util.Metrics.timer "verify.key"

let keyed f =
  Gat_util.Trace.span "verify.key" @@ fun () -> Gat_util.Metrics.time t_key f

let stats () =
  Gat_util.Pool.with_lock lock (fun () ->
      { classes = Hashtbl.length table; hits = !hit_count; misses = !miss_count })

let clear () =
  Gat_util.Pool.with_lock lock (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0)

let get (c : Gat_compiler.Driver.compiled) =
  let vp = c.Gat_compiler.Driver.ptx in
  let tc =
    c.Gat_compiler.Driver.params.Gat_compiler.Params.threads_per_block
  in
  let key = keyed (fun () -> (Fingerprint.program vp, tc)) in
  let cached =
    Gat_util.Pool.with_lock lock (fun () -> Hashtbl.find_opt table key)
  in
  match cached with
  | Some report ->
      Gat_util.Pool.with_lock lock (fun () -> incr hit_count);
      Gat_util.Metrics.incr m_hits;
      report
  | None ->
      let report =
        let akey =
          keyed (fun () ->
              Gat_compiler.Artifacts.verdict_key ~threads_per_block:tc vp)
        in
        match Gat_compiler.Artifacts.find_verdict ~key:akey with
        | Some report -> report
        | None ->
            let report = Gat_analysis.Verify.run ~threads_per_block:tc vp in
            Gat_compiler.Artifacts.store_verdict ~key:akey report;
            report
      in
      Gat_util.Metrics.incr m_misses;
      Gat_util.Pool.with_lock lock (fun () ->
          incr miss_count;
          Hashtbl.replace table key report);
      report
