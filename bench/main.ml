(* Benchmark harness.

   Two jobs:

   1. Regenerate every table and figure of the paper's evaluation
      section and print them (the reproduction harness).  The expensive
      exhaustive sweeps (4 kernels x 4 devices x 5 input sizes x 5,120
      variants) run once and are shared by all dependent experiments.

   2. Run one Bechamel microbenchmark per experiment, timing the core
      computation that experiment exercises (the occupancy calculation
      behind Table VII, one variant compile+simulate behind Fig. 4 /
      Table V, the Eq. 6 predictor behind Fig. 5, ...), plus ablation
      benches for the design choices called out in DESIGN.md.

   Run with:  dune exec bench/main.exe
   Skip the heavy sweeps with:  GAT_BENCH_FAST=1 dune exec bench/main.exe *)

open Bechamel
open Toolkit

let fast_mode =
  match Sys.getenv_opt "GAT_BENCH_FAST" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* ---- shared fixtures for the microbenches ---- *)

let gpu = Gat_arch.Gpu.k20
let atax = Gat_workloads.Workloads.atax
let matvec = Gat_workloads.Workloads.matvec2d

let compiled_atax = Gat_compiler.Driver.compile_exn atax gpu Gat_compiler.Params.default

let microbenches =
  [
    (* Table I / Table II: rendering the machine descriptions. *)
    Test.make ~name:"table1:render" (Staged.stage (fun () -> Gat_report.Table1.render ()));
    Test.make ~name:"table2:render" (Staged.stage (fun () -> Gat_report.Table2.render ()));
    (* Table III / Fig. 3: spec parsing. *)
    Test.make ~name:"fig3:parse-spec"
      (Staged.stage (fun () ->
           Gat_ir.Tuning_spec.parse_exn
             (Gat_ir.Tuning_spec.to_string Gat_ir.Tuning_spec.table_iii)));
    (* Fig. 1: one divergence simulation. *)
    Test.make ~name:"fig1:simulate-divergent"
      (Staged.stage (fun () -> Gat_sim.Engine.run compiled_atax ~n:64));
    (* Fig. 4 / Table V: the unit of the exhaustive sweep. *)
    Test.make ~name:"fig4:compile-variant"
      (Staged.stage (fun () ->
           Gat_compiler.Driver.compile_exn matvec gpu
             (Gat_compiler.Params.make ~unroll:3 ~fast_math:true ())));
    Test.make ~name:"fig4:measure-variant"
      (let rng = Gat_util.Rng.create 1 in
       Staged.stage (fun () ->
           Gat_tuner.Measure.time_of compiled_atax ~n:128 ~rng));
    (* Fig. 5: the Eq. 6 predictor. *)
    Test.make ~name:"fig5:eq6-predict"
      (let mix =
         Gat_core.Imix.estimate_dynamic compiled_atax.Gat_compiler.Driver.program ~n:128
       in
       Staged.stage (fun () -> Gat_core.Predict.cost gpu mix));
    (* Table VI: dynamic-mix extraction. *)
    Test.make ~name:"table6:dynamic-mix"
      (Staged.stage (fun () ->
           (Gat_sim.Engine.run compiled_atax ~n:128).Gat_sim.Engine.dynamic_mix));
    (* Table VII: the occupancy-based suggestion. *)
    Test.make ~name:"table7:suggest"
      (Staged.stage (fun () ->
           Gat_core.Suggest.suggest gpu ~regs_per_thread:20 ~smem_per_block:0));
    Test.make ~name:"table7:occupancy-eq1-5"
      (Staged.stage (fun () ->
           Gat_core.Occupancy.calculate gpu
             (Gat_core.Occupancy.input ~regs_per_thread:32 ~smem_per_block:4096
                ~threads_per_block:256 ())));
    (* Fig. 6: the static pruning step. *)
    Test.make ~name:"fig6:static-prune"
      (Staged.stage (fun () ->
           Gat_tuner.Static_search.prune atax gpu Gat_tuner.Space.paper));
    (* Fig. 7: the occupancy curves. *)
    Test.make ~name:"fig7:occupancy-curves"
      (Staged.stage (fun () ->
           Gat_core.Occupancy_curves.vs_threads gpu ~regs_per_thread:20
             ~smem_per_block:0));
    (* Ablations (DESIGN.md section 7): class-level vs per-category CPI
       weights in Eq. 6, and the load-hoisting scheduler. *)
    Test.make ~name:"ablation:eq6-per-category"
      (let mix =
         Gat_core.Imix.estimate_dynamic compiled_atax.Gat_compiler.Driver.program ~n:128
       in
       Staged.stage (fun () -> Gat_core.Predict.cost_per_category gpu mix));
    Test.make ~name:"ablation:schedule-pass"
      (Staged.stage (fun () ->
           Gat_compiler.Schedule.program compiled_atax.Gat_compiler.Driver.program));
  ]

let run_microbenches () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw =
    List.fold_left
      (fun acc test ->
        List.fold_left
          (fun acc elt ->
            Hashtbl.replace acc (Test.Elt.name elt) (Benchmark.run cfg instances elt);
            acc)
          acc (Test.elements test))
      (Hashtbl.create 32) microbenches
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Gat_util.Table.create ~title:"Microbenchmarks (per-run time)"
      [ "benchmark"; "time" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let human =
        if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Gat_util.Table.add_row table [ name; human ])
    (List.sort compare !rows);
  print_string (Gat_util.Table.render table)

(* ---- experiment regeneration ---- *)

let heavy_ids = [ "fig4"; "table5"; "fig5"; "fig6"; "ablation" ]

type exp_timing = {
  exp_id : string;
  cold_s : float;  (** First render: sweeps computed (or read from disk). *)
  cold_hits : int;
  cold_misses : int;
  mutable warm_s : float;  (** Re-render after dropping in-memory caches. *)
  mutable warm_hits : int;
  mutable warm_misses : int;
}

(* One pass over the experiments.  [record] is None on the cold pass
   (create the timing rows, print each report body) and [Some rows] on
   the warm pass (fill in the warm fields; the bodies were already
   printed and are identical — the disk cache round-trips variants
   bit-exactly). *)
let run_experiments ?record () =
  let warm = Option.is_some record in
  List.filter_map
    (fun (e : Gat_report.Experiments.t) ->
      let id = e.Gat_report.Experiments.id in
      if fast_mode && List.mem id heavy_ids then begin
        if not warm then
          Printf.printf "==== %s: %s ==== (skipped: GAT_BENCH_FAST)\n\n" id
            e.Gat_report.Experiments.title;
        None
      end
      else begin
        let s0 = Gat_tuner.Disk_cache.stats () in
        let t0 = Unix.gettimeofday () in
        let body = e.Gat_report.Experiments.render () in
        let dt = Unix.gettimeofday () -. t0 in
        let s1 = Gat_tuner.Disk_cache.stats () in
        let hits = s1.Gat_tuner.Disk_cache.hits - s0.Gat_tuner.Disk_cache.hits in
        let misses =
          s1.Gat_tuner.Disk_cache.misses - s0.Gat_tuner.Disk_cache.misses
        in
        match record with
        | None ->
            Printf.printf "==== %s: %s ====\n%s[%.1f s]\n\n" id
              e.Gat_report.Experiments.title body dt;
            Some
              {
                exp_id = id;
                cold_s = dt;
                cold_hits = hits;
                cold_misses = misses;
                warm_s = nan;
                warm_hits = 0;
                warm_misses = 0;
              }
        | Some rows ->
            (match List.find_opt (fun r -> r.exp_id = id) rows with
            | Some r ->
                r.warm_s <- dt;
                r.warm_hits <- hits;
                r.warm_misses <- misses
            | None -> ());
            Printf.printf "warm %s: %.2f s (%d cache hits, %d misses)\n" id dt
              hits misses;
            None
      end)
    Gat_report.Experiments.all

(* ---- sweep-engine calibration and BENCH_sweep.json ---- *)

(* Calibrate the parallel, compile-sharing sweep engine on one heavy
   unit of the evaluation: a full paper-space sweep of one kernel on
   one device at all five input sizes (5,120 variants x 5 sizes).
   Three timings:

   - legacy: the seed behavior — sequential, one compile+simulate per
     variant *per size* (no compile sharing);
   - seq:    the new engine with jobs=1 (compile sharing only);
   - par:    the new engine with GAT_JOBS workers.  *)

type calibration = {
  cal_kernel : string;
  cal_gpu : string;
  cal_sizes : int;
  cal_variants : int;
  legacy_s : float;
  seq_s : float;
  par_s : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let calibrate_sweep () =
  if fast_mode then None
  else begin
    let kernel = atax in
    let ns = Gat_workloads.Workloads.input_sizes kernel in
    let seed = Gat_report.Context.seed in
    let space = Gat_tuner.Space.paper in
    (* The engine comparison must not be distorted by one timing run
       hitting sweeps or compile artifacts another one persisted. *)
    Gat_tuner.Disk_cache.set_enabled false;
    Gat_compiler.Artifacts.set_enabled false;
    Gat_tuner.Tuner.clear_cache ();
    let legacy_s =
      timed (fun () ->
          List.iter
            (fun n ->
              List.iter
                (fun params ->
                  let rng =
                    Gat_util.Rng.create
                      (Gat_tuner.Tuner.point_seed kernel gpu ~seed params)
                  in
                  ignore (Gat_tuner.Measure.evaluate kernel gpu ~n ~rng params))
                (Gat_tuner.Space.points space))
            ns)
    in
    Gat_tuner.Tuner.clear_cache ();
    let seq_s =
      timed (fun () ->
          ignore (Gat_tuner.Tuner.sweep_multi ~space ~jobs:1 kernel gpu ~ns ~seed))
    in
    Gat_tuner.Tuner.clear_cache ();
    let par_s =
      timed (fun () ->
          ignore
            (Gat_tuner.Tuner.sweep_multi ~space ~jobs:(Gat_util.Pool.jobs ())
               kernel gpu ~ns ~seed))
    in
    (* Leave the caches cold so the per-experiment timings below are
       honest end-to-end numbers. *)
    Gat_tuner.Tuner.clear_cache ();
    Gat_tuner.Disk_cache.set_enabled true;
    Gat_compiler.Artifacts.set_enabled true;
    Some
      {
        cal_kernel = kernel.Gat_ir.Kernel.name;
        cal_gpu = gpu.Gat_arch.Gpu.name;
        cal_sizes = List.length ns;
        cal_variants = Gat_tuner.Space.cardinality space;
        legacy_s;
        seq_s;
        par_s;
      }
  end

(* ---- persistent-cache calibration ---- *)

(* Time the same multi-size sweep cold (nothing on disk) and warm (a
   fresh process finding the previous run's entries — emulated here by
   dropping every in-memory cache while keeping the disk).  Runs in
   both modes: fast mode shrinks the space so the CI smoke job can
   assert the warm pass is all hits in seconds. *)

type cache_calibration = {
  cc_kernel : string;
  cc_gpu : string;
  cc_sizes : int;
  cc_variants : int;
  cold_s : float;
  warm_s : float;
  warm_all_hits : bool;
  cc_hits : int;
  cc_misses : int;
  cc_stores : int;
}

let calibrate_sweep_cache () =
  let kernel = atax in
  let seed = Gat_report.Context.seed in
  let ns, space =
    if fast_mode then
      ( [ 64; 128 ],
        {
          Gat_tuner.Space.tc = [ 64; 128 ];
          bc = [ 32; 64 ];
          uif = [ 1; 2 ];
          pl = [ 16 ];
          sc = [ 1 ];
          cflags = [ false; true ];
        } )
    else (Gat_workloads.Workloads.input_sizes kernel, Gat_tuner.Space.paper)
  in
  Gat_tuner.Disk_cache.set_enabled true;
  ignore (Gat_tuner.Disk_cache.clear ());
  (* "Cold" means nothing on disk at all — stage artifacts from earlier
     calibrations would otherwise subsidize the cold pass. *)
  ignore (Gat_compiler.Artifacts.clear ());
  Gat_tuner.Disk_cache.reset_stats ();
  Gat_tuner.Tuner.clear_cache ();
  let cold_s =
    timed (fun () ->
        ignore (Gat_tuner.Tuner.sweep_multi ~space ~jobs:1 kernel gpu ~ns ~seed))
  in
  (* A "new process": in-memory sweep and compile caches gone, disk
     entries still there. *)
  Gat_tuner.Tuner.clear_cache ();
  let before = Gat_tuner.Disk_cache.stats () in
  let warm_s =
    timed (fun () ->
        ignore (Gat_tuner.Tuner.sweep_multi ~space ~jobs:1 kernel gpu ~ns ~seed))
  in
  let after = Gat_tuner.Disk_cache.stats () in
  let warm_hits = after.Gat_tuner.Disk_cache.hits - before.Gat_tuner.Disk_cache.hits in
  let warm_misses =
    after.Gat_tuner.Disk_cache.misses - before.Gat_tuner.Disk_cache.misses
  in
  {
    cc_kernel = kernel.Gat_ir.Kernel.name;
    cc_gpu = gpu.Gat_arch.Gpu.name;
    cc_sizes = List.length ns;
    cc_variants = Gat_tuner.Space.cardinality space;
    cold_s;
    warm_s;
    warm_all_hits = warm_misses = 0 && warm_hits = List.length ns;
    cc_hits = after.Gat_tuner.Disk_cache.hits;
    cc_misses = after.Gat_tuner.Disk_cache.misses;
    cc_stores = after.Gat_tuner.Disk_cache.stores;
  }

(* ---- observability-overhead calibration ---- *)

(* The tracing substrate promises <= 2% overhead on the bench sweep.
   Time the same single-size sweep untraced and traced (spans buffered,
   file written afterwards) under identical cache conditions.  jobs=1
   keeps the comparison low-variance; an absolute slack term absorbs
   scheduler noise on the fast-mode space, where the whole sweep runs
   in tens of milliseconds and a pure percentage bound would be a coin
   flip.

   Estimating the overhead is delicate: running all untraced rounds
   before all traced ones (the original scheme) let slow drift between
   the two blocks masquerade as overhead (the report once claimed -4%),
   and even strictly interleaved pairs keep a systematic bias — the
   second run of a pair inherits warming the first one paid (page
   cache, allocator arenas, branch predictors) that survives clearing
   the in-memory caches, so whichever mode always runs second measures
   faster.  So: interleaved *order-alternating* pairs.  Each round
   times one untraced-then-traced pair and one traced-then-untraced
   pair; the round's overhead estimate averages the two differences,
   cancelling the order bias exactly, and the reported overhead is the
   median estimate over three rounds — robust to the odd outlier
   without the minimum's bias toward whichever mode got lucky. *)

type obs_calibration = {
  oc_kernel : string;
  oc_variants : int;
  untraced_s : float;
  traced_s : float;
  trace_events : int;
  overhead_pct : float;
  overhead_ok : bool;
}

let calibrate_observability () =
  let kernel = atax in
  let seed = Gat_report.Context.seed in
  let ns, space =
    if fast_mode then
      ( [ 64 ],
        {
          Gat_tuner.Space.tc = [ 64; 128; 256 ];
          bc = [ 32; 64 ];
          uif = [ 1; 2 ];
          pl = [ 16; 48 ];
          sc = [ 1 ];
          cflags = [ false; true ];
        } )
    else ([ Gat_workloads.Workloads.default_size kernel ], Gat_tuner.Space.paper)
  in
  (* Disk caches off: the first rounds would pay artifact/sweep stores
     the later ones skip, and which mode pays would depend on round
     order, not tracing. *)
  Gat_tuner.Disk_cache.set_enabled false;
  Gat_compiler.Artifacts.set_enabled false;
  (* Three rounds suffice on the paper space (~2 s per sweep); the
     fast-mode space finishes in ~15 ms, so take more samples there to
     keep the median meaningful. *)
  let rounds = if fast_mode then 7 else 3 in
  let run () =
    ignore (Gat_tuner.Tuner.sweep_multi ~space ~jobs:1 kernel gpu ~ns ~seed)
  in
  let run_untraced () =
    Gat_tuner.Tuner.clear_cache ();
    timed run
  in
  let run_traced () =
    Gat_tuner.Tuner.clear_cache ();
    Gat_util.Trace.enable ();
    let t = timed run in
    Gat_util.Trace.disable ();
    t
  in
  (* One untimed warm-up: the first sweep of the calibration pays
     first-touch costs (code paths, allocator arenas) that would
     otherwise always land on the untraced side of round one. *)
  Gat_tuner.Tuner.clear_cache ();
  run ();
  let untraced = Array.make (2 * rounds) 0.0 in
  let diffs = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    (* Forward pair, then reversed pair: the second run of a pair is
       systematically a touch faster than the first, so averaging the
       difference over both orders cancels that bias exactly. *)
    let u1 = run_untraced () in
    let t1 = run_traced () in
    let t2 = run_traced () in
    let u2 = run_untraced () in
    untraced.(2 * r) <- u1;
    untraced.((2 * r) + 1) <- u2;
    diffs.(r) <- ((t1 -. u1) +. (t2 -. u2)) /. 2.0
  done;
  let median a =
    let b = Array.copy a in
    Array.sort Float.compare b;
    b.(Array.length b / 2)
  in
  let untraced_s = median untraced in
  (* traced_s is reported as untraced + the median per-round overhead
     estimate for consistency with the percentage. *)
  let delta_s = median diffs in
  let traced_s = untraced_s +. delta_s in
  let trace_events = Gat_util.Trace.collected () / (2 * rounds) in
  Gat_util.Trace.clear ();
  Gat_tuner.Tuner.clear_cache ();
  Gat_tuner.Disk_cache.set_enabled true;
  Gat_compiler.Artifacts.set_enabled true;
  let overhead_pct =
    if untraced_s > 0.0 then 100.0 *. (delta_s /. untraced_s) else 0.0
  in
  {
    oc_kernel = kernel.Gat_ir.Kernel.name;
    oc_variants = Gat_tuner.Space.cardinality space;
    untraced_s;
    traced_s;
    trace_events;
    overhead_pct;
    overhead_ok = traced_s <= (untraced_s *. 1.02) +. 0.25;
  }

(* ---- scheduler calibration: work stealing vs fixed chunks ---- *)

(* A deliberately skewed sweep workload: every element is a distinct
   variant (distinct TC/BC, so the codegen cache shares nothing), all
   unroll-1 except one fixed-chunk's worth of unroll-8 heavies parked
   at the tail.  Under the fixed-chunk scheduler that last chunk lands
   on one worker while the others drain and idle; work stealing splits
   it under steal pressure.  Jobs is pinned to 4 so the skew interacts
   with chunking identically on every host — the host's core count and
   resolved default jobs are recorded alongside so the numbers stay
   interpretable. *)

type sched_calibration = {
  sc_elements : int;
  sc_heavy : int;
  sc_jobs : int;
  fixed_s : float;
  ws_s : float;
  sc_steals : int;  (** Steals per work-stealing run (averaged). *)
  sc_splits : int;
  fixed_busy_ratio : float;  (** busy / (busy + idle) worker time. *)
  ws_busy_ratio : float;
  ws_ok : bool;
}

let pool_busy_idle () =
  let get name =
    match
      List.find_opt
        (fun (n, _, _) -> n = name)
        (Gat_util.Metrics.timers_snapshot ())
    with
    | Some (_, _, s) -> s
    | None -> 0.0
  in
  (get "pool.worker.busy", get "pool.worker.idle")

let calibrate_scheduler () =
  let kernel = atax in
  let n = if fast_mode then 64 else 128 in
  let jobs = 4 in
  let elements = 256 in
  (* The fixed scheduler's grain for this shape — the heavy tail is
     exactly one such chunk, the pathological case. *)
  let chunk = max 1 (elements / (8 * jobs)) in
  let variants =
    Array.init elements (fun i ->
        let heavy = i >= elements - chunk in
        Gat_compiler.Params.make
          ~threads_per_block:(32 + (i mod 32))
          ~block_count:(32 + (i / 32))
          ~unroll:(if heavy then 8 else 1)
          ())
  in
  let eval params =
    let rng =
      Gat_util.Rng.create
        (Hashtbl.hash (Gat_compiler.Params.to_string params))
    in
    match Gat_tuner.Measure.evaluate kernel gpu ~n ~rng params with
    | Ok v -> v.Gat_tuner.Variant.time_ms
    | Error e -> failwith e
  in
  (* Both strategies compile identical variants: keep the persistent
     stores out so the strategy that runs first doesn't pay the
     artifact stores the second one then hits. *)
  Gat_tuner.Disk_cache.set_enabled false;
  Gat_compiler.Artifacts.set_enabled false;
  let rounds = 3 in
  let run_strategy strategy =
    let best = ref infinity in
    let s0 = Gat_util.Pool.scheduler_stats () in
    let busy0, idle0 = pool_busy_idle () in
    for _ = 1 to rounds do
      Gat_tuner.Tuner.clear_cache ();
      best :=
        Float.min !best
          (timed (fun () ->
               ignore (Gat_util.Pool.map ~strategy ~jobs eval variants)))
    done;
    let s1 = Gat_util.Pool.scheduler_stats () in
    let busy1, idle1 = pool_busy_idle () in
    let busy = busy1 -. busy0 and idle = idle1 -. idle0 in
    ( !best,
      (if busy +. idle > 0.0 then busy /. (busy +. idle) else 1.0),
      (s1.Gat_util.Pool.steals - s0.Gat_util.Pool.steals) / rounds,
      (s1.Gat_util.Pool.splits - s0.Gat_util.Pool.splits) / rounds )
  in
  let fixed_s, fixed_busy_ratio, _, _ =
    run_strategy Gat_util.Pool.Fixed_chunk
  in
  let ws_s, ws_busy_ratio, sc_steals, sc_splits =
    run_strategy Gat_util.Pool.Work_stealing
  in
  Gat_tuner.Tuner.clear_cache ();
  Gat_tuner.Disk_cache.set_enabled true;
  Gat_compiler.Artifacts.set_enabled true;
  {
    sc_elements = elements;
    sc_heavy = chunk;
    sc_jobs = jobs;
    fixed_s;
    ws_s;
    sc_steals;
    sc_splits;
    fixed_busy_ratio;
    ws_busy_ratio;
    (* Gate with a small absolute slack: fast-mode runs are short and
       a pure inequality would be a coin flip under machine noise. *)
    ws_ok = ws_s <= fixed_s +. 0.05;
  }

(* ---- verifier calibration: safety-analysis cost and verdict reuse ---- *)

type verify_calibration = {
  vc_programs : int;  (** Compiled variants pushed through the verifier. *)
  vc_all_safe : bool;
  vc_cold_s : float;  (** Fresh analyses (verdict cache empty). *)
  vc_warm_s : float;  (** Same code shapes at a different BC (all hits). *)
  vc_hits : int;
  vc_misses : int;
}

let calibrate_verifier () =
  let kernels = if fast_mode then [ atax ] else Gat_workloads.Workloads.all in
  let gpus = if fast_mode then [ gpu ] else Gat_arch.Gpu.all in
  let params bc =
    Gat_compiler.Params.make ~threads_per_block:128 ~block_count:bc ~staging:2
      ()
  in
  let compile_all bc =
    List.concat_map
      (fun k ->
        List.map (fun g -> Gat_compiler.Driver.compile_exn k g (params bc)) gpus)
      kernels
  in
  let cold = compile_all 32 in
  (* Same code shape at a different BC: the verdict cache must answer
     these without re-running the analysis. *)
  let warm = compile_all 64 in
  (* Persisted verdicts from earlier calibrations would answer the
     "cold" pass from disk; this section measures the analysis itself. *)
  Gat_compiler.Artifacts.set_enabled false;
  Gat_tuner.Verdict_cache.clear ();
  let all_safe = ref true in
  let cold_s =
    timed (fun () ->
        List.iter
          (fun c ->
            if not (Gat_analysis.Verify.safe (Gat_tuner.Verdict_cache.get c))
            then all_safe := false)
          cold)
  in
  let warm_s =
    timed (fun () ->
        List.iter (fun c -> ignore (Gat_tuner.Verdict_cache.get c)) warm)
  in
  let s = Gat_tuner.Verdict_cache.stats () in
  Gat_compiler.Artifacts.set_enabled true;
  {
    vc_programs = List.length cold + List.length warm;
    vc_all_safe = !all_safe;
    vc_cold_s = cold_s;
    vc_warm_s = warm_s;
    vc_hits = s.Gat_tuner.Verdict_cache.hits;
    vc_misses = s.Gat_tuner.Verdict_cache.misses;
  }

(* ---- sharded-sweep calibration ----

   The distributed coordination must cost little when it buys nothing:
   a coordinator with no workers attached degrades to an in-process
   sweep plus lease/manifest bookkeeping, and its merged report must be
   bit-identical to the direct sweep — the same guarantee the chaos CI
   job checks across processes and SIGKILLs, measured here in-process. *)

type shard_calibration = {
  sh_kernel : string;
  sh_variants : int;
  sh_shards : int;
  direct_s : float;  (** Plain in-process sweep. *)
  sharded_s : float;  (** Same sweep through Shard.coordinate. *)
  sh_parts : int;  (** Parts merged by the coordinator. *)
  sh_identical : bool;  (** Reports are bit-identical. *)
}

let calibrate_sharding () =
  let seed = Gat_report.Context.seed in
  let n, space =
    if fast_mode then
      ( 64,
        {
          Gat_tuner.Space.tc = [ 64; 128; 256 ];
          bc = [ 32; 64 ];
          uif = [ 1; 2 ];
          pl = [ 16; 48 ];
          sc = [ 1 ];
          cflags = [ false; true ];
        } )
    else (Gat_workloads.Workloads.default_size atax, Gat_tuner.Space.paper)
  in
  let gpu = Gat_arch.Gpu.k20 in
  let shards = 4 in
  Gat_tuner.Disk_cache.set_enabled false;
  Gat_tuner.Tuner.clear_cache ();
  let direct = ref None in
  let direct_s =
    timed (fun () ->
        direct :=
          Some (Gat_tuner.Tuner.sweep_report ~space ~jobs:1 atax gpu ~n ~seed))
  in
  Gat_tuner.Tuner.clear_cache ();
  ignore (Gat_tuner.Shard.clear ());
  let parts0 =
    Option.value ~default:0
      (List.assoc_opt "shard.parts_merged"
         (Gat_util.Metrics.counters_snapshot ()))
  in
  let sharded = ref None in
  let sharded_s =
    timed (fun () ->
        sharded :=
          Some
            (Gat_tuner.Shard.coordinate ~jobs:1 ~shards space atax gpu ~n
               ~seed))
  in
  let parts1 =
    Option.value ~default:0
      (List.assoc_opt "shard.parts_merged"
         (Gat_util.Metrics.counters_snapshot ()))
  in
  (* The coordination opened a telemetry session (and with it span
     recording); close it so later calibrations run unobserved. *)
  Gat_util.Telemetry.disable ();
  Gat_util.Trace.clear ();
  ignore (Gat_tuner.Shard.clear ());
  Gat_tuner.Tuner.clear_cache ();
  Gat_tuner.Disk_cache.set_enabled true;
  let identical =
    match (!direct, !sharded) with
    | Some a, Some b ->
        let open Gat_tuner in
        List.length a.Tuner.variants = List.length b.Tuner.variants
        && List.for_all2
             (fun (x : Variant.t) (y : Variant.t) ->
               Gat_compiler.Params.compare x.Variant.params y.Variant.params
               = 0
               && Int64.bits_of_float x.Variant.time_ms
                  = Int64.bits_of_float y.Variant.time_ms
               && x.Variant.registers = y.Variant.registers)
             a.Tuner.variants b.Tuner.variants
        && List.length a.Tuner.failures = List.length b.Tuner.failures
        && List.length a.Tuner.unsafe = List.length b.Tuner.unsafe
    | _ -> false
  in
  {
    sh_kernel = atax.Gat_ir.Kernel.name;
    sh_variants = Gat_tuner.Space.cardinality space;
    sh_shards = shards;
    direct_s;
    sharded_s;
    sh_parts = parts1 - parts0;
    sh_identical = identical;
  }

(* ---- telemetry calibration: snapshot publishing overhead ---- *)

(* The same sweep with and without a live telemetry session flushing a
   sealed snapshot on every progress block — the per-block cadence a
   sharded holder pays alongside lease renewal.  Latency histograms are
   recorded in both modes (they are always on); the session side also
   records spans into the ring buffers (a session implies recording),
   so the delta covers everything a fleet holder pays on top of a plain
   sweep: span recording, capture, seal, and the atomic publish.  Same
   paired-rounds protocol as the
   tracing calibration: the second run of a pair is systematically a
   touch faster, so averaging over both orders cancels that bias. *)

type telem_calibration = {
  tc_kernel : string;
  tc_variants : int;
  tc_flushes : int;  (** Snapshots published per instrumented run. *)
  tc_plain_s : float;
  tc_telem_s : float;
  tc_overhead_pct : float;
  tc_overhead_ok : bool;
}

let calibrate_telemetry () =
  let kernel = atax in
  let seed = Gat_report.Context.seed in
  let n, space =
    if fast_mode then
      ( 64,
        {
          Gat_tuner.Space.tc = [ 64; 128; 256 ];
          bc = [ 32; 64 ];
          uif = [ 1; 2 ];
          pl = [ 16; 48 ];
          sc = [ 1 ];
          cflags = [ false; true ];
        } )
    else (Gat_workloads.Workloads.default_size kernel, Gat_tuner.Space.paper)
  in
  let gpu = Gat_arch.Gpu.k20 in
  let block = 16 in
  Gat_tuner.Disk_cache.set_enabled false;
  Gat_compiler.Artifacts.set_enabled false;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-bench-telem-%d" (Unix.getpid ()))
  in
  let flush ~done_:_ ~total:_ ~failures:_ = Gat_util.Telemetry.flush () in
  let run ?progress () =
    ignore
      (Gat_tuner.Tuner.sweep_report ~space ~jobs:1 ~block ?progress kernel gpu
         ~n ~seed)
  in
  let run_plain () =
    Gat_tuner.Tuner.clear_cache ();
    timed (fun () -> run ())
  in
  let run_telem () =
    Gat_tuner.Tuner.clear_cache ();
    Gat_util.Telemetry.enable ~dir;
    let t = timed (fun () -> run ~progress:flush ()) in
    Gat_util.Telemetry.disable ();
    (* Keep memory flat across rounds: the session's span recording
       filled the ring buffers; the next enable starts fresh. *)
    Gat_util.Trace.clear ();
    t
  in
  Gat_tuner.Tuner.clear_cache ();
  run ();
  let rounds = if fast_mode then 7 else 3 in
  let plain = Array.make (2 * rounds) 0.0 in
  let diffs = Array.make rounds 0.0 in
  let flushes_of () =
    Option.value ~default:0
      (List.assoc_opt "telem.flushes" (Gat_util.Metrics.counters_snapshot ()))
  in
  let f0 = flushes_of () in
  for r = 0 to rounds - 1 do
    let p1 = run_plain () in
    let t1 = run_telem () in
    let t2 = run_telem () in
    let p2 = run_plain () in
    plain.(2 * r) <- p1;
    plain.((2 * r) + 1) <- p2;
    diffs.(r) <- ((t1 -. p1) +. (t2 -. p2)) /. 2.0
  done;
  let flushes = (flushes_of () - f0) / (2 * rounds) in
  (match Sys.readdir dir with
  | names ->
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        names;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ());
  Gat_tuner.Tuner.clear_cache ();
  Gat_tuner.Disk_cache.set_enabled true;
  Gat_compiler.Artifacts.set_enabled true;
  let median a =
    let b = Array.copy a in
    Array.sort Float.compare b;
    b.(Array.length b / 2)
  in
  let plain_s = median plain in
  let delta_s = median diffs in
  let telem_s = plain_s +. delta_s in
  {
    tc_kernel = kernel.Gat_ir.Kernel.name;
    tc_variants = Gat_tuner.Space.cardinality space;
    tc_flushes = flushes;
    tc_plain_s = plain_s;
    tc_telem_s = telem_s;
    tc_overhead_pct =
      (if plain_s > 0.0 then 100.0 *. (delta_s /. plain_s) else 0.0);
    tc_overhead_ok = telem_s <= (plain_s *. 1.02) +. 0.25;
  }

let write_bench_json ~calibration ~cache_cal ~obs_cal ~sched_cal ~verify_cal
    ~shard_cal ~telem_cal ~timings ~total_s =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"gat-bench-sweep/9\",\n";
  add "  \"jobs\": %d,\n" (Gat_util.Pool.jobs ());
  add "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"fast_mode\": %b,\n" fast_mode;
  (match calibration with
  | None -> add "  \"sweep_calibration\": null,\n"
  | Some c ->
      add "  \"sweep_calibration\": {\n";
      add "    \"kernel\": \"%s\",\n" c.cal_kernel;
      add "    \"gpu\": \"%s\",\n" c.cal_gpu;
      add "    \"input_sizes\": %d,\n" c.cal_sizes;
      add "    \"variants\": %d,\n" c.cal_variants;
      add "    \"legacy_seconds\": %.3f,\n" c.legacy_s;
      add "    \"seq_seconds\": %.3f,\n" c.seq_s;
      add "    \"par_seconds\": %.3f,\n" c.par_s;
      add "    \"speedup_vs_jobs1\": %.2f,\n" (c.seq_s /. c.par_s);
      add "    \"speedup_vs_seed\": %.2f\n" (c.legacy_s /. c.par_s);
      add "  },\n");
  let cc = cache_cal in
  let entries, bytes = Gat_tuner.Disk_cache.disk_usage () in
  add "  \"sweep_cache\": {\n";
  add "    \"kernel\": \"%s\",\n" cc.cc_kernel;
  add "    \"gpu\": \"%s\",\n" cc.cc_gpu;
  add "    \"input_sizes\": %d,\n" cc.cc_sizes;
  add "    \"variants\": %d,\n" cc.cc_variants;
  add "    \"cold_seconds\": %.3f,\n" cc.cold_s;
  add "    \"warm_seconds\": %.3f,\n" cc.warm_s;
  add "    \"warm_speedup\": %.2f,\n"
    (if cc.warm_s > 0.0 then cc.cold_s /. cc.warm_s else 0.0);
  add "    \"warm_all_hits\": %b,\n" cc.warm_all_hits;
  add "    \"hits\": %d,\n" cc.cc_hits;
  add "    \"misses\": %d,\n" cc.cc_misses;
  add "    \"stores\": %d,\n" cc.cc_stores;
  add "    \"entries\": %d,\n" entries;
  add "    \"bytes\": %d\n" bytes;
  add "  },\n";
  let ob = obs_cal in
  add "  \"observability\": {\n";
  add "    \"kernel\": \"%s\",\n" ob.oc_kernel;
  add "    \"variants\": %d,\n" ob.oc_variants;
  add "    \"untraced_seconds\": %.3f,\n" ob.untraced_s;
  add "    \"traced_seconds\": %.3f,\n" ob.traced_s;
  add "    \"trace_events\": %d,\n" ob.trace_events;
  add "    \"overhead_pct\": %.2f,\n" ob.overhead_pct;
  add "    \"trace_overhead_ok\": %b\n" ob.overhead_ok;
  add "  },\n";
  let sc = sched_cal in
  add "  \"scheduler\": {\n";
  add "    \"elements\": %d,\n" sc.sc_elements;
  add "    \"heavy_elements\": %d,\n" sc.sc_heavy;
  add "    \"jobs\": %d,\n" sc.sc_jobs;
  add "    \"fixed_chunk_seconds\": %.3f,\n" sc.fixed_s;
  add "    \"work_stealing_seconds\": %.3f,\n" sc.ws_s;
  add "    \"ws_speedup\": %.2f,\n"
    (if sc.ws_s > 0.0 then sc.fixed_s /. sc.ws_s else 0.0);
  add "    \"steals\": %d,\n" sc.sc_steals;
  add "    \"splits\": %d,\n" sc.sc_splits;
  add "    \"fixed_busy_ratio\": %.3f,\n" sc.fixed_busy_ratio;
  add "    \"ws_busy_ratio\": %.3f,\n" sc.ws_busy_ratio;
  add "    \"ws_beats_fixed\": %b\n" sc.ws_ok;
  add "  },\n";
  let vc = verify_cal in
  add "  \"verify\": {\n";
  add "    \"programs\": %d,\n" vc.vc_programs;
  add "    \"all_safe\": %b,\n" vc.vc_all_safe;
  add "    \"cold_seconds\": %.3f,\n" vc.vc_cold_s;
  add "    \"warm_seconds\": %.3f,\n" vc.vc_warm_s;
  add "    \"cache_hits\": %d,\n" vc.vc_hits;
  add "    \"cache_misses\": %d\n" vc.vc_misses;
  add "  },\n";
  let sh = shard_cal in
  add "  \"sharding\": {\n";
  add "    \"kernel\": \"%s\",\n" sh.sh_kernel;
  add "    \"variants\": %d,\n" sh.sh_variants;
  add "    \"shards\": %d,\n" sh.sh_shards;
  add "    \"direct_seconds\": %.3f,\n" sh.direct_s;
  add "    \"sharded_seconds\": %.3f,\n" sh.sharded_s;
  add "    \"overhead_pct\": %.2f,\n"
    (if sh.direct_s > 0.0 then
       100.0 *. ((sh.sharded_s /. sh.direct_s) -. 1.0)
     else 0.0);
  add "    \"parts_merged\": %d,\n" sh.sh_parts;
  add "    \"shard_identical\": %b\n" sh.sh_identical;
  add "  },\n";
  let tc = telem_cal in
  add "  \"telemetry\": {\n";
  add "    \"kernel\": \"%s\",\n" tc.tc_kernel;
  add "    \"variants\": %d,\n" tc.tc_variants;
  add "    \"flushes_per_run\": %d,\n" tc.tc_flushes;
  add "    \"plain_seconds\": %.3f,\n" tc.tc_plain_s;
  add "    \"telemetry_seconds\": %.3f,\n" tc.tc_telem_s;
  add "    \"overhead_pct\": %.2f,\n" tc.tc_overhead_pct;
  add "    \"telemetry_overhead_ok\": %b\n" tc.tc_overhead_ok;
  add "  },\n";
  add "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"id\": \"%s\", \"seconds\": %.3f, \"warm_seconds\": %.3f, \
         \"cache_hits\": %d, \"cache_misses\": %d}%s\n"
        r.exp_id r.cold_s
        (if Float.is_nan r.warm_s then 0.0 else r.warm_s)
        r.warm_hits r.warm_misses
        (if i = List.length timings - 1 then "" else ","))
    timings;
  add "  ],\n";
  add "  \"total_seconds\": %.3f\n" total_s;
  add "}\n";
  let oc = open_out "BENCH_sweep.json" in
  output_string oc (Buffer.contents b);
  close_out oc

let () =
  print_endline
    "Reproduction harness: Lim, Norris & Malony, \"Autotuning GPU Kernels\n\
     via Static and Predictive Analysis\" (ICPP 2017).  All devices are\n\
     simulated; see DESIGN.md for the substitution map.\n";
  (* Keep the benchmark self-contained: its persistent cache lives in a
     scratch directory, not the user's ~/.cache/gat. *)
  Unix.putenv "GAT_CACHE_DIR"
    (Filename.concat (Filename.get_temp_dir_name ()) "gat-bench-cache");
  let t0 = Unix.gettimeofday () in
  let calibration = calibrate_sweep () in
  (match calibration with
  | Some c ->
      Printf.printf
        "Sweep calibration (%s on %s, %d variants x %d sizes):\n\
        \  legacy (per-size compiles, 1 job): %.2f s\n\
        \  compile-shared, 1 job:             %.2f s\n\
        \  compile-shared, %d job(s):          %.2f s  (%.2fx vs legacy)\n\n"
        c.cal_kernel c.cal_gpu c.cal_variants c.cal_sizes c.legacy_s c.seq_s
        (Gat_util.Pool.jobs ()) c.par_s (c.legacy_s /. c.par_s)
  | None -> ());
  let cache_cal = calibrate_sweep_cache () in
  Printf.printf
    "Persistent-cache calibration (%s on %s, %d variants x %d sizes):\n\
    \  cold (empty cache): %.2f s\n\
    \  warm (disk only):   %.3f s  (%.0fx, all hits: %b)\n\n"
    cache_cal.cc_kernel cache_cal.cc_gpu cache_cal.cc_variants
    cache_cal.cc_sizes cache_cal.cold_s cache_cal.warm_s
    (if cache_cal.warm_s > 0.0 then cache_cal.cold_s /. cache_cal.warm_s
     else 0.0)
    cache_cal.warm_all_hits;
  let obs_cal = calibrate_observability () in
  Printf.printf
    "Observability calibration (%s, %d variants, 1 job):\n\
    \  untraced: %.3f s\n\
    \  traced:   %.3f s  (%+.1f%%, %d events; within budget: %b)\n\n"
    obs_cal.oc_kernel obs_cal.oc_variants obs_cal.untraced_s obs_cal.traced_s
    obs_cal.overhead_pct obs_cal.trace_events obs_cal.overhead_ok;
  let sched_cal = calibrate_scheduler () in
  Printf.printf
    "Scheduler calibration (%d variants, %d heavy at the tail, jobs=%d, %d \
     cores):\n\
    \  fixed chunks:  %.3f s  (busy %.0f%%)\n\
    \  work stealing: %.3f s  (busy %.0f%%, %.2fx, %d steals, %d splits)\n\n"
    sched_cal.sc_elements sched_cal.sc_heavy sched_cal.sc_jobs
    (Domain.recommended_domain_count ())
    sched_cal.fixed_s
    (100.0 *. sched_cal.fixed_busy_ratio)
    sched_cal.ws_s
    (100.0 *. sched_cal.ws_busy_ratio)
    (if sched_cal.ws_s > 0.0 then sched_cal.fixed_s /. sched_cal.ws_s else 0.0)
    sched_cal.sc_steals sched_cal.sc_splits;
  let verify_cal = calibrate_verifier () in
  Printf.printf
    "Verifier calibration (%d programs):\n\
    \  all safe: %b\n\
    \  cold:     %.3f s  (%d analyses)\n\
    \  warm:     %.3f s  (%d verdict-cache hits across BC)\n\n"
    verify_cal.vc_programs verify_cal.vc_all_safe verify_cal.vc_cold_s
    verify_cal.vc_misses verify_cal.vc_warm_s verify_cal.vc_hits;
  let shard_cal = calibrate_sharding () in
  Printf.printf
    "Sharding calibration (%s, %d variants, %d shards, coordinator only):\n\
    \  direct sweep:      %.3f s\n\
    \  sharded (merged):  %.3f s  (%d parts; bit-identical: %b)\n\n"
    shard_cal.sh_kernel shard_cal.sh_variants shard_cal.sh_shards
    shard_cal.direct_s shard_cal.sharded_s shard_cal.sh_parts
    shard_cal.sh_identical;
  let telem_cal = calibrate_telemetry () in
  Printf.printf
    "Telemetry calibration (%s, %d variants, snapshot per block):\n\
    \  plain sweep:     %.3f s\n\
    \  with snapshots:  %.3f s  (%+.1f%%, ~%d flushes/run; within budget: \
     %b)\n\n"
    telem_cal.tc_kernel telem_cal.tc_variants telem_cal.tc_plain_s
    telem_cal.tc_telem_s telem_cal.tc_overhead_pct telem_cal.tc_flushes
    telem_cal.tc_overhead_ok;
  (* Experiments, twice: a cold pass computing every sweep, and a warm
     pass that must satisfy them from the persistent cache alone. *)
  ignore (Gat_tuner.Disk_cache.clear ());
  ignore (Gat_compiler.Artifacts.clear ());
  Gat_tuner.Tuner.clear_cache ();
  Gat_report.Context.reset ();
  let timings = run_experiments () in
  Gat_tuner.Tuner.clear_cache ();
  Gat_report.Context.reset ();
  ignore (run_experiments ~record:timings ());
  print_newline ();
  let total_s = Unix.gettimeofday () -. t0 in
  write_bench_json ~calibration ~cache_cal ~obs_cal ~sched_cal ~verify_cal
    ~shard_cal ~telem_cal ~timings ~total_s;
  Printf.printf "wrote BENCH_sweep.json (jobs=%d, %.1f s total)\n\n"
    (Gat_util.Pool.jobs ()) total_s;
  run_microbenches ()
