(* The sweep benchmark.

   Run from the repository root (run.sh builds this program first):

     bash perfbench/run.sh --workload W --seed S --seconds T --trace 0|1

   Every workload sweeps the paper's 5,120-variant space with the
   measurement seed 42, the CLI default.  Why each workload exists:

   - sweep_cold: atax on K20 at N=128, -j 1, into a fresh empty cache
     dir.  A user's first sweep; compile does most of the work.
   - sweep_new_n: set-up sweeps N=128 into the cache dir; the timed
     sweep is at another paper size, chosen by the workload seed.  The
     whole-sweep entry misses while the artifact store is fully warm:
     the only workload whose compiles are served by artifact reads.
   - sweep_warm: set-up runs a cold 5-size sweep_multi.  The timed phase
     is a closed loop with one client; each request asks for the next
     of the five sizes, with the in-process memo dropped in between, so
     a request is a disk-cache parse, a ranking and a top-10 render.
   - fig4_cold: the Fig. 4 panels of all four kernels on K20 (five sizes
     each) at -j 2 into a fresh cache dir.  The only workload that runs
     the pool with two domains.  The full grid (four GPUs) takes about
     33 s cold on a 2-core host, too long to repeat within one run, so
     the benchmark keeps the K20 column.  BENCHMARK.json does not list
     it: on a shared 2-core host its wall time spread over ten runs
     reached 28%, beyond the largest bound allowed, so it runs only
     when named.

   The timed unit is one sweep, one Fig. 4 subset, or (sweep_warm) one
   batch of five requests.  Units repeat until --seconds have passed.
   Every time metric is process CPU time (user + system, all domains),
   not wall time: on a shared host the wall time of the same run moves
   with the other tenants' load.  With three CPU-bound processes beside
   it on 2 cores, a sweep_warm unit's wall time doubled while its CPU
   time moved 4%.  At -j 1 the program is one busy domain, so on an
   idle host the two agree; the metadata line lists both per unit.  cpu_s is the
   median unit, and evals_per_cpu_s divides the unit's variant
   evaluations (points x input sizes) by that same median.  setup_s is
   the median set-up: cache-dir creation and any set-up sweep;
   peak_rss_mb is the process's peak resident memory after its first
   unit, i.e. of a fresh process that ran the workload once;
   cache_disk_mb counts the bytes under the cache dir after the run;
   ok_ratio is checked outputs that matched over outputs checked.
   request_cpu_p50_ms and request_cpu_p90_ms are over single requests;
   on the cold workloads a request is a whole unit, too few for a p90
   with ten samples beyond it, so request_cpu_p90_ms there reports the
   median.

   --trace 0 measures the end-to-end metrics with no instrumentation.
   --trace 1 alternates an untraced unit with a staged re-drive of the
   same unit through each layer's public functions, timing every call
   from here, and checks that the staged results equal the untraced
   ones.  Layer rows are per unit and exclusive, so they sum with
   unattributed_ms to the traced wall time (times the job count inside
   the pool).

   Every output is checked against files under --expected (default
   perfbench/expected), recorded from `gat sweep ... -j 1 --no-cache`
   and `gat experiment fig4 -j 1 --no-cache`; a seeded sample of
   compiled variants is also simulated by both Engine.run and the
   independent Engine.run_reference. *)

module C = Gat_compiler
module T = Gat_tuner
module U = Gat_util
module Verify = Gat_analysis.Verify
module Context = Gat_report.Context

let kernel = Gat_workloads.Workloads.atax
let gpu = Gat_arch.Gpu.k20
let seed = 42
let cold_n = 128
let space = T.Space.paper
let points_per_sweep = T.Space.cardinality space
let sizes_of = Gat_workloads.Workloads.input_sizes
let kernels = Gat_workloads.Workloads.all
let workloads = [ "sweep_cold"; "sweep_new_n"; "sweep_warm"; "fig4_cold" ]

(* ---------- command line ---------- *)

type args = {
  workload : string;
  wseed : int;
  seconds : float;
  trace : bool;
  expected_dir : string;
}

let usage () =
  prerr_endline
    "usage: bench --workload {sweep_cold|sweep_new_n|sweep_warm|fig4_cold} \
     --seed N --seconds S --trace {0|1} [--expected DIR]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        wseed = 0;
        seconds = 10.0;
        trace = false;
        expected_dir = "perfbench/expected";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with wseed = int_of_string v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        a := { !a with trace = v = "1" };
        go rest
    | "--expected" :: v :: rest ->
        a := { !a with expected_dir = v };
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !a.workload workloads)) || !a.seconds <= 0.0 then usage ();
  !a

(* ---------- clock, files, process state ---------- *)

let now_ns () = Int64.to_int (U.Metrics.now_ns ())
let now () = float_of_int (now_ns ()) /. 1e9
let work_root = Filename.concat (Sys.getcwd ()) "_perfbench"
let cache_dir = Filename.concat work_root "cache"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec tree_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + tree_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Every set-up starts by creating the workload's empty cache dir.  The
   previous set-up's dir is removed before, untimed: removing it is
   clean-up after the last unit, not part of this one. *)
let create_cache_dir () = U.Cache_dir.ensure cache_dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let peak_rss_mb () =
  let status = read_file "/proc/self/status" in
  let kb =
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)
  in
  float_of_int (Option.value kb ~default:0) /. 1024.0

let verdicts : (string * int, Verify.report) Hashtbl.t = Hashtbl.create 64

(* Drop every in-process memo, so a unit starts from what a fresh
   process would see. *)
let reset_process () =
  T.Tuner.clear_cache ();
  Context.reset ();
  Hashtbl.reset verdicts

(* Before a sweep-sized unit: also a full major collection, so every
   unit starts from the same heap. *)
let fresh_process () =
  reset_process ();
  Gc.compact ()

(* ---------- expected outputs and checks ---------- *)

type expected = {
  top10 : (int * string) list;  (** `gat sweep` stdout per atax size. *)
  full_md5 : (int * string) list;  (** Digest of stdout with every variant. *)
  fig4_panels : (string * string) list;  (** Header line -> panel text. *)
}

(* Fig. 4 output is a title followed by one panel per kernel and GPU,
   each starting with its "kernel=... arch=..." line. *)
let split_panels text =
  let panels = ref [] and cur = ref None in
  let close () =
    Option.iter
      (fun (h, b) -> panels := (h, Buffer.contents b) :: !panels)
      !cur
  in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"kernel=" line then begin
        close ();
        cur := Some (line, Buffer.create 2048)
      end;
      Option.iter
        (fun (_, b) ->
          Buffer.add_string b line;
          Buffer.add_char b '\n')
        !cur)
    (String.split_on_char '\n'
       (if String.ends_with ~suffix:"\n" text then
          String.sub text 0 (String.length text - 1)
        else text));
  close ();
  List.rev !panels

let load_expected dir =
  let file name = read_file (Filename.concat dir name) in
  let sizes = sizes_of kernel in
  {
    top10 =
      List.map
        (fun n -> (n, file (Printf.sprintf "sweep_atax_K20_n%d.txt" n)))
        sizes;
    full_md5 =
      List.filter_map
        (fun line -> Scanf.sscanf_opt line "%d %s" (fun n d -> (n, d)))
        (String.split_on_char '\n' (file "sweep_atax_K20_full.md5"));
    fig4_panels = split_panels (file "fig4.txt");
  }

let checked = ref 0
let matched = ref 0

let check what ok =
  incr checked;
  if ok then incr matched
  else Printf.eprintf "perfbench: check failed: %s\n%!" what;
  ok

(* The exact stdout of `gat sweep` for this report. *)
let render_report ~n ~top (r : T.Tuner.report) =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "sweep %s on %s (N=%d, seed %d): %d points\n" kernel.Gat_ir.Kernel.name
    gpu.Gat_arch.Gpu.name n seed points_per_sweep;
  pr "valid variants: %d\nfailed variants: %d\nunsafe variants: %d\n"
    (List.length r.variants) (List.length r.failures) (List.length r.unsafe);
  List.iter
    (fun f -> pr "  failed: %s\n" (T.Variant.failure_summary f))
    r.failures;
  List.iter (fun u -> pr "  %s\n" (T.Variant.unsafe_summary u)) r.unsafe;
  (match List.sort T.Variant.compare_time r.variants with
  | [] -> pr "no valid variant found\n"
  | ranked ->
      pr "top %d variants:\n" (min top (List.length ranked));
      List.iteri
        (fun i v ->
          if i < top then pr "  %2d. %s\n" (i + 1) (T.Variant.summary v))
        ranked);
  Buffer.contents b

let check_top10 ex ~n text =
  check
    (Printf.sprintf "top-10 report N=%d" n)
    (List.assoc_opt n ex.top10 = Some text)

let check_sweep ex ~n (r : T.Tuner.report) =
  let full = Digest.to_hex (Digest.string (render_report ~n ~top:max_int r)) in
  let a =
    check
      (Printf.sprintf "full report N=%d" n)
      (List.assoc_opt n ex.full_md5 = Some full)
  in
  let b = check_top10 ex ~n (render_report ~n ~top:10 r) in
  a && b

let check_panel ex text =
  let header = List.hd (String.split_on_char '\n' text) in
  check
    ("fig4 panel " ^ header)
    (List.assoc_opt header ex.fig4_panels = Some (text ^ "\n"))

(* Engine.run against the independent list-based Engine.run_reference on
   a sample of variants drawn from the workload seed. *)
let engine_sample ~wseed ks =
  let rng = Random.State.make [| wseed |] in
  let pts = Array.of_list (T.Space.points space) in
  let found = ref 0 and tries = ref 0 in
  while !found < 4 && !tries < 200 do
    incr tries;
    let k = List.nth ks (Random.State.int rng (List.length ks)) in
    let p = pts.(Random.State.int rng (Array.length pts)) in
    let sizes = sizes_of k in
    let n = List.nth sizes (Random.State.int rng (List.length sizes)) in
    match C.Driver.compile k gpu p with
    | Error _ -> ()
    | Ok c ->
        incr found;
        ignore
          (check
             (Printf.sprintf "engine %s %s n=%d" k.Gat_ir.Kernel.name
                (C.Params.to_string p) n)
             (compare (Gat_sim.Engine.run c ~n)
                (Gat_sim.Engine.run_reference c ~n)
             = 0))
  done;
  ignore (check "engine sample size" (!found = 4))

(* ---------- layer timing (trace runs only) ---------- *)

type layer =
  | Lowering
  | Codegen
  | Fingerprint
  | Block_table
  | Art_read
  | Art_write
  | Verify_run
  | Engine
  | Driver
  | Disk_read
  | Disk_write
  | Ranking
  | Render
  | Pool_busy

let all_layers =
  [ Lowering; Codegen; Fingerprint; Block_table; Art_read; Art_write;
    Verify_run; Engine; Driver; Disk_read; Disk_write; Ranking; Render;
    Pool_busy ]

let layer_index l =
  let rec find i = function
    | [] -> assert false
    | x :: rest -> if x = l then i else find (i + 1) rest
  in
  find 0 all_layers

let layer_ns = Array.init (List.length all_layers) (fun _ -> Atomic.make 0)
let layer_calls = Array.init (List.length all_layers) (fun _ -> Atomic.make 0)

let charge layer dt =
  let i = layer_index layer in
  ignore (Atomic.fetch_and_add layer_ns.(i) dt);
  Atomic.incr layer_calls.(i)

let timed layer f =
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  charge layer dt;
  (r, dt)

let time layer f = fst (timed layer f)

(* Driver.compile, stage by stage.  The driver row is the compile's own
   time: type check, validation, the compile log and the record, i.e.
   everything outside the child calls timed here. *)
let staged_compile k g params =
  let t0 = now_ns () in
  let children = ref 0 in
  let sub layer f =
    let r, dt = timed layer f in
    children := !children + dt;
    r
  in
  let result =
    match Gat_ir.Typecheck.kernel k with
    | Error msg -> Error ("ill-typed kernel: " ^ msg)
    | Ok () -> (
        match C.Params.validate g params with
        | Error msg -> Error ("invalid parameters: " ^ msg)
        | Ok () ->
            let vp, profile =
              sub Lowering (fun () -> C.Lowering.lower k g params)
            in
            if
              Gat_isa.Program.smem_per_block vp
              > g.Gat_arch.Gpu.smem_per_block
            then Error "shared memory per block exceeds the device limit"
            else
              let backend =
                sub Codegen (fun () -> C.Codegen_cache.run ~gpu:g ~params vp)
              in
              let program = backend.C.Codegen_cache.program in
              let alloc_stats = backend.C.Codegen_cache.alloc_stats in
              let mem_summary = backend.C.Codegen_cache.mem_summary in
              let log = C.Ptxas_info.of_program program alloc_stats in
              let regs_per_thread = log.C.Ptxas_info.registers in
              let key =
                sub Fingerprint (fun () ->
                    C.Artifacts.bt_key ~gpu:g ~params ~regs_per_thread vp)
              in
              let block_table =
                match sub Art_read (fun () -> C.Artifacts.find_bt ~key) with
                | Some bt -> bt
                | None ->
                    let bt =
                      sub Block_table (fun () ->
                          C.Block_table.build ~gpu:g ~params ~regs_per_thread
                            ~mem_summary program)
                    in
                    sub Art_write (fun () -> C.Artifacts.store_bt ~key bt);
                    bt
              in
              Ok
                {
                  C.Driver.kernel = k;
                  gpu = g;
                  params;
                  ptx = vp;
                  program;
                  log;
                  alloc_stats;
                  profile;
                  mem_summary;
                  block_table;
                })
  in
  charge Driver (now_ns () - t0 - !children);
  result

(* Verdict_cache.get, stage by stage, over a table of the same key. *)
let verdict_lock = Mutex.create ()
let verdict_hits = Atomic.make 0
let verdict_lookups = Atomic.make 0

let staged_verdict (c : C.Driver.compiled) =
  let vp = c.C.Driver.ptx in
  let tc = c.C.Driver.params.C.Params.threads_per_block in
  let fp = time Fingerprint (fun () -> Gat_isa.Fingerprint.program vp) in
  Atomic.incr verdict_lookups;
  match
    U.Pool.with_lock verdict_lock (fun () -> Hashtbl.find_opt verdicts (fp, tc))
  with
  | Some r ->
      Atomic.incr verdict_hits;
      r
  | None ->
      let key =
        time Fingerprint (fun () ->
            C.Artifacts.verdict_key ~threads_per_block:tc vp)
      in
      let r =
        match time Art_read (fun () -> C.Artifacts.find_verdict ~key) with
        | Some r -> r
        | None ->
            let r =
              time Verify_run (fun () -> Verify.run ~threads_per_block:tc vp)
            in
            time Art_write (fun () -> C.Artifacts.store_verdict ~key r);
            r
      in
      U.Pool.with_lock verdict_lock (fun () ->
          Hashtbl.replace verdicts (fp, tc) r);
      r

(* Pool.map_result with its busy time charged per element; the wall
   time spent inside maps, times the job count, is the pool's share of
   domain time. *)
let pool_domain_ns = ref 0
let pool_extra_ns = ref 0

let staged_map ~jobs f arr =
  let t0 = now_ns () in
  let r =
    U.Pool.map_result ~jobs (fun x -> time Pool_busy (fun () -> f x)) arr
  in
  let dt = now_ns () - t0 in
  pool_domain_ns := !pool_domain_ns + (jobs * dt);
  pool_extra_ns := !pool_extra_ns + ((jobs - 1) * dt);
  r

(* Tuner.run_range, stage by stage: blocks of the space, each compiled
   and verified, then simulated at every size; with [checkpoint] a
   checkpoint is flushed after every block, as `gat sweep` does. *)
let staged_range ~jobs ~ns ~checkpoint k g =
  let points = Array.of_list (T.Space.points space) in
  let total = Array.length points in
  let acc = List.map (fun n -> (n, ref [])) ns in
  let unsafe = ref [] and failed = ref 0 and start = ref 0 in
  while !start < total do
    let len = min T.Tuner.default_block_size (total - !start) in
    let blk = Array.sub points !start len in
    let compiled =
      staged_map ~jobs
        (fun params ->
          ( U.Rng.create (T.Tuner.point_seed k g ~seed params),
            Result.map
              (fun c -> (c, staged_verdict c))
              (staged_compile k g params) ))
        blk
    in
    Array.iteri
      (fun i entry ->
        match entry with
        | Ok (_, Ok (_, v)) when not (Verify.safe v) ->
            unsafe :=
              { T.Variant.unsafe_params = blk.(i); reason = Verify.summary v }
              :: !unsafe
        | Ok _ -> ()
        | Error _ -> incr failed)
      compiled;
    List.iter
      (fun (n, vs) ->
        let evaluated =
          staged_map ~jobs
            (fun i ->
              match compiled.(i) with
              | Ok (rng, Ok (c, v)) when Verify.safe v ->
                  Some
                    (time Engine (fun () ->
                         T.Measure.evaluate_compiled c ~n
                           ~rng:(U.Rng.copy rng)))
              | _ -> None)
            (Array.init len Fun.id)
        in
        Array.iter
          (function
            | Ok (Some v) -> vs := v :: !vs
            | Ok None -> ()
            | Error _ -> incr failed)
          evaluated)
      acc;
    start := !start + len;
    if checkpoint then
      List.iter
        (fun (n, vs) ->
          time Disk_write (fun () ->
              T.Disk_cache.checkpoint_store space k g ~n ~seed
                {
                  T.Disk_cache.done_points = !start;
                  variants = List.rev !vs;
                  failures = [];
                  unsafe = List.rev !unsafe;
                }))
        acc
  done;
  (List.map (fun (n, vs) -> (n, List.rev !vs)) acc, List.rev !unsafe, !failed)

(* Tuner.sweep_report as `gat sweep` calls it, stage by stage. *)
let staged_sweep ~n =
  match
    time Disk_read (fun () -> T.Disk_cache.find space kernel gpu ~n ~seed)
  with
  | Some (variants, unsafe) -> (variants, unsafe, 0)
  | None ->
      let results, unsafe, failed =
        staged_range ~jobs:1 ~ns:[ n ] ~checkpoint:true kernel gpu
      in
      let variants = List.assoc n results in
      time Disk_write (fun () ->
          T.Disk_cache.checkpoint_clear space kernel gpu ~n ~seed);
      if failed = 0 then
        time Disk_write (fun () ->
            T.Disk_cache.store space kernel gpu ~n ~seed variants unsafe);
      (variants, unsafe, failed)

let same_report (r : T.Tuner.report) (variants, unsafe, failed) =
  failed = 0 && r.failures = []
  && compare r.variants variants = 0
  && compare r.unsafe unsafe = 0

(* The staged compile of a few points against Driver.compile itself. *)
let check_staged_compile ~wseed =
  let rng = Random.State.make [| wseed; 7 |] in
  let pts = Array.of_list (T.Space.points space) in
  for _ = 1 to 8 do
    let p = pts.(Random.State.int rng (Array.length pts)) in
    let shape (c : C.Driver.compiled) =
      ( Gat_isa.Fingerprint.program c.ptx,
        Gat_isa.Fingerprint.program c.program,
        c.log,
        c.alloc_stats,
        c.mem_summary,
        c.block_table.C.Block_table.issue_cycles,
        c.block_table.C.Block_table.mix_counts,
        c.block_table.C.Block_table.mem_load_latency )
    in
    let same =
      match (staged_compile kernel gpu p, C.Driver.compile kernel gpu p) with
      | Ok a, Ok b -> compare (shape a) (shape b) = 0
      | Error a, Error b -> a = b
      | _ -> false
    in
    ignore (check ("staged compile " ^ C.Params.to_string p) same)
  done

(* ---------- workloads ---------- *)

(* One workload: [setup] is timed as setup_s; [unit] runs one timed
   unit and returns its request latencies in seconds; [traced] runs the
   staged re-drive of one unit and returns its wall seconds.  With
   [cold], set-up precedes every unit. *)
type workload = {
  jobs : int;
  evals_per_unit : int;
  cold : bool;
  setup : unit -> unit;
  prepare : unit -> unit;
  unit : unit -> float list;
  traced : unit -> float;
}

let sweep_once ~n =
  T.Tuner.sweep_report ~space ~jobs:1 ~checkpoint:true kernel gpu ~n ~seed

(* The clock a stopwatch reports: process CPU time for the end-to-end
   metrics, wall time in traced runs, the clock the layer rows are
   charged in. *)
let cpu_now () = Sys.time ()
let unit_clock = ref cpu_now

(* Wall time spent under every stopwatch, for the run metadata. *)
let stopwatch_wall = ref 0.0

(* Runs [f] under a stopwatch. *)
let stopwatch f =
  let w0 = now () and t0 = !unit_clock () in
  let r = f () in
  let dt = !unit_clock () -. t0 in
  stopwatch_wall := !stopwatch_wall +. (now () -. w0);
  (r, dt)

let sweep_workload ex ~setup ~n ~cold ~prepare =
  let last = ref None in
  {
    jobs = 1;
    evals_per_unit = points_per_sweep;
    cold;
    setup;
    prepare;
    unit =
      (fun () ->
        let r, dt = stopwatch (fun () -> sweep_once ~n) in
        last := Some r;
        ignore (check_sweep ex ~n r);
        [ dt ]);
    traced =
      (fun () ->
        let staged, dt = stopwatch (fun () -> staged_sweep ~n) in
        (match !last with
        | Some r ->
            ignore
              (check "staged sweep = Tuner.sweep_report"
                 (same_report r staged))
        | None -> ());
        dt);
  }

let warm_workload ex ~wseed =
  let sizes = Array.of_list (sizes_of kernel) in
  let next = ref (abs wseed mod Array.length sizes) in
  let last_text = Hashtbl.create 8 in
  let batch request =
    List.init (Array.length sizes) (fun _ ->
        let n = sizes.(!next) in
        next := (!next + 1) mod Array.length sizes;
        T.Tuner.clear_cache ();
        request n)
  in
  {
    jobs = 1;
    evals_per_unit = Array.length sizes * points_per_sweep;
    cold = false;
    setup =
      (fun () ->
        create_cache_dir ();
        reset_process ();
        ignore
          (T.Tuner.sweep_multi ~space ~jobs:1 kernel gpu
             ~ns:(Array.to_list sizes) ~seed));
    prepare = ignore;
    unit =
      (fun () ->
        batch (fun n ->
            let text, dt =
              stopwatch (fun () ->
                  let r = sweep_once ~n in
                  ignore (T.Ranking.split r.variants);
                  render_report ~n ~top:10 r)
            in
            Hashtbl.replace last_text n text;
            ignore (check_top10 ex ~n text);
            dt));
    traced =
      (fun () ->
        List.fold_left ( +. ) 0.0
          (batch (fun n ->
               let text, dt =
                 stopwatch (fun () ->
                     match
                       time Disk_read (fun () ->
                           T.Disk_cache.find space kernel gpu ~n ~seed)
                     with
                     | None -> ""
                     | Some (variants, unsafe) ->
                         ignore
                           (time Ranking (fun () -> T.Ranking.split variants));
                         time Render (fun () ->
                             render_report ~n ~top:10
                               {
                                 variants;
                                 failures = [];
                                 unsafe;
                                 restored_points = 0;
                               }))
               in
               ignore
                 (check "staged request = Tuner request"
                    (Hashtbl.find_opt last_text n = Some text));
               dt)));
  }

let fig4_workload ex =
  let last = ref [] in
  {
    jobs = 2;
    evals_per_unit =
      List.fold_left
        (fun acc k -> acc + (points_per_sweep * List.length (sizes_of k)))
        0 kernels;
    cold = true;
    setup = create_cache_dir;
    prepare = fresh_process;
    unit =
      (fun () ->
        let panels, dt =
          stopwatch (fun () ->
              List.map (fun k -> Gat_report.Fig4.render_one k gpu) kernels)
        in
        List.iter (fun p -> ignore (check_panel ex p)) panels;
        last := List.map (fun k -> Context.sweeps k gpu) kernels;
        [ dt ]);
    traced =
      (fun () ->
        let staged, dt =
          stopwatch (fun () ->
              List.map
                (fun k ->
                  let ns = sizes_of k in
                  List.iter
                    (fun n ->
                      ignore
                        (time Disk_read (fun () ->
                             T.Disk_cache.find space k gpu ~n ~seed)))
                    ns;
                  let results, unsafe, failed =
                    staged_range ~jobs:2 ~ns ~checkpoint:false k gpu
                  in
                  if failed = 0 then
                    List.iter
                      (fun (n, vs) ->
                        time Disk_write (fun () ->
                            T.Disk_cache.store space k gpu ~n ~seed vs unsafe))
                      results;
                  (* Fig. 4 reads the sweeps through Context, which now
                     finds them in the disk cache. *)
                  let served =
                    time Disk_read (fun () -> Context.sweeps k gpu)
                  in
                  ignore
                    (time Ranking (fun () -> Context.pooled_ranking k gpu));
                  let panel =
                    time Render (fun () -> Gat_report.Fig4.render_one k gpu)
                  in
                  (results, failed, served, panel))
                kernels)
        in
        List.iteri
          (fun i (results, failed, served, panel) ->
            ignore (check_panel ex panel);
            ignore
              (check "staged fig4 sweeps = Tuner.sweep_multi"
                 (failed = 0
                 && compare results served = 0
                 && (match List.nth_opt !last i with
                    | Some untraced -> compare untraced results = 0
                    | None -> true))))
          staged;
        dt);
  }

let make_workload ex ~name ~wseed =
  let n_new =
    let others = List.filter (( <> ) cold_n) (sizes_of kernel) in
    List.nth others (abs wseed mod List.length others)
  in
  let cold_setup () =
    create_cache_dir ();
    reset_process ();
    ignore (sweep_once ~n:cold_n)
  in
  match name with
  | "sweep_cold" ->
      (sweep_workload ex ~setup:create_cache_dir ~n:cold_n ~cold:true
         ~prepare:fresh_process, [ kernel ])
  | "sweep_new_n" ->
      ( sweep_workload ex ~setup:cold_setup ~n:n_new ~cold:false
          ~prepare:(fun () ->
            ignore (T.Disk_cache.clear ());
            fresh_process ()),
        [ kernel ] )
  | "sweep_warm" -> (warm_workload ex ~wseed, [ kernel ])
  | _ -> (fig4_workload ex, kernels)

(* ---------- statistics and output ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* The p90 of every full window of 100 consecutive requests, each with
   ten samples beyond it, and the median of those, so a burst of host
   interference moves a few windows rather than the figure.  A run with
   fewer than 100 requests has no such window and reports its median.
   Returns the figure and the number of windows. *)
let p90_window = 100

let windowed_p90 xs =
  let a = Array.of_list xs in
  let windows = Array.length a / p90_window in
  if windows = 0 then (median xs, 0)
  else
    ( median
        (List.init windows (fun i ->
             percentile 0.9
               (Array.to_list (Array.sub a (i * p90_window) p90_window)))),
      windows )

let safe_div a b = if b > 0.0 then a /. b else 0.0
let ratio a b = safe_div (float_of_int a) (float_of_int b)

let json_string s = Printf.sprintf "%S" s

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         let value = if Float.is_finite value then value else 0.0 in
         Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
           (json_string name) value (json_string unit))
       ms)

(* The commit when the tree is a git checkout (read from .git, not by
   running git), and a digest of the sources either way. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> String.trim (read_file (Filename.concat ".git" r))
    | _ -> head
  with Sys_error _ -> "unknown"

let source_md5 () =
  let rec files d =
    Array.to_list (Sys.readdir d)
    |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat d e in
           if Sys.is_directory p then files p else [ p ])
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

(* ---------- the two kinds of run ---------- *)

let attempted = ref 0
let failed = ref 0

let guarded f =
  incr attempted;
  let before = !checked - !matched in
  match f () with
  | r ->
      if !checked - !matched > before then incr failed;
      Some r
  | exception e ->
      incr failed;
      Printf.eprintf "perfbench: unit raised %s\n%!" (Printexc.to_string e);
      None

let measure args w =
  let units = ref [] and walls = ref [] and setups = ref [] in
  let latencies = ref [] in
  let first_peak = ref None in
  let timed_setup () =
    rm_rf cache_dir;
    let (), dt = stopwatch w.setup in
    setups := dt :: !setups
  in
  (* Set-up before every cold unit, at least three of them so the
     median set-up clears a previous unit's cache dir; otherwise once
     per half of the run, so setup_s is a median of two set-ups. *)
  let halves = if w.cold then 1 else 2 in
  let min_units = if w.cold then 3 else 1 in
  let t_start = now () in
  for half = 1 to halves do
    if not w.cold then timed_setup ();
    let deadline =
      t_start +. (args.seconds *. float_of_int half /. float_of_int halves)
    in
    let done_units = ref 0 in
    while !done_units < min_units || now () < deadline do
      incr done_units;
      if w.cold then timed_setup ();
      w.prepare ();
      let wall0 = !stopwatch_wall in
      match guarded w.unit with
      | Some lat ->
          if !first_peak = None then first_peak := Some (peak_rss_mb ());
          units := List.fold_left ( +. ) 0.0 lat :: !units;
          walls := (!stopwatch_wall -. wall0) :: !walls;
          latencies := List.rev_append lat !latencies
      | None -> ()
    done
  done;
  let cache_bytes = tree_bytes cache_dir in
  let cpu = median !units in
  let lat_ms = List.rev_map (fun s -> s *. 1000.0) !latencies in
  let samples = List.length lat_ms in
  let p90, windows = windowed_p90 lat_ms in
  ( [
      ("cpu_s", cpu, "s");
      ("evals_per_cpu_s", safe_div (float_of_int w.evals_per_unit) cpu, "1/s");
      ("setup_s", median !setups, "s");
      ("peak_rss_mb", Option.value !first_peak ~default:(peak_rss_mb ()), "MB");
      ("cache_disk_mb", float_of_int cache_bytes /. 1e6, "MB");
      ("request_cpu_p50_ms", median lat_ms, "ms");
      ("request_cpu_p90_ms", p90, "ms");
    ],
    [
      ( "unit_cpu_s",
        "["
        ^ String.concat ", " (List.rev_map (Printf.sprintf "%.4f") !units)
        ^ "]" );
      ( "unit_wall_s",
        "["
        ^ String.concat ", " (List.rev_map (Printf.sprintf "%.4f") !walls)
        ^ "]" );
      ( "setup_s_samples",
        "["
        ^ String.concat ", " (List.rev_map (Printf.sprintf "%.6f") !setups)
        ^ "]" );
      ("request_samples", string_of_int samples);
      ("request_p90_windows", string_of_int windows);
    ] )

let counter name =
  Option.value (List.assoc_opt name (U.Metrics.counters_snapshot ())) ~default:0

(* Per-cache counters, accumulated around traced units only. *)
type counts = {
  mutable codegen_hits : int;
  mutable codegen_lookups : int;
  mutable art_hits : int;
  mutable art_lookups : int;
  mutable art_bytes_written : int;
  mutable disk_reads : int;
  mutable disk_bytes_read : int;
  mutable steals : int;
  mutable verify_checked : int;
}

let snapshot () =
  let a = C.Artifacts.stats () and d = T.Disk_cache.stats () in
  ( a.C.Artifacts.hits,
    a.C.Artifacts.hits + a.C.Artifacts.misses,
    counter "artifact.bytes_written",
    d.T.Disk_cache.hits + d.T.Disk_cache.misses,
    counter "cache.disk.bytes_read",
    (U.Pool.scheduler_stats ()).U.Pool.steals,
    counter "verify.checked" )

let trace_run args w =
  let c =
    {
      codegen_hits = 0; codegen_lookups = 0; art_hits = 0; art_lookups = 0;
      art_bytes_written = 0; disk_reads = 0; disk_bytes_read = 0; steals = 0;
      verify_checked = 0;
    }
  in
  unit_clock := now;
  let untraced = ref 0.0 and traced = ref 0.0 and units = ref 0 in
  let deadline = now () +. args.seconds in
  let setup () =
    rm_rf cache_dir;
    w.setup ()
  in
  if not w.cold then setup ();
  let first = ref true in
  while !first || now () < deadline do
    first := false;
    if w.cold then setup ();
    w.prepare ();
    (match guarded w.unit with
    | Some lat -> untraced := !untraced +. List.fold_left ( +. ) 0.0 lat
    | None -> ());
    if w.cold then setup ();
    w.prepare ();
    let a0, al0, ab0, d0, db0, s0, v0 = snapshot () in
    (match guarded w.traced with
    | Some dt ->
        traced := !traced +. dt;
        incr units
    | None -> ());
    let a1, al1, ab1, d1, db1, s1, v1 = snapshot () in
    let cg = C.Codegen_cache.stats () in
    c.codegen_hits <- c.codegen_hits + cg.C.Codegen_cache.hits;
    c.codegen_lookups <- c.codegen_lookups + cg.hits + cg.misses;
    c.art_hits <- c.art_hits + (a1 - a0);
    c.art_lookups <- c.art_lookups + (al1 - al0);
    c.art_bytes_written <- c.art_bytes_written + (ab1 - ab0);
    c.disk_reads <- c.disk_reads + (d1 - d0);
    c.disk_bytes_read <- c.disk_bytes_read + (db1 - db0);
    c.steals <- c.steals + (s1 - s0);
    c.verify_checked <- c.verify_checked + (v1 - v0)
  done;
  ignore
    (check "Verify.run calls = verify.checked counter"
       (c.verify_checked = Atomic.get layer_calls.(layer_index Verify_run)));
  let per_unit x = x /. float_of_int (max 1 !units) in
  let total a l = float_of_int (Atomic.get a.(layer_index l)) in
  let ms l = per_unit (total layer_ns l /. 1e6) in
  let calls l = per_unit (total layer_calls l) in
  let exclusive = List.filter (( <> ) Pool_busy) all_layers in
  let busy = ms Pool_busy in
  let pool_ms = per_unit (float_of_int !pool_domain_ns /. 1e6) in
  let idle = pool_ms -. busy in
  let domain_ms =
    per_unit ((!traced *. 1000.0) +. (float_of_int !pool_extra_ns /. 1e6))
  in
  let attributed = List.fold_left (fun acc l -> acc +. ms l) idle exclusive in
  let unattributed = domain_ms -. attributed in
  [
    ("lowering.calls", calls Lowering, "count");
    ("lowering.ms", ms Lowering, "ms");
    ("block_table.builds", calls Block_table, "count");
    ("block_table.ms", ms Block_table, "ms");
    ("codegen_cache.ms", ms Codegen, "ms");
    ( "codegen_cache.hit_ratio",
      ratio c.codegen_hits c.codegen_lookups,
      "ratio" );
    ("fingerprint.calls", calls Fingerprint, "count");
    ("fingerprint.ms", ms Fingerprint, "ms");
    ("driver.compiles", calls Driver, "count");
    ("driver.ms", ms Driver, "ms");
    ("artifacts.read_ms", ms Art_read, "ms");
    ("artifacts.write_ms", ms Art_write, "ms");
    ("artifacts.hit_ratio", ratio c.art_hits c.art_lookups, "ratio");
    ( "artifacts.bytes_written",
      per_unit (float_of_int c.art_bytes_written),
      "bytes" );
    ("verify.calls", calls Verify_run, "count");
    ("verify.ms", ms Verify_run, "ms");
    ( "verdict_cache.hit_ratio",
      ratio (Atomic.get verdict_hits) (Atomic.get verdict_lookups),
      "ratio" );
    ("engine.calls", calls Engine, "count");
    ("engine.ms", ms Engine, "ms");
    ("disk_cache.reads", per_unit (float_of_int c.disk_reads), "count");
    ("disk_cache.read_ms", ms Disk_read, "ms");
    ( "disk_cache.bytes_read",
      per_unit (float_of_int c.disk_bytes_read),
      "bytes" );
    ("disk_cache.write_ms", ms Disk_write, "ms");
    ("pool.busy_ms", busy, "ms");
    ("pool.idle_ms", idle, "ms");
    ("pool.steals", per_unit (float_of_int c.steals), "count");
    ("ranking.ms", ms Ranking, "ms");
    ("report.render_ms", ms Render, "ms");
    ("unattributed_ms", unattributed, "ms");
    ("coverage_ratio", safe_div attributed domain_ms, "ratio");
    ("tracing.overhead_ratio", safe_div !traced !untraced, "ratio");
  ]

let () =
  let args = parse_args () in
  List.iter
    (fun d ->
      if not (Sys.file_exists d) then begin
        Printf.eprintf
          "perfbench: %s is missing; run from the repository root\n" d;
        exit 2
      end)
    [ "lib"; "bin"; args.expected_dir ];
  let ex = load_expected args.expected_dir in
  let w, ks = make_workload ex ~name:args.workload ~wseed:args.wseed in
  let nproc = Domain.recommended_domain_count () in
  if w.jobs > nproc then begin
    Printf.eprintf "perfbench: %s needs %d jobs but this host has %d cores\n"
      args.workload w.jobs nproc;
    exit 3
  end;
  U.Pool.set_default_jobs (Some w.jobs);
  Unix.putenv "GAT_CACHE_DIR" cache_dir;
  rm_rf work_root;
  U.Cache_dir.ensure work_root;
  let metrics, extra =
    if args.trace then (trace_run args w, [])
    else measure args w
  in
  if args.trace then check_staged_compile ~wseed:args.wseed;
  engine_sample ~wseed:args.wseed ks;
  let metrics =
    if args.trace then metrics
    else metrics @ [ ("ok_ratio", ratio !matched !checked, "ratio") ]
  in
  rm_rf work_root;
  let meta =
    [
      ("workload", json_string args.workload);
      ("seed", string_of_int args.wseed);
      ("seconds", Printf.sprintf "%g" args.seconds);
      ("trace", if args.trace then "1" else "0");
      ("nproc", string_of_int nproc);
      ("jobs", string_of_int w.jobs);
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string (commit ()));
      ("source_md5", json_string (source_md5 ()));
      ("checks", string_of_int !checked);
      ("checks_matched", string_of_int !matched);
    ]
    @ extra
  in
  Printf.printf "{\"meta\": {%s}}\n"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v)
          meta));
  List.iter
    (fun (name, v, u) -> Printf.printf "%-26s %14.6f %s\n" name v u)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!checked > 0 && !matched = !checked && !failed = 0)
    !attempted !failed (metrics_json metrics)
