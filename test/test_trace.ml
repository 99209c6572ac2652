(* Tests for the observability substrate: Metrics counters/timers and
   their deterministic rendering, Trace span recording and Chrome
   trace-event export (validated with the bundled checker), the
   zero-overhead disabled mode, progress-line formatting, and the
   metric mirrors threaded through Pool and the sweep engine. *)

module Metrics = Gat_util.Metrics
module Trace = Gat_util.Trace
module Progress = Gat_util.Progress
module Pool = Gat_util.Pool
module Tuner = Gat_tuner.Tuner
module Space = Gat_tuner.Space

(* Private scratch cache directory; never the user's ~/.cache/gat. *)
let () =
  Unix.putenv "GAT_CACHE_DIR"
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "gat-test-trace-%d" (Unix.getpid ())))

let kernel = Gat_workloads.Workloads.atax
let kernel2 = Gat_workloads.Workloads.bicg
let gpu = Gat_arch.Gpu.k20
let gpu2 = Gat_arch.Gpu.m2050

let small_space =
  {
    Space.tc = [ 64; 128 ];
    bc = [ 32; 64 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

(* ---- metrics ---- *)

let test_counter_basics () =
  let c = Metrics.counter "test.basics" in
  Metrics.set c 0;
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Metrics.value c);
  Alcotest.(check bool) "same registration" true (Metrics.counter "test.basics" == c);
  Metrics.bump "test.basics";
  Alcotest.(check int) "bump" 6 (Metrics.value c)

let test_snapshot_sorted () =
  ignore (Metrics.counter "test.zz");
  ignore (Metrics.counter "test.aa");
  let names = List.map fst (Metrics.counters_snapshot ()) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_prometheus_render () =
  let c = Metrics.counter "test.render.dots" in
  Metrics.set c 3;
  let dump = Metrics.render_counters () in
  let want = "# TYPE gat_test_render_dots counter\ngat_test_render_dots 3\n" in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mangled name and value present" true (contains dump want)

let test_timer () =
  let t = Metrics.timer "test.timer" in
  let v, dt = Metrics.timed t (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "nonnegative duration" true (dt >= 0.0);
  (match Metrics.timed t (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected raise");
  let recorded =
    List.exists
      (fun (name, events, _) -> name = "test.timer" && events = 2)
      (Metrics.timers_snapshot ())
  in
  Alcotest.(check bool) "both runs recorded (incl. the raising one)" true recorded

let test_pp_duration () =
  Alcotest.(check string) "sub-ms" "0.50 ms" (Metrics.pp_duration 0.0005);
  Alcotest.(check string) "ms" "50 ms" (Metrics.pp_duration 0.05);
  Alcotest.(check string) "seconds" "1.3 s" (Metrics.pp_duration 1.34);
  Alcotest.(check string) "long" "250 s" (Metrics.pp_duration 250.0)

(* ---- trace: disabled mode ---- *)

let test_disabled_emits_nothing () =
  Trace.disable ();
  Trace.clear ();
  let v = Trace.span "should.not.record" (fun () -> 7) in
  Trace.instant "also.not";
  Alcotest.(check int) "thunk still runs" 7 v;
  Alcotest.(check int) "no events buffered" 0 (Trace.collected ());
  Alcotest.(check bool) "finish without enable_to" true (Trace.finish () = None)

(* ---- trace: recording ---- *)

let test_span_transparency () =
  Trace.clear ();
  Trace.enable ();
  let v = Trace.span "t" (fun () -> "ok") in
  (match Trace.span "raises" (fun () -> failwith "boom") with
  | exception Failure m -> Alcotest.(check string) "exn re-raised" "boom" m
  | _ -> Alcotest.fail "expected raise");
  Trace.disable ();
  Alcotest.(check string) "value unchanged" "ok" v;
  Alcotest.(check int) "both spans recorded" 2 (Trace.collected ());
  Trace.clear ()

let test_trace_roundtrip () =
  Gat_tuner.Disk_cache.set_enabled false;
  Tuner.clear_cache ();
  Trace.clear ();
  Trace.enable ();
  List.iter
    (fun (k, g) -> ignore (Tuner.sweep ~space:small_space ~jobs:2 k g ~n:32 ~seed:7))
    [ (kernel, gpu); (kernel, gpu2); (kernel2, gpu); (kernel2, gpu2) ];
  Trace.disable ();
  let json, events = Trace.render () in
  Trace.clear ();
  Gat_tuner.Disk_cache.set_enabled true;
  Alcotest.(check bool) "events recorded" true (events > 0);
  match
    Trace.validate_string
      ~require:
        [ "sweep.points"; "cache.codegen.hits"; "pool.jobs.ok"; "sim.runs" ]
      json
  with
  | Error e -> Alcotest.failf "trace invalid: %s" e
  | Ok v ->
      Alcotest.(check int) "all span events survive the export" events
        v.Trace.events;
      Alcotest.(check bool) "multiple domain tracks" true (v.Trace.tracks >= 2);
      let has name = List.mem name v.Trace.span_names in
      List.iter
        (fun n -> Alcotest.(check bool) n true (has n))
        [ "compile"; "simulate"; "sweep.compile"; "sweep.simulate" ]

(* The structural digests that key the codegen, block-table and
   verdict caches cost real time; they must show as named spans and
   timers, not as an unattributed gap inside [compile]. *)
let test_keying_spans () =
  Gat_tuner.Disk_cache.set_enabled false;
  Tuner.clear_cache ();
  Trace.clear ();
  Trace.enable ();
  ignore (Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:32 ~seed:7);
  Trace.disable ();
  let json, _ = Trace.render () in
  Trace.clear ();
  Gat_tuner.Disk_cache.set_enabled true;
  let timed name =
    List.exists
      (fun (n, events, _) -> n = name && events > 0)
      (Metrics.timers_snapshot ())
  in
  match Trace.validate_string json with
  | Error e -> Alcotest.failf "trace invalid: %s" e
  | Ok v ->
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " span") true (List.mem n v.Trace.span_names);
          Alcotest.(check bool) (n ^ " timer") true (timed n))
        [ "compile.key"; "verify.key" ]

let test_validator_negatives () =
  let bad s =
    match Trace.validate_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected rejection of %s" s
  in
  bad "not json";
  bad "{}";
  bad {|{"traceEvents": [{"ph": "X", "ts": 0, "tid": 0, "dur": 1}]}|};
  (* unbalanced B *)
  bad {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "tid": 0}]}|};
  (* E without B *)
  bad {|{"traceEvents": [{"name": "a", "ph": "E", "ts": 1, "tid": 0}]}|};
  (* B/E name mismatch *)
  bad
    {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "tid": 0},
                       {"name": "b", "ph": "E", "ts": 1, "tid": 0}]}|};
  (* negative X duration *)
  bad {|{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "tid": 0, "dur": -1}]}|};
  (* balanced B/E is fine... *)
  (match
     Trace.validate_string
       {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "tid": 0},
                          {"name": "a", "ph": "E", "ts": 1, "tid": 0}]}|}
   with
  | Ok v -> Alcotest.(check int) "balanced pair accepted" 2 v.Trace.events
  | Error e -> Alcotest.failf "balanced pair rejected: %s" e);
  (* ... unless a required counter is absent *)
  match
    Trace.validate_string ~require:[ "nope" ]
      {|{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "tid": 0, "dur": 1}]}|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing required counter accepted"

let test_require_thresholds () =
  let counter_trace v =
    Printf.sprintf
      {|{"traceEvents": [{"name": "pool.steals", "ph": "C", "ts": 0, "tid": 0, "args": {"value": %d}}]}|}
      v
  in
  let expect ~require body = function
    | `Ok -> (
        match Trace.validate_string ~require body with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "%s rejected: %s" (String.concat "," require) e)
    | `Err -> (
        match Trace.validate_string ~require body with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "%s accepted" (String.concat "," require))
  in
  expect ~require:[ "pool.steals>0" ] (counter_trace 3) `Ok;
  expect ~require:[ "pool.steals>2" ] (counter_trace 3) `Ok;
  expect ~require:[ "pool.steals>3" ] (counter_trace 3) `Err;
  expect ~require:[ "pool.steals>0" ] (counter_trace 0) `Err;
  expect ~require:[ "absent>0" ] (counter_trace 3) `Err;
  (* Malformed bound: rejected loudly, not treated as a name. *)
  expect ~require:[ "pool.steals>many" ] (counter_trace 3) `Err;
  (* Bare name still means presence, whatever the value. *)
  expect ~require:[ "pool.steals" ] (counter_trace 0) `Ok;
  (* >= : inclusive lower bound. *)
  expect ~require:[ "pool.steals>=3" ] (counter_trace 3) `Ok;
  expect ~require:[ "pool.steals>=4" ] (counter_trace 3) `Err;
  expect ~require:[ "pool.steals>=0" ] (counter_trace 0) `Ok;
  (* = : exact value. *)
  expect ~require:[ "pool.steals=3" ] (counter_trace 3) `Ok;
  expect ~require:[ "pool.steals=2" ] (counter_trace 3) `Err;
  expect ~require:[ "pool.steals=0" ] (counter_trace 0) `Ok;
  (* Negatives for the new comparators: absent names and malformed
     bounds still fail loudly. *)
  expect ~require:[ "absent>=0" ] (counter_trace 3) `Err;
  expect ~require:[ "absent=0" ] (counter_trace 3) `Err;
  expect ~require:[ "pool.steals>=" ] (counter_trace 3) `Err;
  expect ~require:[ "pool.steals=" ] (counter_trace 3) `Err;
  expect ~require:[ "pool.steals=many" ] (counter_trace 3) `Err;
  expect ~require:[ "=3" ] (counter_trace 3) `Err

let test_write_file_and_validate () =
  let path = Filename.temp_file "gat-trace" ".json" in
  Trace.clear ();
  Trace.enable_to path;
  ignore (Trace.span "alpha" (fun () -> ()));
  Trace.instant "beta";
  (match Trace.finish () with
  | None -> Alcotest.fail "finish should report the written file"
  | Some (p, events) ->
      Alcotest.(check string) "path" path p;
      Alcotest.(check int) "events" 2 events);
  (match Trace.validate_file path with
  | Ok v -> Alcotest.(check int) "parsed back" 2 v.Trace.events
  | Error e -> Alcotest.failf "invalid file: %s" e);
  Sys.remove path;
  Alcotest.(check int) "buffers cleared by finish" 0 (Trace.collected ())

(* ---- determinism: metrics across two cached runs ---- *)

let test_cached_sweep_metrics_deterministic () =
  Gat_tuner.Disk_cache.set_enabled true;
  ignore (Gat_tuner.Disk_cache.clear ());
  Tuner.clear_cache ();
  (* Populate the disk cache once. *)
  ignore (Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:48 ~seed:3);
  let snapshot () =
    Metrics.reset ();
    Tuner.clear_cache ();
    ignore (Tuner.sweep ~space:small_space ~jobs:2 kernel gpu ~n:48 ~seed:3);
    Metrics.render_counters ()
  in
  let a = snapshot () in
  let b = snapshot () in
  Alcotest.(check string) "identical counter dumps" a b;
  ignore (Gat_tuner.Disk_cache.clear ())

(* ---- pool: recovered-after-retry visibility ---- *)

let test_pool_recovered_metric () =
  let recovered = Metrics.counter "pool.jobs.recovered" in
  let ok = Metrics.counter "pool.jobs.ok" in
  let retries = Metrics.counter "pool.retries" in
  let r0 = Metrics.value recovered
  and ok0 = Metrics.value ok
  and t0 = Metrics.value retries in
  let lock = Mutex.create () in
  let attempts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let flaky x =
    let a =
      Pool.with_lock lock (fun () ->
          let a = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts x) in
          Hashtbl.replace attempts x a;
          a)
    in
    (* Every third element fails on its first attempt only. *)
    if x mod 3 = 0 && a = 1 then failwith "flaky";
    x * 2
  in
  let input = Array.init 12 Fun.id in
  let results = Pool.map_result ~jobs:2 ~retries:1 flaky input in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "result" (i * 2) v
      | Error _ -> Alcotest.fail "no element should fail after retry")
    results;
  Alcotest.(check int) "recovered = flaky elements" 4
    (Metrics.value recovered - r0);
  Alcotest.(check int) "all ok" 12 (Metrics.value ok - ok0);
  Alcotest.(check int) "one retry per flaky element" 4
    (Metrics.value retries - t0)

(* ---- tuner: progress callback ---- *)

let test_progress_callback () =
  Gat_tuner.Disk_cache.set_enabled false;
  Tuner.clear_cache ();
  let calls = ref [] in
  let progress ~done_ ~total ~failures =
    calls := (done_, total, failures) :: !calls
  in
  let r =
    Tuner.sweep_report ~space:small_space ~jobs:2 ~block:3 ~checkpoint:false
      ~progress kernel gpu ~n:32 ~seed:11
  in
  Gat_tuner.Disk_cache.set_enabled true;
  let total = Space.cardinality small_space in
  Alcotest.(check int) "all variants valid" total
    (List.length r.Tuner.variants);
  let calls = List.rev !calls in
  (match calls with
  | (0, t, 0) :: _ -> Alcotest.(check int) "initial total" total t
  | _ -> Alcotest.fail "first call should report 0 done");
  (match List.rev calls with
  | (d, t, _) :: _ ->
      Alcotest.(check int) "final done" total d;
      Alcotest.(check int) "final total" total t
  | [] -> Alcotest.fail "no progress calls");
  (* One initial call plus one per block of 3 points. *)
  Alcotest.(check int) "call count" (1 + ((total + 2) / 3)) (List.length calls)

(* ---- progress rendering ---- *)

let test_render_line () =
  Alcotest.(check string) "mid-sweep"
    "atax/k20 50/100 50%  5 pts/s  ETA 10.0 s  cache 87%  failed 2"
    (Progress.render_line ~label:"atax/k20" ~total:100 ~done_:50 ~failures:2
       ~cache_hit_pct:(Some 87) ~steals:None ~elapsed_s:10.0 ());
  Alcotest.(check string) "start, no cache figure"
    "k 0/10 0%  0 pts/s  ETA --  failed 0"
    (Progress.render_line ~label:"k" ~total:10 ~done_:0 ~failures:0
       ~cache_hit_pct:None ~steals:None ~elapsed_s:0.0 ());
  Alcotest.(check string) "steals shown once positive"
    "k 5/10 50%  1 pts/s  ETA 5.0 s  steals 12 (2/s)  failed 0"
    (Progress.render_line ~label:"k" ~total:10 ~done_:5 ~failures:0
       ~cache_hit_pct:None ~steals:(Some 12) ~elapsed_s:5.0 ());
  Alcotest.(check string) "zero steals stays hidden"
    "k 5/10 50%  1 pts/s  ETA 5.0 s  failed 0"
    (Progress.render_line ~label:"k" ~total:10 ~done_:5 ~failures:0
       ~cache_hit_pct:None ~steals:(Some 0) ~elapsed_s:5.0 ());
  Alcotest.(check string) "sharded sweep shows workers and reclaims"
    "k 5/10 50%  1 pts/s  ETA 5.0 s  workers 2  reclaimed 1  failed 0"
    (Progress.render_line ~workers:2 ~reclaimed:1 ~label:"k" ~total:10
       ~done_:5 ~failures:0 ~cache_hit_pct:None ~steals:None ~elapsed_s:5.0 ());
  Alcotest.(check string) "zero workers stays hidden"
    "k 5/10 50%  1 pts/s  ETA 5.0 s  failed 0"
    (Progress.render_line ~workers:0 ~reclaimed:0 ~label:"k" ~total:10
       ~done_:5 ~failures:0 ~cache_hit_pct:None ~steals:None ~elapsed_s:5.0 ())

let test_progress_non_tty () =
  let path = Filename.temp_file "gat-progress" ".log" in
  let out = open_out path in
  let p = Progress.create ~out ~tty:false ~label:"lbl" ~total:8 () in
  Progress.update p ~done_:4 ~failures:1 ();
  Progress.finish p ~done_:8 ~failures:1 ~cache_hit_pct:50 ();
  close_out out;
  let lines =
    In_channel.with_open_text path In_channel.input_lines
  in
  Sys.remove path;
  (* First update always renders (interval starts expired); finish is
     unthrottled. *)
  Alcotest.(check int) "two full lines" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "greppable" true
        (String.length l > 0 && l.[0] = 'l'))
    lines

let () =
  Alcotest.run "gat_trace"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "prometheus render" `Quick test_prometheus_render;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "pp_duration" `Quick test_pp_duration;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled emits nothing" `Quick
            test_disabled_emits_nothing;
          Alcotest.test_case "span transparency" `Quick test_span_transparency;
          Alcotest.test_case "sweep roundtrip validates" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "keying spans named" `Quick test_keying_spans;
          Alcotest.test_case "require thresholds" `Quick
            test_require_thresholds;
          Alcotest.test_case "validator negatives" `Quick
            test_validator_negatives;
          Alcotest.test_case "write file" `Quick test_write_file_and_validate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cached sweep metrics" `Quick
            test_cached_sweep_metrics_deterministic;
        ] );
      ( "pool",
        [
          Alcotest.test_case "recovered metric" `Quick
            test_pool_recovered_metric;
        ] );
      ( "progress",
        [
          Alcotest.test_case "tuner callback" `Quick test_progress_callback;
          Alcotest.test_case "render_line" `Quick test_render_line;
          Alcotest.test_case "non-tty lines" `Quick test_progress_non_tty;
        ] );
    ]
