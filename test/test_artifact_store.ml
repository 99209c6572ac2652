(* Tests for the content-addressed artifact store: golden key
   stability, bt and verdict round-trips, BC-plane sharing across
   simulated processes, bit-identity of store-served sweeps,
   corruption tolerance, what a sweep leaves in the store, and the LRU
   gc. *)

(* Everything below must run against a private scratch directory, never
   the user's real cache. *)
let scratch =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gat-test-artifacts-%d" (Unix.getpid ()))
  in
  Unix.putenv "GAT_CACHE_DIR" d;
  d

module Artifacts = Gat_compiler.Artifacts
module Store = Gat_tuner.Artifact_store
module Fingerprint = Gat_isa.Fingerprint
module Params = Gat_compiler.Params
module Space = Gat_tuner.Space
module Variant = Gat_tuner.Variant

(* The sweep-level cache would satisfy warm sweeps wholesale and hide
   the per-stage store behavior under test. *)
let () = Gat_tuner.Disk_cache.set_enabled false

let kernel = Gat_workloads.Workloads.atax
let gpu = Gat_arch.Gpu.k20

let reset () =
  Artifacts.set_enabled true;
  ignore (Artifacts.clear ());
  Artifacts.reset_stats ();
  Gat_tuner.Tuner.clear_cache ()

let compiled = lazy (Gat_compiler.Driver.compile_exn kernel gpu Params.default)
let vp () = (Lazy.force compiled).Gat_compiler.Driver.ptx

(* ---- golden keys ----

   Pinned digests for a fixed kernel, device and parameter set.  These
   move only when the fingerprint definition, a stage's key inputs, or
   a stage format version changes — all deliberate, documented events
   (DESIGN.md section 5.8).  Anything else moving them is an
   accidental cache-invalidation bug: every store entry in every
   user's cache would silently orphan. *)

let test_golden_keys () =
  let p = vp () in
  let got =
    [
      ("program fingerprint", Fingerprint.program p);
      ("bt key", Artifacts.bt_key ~gpu ~params:Params.default ~regs_per_thread:20 p);
      ("verdict key", Artifacts.verdict_key ~threads_per_block:128 p);
    ]
  in
  let want =
    [
      ("program fingerprint", "133774d54218b7a5eb6218242fd5a562");
      ("bt key", "5008f7939cab5539b99789ef0ddbee3c");
      ("verdict key", "39ac2ff361dab7fbcaf28a82a2675617");
    ]
  in
  Alcotest.(check (list (pair string string))) "pinned digests" want got

let test_keys_weight_free () =
  (* Same code at a different launch geometry: the fingerprint must be
     unchanged, and the bt and verdict keys must move only with the
     scalars they read. *)
  let c1 = Lazy.force compiled in
  let params2 = Params.make ~threads_per_block:512 ~block_count:24 () in
  let c2 = Gat_compiler.Driver.compile_exn kernel gpu params2 in
  let p1 = c1.Gat_compiler.Driver.ptx and p2 = c2.Gat_compiler.Driver.ptx in
  Alcotest.(check string) "fingerprint ignores TC/BC" (Fingerprint.program p1)
    (Fingerprint.program p2);
  Alcotest.(check bool) "bt key reads TC" false
    (Artifacts.bt_key ~gpu ~params:Params.default ~regs_per_thread:20 p1
    = Artifacts.bt_key ~gpu ~params:params2 ~regs_per_thread:20 p1);
  Alcotest.(check bool) "verdict key reads TC" false
    (Artifacts.verdict_key ~threads_per_block:128 p1
    = Artifacts.verdict_key ~threads_per_block:512 p1);
  Alcotest.(check bool) "bt key reads the device" false
    (Artifacts.bt_key ~gpu ~params:Params.default ~regs_per_thread:20 p1
    = Artifacts.bt_key ~gpu:Gat_arch.Gpu.p100 ~params:Params.default
        ~regs_per_thread:20 p1)

(* ---- stage round-trips ---- *)

let bt_key_of (c : Gat_compiler.Driver.compiled) =
  Artifacts.bt_key ~gpu ~params:c.Gat_compiler.Driver.params
    ~regs_per_thread:c.Gat_compiler.Driver.log.Gat_compiler.Ptxas_info.registers
    c.Gat_compiler.Driver.ptx

let check_bt_equal (a : Gat_compiler.Block_table.t)
    (b : Gat_compiler.Block_table.t) =
  (* [compare], not [=], so a NaN cell equals itself.  The label index
     is a hashtable whose layout depends on its creation size, so it is
     checked by lookup instead. *)
  Alcotest.(check bool) "table identical" true
    (compare { a with Gat_compiler.Block_table.index = b.index } b = 0);
  Array.iteri
    (fun i l ->
      Alcotest.(check (option int)) "label index" (Some i)
        (Hashtbl.find_opt b.Gat_compiler.Block_table.index l))
    a.Gat_compiler.Block_table.labels

let test_bt_roundtrip () =
  (* Compile first: the pipeline stores its own bt entry, which the
     reset then removes. *)
  let c = Lazy.force compiled in
  reset ();
  let key = bt_key_of c in
  Alcotest.(check bool) "miss before store" true (Artifacts.find_bt ~key = None);
  Artifacts.store_bt ~key c.Gat_compiler.Driver.block_table;
  (match Artifacts.find_bt ~key with
  | None -> Alcotest.fail "stored block table not found"
  | Some loaded -> check_bt_equal c.Gat_compiler.Driver.block_table loaded);
  let s = Artifacts.stats () in
  Alcotest.(check int) "one store" 1 s.Artifacts.stores;
  Alcotest.(check int) "one hit" 1 s.Artifacts.hits;
  Alcotest.(check int) "one miss" 1 s.Artifacts.misses

let fixture_program name =
  Gat_isa.Parser.program_exn
    (In_channel.with_open_text (Filename.concat "fixtures" name)
       In_channel.input_all)

let test_verdict_findings_roundtrip () =
  reset ();
  List.iter
    (fun name ->
      let p = fixture_program name in
      let report = Gat_analysis.Verify.run ~threads_per_block:128 p in
      Alcotest.(check bool) (name ^ " has findings") false
        (Gat_analysis.Verify.safe report);
      let key = Artifacts.verdict_key ~threads_per_block:128 p in
      Alcotest.(check bool) (name ^ " misses before store") true
        (Artifacts.find_verdict ~key = None);
      Artifacts.store_verdict ~key report;
      match Artifacts.find_verdict ~key with
      | None -> Alcotest.failf "%s: stored verdict not found" name
      | Some loaded ->
          Alcotest.(check bool) (name ^ " report identical") true
            (loaded = report);
          Alcotest.(check string) (name ^ " render identical")
            (Gat_analysis.Verify.render report)
            (Gat_analysis.Verify.render loaded))
    [ "racy_smem.sass"; "divergent_bar.sass" ]

let test_disabled_is_inert () =
  let c = Lazy.force compiled in
  reset ();
  Artifacts.set_enabled false;
  let vp = c.Gat_compiler.Driver.ptx in
  let bt_key = bt_key_of c in
  let verdict_key = Artifacts.verdict_key ~threads_per_block:128 vp in
  Artifacts.store_bt ~key:bt_key c.Gat_compiler.Driver.block_table;
  Artifacts.store_verdict ~key:verdict_key
    (Gat_analysis.Verify.run ~threads_per_block:128 vp);
  Alcotest.(check bool) "no bt find when disabled" true
    (Artifacts.find_bt ~key:bt_key = None);
  Alcotest.(check bool) "no verdict find when disabled" true
    (Artifacts.find_verdict ~key:verdict_key = None);
  let files, _ = Artifacts.disk_usage () in
  Alcotest.(check int) "no file written" 0 files;
  let s = Artifacts.stats () in
  Alcotest.(check int) "no counters touched" 0
    (s.Artifacts.hits + s.Artifacts.misses + s.Artifacts.stores);
  Artifacts.set_enabled true

(* ---- sweeps: sharing and bit-identity ---- *)

let small_space =
  {
    Space.tc = [ 64; 128 ];
    bc = [ 32; 64 ];
    uif = [ 1; 2 ];
    pl = [ 16 ];
    sc = [ 1 ];
    cflags = [ false ];
  }

let check_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_variants_identical first second =
  Alcotest.(check int) "variant count" (List.length first) (List.length second);
  List.iter2
    (fun (a : Variant.t) (b : Variant.t) ->
      Alcotest.(check int) "params equal" 0 (Params.compare a.Variant.params b.Variant.params);
      check_bits "time_ms" a.Variant.time_ms b.Variant.time_ms;
      check_bits "occupancy" a.Variant.occupancy b.Variant.occupancy;
      Alcotest.(check int) "registers" a.Variant.registers b.Variant.registers;
      List.iter2
        (fun (ma : Gat_core.Imix.t) (mb : Gat_core.Imix.t) ->
          Array.iteri
            (fun i v -> check_bits "mix" v mb.Gat_core.Imix.per_category.(i))
            ma.Gat_core.Imix.per_category;
          check_bits "reg_operands" ma.Gat_core.Imix.reg_operands
            mb.Gat_core.Imix.reg_operands)
        [ a.Variant.dynamic_mix; a.Variant.est_mix ]
        [ b.Variant.dynamic_mix; b.Variant.est_mix ])
    first second

let test_store_served_sweep_identical () =
  reset ();
  (* "Process one": cold — every stage computed and persisted. *)
  let first =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3
  in
  (* "Process two": in-memory caches empty, artifact tree intact.  The
     hard invariant: the store-served sweep is bit-identical, and no
     stage is recomputed. *)
  Gat_tuner.Tuner.clear_cache ();
  let before = Artifacts.stats () in
  let second =
    Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3
  in
  let after = Artifacts.stats () in
  check_variants_identical first second;
  Alcotest.(check int) "no artifact misses on the warm sweep" 0
    (after.Artifacts.misses - before.Artifacts.misses);
  Alcotest.(check bool) "artifact hits cover the warm sweep" true
    (after.Artifacts.hits - before.Artifacts.hits > 0)

let test_identical_across_kernels_and_gpus () =
  reset ();
  (* The same invariant over every bundled workload on every device:
     a tiny space keeps the product fast. *)
  let tiny =
    { small_space with Space.tc = [ 64; 128 ]; bc = [ 32 ]; uif = [ 1 ] }
  in
  List.iter
    (fun k ->
      List.iter
        (fun g ->
          Gat_tuner.Tuner.clear_cache ();
          let first =
            Gat_tuner.Tuner.sweep ~space:tiny ~jobs:1 k g ~n:64 ~seed:5
          in
          Gat_tuner.Tuner.clear_cache ();
          let before = Artifacts.stats () in
          let second =
            Gat_tuner.Tuner.sweep ~space:tiny ~jobs:1 k g ~n:64 ~seed:5
          in
          let after = Artifacts.stats () in
          check_variants_identical first second;
          Alcotest.(check int)
            (Printf.sprintf "%s on %s: warm sweep all store-served"
               k.Gat_ir.Kernel.name g.Gat_arch.Gpu.name)
            0
            (after.Artifacts.misses - before.Artifacts.misses))
        Gat_arch.Gpu.all)
    Gat_workloads.Workloads.all

let test_bc_plane_shared_across_processes () =
  reset ();
  (* Sweep at BC=32 only, then a "new process" sweeps the BC=64 plane
     (and a new problem size): everything downstream of scheduling is
     weight-free, so the second sweep must be all hits. *)
  let bc32 = { small_space with Space.bc = [ 32 ] } in
  let bc64 = { small_space with Space.bc = [ 64 ] } in
  ignore (Gat_tuner.Tuner.sweep ~space:bc32 ~jobs:1 kernel gpu ~n:64 ~seed:3);
  Gat_tuner.Tuner.clear_cache ();
  let before = Artifacts.stats () in
  ignore (Gat_tuner.Tuner.sweep ~space:bc64 ~jobs:1 kernel gpu ~n:128 ~seed:3);
  let after = Artifacts.stats () in
  Alcotest.(check int) "BC-only variants recompute nothing" 0
    (after.Artifacts.misses - before.Artifacts.misses);
  Alcotest.(check bool) "served from the BC=32 plane's artifacts" true
    (after.Artifacts.hits - before.Artifacts.hits > 0)

(* ---- corruption (QCheck) ----

   Every truncation and single-byte corruption of a stored entry must
   read as a miss (or, when the mutation writes back the original
   byte, an unchanged hit) — never a wrong hit, never an exception. *)

(* The fuzzed entries: the bt entry the compile pipeline stores, and
   the verdict entry of the racy fixture, findings included.  [hit]
   looks the entry up and reports whether it was served. *)
type fuzzed = { path : string; whole : string; hit : unit -> bool }

let fuzzed_entries =
  lazy
    (reset ();
     (* Recompile after the reset: the compile pipeline stores the bt
        entry as a side effect. *)
     let c = Gat_compiler.Driver.compile_exn kernel gpu Params.default in
     let bt_key = bt_key_of c in
     let racy = fixture_program "racy_smem.sass" in
     let verdict_key = Artifacts.verdict_key ~threads_per_block:128 racy in
     Artifacts.store_verdict ~key:verdict_key
       (Gat_analysis.Verify.run ~threads_per_block:128 racy);
     let entry stage key hit =
       let path =
         Filename.concat (Artifacts.dir ()) (stage ^ "-" ^ key ^ ".art")
       in
       Alcotest.(check bool) (stage ^ " entry on disk") true
         (Sys.file_exists path);
       { path; whole = In_channel.with_open_bin path In_channel.input_all; hit }
     in
     ( entry "bt" bt_key (fun () -> Artifacts.find_bt ~key:bt_key <> None),
       entry "verdict" verdict_key (fun () ->
           Artifacts.find_verdict ~key:verdict_key <> None) ))

let pick verdict =
  let bt, v = Lazy.force fuzzed_entries in
  if verdict then v else bt

let find_mutated e mutated =
  Out_channel.with_open_bin e.path (fun oc -> Out_channel.output_string oc mutated);
  match e.hit () with
  | exception ex ->
      Alcotest.failf "find raised on corrupted %s: %s" e.path
        (Printexc.to_string ex)
  | false -> String.compare mutated e.whole <> 0
  | true -> String.compare mutated e.whole = 0

let test_truncation_property =
  QCheck.Test.make ~name:"every truncation is a miss" ~count:200
    QCheck.(pair bool (float_range 0.0 1.0))
    (fun (verdict, frac) ->
      let e = pick verdict in
      let keep = int_of_float (frac *. float_of_int (String.length e.whole)) in
      let keep = min keep (String.length e.whole - 1) in
      find_mutated e (String.sub e.whole 0 keep))

let test_byte_flip_property =
  QCheck.Test.make ~name:"every single-byte corruption is a miss" ~count:500
    QCheck.(triple bool (float_range 0.0 1.0) (int_range 0 255))
    (fun (verdict, frac, byte) ->
      let e = pick verdict in
      let pos =
        min
          (String.length e.whole - 1)
          (int_of_float (frac *. float_of_int (String.length e.whole)))
      in
      let mutated = Bytes.of_string e.whole in
      Bytes.set mutated pos (Char.chr byte);
      find_mutated e (Bytes.to_string mutated))

(* ---- what the store holds ---- *)

let stage_of path =
  let name = Filename.basename path in
  match String.index_opt name '-' with
  | Some i -> String.sub name 0 i
  | None -> name

let test_sweep_leaves_bt_and_verdict () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let stages = List.sort_uniq String.compare (List.map stage_of (Artifacts.entries ())) in
  Alcotest.(check (list string)) "only bt and verdict entries" [ "bt"; "verdict" ]
    stages

(* Entries of the retired schedule/regalloc/coalescing stages, as a
   cache written by an older gat would hold them. *)
let plant_legacy () =
  let dir = Artifacts.dir () in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.map
    (fun stage ->
      let path =
        Filename.concat dir
          (stage ^ "-" ^ Digest.to_hex (Digest.string stage) ^ ".art")
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc ("gat-artifact 1\nstage " ^ stage ^ "/1\n"));
      path)
    [ "sched"; "ra"; "coal" ]

let test_legacy_entries_reclaimed () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let current = Artifacts.entries () in
  (* gc: aged far into the past, the legacy files are the coldest and
     go first; a budget of exactly the current entries keeps those. *)
  let legacy = plant_legacy () in
  let past = Unix.time () -. 864000.0 in
  List.iter (fun p -> Unix.utimes p past past) legacy;
  let _, bytes = Artifacts.disk_usage () in
  let legacy_bytes =
    List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 legacy
  in
  let r = Store.gc ~max_bytes:(bytes - legacy_bytes) in
  Alcotest.(check int) "gc evicts the legacy entries" (List.length legacy)
    r.Store.removed_files;
  Alcotest.(check (list string)) "gc keeps the current entries" current
    (Artifacts.entries ());
  (* clear: every .art file goes, whatever its stage. *)
  let legacy = plant_legacy () in
  let removed = Artifacts.clear () in
  Alcotest.(check int) "clear removes current and legacy entries"
    (List.length current + List.length legacy)
    removed;
  Alcotest.(check (list string)) "store empty" [] (Artifacts.entries ())

(* ---- gc ---- *)

let test_gc_evicts_lru () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let entries = Artifacts.entries () in
  Alcotest.(check bool) "sweep left artifacts" true (List.length entries > 1);
  let _, bytes = Artifacts.disk_usage () in
  (* Age the first half far into the past; gc under a tight budget must
     take the cold half first. *)
  let n = List.length entries in
  let old_half = List.filteri (fun i _ -> i < n / 2) entries in
  let past = Unix.time () -. 864000.0 in
  List.iter (fun p -> Unix.utimes p past past) old_half;
  let r = Store.gc ~max_bytes:(bytes / 2) in
  Alcotest.(check int) "every candidate examined" n r.Store.files;
  Alcotest.(check bool) "something evicted" true (r.Store.removed_files > 0);
  Alcotest.(check bool) "budget honoured" true
    (r.Store.bytes - r.Store.removed_bytes <= bytes / 2);
  let survivors = Artifacts.entries () in
  (* LRU order: eviction stops at the budget, so the evicted set must
     be drawn from the aged half alone unless the whole aged half is
     gone. *)
  let evicted = List.filter (fun p -> not (List.mem p survivors)) entries in
  let recent_evicted = List.filter (fun p -> not (List.mem p old_half)) evicted in
  let aged_survived = List.filter (fun p -> List.mem p survivors) old_half in
  Alcotest.(check bool) "no recent entry evicted before the aged ones" true
    (recent_evicted = [] || aged_survived = []);
  Alcotest.(check bool) "some recent entry survived" true
    (List.exists (fun p -> not (List.mem p old_half)) survivors);
  (* A second gc under the same budget is a no-op. *)
  let r2 = Store.gc ~max_bytes:(bytes / 2) in
  Alcotest.(check int) "idempotent" 0 r2.Store.removed_files

let test_gc_unbounded_keeps_everything () =
  reset ();
  ignore (Gat_tuner.Tuner.sweep ~space:small_space ~jobs:1 kernel gpu ~n:64 ~seed:3);
  let files, bytes = Artifacts.disk_usage () in
  let r = Store.gc ~max_bytes:(bytes * 2) in
  Alcotest.(check int) "nothing evicted" 0 r.Store.removed_files;
  let files', bytes' = Artifacts.disk_usage () in
  Alcotest.(check int) "files intact" files files';
  Alcotest.(check int) "bytes intact" bytes bytes'

let cleanup () =
  Artifacts.set_enabled true;
  ignore (Artifacts.clear ());
  (try Sys.rmdir (Artifacts.dir ()) with Sys_error _ -> ());
  try if Sys.file_exists scratch then Sys.rmdir scratch
  with Sys_error _ -> ()

let () =
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "gat_artifact_store"
        [
          ( "keys",
            [
              Alcotest.test_case "golden digests" `Quick test_golden_keys;
              Alcotest.test_case "weight-free" `Quick test_keys_weight_free;
            ] );
          ( "entries",
            [
              Alcotest.test_case "bt roundtrip" `Quick test_bt_roundtrip;
              Alcotest.test_case "verdict roundtrip with findings" `Quick
                test_verdict_findings_roundtrip;
              Alcotest.test_case "disabled inert" `Quick test_disabled_is_inert;
            ] );
          ( "sweeps",
            [
              Alcotest.test_case "store-served sweep bit-identical" `Quick
                test_store_served_sweep_identical;
              Alcotest.test_case "bit-identical across kernels x GPUs" `Quick
                test_identical_across_kernels_and_gpus;
              Alcotest.test_case "BC plane shared across processes" `Quick
                test_bc_plane_shared_across_processes;
            ] );
          ( "integrity",
            [
              QCheck_alcotest.to_alcotest test_truncation_property;
              QCheck_alcotest.to_alcotest test_byte_flip_property;
            ] );
          ( "contents",
            [
              Alcotest.test_case "sweep leaves only bt and verdict" `Quick
                test_sweep_leaves_bt_and_verdict;
              Alcotest.test_case "legacy stage entries reclaimed" `Quick
                test_legacy_entries_reclaimed;
            ] );
          ( "gc",
            [
              Alcotest.test_case "evicts LRU first" `Quick test_gc_evicts_lru;
              Alcotest.test_case "no-op within budget" `Quick
                test_gc_unbounded_keeps_everything;
            ] );
        ])
