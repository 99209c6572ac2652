(* The persistent content-addressed artifact store.

   Two stages persist, each keyed by an MD5 over everything that shapes
   its output — the weight-free structural digest of the virtual
   program ({!Gat_isa.Fingerprint}) and the stage-relevant scalars —
   plus a per-stage format version:
   - [bt]      the simulator block table, per virtual program, device
               and the occupancy-relevant scalars (TC, L1 preference,
               staging, allocated regs);
   - [verdict] the safety report, per virtual program and TC (the
               verifier never reads the device or the block count).
   The digests exclude the per-block execution weights (the only
   lowered artifact the launch geometry shapes), so variants that
   differ only in BC or in the problem size N key identically and
   share every stored entry, across runs and across processes.
   Schedule, register allocation and coalescing are not persisted:
   they run once per code class and cost less than reading them back
   ({!Codegen_cache} memoizes them in memory).

   Entries are MD5-sealed atomic files ([Gat_util.Sealed_file]) under
   [<cache root>/artifacts/]; corruption, truncation or a version
   mismatch reads as a miss, never as wrong data, and the stale file
   is simply overwritten by the next store.  I/O failure degrades the
   store exactly like the sweep cache: warn once, latch, keep
   computing uncached.  Chaos testing hooks in through the
   [artifact-read] / [artifact-write] fault sites.

   The hard invariant every codec here must preserve: a store-served
   result is bit-identical to a recomputed one.  All floats travel as
   [%h] hex literals (exact round-trip). *)

open Gat_isa

let magic = "gat-artifact 1"
let dir () = Filename.concat (Gat_util.Cache_dir.root ()) "artifacts"
let lock = Mutex.create ()

(* ---- availability: enabled flag + one-shot degradation ---- *)

let enabled_flag = ref true
let set_enabled b = Gat_util.Pool.with_lock lock (fun () -> enabled_flag := b)
let enabled () = Gat_util.Pool.with_lock lock (fun () -> !enabled_flag)
let degraded_flag = ref false
let warned = ref false
let degraded () = Gat_util.Pool.with_lock lock (fun () -> !degraded_flag)

let reset_degraded () =
  Gat_util.Pool.with_lock lock (fun () ->
      degraded_flag := false;
      warned := false)

let writable () = enabled () && not (degraded ())

(* ---- observability ---- *)

type stats = { hits : int; misses : int; stores : int; degraded_writes : int }

let zero_stats = { hits = 0; misses = 0; stores = 0; degraded_writes = 0 }
let stats_ref = ref zero_stats
let stats () = Gat_util.Pool.with_lock lock (fun () -> !stats_ref)
let reset_stats () = Gat_util.Pool.with_lock lock (fun () -> stats_ref := zero_stats)
let bump f = Gat_util.Pool.with_lock lock (fun () -> stats_ref := f !stats_ref)
let m_hits = Gat_util.Metrics.counter "artifact.hits"
let m_misses = Gat_util.Metrics.counter "artifact.misses"
let m_stores = Gat_util.Metrics.counter "artifact.stores"
let m_degraded = Gat_util.Metrics.counter "artifact.degraded_writes"
let m_bytes_read = Gat_util.Metrics.counter "artifact.bytes_read"
let m_bytes_written = Gat_util.Metrics.counter "artifact.bytes_written"

let stage_names = [ "bt"; "verdict" ]

let per_stage kind =
  List.map
    (fun s -> (s, Gat_util.Metrics.counter (Printf.sprintf "artifact.%s.%s" s kind)))
    stage_names

let per_hits = per_stage "hits"
let per_misses = per_stage "misses"

let hit stage =
  Gat_util.Metrics.incr m_hits;
  Gat_util.Metrics.incr (List.assoc stage per_hits);
  bump (fun s -> { s with hits = s.hits + 1 })

let miss stage =
  Gat_util.Metrics.incr m_misses;
  Gat_util.Metrics.incr (List.assoc stage per_misses);
  bump (fun s -> { s with misses = s.misses + 1 })

let stored () =
  Gat_util.Metrics.incr m_stores;
  bump (fun s -> { s with stores = s.stores + 1 })

(* First failure warns on stderr; the latch silences the rest and the
   run continues computing uncached — an unavailable store must never
   take a sweep down. *)
let degrade reason =
  Gat_util.Metrics.incr m_degraded;
  bump (fun s -> { s with degraded_writes = s.degraded_writes + 1 });
  let warn =
    Gat_util.Pool.with_lock lock (fun () ->
        degraded_flag := true;
        if !warned then false
        else begin
          warned := true;
          true
        end)
  in
  if warn then
    Printf.eprintf
      "gat: warning: artifact store unavailable (%s); continuing uncached\n%!"
      reason

(* ---- keys ---- *)

(* The per-stage format versions.  A version participates in the key,
   so bumping one orphans exactly that stage's old entries (reclaimed
   by [gat cache gc]) and leaves the other stage's results valid. *)
let bt_version = "bt/1"
let verdict_version = "verdict/1"

let key_of_parts parts =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

let bt_key ~gpu ~(params : Params.t) ~regs_per_thread vp =
  key_of_parts
    [
      bt_version;
      Gat_arch.Gpu.identity gpu;
      string_of_int params.Params.threads_per_block;
      string_of_int params.Params.l1_pref_kb;
      string_of_int params.Params.staging;
      string_of_int regs_per_thread;
      Fingerprint.program vp;
    ]

let verdict_key ~threads_per_block vp =
  key_of_parts
    [ verdict_version; string_of_int threads_per_block; Fingerprint.program vp ]

(* ---- the sealed-entry envelope ---- *)

exception Bad

let path_of stage key = Filename.concat (dir ()) (stage ^ "-" ^ key ^ ".art")

type cursor = { s : string; mutable pos : int }

let line cur =
  match String.index_from_opt cur.s cur.pos '\n' with
  | None -> raise Bad
  | Some i ->
      let l = String.sub cur.s cur.pos (i - cur.pos) in
      cur.pos <- i + 1;
      l

let at_end cur = cur.pos >= String.length cur.s
let expect_line cur l = if not (String.equal (line cur) l) then raise Bad

let find_with ~stage ~version ~key parse =
  if not (enabled ()) then None
  else
    let path = path_of stage key in
    if not (Sys.file_exists path) then begin
      miss stage;
      None
    end
    else
      let read () =
        Gat_util.Fault.inject ~site:"artifact-read"
          ~key:(Filename.basename path);
        let raw = Gat_util.Sealed_file.read_raw path in
        Gat_util.Metrics.incr ~by:(String.length raw) m_bytes_read;
        match Gat_util.Sealed_file.unseal raw with
        | None -> raise Bad
        | Some payload ->
            let cur = { s = payload; pos = 0 } in
            expect_line cur magic;
            expect_line cur ("stage " ^ stage ^ "/" ^ version);
            let v = parse cur in
            if not (at_end cur) then raise Bad;
            v
      in
      (* Corrupted, truncated, foreign or stale-format content: a miss;
         the next store overwrites the file. *)
      (match read () with
      | v ->
          hit stage;
          Some v
      | exception _ ->
          miss stage;
          None)

let store_with ~stage ~version ~key emit =
  if writable () then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf magic;
    Buffer.add_char buf '\n';
    Buffer.add_string buf ("stage " ^ stage ^ "/" ^ version ^ "\n");
    emit buf;
    Gat_util.Sealed_file.seal buf;
    let path = path_of stage key in
    match
      Gat_util.Fault.inject ~site:"artifact-write"
        ~key:(Filename.basename path);
      Gat_util.Sealed_file.publish ~path buf
    with
    | () ->
        Gat_util.Metrics.incr ~by:(Buffer.length buf) m_bytes_written;
        stored ()
    | exception Sys_error e -> degrade e
    | exception Gat_util.Fault.Injected e -> degrade e
  end

(* ---- scalar codecs ---- *)

let addf buf fmt = Printf.bprintf buf fmt

(* Token stream over one line.  Emitters never produce trailing or
   doubled spaces, so a plain split is exact. *)
type toks = { mutable rest : string list }

let toks l = { rest = String.split_on_char ' ' l }

let tok t =
  match t.rest with
  | [] -> raise Bad
  | x :: r ->
      t.rest <- r;
      x

let int_tok t =
  match int_of_string_opt (tok t) with Some n -> n | None -> raise Bad

(* [%h] literals parse back bit-exactly via the strtod hex path. *)
let float_tok t =
  match float_of_string_opt (tok t) with Some f -> f | None -> raise Bad

let done_toks t = if t.rest <> [] then raise Bad
let expect_tok t l = if not (String.equal (tok t) l) then raise Bad

let counted cur tag =
  let t = toks (line cur) in
  expect_tok t tag;
  let n = int_tok t in
  done_toks t;
  if n < 0 || n > 1_000_000 then raise Bad;
  n

let rest_after l prefix =
  let n = String.length prefix in
  if String.length l >= n && String.equal (String.sub l 0 n) prefix then
    String.sub l n (String.length l - n)
  else raise Bad

(* Labels and names travel on token lines; anything that could not be
   re-tokenized is unstorable (never produced by the lowering, which
   only emits [entry]/[BB<n>] labels — this is belt and braces). *)
let safe_text s =
  String.length s > 0
  && not (String.exists (fun c -> c = ' ' || c = '\n') s)

(* ---- affine codecs (used by the verdict codec) ---- *)

let emit_coeff buf (c : Gat_analysis.Affine.coeff) =
  match c with
  | Gat_analysis.Affine.Known { k; e } -> addf buf " K %d %d" k e
  | Gat_analysis.Affine.Unknown -> Buffer.add_string buf " U"

let coeff_tok t =
  match tok t with
  | "K" ->
      let k = int_tok t in
      let e = int_tok t in
      Gat_analysis.Affine.Known { k; e }
  | "U" -> Gat_analysis.Affine.Unknown
  | _ -> raise Bad

let emit_value buf (v : Gat_analysis.Affine.value) =
  (match v.Gat_analysis.Affine.base with
  | Some c -> addf buf " C %d" c
  | None -> Buffer.add_string buf " N");
  addf buf " %d" v.Gat_analysis.Affine.mag;
  emit_coeff buf v.Gat_analysis.Affine.tid;
  emit_coeff buf v.Gat_analysis.Affine.iter

let value_tok t =
  let base =
    match tok t with
    | "C" -> Some (int_tok t)
    | "N" -> None
    | _ -> raise Bad
  in
  let mag = int_tok t in
  let tid = coeff_tok t in
  let iter = coeff_tok t in
  { Gat_analysis.Affine.base; mag; tid; iter }

let opcode_tok t =
  match Opcode.of_mnemonic (tok t) with Some o -> o | None -> raise Bad

(* ---- bt: the flat per-block simulator table ---- *)

let emit_farr buf tag arr =
  Buffer.add_string buf tag;
  Array.iter (fun f -> addf buf " %h" f) arr;
  Buffer.add_char buf '\n'

let farr_line cur tag n =
  let t = toks (line cur) in
  expect_tok t tag;
  let a = Array.init n (fun _ -> float_tok t) in
  done_toks t;
  a

let limiter_tag (l : Gat_core.Occupancy.limiter) =
  match l with
  | Gat_core.Occupancy.Warps -> "W"
  | Gat_core.Occupancy.Registers -> "R"
  | Gat_core.Occupancy.Shared_memory -> "S"
  | Gat_core.Occupancy.Illegal -> "I"

let limiter_of_tag = function
  | "W" -> Gat_core.Occupancy.Warps
  | "R" -> Gat_core.Occupancy.Registers
  | "S" -> Gat_core.Occupancy.Shared_memory
  | "I" -> Gat_core.Occupancy.Illegal
  | _ -> raise Bad

let find_bt ~key =
  find_with ~stage:"bt" ~version:"1" ~key (fun cur ->
      let t = toks (line cur) in
      expect_tok t "bt";
      let n_blocks = int_tok t in
      let n_categories = int_tok t in
      done_toks t;
      if n_blocks < 0 || n_blocks > 1_000_000 then raise Bad;
      (* A category-count drift means the throughput model changed
         under a stale [bt] version — refuse the entry rather than
         hand the simulator short rows. *)
      if n_categories <> List.length Gat_arch.Throughput.all_categories then
        raise Bad;
      let t = toks (line cur) in
      expect_tok t "labels";
      let labels = Array.init n_blocks (fun _ -> tok t) in
      done_toks t;
      let index = Hashtbl.create (max 1 n_blocks) in
      Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
      let t = toks (line cur) in
      expect_tok t "residency";
      let blocks_by_warps = int_tok t in
      let blocks_by_regs = int_tok t in
      let blocks_by_smem = int_tok t in
      let active_blocks = int_tok t in
      let warps_per_block = int_tok t in
      let active_warps = int_tok t in
      let occupancy = float_tok t in
      let limiter = limiter_of_tag (tok t) in
      let residency =
        {
          Gat_core.Occupancy.blocks_by_warps;
          blocks_by_regs;
          blocks_by_smem;
          active_blocks;
          warps_per_block;
          active_warps;
          occupancy;
          limiter;
        }
      in
      done_toks t;
      let issue_cycles = farr_line cur "issue" n_blocks in
      let global_loads = farr_line cur "gloads" n_blocks in
      let barriers = farr_line cur "barriers" n_blocks in
      let instr_counts = farr_line cur "icounts" n_blocks in
      let mix_counts =
        Array.init n_blocks (fun _ ->
            let t = toks (line cur) in
            expect_tok t "mix";
            let row = Array.init n_categories (fun _ -> int_tok t) in
            done_toks t;
            row)
      in
      let var_rows tag =
        Array.init n_blocks (fun _ ->
            let t = toks (line cur) in
            expect_tok t tag;
            let k = int_tok t in
            if k < 0 || k > 1_000_000 then raise Bad;
            let row = Array.init k (fun _ -> float_tok t) in
            done_toks t;
            row)
      in
      let reg_ops = var_rows "regops" in
      let mem_transactions = var_rows "memtx" in
      let mem_load_latency = var_rows "memlat" in
      {
        Block_table.n_blocks;
        n_categories;
        labels;
        index;
        residency;
        issue_cycles;
        global_loads;
        barriers;
        instr_counts;
        mix_counts;
        reg_ops;
        mem_transactions;
        mem_load_latency;
      })

let store_bt ~key (bt : Block_table.t) =
  if Array.for_all safe_text bt.Block_table.labels then
    store_with ~stage:"bt" ~version:"1" ~key (fun buf ->
        addf buf "bt %d %d\n" bt.Block_table.n_blocks
          bt.Block_table.n_categories;
        Buffer.add_string buf "labels";
        Array.iter (fun l -> addf buf " %s" l) bt.Block_table.labels;
        Buffer.add_char buf '\n';
        let r = bt.Block_table.residency in
        addf buf "residency %d %d %d %d %d %d %h %s\n"
          r.Gat_core.Occupancy.blocks_by_warps r.Gat_core.Occupancy.blocks_by_regs
          r.Gat_core.Occupancy.blocks_by_smem r.Gat_core.Occupancy.active_blocks
          r.Gat_core.Occupancy.warps_per_block r.Gat_core.Occupancy.active_warps
          r.Gat_core.Occupancy.occupancy
          (limiter_tag r.Gat_core.Occupancy.limiter);
        emit_farr buf "issue" bt.Block_table.issue_cycles;
        emit_farr buf "gloads" bt.Block_table.global_loads;
        emit_farr buf "barriers" bt.Block_table.barriers;
        emit_farr buf "icounts" bt.Block_table.instr_counts;
        Array.iter
          (fun row ->
            Buffer.add_string buf "mix";
            Array.iter (fun c -> addf buf " %d" c) row;
            Buffer.add_char buf '\n')
          bt.Block_table.mix_counts;
        let var_rows tag rows =
          Array.iter
            (fun row ->
              addf buf "%s %d" tag (Array.length row);
              Array.iter (fun f -> addf buf " %h" f) row;
              Buffer.add_char buf '\n')
            rows
        in
        var_rows "regops" bt.Block_table.reg_ops;
        var_rows "memtx" bt.Block_table.mem_transactions;
        var_rows "memlat" bt.Block_table.mem_load_latency)

(* ---- verdict: the full safety report ---- *)

let emit_race_access buf (a : Gat_analysis.Races.access) =
  addf buf "a %d %s %d %s %d %d" a.Gat_analysis.Races.block_index
    a.Gat_analysis.Races.block_label a.Gat_analysis.Races.instr_index
    (Opcode.mnemonic a.Gat_analysis.Races.op)
    (if a.Gat_analysis.Races.predicated then 1 else 0)
    (match a.Gat_analysis.Races.stored with Some _ -> 1 | None -> 0);
  emit_value buf a.Gat_analysis.Races.address;
  (match a.Gat_analysis.Races.stored with
  | Some v -> emit_value buf v
  | None -> ());
  Buffer.add_char buf '\n'

let parse_race_access cur =
  let t = toks (line cur) in
  expect_tok t "a";
  let block_index = int_tok t in
  let block_label = tok t in
  let instr_index = int_tok t in
  let op = opcode_tok t in
  let predicated =
    match int_tok t with 0 -> false | 1 -> true | _ -> raise Bad
  in
  let has_stored =
    match int_tok t with 0 -> false | 1 -> true | _ -> raise Bad
  in
  let address = value_tok t in
  let stored = if has_stored then Some (value_tok t) else None in
  done_toks t;
  {
    Gat_analysis.Races.block_index;
    block_label;
    instr_index;
    op;
    address;
    stored;
    predicated;
  }

let find_verdict ~key =
  find_with ~stage:"verdict" ~version:"1" ~key (fun cur ->
      let program_name = rest_after (line cur) "name " in
      let t = toks (line cur) in
      expect_tok t "report";
      let threads_per_block = int_tok t in
      let barrier_count = int_tok t in
      let interval_count = int_tok t in
      let shared_accesses = int_tok t in
      done_toks t;
      let nd = counted cur "divergent" in
      let divergent_barriers =
        List.init nd (fun _ ->
            let t = toks (line cur) in
            expect_tok t "d";
            let block_index = int_tok t in
            let block_label = tok t in
            let instr_index = int_tok t in
            let nb = int_tok t in
            done_toks t;
            if nb < 0 || nb > 1_000_000 then raise Bad;
            let t = toks (line cur) in
            expect_tok t "bi";
            let branch_indices = List.init nb (fun _ -> int_tok t) in
            done_toks t;
            let t = toks (line cur) in
            expect_tok t "bl";
            let branch_labels = List.init nb (fun _ -> tok t) in
            done_toks t;
            {
              Gat_analysis.Barrier_safety.block_index;
              block_label;
              instr_index;
              branch_indices;
              branch_labels;
            })
      in
      let nr = counted cur "races" in
      let races =
        List.init nr (fun _ ->
            let kind =
              match rest_after (line cur) "r " with
              | "WW" -> Gat_analysis.Races.Write_write
              | "RW" -> Gat_analysis.Races.Read_write
              | _ -> raise Bad
            in
            let first = parse_race_access cur in
            let second = parse_race_access cur in
            let witness =
              let l = line cur in
              match String.split_on_char ' ' l with
              | "w" :: "E" :: i :: j :: [] -> (
                  match (int_of_string_opt i, int_of_string_opt j) with
                  | Some i, Some j -> Gat_analysis.Races.Exact (i, j)
                  | _ -> raise Bad)
              | _ -> Gat_analysis.Races.May (rest_after l "w M ")
            in
            { Gat_analysis.Races.first; second; kind; witness })
      in
      {
        Gat_analysis.Verify.program_name;
        threads_per_block;
        barrier_count;
        interval_count;
        shared_accesses;
        divergent_barriers;
        races;
      })

let store_verdict ~key (r : Gat_analysis.Verify.report) =
  let finding_safe (f : Gat_analysis.Barrier_safety.finding) =
    safe_text f.Gat_analysis.Barrier_safety.block_label
    && List.for_all safe_text f.Gat_analysis.Barrier_safety.branch_labels
  in
  let access_safe (a : Gat_analysis.Races.access) =
    safe_text a.Gat_analysis.Races.block_label
  in
  let race_safe (f : Gat_analysis.Races.finding) =
    access_safe f.Gat_analysis.Races.first
    && access_safe f.Gat_analysis.Races.second
    &&
    match f.Gat_analysis.Races.witness with
    | Gat_analysis.Races.Exact _ -> true
    | Gat_analysis.Races.May m -> not (String.contains m '\n')
  in
  if
    (not (String.contains r.Gat_analysis.Verify.program_name '\n'))
    && List.for_all finding_safe r.Gat_analysis.Verify.divergent_barriers
    && List.for_all race_safe r.Gat_analysis.Verify.races
  then
    store_with ~stage:"verdict" ~version:"1" ~key (fun buf ->
        addf buf "name %s\n" r.Gat_analysis.Verify.program_name;
        addf buf "report %d %d %d %d\n" r.Gat_analysis.Verify.threads_per_block
          r.Gat_analysis.Verify.barrier_count
          r.Gat_analysis.Verify.interval_count
          r.Gat_analysis.Verify.shared_accesses;
        addf buf "divergent %d\n"
          (List.length r.Gat_analysis.Verify.divergent_barriers);
        List.iter
          (fun (f : Gat_analysis.Barrier_safety.finding) ->
            addf buf "d %d %s %d %d\n" f.Gat_analysis.Barrier_safety.block_index
              f.Gat_analysis.Barrier_safety.block_label
              f.Gat_analysis.Barrier_safety.instr_index
              (List.length f.Gat_analysis.Barrier_safety.branch_indices);
            Buffer.add_string buf "bi";
            List.iter
              (fun i -> addf buf " %d" i)
              f.Gat_analysis.Barrier_safety.branch_indices;
            Buffer.add_char buf '\n';
            Buffer.add_string buf "bl";
            List.iter
              (fun l -> addf buf " %s" l)
              f.Gat_analysis.Barrier_safety.branch_labels;
            Buffer.add_char buf '\n')
          r.Gat_analysis.Verify.divergent_barriers;
        addf buf "races %d\n" (List.length r.Gat_analysis.Verify.races);
        List.iter
          (fun (f : Gat_analysis.Races.finding) ->
            addf buf "r %s\n"
              (match f.Gat_analysis.Races.kind with
              | Gat_analysis.Races.Write_write -> "WW"
              | Gat_analysis.Races.Read_write -> "RW");
            emit_race_access buf f.Gat_analysis.Races.first;
            emit_race_access buf f.Gat_analysis.Races.second;
            match f.Gat_analysis.Races.witness with
            | Gat_analysis.Races.Exact (i, j) -> addf buf "w E %d %d\n" i j
            | Gat_analysis.Races.May m -> addf buf "w M %s\n" m)
          r.Gat_analysis.Verify.races)

(* ---- maintenance (the [gat cache] subcommands) ---- *)

let entries () =
  let d = dir () in
  match Sys.readdir d with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".art")
      |> List.sort String.compare
      |> List.map (Filename.concat d)

let disk_usage () =
  List.fold_left
    (fun (files, bytes) path ->
      match In_channel.with_open_bin path In_channel.length with
      | len -> (files + 1, bytes + Int64.to_int len)
      | exception Sys_error _ -> (files, bytes))
    (0, 0) (entries ())

let clear () =
  List.fold_left
    (fun removed path ->
      match Sys.remove path with
      | () -> removed + 1
      | exception Sys_error _ -> removed)
    0 (entries ())
