type compiled = {
  kernel : Gat_ir.Kernel.t;
  gpu : Gat_arch.Gpu.t;
  params : Params.t;
  ptx : Gat_isa.Program.t;
  program : Gat_isa.Program.t;
  log : Ptxas_info.t;
  alloc_stats : Regalloc.stats;
  profile : Profile.t;
  mem_summary : (string * Gat_analysis.Coalescing.access list) list;
  block_table : Block_table.t;
}

let m_compiles = Gat_util.Metrics.counter "compile.count"
let m_rejected = Gat_util.Metrics.counter "compile.rejected"
let t_key = Gat_util.Metrics.timer "compile.key"

let compile kernel gpu params =
  Gat_util.Metrics.incr m_compiles;
  let result =
    Gat_util.Trace.span "compile"
      ~args:
        [
          ("kernel", Gat_util.Trace.S kernel.Gat_ir.Kernel.name);
          ("gpu", Gat_util.Trace.S gpu.Gat_arch.Gpu.name);
          ("params", Gat_util.Trace.S (Params.to_string params));
        ]
    @@ fun () ->
    match Gat_ir.Typecheck.kernel kernel with
    | Error msg -> Error ("ill-typed kernel: " ^ msg)
    | Ok () -> (
        match Params.validate gpu params with
        | Error msg -> Error ("invalid parameters: " ^ msg)
        | Ok () ->
            let virtual_program, profile =
              Gat_util.Trace.span "compile.lower" (fun () ->
                  Lowering.lower kernel gpu params)
            in
            if
              Gat_isa.Program.smem_per_block virtual_program
              > gpu.Gat_arch.Gpu.smem_per_block
            then Error "shared memory per block exceeds the device limit"
            else begin
              (* Schedule, register allocation and the static coalescing
                 analysis (on the virtual-register form: pre-spill code
                 keeps the address arithmetic fully trackable, and
                 spilling never changes an access's pattern, only adds
                 local traffic) depend only on the instruction streams,
                 which TC and BC never shape — the backend result is
                 memoized across the launch-geometry axes of a sweep. *)
              let backend = Codegen_cache.run ~gpu ~params virtual_program in
              let program = backend.Codegen_cache.program in
              let alloc_stats = backend.Codegen_cache.alloc_stats in
              let mem_summary = backend.Codegen_cache.mem_summary in
              let log = Ptxas_info.of_program program alloc_stats in
              (* The simulator table is content-addressed on the
                 virtual program (the whole backend downstream of it is
                 deterministic) plus the occupancy-relevant scalars, so
                 BC-only and N-only variants — and re-runs in other
                 processes — serve it from the artifact store. *)
              let block_table =
                Gat_util.Trace.span "compile.block_table" (fun () ->
                    let key =
                      Gat_util.Trace.span "compile.key" @@ fun () ->
                      Gat_util.Metrics.time t_key @@ fun () ->
                      Artifacts.bt_key ~gpu ~params
                        ~regs_per_thread:log.Ptxas_info.registers
                        virtual_program
                    in
                    match Artifacts.find_bt ~key with
                    | Some bt -> bt
                    | None ->
                        let bt =
                          Block_table.build ~gpu ~params
                            ~regs_per_thread:log.Ptxas_info.registers
                            ~mem_summary program
                        in
                        Artifacts.store_bt ~key bt;
                        bt)
              in
              Ok
                {
                  kernel;
                  gpu;
                  params;
                  ptx = virtual_program;
                  program;
                  log;
                  alloc_stats;
                  profile;
                  mem_summary;
                  block_table;
                }
            end)
  in
  (match result with Error _ -> Gat_util.Metrics.incr m_rejected | Ok _ -> ());
  result

let compile_exn kernel gpu params =
  match compile kernel gpu params with
  | Ok c -> c
  | Error msg ->
      invalid_arg (Printf.sprintf "Driver.compile %s: %s" kernel.Gat_ir.Kernel.name msg)
