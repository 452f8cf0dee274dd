(* The paper's Section 6 evaluation matrix: the ten Table-2 benchmarks on
   Eval inputs under {Baseline, L1(8KB)+L2(512KB), Software LUT}, thirty
   single-core Runner cells over a pool. The per-instruction layers (ir,
   cpu+cache, memo+crc) do nearly all the work; serve, cluster and report
   code do none. *)

module Runner = Axmemo.Runner
module Workload = Axmemo_workloads.Workload
module Registry = Axmemo_workloads.Registry
module Pool = Axmemo_util.Pool

let name = "paper_matrix"
let jobs = 2

let cell_id bench config =
  Printf.sprintf "%s/%s" bench (Ablation.class_name (Ablation.class_of config))

type input = (string * Runner.config * Workload.instance) list

let setup ledger =
  List.concat_map
    (fun ((meta : Workload.meta), make) ->
      List.map
        (fun config ->
          (cell_id meta.Workload.name config, config, Ledger.span ledger "workloads" (fun () -> make Workload.Eval)))
        Ablation.configs)
    Registry.all

let round ~jobs ledger cells =
  let results, wall_s =
    Check.timed (fun () ->
        Ledger.span ledger "round" (fun () ->
            Pool.run ~jobs
              (fun (_, config, inst) ->
                Ledger.span ledger "core" (fun () ->
                    match Runner.run config inst with r -> Some r | exception _ -> None))
              cells))
  in
  let ops =
    List.map2
      (fun (id, _, _) r ->
        match r with Some r -> Check.of_result ~id r | None -> Check.raised id)
      cells results
  in
  let busy_s = List.fold_left (fun acc (op : Check.op) -> acc +. op.host_s) 0.0 ops in
  let steps = List.map (fun (op : Check.op) -> (op.Check.id, op.Check.host_s)) ops in
  { Check.wall_s; busy_s; steps; ops; layers = [] }

let ablation_cells () = Ablation.cells ~variant:Workload.Eval Registry.names
let probe (_ : Check.round) = []
