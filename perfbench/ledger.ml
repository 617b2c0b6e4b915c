(* The benchmark-owned counter -> layer map.

   Every meter counter the program ticks, and every entry of the default
   cost model, must map to exactly one layer; {!check} fails the benchmark
   otherwise, so a new counter cannot silently drop out of the per-layer
   sums.  Layer names are the [lib/] modules. *)

module Cost_model = Strip_sim.Cost_model
module Meter = Strip_relational.Meter

let layers =
  [
    ( "relational",
      [
        "insert_record"; "update_record"; "delete_record"; "delete_cursor";
        "index_update"; "index_probe"; "seq_row"; "predicate_eval";
        "hash_build"; "hash_probe"; "merge_step"; "join_row"; "row_construct";
        "agg_row"; "group_init"; "sort_row"; "open_cursor"; "fetch_cursor";
        "update_cursor"; "close_cursor";
      ] );
    ( "txn",
      [
        "begin_transaction"; "commit_transaction"; "abort_transaction";
        "get_lock"; "release_lock"; "wal_append"; "wal_fsync";
        "checkpoint_row"; "recovery_restore_row"; "recovery_redo_op";
        "recovery_requeue"; "recovery_cp_fallback"; "recovery_orphan_merge";
        "scrub_pass"; "scrub_byte"; "salvage_attempt"; "salvage_byte";
        "quarantine_byte"; "disk_full_stall";
      ] );
    ("rules", [ "bound_append"; "rule_check"; "unique_hash"; "partition_row" ]);
    ( "sim",
      [
        "begin_task"; "end_task"; "sched_op"; "task_dispatch"; "context_switch";
        "task_retry"; "task_dead_letter"; "task_shed"; "fault_injected";
        "sched_congestion";
      ] );
    ("finance", [ "bs_eval" ]);
    ("pta", [ "ugroup_row"; "ulast_row"; "dedupe_row" ]);
    ( "repl",
      [
        "repl_ship_segment"; "repl_apply_op"; "repl_bootstrap_row";
        "repl_salvage_served";
      ] );
  ]

let layer_names = List.map fst layers

let layer_of =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (layer, counters) ->
      List.iter
        (fun c ->
          if Hashtbl.mem tbl c then
            failwith (Printf.sprintf "ledger: counter %s mapped twice" c);
          Hashtbl.replace tbl c layer)
        counters)
    layers;
  Hashtbl.find_opt tbl

(* All live counters after a run, sorted by name. *)
let counters () =
  List.sort compare (Meter.fold (fun name n acc -> (name, n) :: acc) [])

(* Names that tick or carry a cost but have no layer. *)
let unmapped ticks =
  let names =
    List.map fst ticks @ List.map fst (Cost_model.entries Cost_model.default)
  in
  List.sort_uniq compare (List.filter (fun n -> layer_of n = None) names)

let get ticks name = Option.value (List.assoc_opt name ticks) ~default:0

(* Simulated µs charged to each layer, from the counter totals. *)
let sim_us_by_layer ticks =
  List.map
    (fun layer ->
      ( layer,
        List.fold_left
          (fun acc (name, n) ->
            if layer_of name = Some layer then
              acc +. (Cost_model.cost_us Cost_model.default name *. float_of_int n)
            else acc)
          0.0 ticks ))
    layer_names
