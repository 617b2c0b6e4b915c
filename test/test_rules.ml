open Strip_relational
open Strip_txn
open Strip_core

(* ------------------------------------------------------------------ *)
(* Parser: the paper's figures, verbatim.                               *)

let fig3 =
  {|create rule do_comps1 on stocks
    when updated price
    if
      select comp, comps_list.symbol as symbol, weight,
             old.price as old_price, new.price as new_price
      from comps_list, new, old
      where comps_list.symbol = new.symbol
        and new.execute_order = old.execute_order
      bind as matches
    then
      execute compute_comps1|}

let fig6 =
  {|create rule do_comps2 on stocks
    when updated price
    if
      select comp, comps_list.symbol as symbol, weight,
             old.price as old_price, new.price as new_price
      from comps_list, new, old
      where comps_list.symbol = new.symbol and new.execute_order = old.execute_order
      bind as matches
    then
      execute compute_comps2
      unique
      after 1.0 seconds
    end rule|}

let fig7_unique_on =
  {|create rule do_comps3 on stocks
    when updated price
    if
      select comp from comps_list, new where comps_list.symbol = new.symbol
      bind as matches
    then
      execute compute_comps3
      unique on comp
      after 1.0 seconds|}

let test_parse_fig3 () =
  let r = Rule_parser.parse fig3 in
  Alcotest.(check string) "name" "do_comps1" r.Rule_ast.rname;
  Alcotest.(check string) "table" "stocks" r.Rule_ast.rtable;
  (match r.Rule_ast.events with
  | [ Rule_ast.On_update [ "price" ] ] -> ()
  | _ -> Alcotest.fail "events");
  Alcotest.(check int) "one condition query" 1 (List.length r.Rule_ast.condition);
  Alcotest.(check (option string)) "bind as" (Some "matches")
    (List.hd r.Rule_ast.condition).Rule_ast.bind_as;
  Alcotest.(check bool) "not unique" true (r.Rule_ast.uniqueness = Rule_ast.Not_unique);
  Alcotest.(check (float 0.0)) "no delay" 0.0 r.Rule_ast.delay

let test_parse_fig6 () =
  let r = Rule_parser.parse fig6 in
  Alcotest.(check bool) "unique" true (r.Rule_ast.uniqueness = Rule_ast.Unique);
  Alcotest.(check (float 0.0)) "delay" 1.0 r.Rule_ast.delay;
  Alcotest.(check string) "func" "compute_comps2" r.Rule_ast.func

let test_parse_fig7 () =
  let r = Rule_parser.parse fig7_unique_on in
  match r.Rule_ast.uniqueness with
  | Rule_ast.Unique_on [ "comp" ] -> ()
  | _ -> Alcotest.fail "unique on comp expected"

let test_parse_event_lists () =
  let r =
    Rule_parser.parse
      "create rule r on t when inserted deleted updated a, b then execute f"
  in
  match r.Rule_ast.events with
  | [ Rule_ast.On_insert; Rule_ast.On_delete; Rule_ast.On_update [ "a"; "b" ] ] ->
    ()
  | _ -> Alcotest.fail "event list"

let test_parse_evaluate_clause () =
  let r =
    Rule_parser.parse
      {|create rule r on t when inserted
        then
          evaluate select a from t bind as extra,
                   select b from t bind as more
          execute f
          after 500 milliseconds|}
  in
  Alcotest.(check int) "two evaluate queries" 2 (List.length r.Rule_ast.evaluate);
  Alcotest.(check (float 1e-9)) "ms delay" 0.5 r.Rule_ast.delay

let test_parse_errors () =
  List.iter
    (fun s ->
      match Rule_parser.parse s with
      | exception Sql_parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted: %s" s)
    [
      "create rule r on t then execute f";  (* no when *)
      "create rule r on t when frobnicated then execute f";
      "create rule r on t when inserted then";  (* no execute *)
      "create rule r on t when inserted then execute f after -1.0";
    ]

let test_is_rule_ddl () =
  Alcotest.(check bool) "rule" true (Rule_parser.is_rule_ddl "CREATE RULE x ON t ...");
  Alcotest.(check bool) "table" false (Rule_parser.is_rule_ddl "create table t (a int)")

(* ------------------------------------------------------------------ *)
(* Event matching and transition tables.                                *)

let schema = Schema.of_list [ ("k", Value.TStr); ("v", Value.TInt) ]

let test_event_matches () =
  let old_rec = Record.create [| Value.Str "a"; Value.Int 1 |] in
  let new_rec = Record.create [| Value.Str "a"; Value.Int 2 |] in
  let upd = Tlog.Updated { old_rec; new_rec } in
  let fires events change =
    match Rule_ast.resolve_events ~schema events with
    | Ok tr -> Rule_ast.fires tr change
    | Error col -> Alcotest.failf "column %s not resolved" col
  in
  Alcotest.(check bool) "updated any" true
    (fires [ Rule_ast.On_update [] ] upd);
  Alcotest.(check bool) "updated v" true
    (fires [ Rule_ast.On_update [ "v" ] ] upd);
  Alcotest.(check bool) "updated k (unchanged)" false
    (fires [ Rule_ast.On_update [ "k" ] ] upd);
  Alcotest.(check bool) "unknown column is rejected" true
    (Rule_ast.resolve_events ~schema [ Rule_ast.On_update [ "zz" ] ]
    = Error "zz");
  Alcotest.(check bool) "insert event vs update change" false
    (fires [ Rule_ast.On_insert ] upd);
  Alcotest.(check bool) "insert" true
    (fires [ Rule_ast.On_insert ] (Tlog.Inserted new_rec));
  Alcotest.(check bool) "any of several events" true
    (fires [ Rule_ast.On_delete; Rule_ast.On_update [ "k"; "v" ] ] upd)

let test_transition_tables () =
  let log = Tlog.create () in
  let r1 = Record.create [| Value.Str "a"; Value.Int 1 |] in
  let r1' = Record.create [| Value.Str "a"; Value.Int 2 |] in
  let r2 = Record.create [| Value.Str "b"; Value.Int 9 |] in
  Tlog.log_insert log ~table:"t" r2;
  Tlog.log_update log ~table:"t" ~old_rec:r1 ~new_rec:r1';
  Tlog.log_delete log ~table:"t" r2;
  let trans = Transition.build ~schema (Tlog.entries log) in
  Alcotest.(check int) "inserted rows" 1 (Temp_table.cardinal trans.Transition.inserted);
  Alcotest.(check int) "deleted rows" 1 (Temp_table.cardinal trans.Transition.deleted);
  Alcotest.(check int) "new rows" 1 (Temp_table.cardinal trans.Transition.new_);
  Alcotest.(check int) "old rows" 1 (Temp_table.cardinal trans.Transition.old);
  (* no net effect: the tuple inserted and deleted appears in both *)
  let ins_row = List.hd (Temp_table.to_rows trans.Transition.inserted) in
  let del_row = List.hd (Temp_table.to_rows trans.Transition.deleted) in
  Alcotest.(check string) "audit trail" "b" (Value.to_string del_row.(0));
  Alcotest.(check int) "insert seq" 1 (Value.to_int ins_row.(2));
  Alcotest.(check int) "delete seq" 3 (Value.to_int del_row.(2));
  (* old and new images of an update share execute_order *)
  let old_row = List.hd (Temp_table.to_rows trans.Transition.old) in
  let new_row = List.hd (Temp_table.to_rows trans.Transition.new_) in
  Alcotest.(check int) "paired" (Value.to_int old_row.(2)) (Value.to_int new_row.(2));
  Alcotest.(check int) "old image" 1 (Value.to_int old_row.(1));
  Alcotest.(check int) "new image" 2 (Value.to_int new_row.(1));
  Transition.retire trans

(* ------------------------------------------------------------------ *)
(* Full rule behaviour through Strip_db.                                *)

let mkdb () =
  let db = Strip_db.create () in
  ignore (Strip_db.exec db "create table t (k string, v int)");
  ignore (Strip_db.exec db "create index t_k on t (k)");
  ignore (Strip_db.exec db "insert into t values ('a', 1), ('b', 2)");
  db

let test_condition_gates_action () =
  let db = mkdb () in
  let fired = ref 0 in
  Strip_db.register_function db "f" (fun _ -> incr fired);
  Strip_db.create_rule db
    {|create rule r on t when updated v
      if select new.k as k from new, old
         where new.execute_order = old.execute_order and new.v > 10
         bind as big
      then execute f|};
  ignore (Strip_db.exec db "update t set v = 5 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check int) "condition false: no action" 0 !fired;
  ignore (Strip_db.exec db "update t set v = 50 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check int) "condition true: action ran" 1 !fired

(* [unique on] splits a bound table only once every condition holds, so a
   commit whose second condition is empty charges no "partition_row". *)
let test_unique_on_partitions_after_conditions () =
  List.iter
    (fun reference ->
      Rule_manager.reference_firing := reference;
      Fun.protect
        ~finally:(fun () -> Rule_manager.reference_firing := false)
        (fun () ->
          let db = mkdb () in
          let keys = ref [] in
          Strip_db.register_function db "f" (fun ctx ->
              keys := ctx.Rule_manager.task.Strip_txn.Task.unique_key :: !keys);
          Strip_db.create_rule db
            {|create rule r on t when updated v
              if select new.k as k from new bind as a,
                 select new.k as k2 from new where new.v > 100
              then execute f unique on k|};
          Meter.reset ();
          ignore (Strip_db.exec db "update t set v = 5 where k = 'a'");
          Strip_db.run db;
          Alcotest.(check int) "second condition empty: nothing split" 0
            (Meter.get "partition_row");
          ignore (Strip_db.exec db "update t set v = 500 where v < 10");
          Strip_db.run db;
          Alcotest.(check int) "both hold: one tick per row" 2
            (Meter.get "partition_row");
          Alcotest.(check (list (list string))) "one task per key"
            [ [ "a" ]; [ "b" ] ]
            (List.sort compare
               (List.map (fun k -> List.map Value.to_string (Option.get k)) !keys))))
    [ false; true ]

let test_bound_table_and_commit_time () =
  let db = mkdb () in
  let seen = ref [] in
  Strip_db.register_function db "f" (fun ctx ->
      List.iter
        (fun row -> seen := (Value.to_string row.(0), Value.to_float row.(1)) :: !seen)
        (Query.rows (Strip_txn.Transaction.query ctx.Rule_manager.txn
                       "select k, commit_time from changes")));
  Strip_db.create_rule db
    {|create rule r on t when updated v
      if select new.k as k, 0.0 as commit_time from new, old
         where new.execute_order = old.execute_order
         bind as changes
      then execute f after 1.0|};
  Strip_db.submit_update db ~at:3.25 (fun txn ->
      ignore (Transaction.exec txn "update t set v = 7 where k = 'b'"));
  Strip_db.run db;
  Alcotest.(check (list (pair string (float 1e-9))))
    "commit_time stamped at bind" [ ("b", 3.25) ] !seen

let test_evaluate_clause_binds () =
  let db = mkdb () in
  let n = ref (-1) in
  Strip_db.register_function db "f" (fun ctx ->
      n :=
        Query.row_count
          (Strip_txn.Transaction.query ctx.Rule_manager.txn
             "select k from snapshot"));
  Strip_db.create_rule db
    {|create rule r on t when updated v
      then
        evaluate select k from t bind as snapshot
        execute f|};
  ignore (Strip_db.exec db "update t set v = 9 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check int) "whole-table snapshot bound" 2 !n

let test_non_unique_one_task_per_firing () =
  let db = mkdb () in
  let runs = ref 0 in
  Strip_db.register_function db "f" (fun _ -> incr runs);
  Strip_db.create_rule db
    {|create rule r on t when updated v
      if select new.k as k from new, old where new.execute_order = old.execute_order
         bind as c
      then execute f|};
  for i = 1 to 5 do
    Strip_db.submit_update db ~at:(float_of_int i *. 0.01) (fun txn ->
        ignore (Transaction.exec txn "update t set v = v + 1 where k = 'a'"))
  done;
  Strip_db.run db;
  Alcotest.(check int) "five firings, five transactions" 5 !runs

let test_multiple_rules_same_event () =
  let db = mkdb () in
  let calls = ref [] in
  Strip_db.register_function db "f1" (fun _ -> calls := "f1" :: !calls);
  Strip_db.register_function db "f2" (fun _ -> calls := "f2" :: !calls);
  Strip_db.create_rule db "create rule r1 on t when updated then execute f1";
  Strip_db.create_rule db "create rule r2 on t when updated then execute f2";
  ignore (Strip_db.exec db "update t set v = 0 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check (list string)) "both fired" [ "f1"; "f2" ] (List.sort compare !calls)

let test_cascading_rules () =
  let db = mkdb () in
  ignore (Strip_db.exec db "create table log_t (k string)");
  let depth2 = ref 0 in
  Strip_db.register_function db "propagate" (fun ctx ->
      ignore
        (Transaction.exec ctx.Rule_manager.txn "insert into log_t values ('x')"));
  Strip_db.register_function db "observe" (fun _ -> incr depth2);
  Strip_db.create_rule db
    "create rule r1 on t when updated v then execute propagate";
  Strip_db.create_rule db
    "create rule r2 on log_t when inserted then execute observe";
  ignore (Strip_db.exec db "update t set v = 3 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check int) "action triggered a second rule" 1 !depth2

let test_drop_rule () =
  let db = mkdb () in
  let runs = ref 0 in
  Strip_db.register_function db "f" (fun _ -> incr runs);
  Strip_db.create_rule db "create rule r on t when updated then execute f";
  Rule_manager.drop_rule (Strip_db.rules db) "r";
  ignore (Strip_db.exec db "update t set v = 0 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check int) "dropped rule silent" 0 !runs;
  match Rule_manager.drop_rule (Strip_db.rules db) "r" with
  | exception Rule_manager.Rule_error _ -> ()
  | _ -> Alcotest.fail "double drop accepted"

let test_rule_validation () =
  let db = mkdb () in
  Strip_db.register_function db "f" (fun _ -> ());
  (match
     Strip_db.create_rule db "create rule r on ghost when updated then execute f"
   with
  | exception Rule_manager.Rule_error _ -> ()
  | _ -> Alcotest.fail "unknown table accepted");
  match
    Strip_db.create_rule db
      {|create rule r on t when updated
        if select new.k as k from new bind as c
        then execute f unique on nothere|}
  with
  | exception Rule_manager.Rule_error _ -> ()
  | _ -> Alcotest.fail "unique column outside bound tables accepted"

(* A misspelled [when updated] column used to be accepted, and the rule
   then never fired. *)
let test_unknown_update_column () =
  let db = mkdb () in
  let runs = ref 0 in
  Strip_db.register_function db "f" (fun _ -> incr runs);
  (match
     Strip_db.create_rule db "create rule r on t when updated vv then execute f"
   with
  | exception Rule_manager.Rule_error _ -> ()
  | _ -> Alcotest.fail "unknown update column accepted");
  Strip_db.create_rule db "create rule r on t when updated v then execute f";
  ignore (Strip_db.exec db "update t set v = 9 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check int) "the correctly spelled rule fires" 1 !runs

(* A rule resolves its function once, yet sees registrations made after
   [create rule], case-insensitively, including replacements. *)
let test_function_registered_after_rule () =
  let db = mkdb () in
  let calls = ref [] in
  Strip_db.create_rule db "create rule r on t when updated then execute late_f";
  Strip_db.register_function db "late_f" (fun _ -> calls := 1 :: !calls);
  ignore (Strip_db.exec db "update t set v = 8 where k = 'a'");
  Strip_db.run db;
  Strip_db.register_function db "LATE_F" (fun _ -> calls := 2 :: !calls);
  ignore (Strip_db.exec db "update t set v = 9 where k = 'a'");
  Strip_db.run db;
  Alcotest.(check (list int)) "first, then the replacement" [ 2; 1 ] !calls

let test_unregistered_function_fails_at_run () =
  let db = mkdb () in
  Strip_db.create_rule db "create rule r on t when updated then execute ghost_fn";
  ignore (Strip_db.exec db "update t set v = 0 where k = 'a'");
  match Strip_db.run db with
  | exception Rule_manager.Rule_error _ -> ()
  | _ -> Alcotest.fail "missing user function not reported"

let suite =
  [
    ( "rules",
      [
        Alcotest.test_case "parse Figure 3" `Quick test_parse_fig3;
        Alcotest.test_case "parse Figure 6" `Quick test_parse_fig6;
        Alcotest.test_case "parse Figure 7 (unique on)" `Quick test_parse_fig7;
        Alcotest.test_case "parse event lists" `Quick test_parse_event_lists;
        Alcotest.test_case "parse evaluate clause" `Quick test_parse_evaluate_clause;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "rule DDL sniffing" `Quick test_is_rule_ddl;
        Alcotest.test_case "event matching" `Quick test_event_matches;
        Alcotest.test_case "transition tables" `Quick test_transition_tables;
        Alcotest.test_case "condition gates the action" `Quick test_condition_gates_action;
        Alcotest.test_case "unknown update column rejected" `Quick
          test_unknown_update_column;
        Alcotest.test_case "function registered after the rule" `Quick
          test_function_registered_after_rule;
        Alcotest.test_case "unique on: split only once every condition holds" `Quick
          test_unique_on_partitions_after_conditions;
        Alcotest.test_case "bound tables + commit_time" `Quick
          test_bound_table_and_commit_time;
        Alcotest.test_case "evaluate clause binds" `Quick test_evaluate_clause_binds;
        Alcotest.test_case "non-unique: task per firing" `Quick
          test_non_unique_one_task_per_firing;
        Alcotest.test_case "several rules per event" `Quick test_multiple_rules_same_event;
        Alcotest.test_case "cascading rules" `Quick test_cascading_rules;
        Alcotest.test_case "drop rule" `Quick test_drop_rule;
        Alcotest.test_case "rule validation" `Quick test_rule_validation;
        Alcotest.test_case "missing user function" `Quick
          test_unregistered_function_fails_at_run;
      ] );
  ]
