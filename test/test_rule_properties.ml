(* End-to-end property: for ANY random workload (stocks, composite
   memberships, option listings, quote sequence) and ANY batching variant
   and delay window, the maintained views are exactly what full
   recomputation gives.  This is the system-level contract behind every
   number in EXPERIMENTS.md. *)

open Strip_relational
open Strip_core
open Strip_pta

type universe = {
  n_stocks : int;
  memberships : (int * int * float) list;  (* comp, stock, weight *)
  options : (int * float * float) list;  (* stock, strike, expiry *)
  quotes : (float * int * float) list;  (* time, stock, price *)
  delay : float;
}

let gen_universe =
  QCheck2.Gen.(
    let* n_stocks = int_range 2 6 in
    let* n_comps = int_range 1 3 in
    let* memberships =
      list_size (int_range 1 10)
        (triple (int_range 0 (n_comps - 1)) (int_range 0 (n_stocks - 1))
           (float_range 0.1 2.0))
    in
    let* options =
      list_size (int_range 0 5)
        (triple (int_range 0 (n_stocks - 1)) (float_range 5.0 50.0)
           (float_range 0.1 1.0))
    in
    let* quotes =
      list_size (int_range 1 30)
        (triple (float_range 0.0 10.0) (int_range 0 (n_stocks - 1))
           (float_range 1.0 100.0))
    in
    let* delay = float_range 0.0 3.0 in
    return { n_stocks; memberships; options; quotes; delay })

let sym i = Printf.sprintf "S%d" i

let build u =
  let db = Strip_db.create () in
  let cat = Strip_db.catalog db in
  let mk name cols = Catalog.create_table cat ~name ~schema:(Schema.of_list cols) in
  let idx tb name cols = Table.create_index tb ~name ~kind:Index.Hash ~cols in
  let stocks = mk "stocks" [ ("symbol", Value.TStr); ("price", Value.TFloat) ] in
  let stock_stdev = mk "stock_stdev" [ ("symbol", Value.TStr); ("stdev", Value.TFloat) ] in
  let comps_list =
    mk "comps_list"
      [ ("comp", Value.TStr); ("symbol", Value.TStr); ("weight", Value.TFloat) ]
  in
  let options_list =
    mk "options_list"
      [ ("option_symbol", Value.TStr); ("stock_symbol", Value.TStr);
        ("strike", Value.TFloat); ("expiration", Value.TFloat) ]
  in
  for s = 0 to u.n_stocks - 1 do
    ignore (Table.insert stocks [| Value.Str (sym s); Value.Float 10.0 |]);
    ignore (Table.insert stock_stdev [| Value.Str (sym s); Value.Float 0.3 |])
  done;
  List.iter
    (fun (c, s, w) ->
      ignore
        (Table.insert comps_list
           [| Value.Str (Printf.sprintf "C%d" c); Value.Str (sym s); Value.Float w |]))
    u.memberships;
  List.iteri
    (fun i (s, strike, expiry) ->
      ignore
        (Table.insert options_list
           [| Value.Str (Printf.sprintf "O%d" i); Value.Str (sym s);
              Value.Float strike; Value.Float expiry |]))
    u.options;
  let stocks_by_symbol = idx stocks "i_stocks" [ "symbol" ] in
  let stdev_by_symbol = idx stock_stdev "i_stdev" [ "symbol" ] in
  let comps_by_symbol = idx comps_list "i_cl" [ "symbol" ] in
  let options_by_stock = idx options_list "i_ol" [ "stock_symbol" ] in
  Strip_finance.Black_scholes.register_sql_function ();
  ignore
    (Sql_exec.exec_string cat ~env:[]
       "create view comp_prices as select comp, sum(price * weight) as price \
        from stocks, comps_list where stocks.symbol = comps_list.symbol group \
        by comp");
  ignore
    (Sql_exec.exec_string cat ~env:[]
       "create view option_prices as select option_symbol, f_bs(price, \
        strike, expiration, stdev) as price from stocks, stock_stdev, \
        options_list where stocks.symbol = options_list.stock_symbol and \
        stocks.symbol = stock_stdev.symbol");
  let comp_prices = Catalog.table_exn cat "comp_prices" in
  let option_prices = Catalog.table_exn cat "option_prices" in
  let comp_by_name = idx comp_prices "i_cp" [ "comp" ] in
  let option_by_symbol = idx option_prices "i_op" [ "option_symbol" ] in
  ( db,
    {
      Pta_tables.stocks;
      stocks_by_symbol;
      stock_stdev;
      stdev_by_symbol;
      comps_list;
      comps_by_symbol;
      comp_prices;
      comp_by_name;
      options_list;
      options_by_stock;
      option_prices;
      option_by_symbol;
    } )

let drive db (h : Pta_tables.handles) u =
  List.iter
    (fun (at, s, price) ->
      Strip_db.submit_update db ~at (fun txn ->
          Db_ops.update_stock_price txn ~stocks:h.Pta_tables.stocks
            ~by_symbol:h.Pta_tables.stocks_by_symbol ~symbol:(sym s) ~price))
    u.quotes;
  Strip_db.run db

let agree expected actual tol =
  List.length expected = List.length actual
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> k1 = k2 && Float.abs (v1 -. v2) <= tol)
       expected actual

let prop_comp_variants =
  QCheck2.Test.make ~name:"any workload x any comp variant maintains exactly"
    ~count:40
    QCheck2.Gen.(pair gen_universe (int_range 0 3))
    (fun (u, vi) ->
      let variant = List.nth Comp_rules.all_variants vi in
      let db, h = build u in
      Comp_rules.install db h variant ~delay:u.delay;
      drive db h u;
      agree
        (Comp_rules.recompute_from_scratch h)
        (Comp_rules.maintained h) 1e-9)

let prop_option_variants =
  QCheck2.Test.make
    ~name:"any workload x any option variant maintains exactly" ~count:40
    QCheck2.Gen.(pair gen_universe (int_range 0 3))
    (fun (u, vi) ->
      let variant =
        List.nth
          (Option_rules.all_variants @ [ Option_rules.Unique_on_option ])
          vi
      in
      let db, h = build u in
      Option_rules.install db h variant ~delay:u.delay;
      drive db h u;
      agree
        (Option_rules.recompute_from_scratch h)
        (Option_rules.maintained h) 1e-12)

let prop_both_views_together =
  QCheck2.Test.make ~name:"both views maintained side by side" ~count:25
    gen_universe
    (fun u ->
      let db, h = build u in
      Comp_rules.install db h Comp_rules.Unique_on_comp ~delay:u.delay;
      Option_rules.install db h Option_rules.Unique_on_symbol ~delay:u.delay;
      drive db h u;
      agree (Comp_rules.recompute_from_scratch h) (Comp_rules.maintained h) 1e-9
      && agree
           (Option_rules.recompute_from_scratch h)
           (Option_rules.maintained h) 1e-12)

(* Differential check of the prepared firing path.  The same workload runs
   twice: once with every bound query prepared at [create rule] and
   executed straight into its bound table, once with the reference path
   that runs each firing's queries ad hoc ([Query.run], [Query.bind],
   preparing afresh every time).  Every action records
   its task's unique key and bound-table rows; the two runs must agree on
   those, on the firing/merge/task counts and on every meter counter.  The
   DDL cases change the catalog between two halves of the feed, so the
   prepared path is right only if its dependency check re-prepares. *)

type ddl = No_ddl | Create_index | Drop_index | Recreate_table

let comps_index = "i_cl"

let change_catalog db u = function
  | No_ddl -> ()
  | Create_index ->
    ignore
      (Table.create_index
         (Catalog.table_exn (Strip_db.catalog db) "comps_list")
         ~name:comps_index ~kind:Index.Hash ~cols:[ "symbol" ])
  | Drop_index ->
    Table.drop_index (Catalog.table_exn (Strip_db.catalog db) "comps_list") comps_index
  | Recreate_table ->
    (* same shape, other weights: a plan still scanning the dropped table
       would bind the old ones *)
    let cat = Strip_db.catalog db in
    let schema = Table.schema (Catalog.table_exn cat "comps_list") in
    Catalog.drop_table cat "comps_list";
    let tb = Catalog.create_table cat ~name:"comps_list" ~schema in
    List.iter
      (fun (c, st, w) ->
        ignore
          (Table.insert tb
             [| Value.Str (Printf.sprintf "C%d" c); Value.Str (sym st);
                Value.Float (w *. 2.0) |]))
      (List.rev u.memberships);
    ignore (Table.create_index tb ~name:comps_index ~kind:Index.Hash ~cols:[ "symbol" ])

let observe ~reference ~ddl u rule_text =
  Rule_manager.reference_firing := reference;
  Fun.protect
    ~finally:(fun () -> Rule_manager.reference_firing := false)
    (fun () ->
      Meter.reset ();
      let db, h = build u in
      if ddl = Create_index then Table.drop_index h.Pta_tables.comps_list comps_index;
      let seen = ref [] in
      Strip_db.register_function db (Rule_parser.parse rule_text).Rule_ast.func
        (fun ctx ->
          let task = ctx.Rule_manager.task in
          seen :=
            ( task.Strip_txn.Task.unique_key,
              List.map
                (fun (name, tmp) -> (name, Temp_table.to_rows tmp))
                task.Strip_txn.Task.bound )
            :: !seen);
      Strip_db.create_rule db rule_text;
      let quotes = List.stable_sort compare u.quotes in
      let half = List.length quotes / 2 in
      let submit offset =
        List.iter (fun (at, st, price) ->
            Strip_db.submit_update db ~at:(at +. offset) (fun txn ->
                Db_ops.update_stock_price txn ~stocks:h.Pta_tables.stocks
                  ~by_symbol:h.Pta_tables.stocks_by_symbol ~symbol:(sym st) ~price))
      in
      submit 0.0 (List.filteri (fun i _ -> i < half) quotes);
      Strip_db.run db;
      change_catalog db u ddl;
      submit 100.0 (List.filteri (fun i _ -> i >= half) quotes);
      Strip_db.run db;
      let mgr = Strip_db.rules db in
      ( List.rev !seen,
        ( Rule_manager.n_rule_firings mgr,
          Rule_manager.n_merges mgr,
          Rule_manager.n_tasks_created mgr ),
        Meter.fold (fun name v acc -> (name, v) :: acc) [] ))

let prepared_matches_reference ~ddl u rule_text =
  let prepared = observe ~reference:false ~ddl u rule_text in
  let reference = observe ~reference:true ~ddl u rule_text in
  prepared = reference

let rule_texts delay =
  List.map (fun v -> Comp_rules.rule_text v ~delay) Comp_rules.all_variants
  @ List.map
      (fun v -> Option_rules.rule_text v ~delay)
      (Option_rules.all_variants @ [ Option_rules.Unique_on_option ])

let prop_prepared_every_variant =
  QCheck2.Test.make
    ~name:"prepared firing = ad-hoc run+bind, every comp and option variant"
    ~count:40
    QCheck2.Gen.(pair gen_universe (int_range 0 7))
    (fun (u, vi) ->
      prepared_matches_reference ~ddl:No_ddl u (List.nth (rule_texts u.delay) vi))

let prop_prepared_after_ddl =
  QCheck2.Test.make
    ~name:"prepared firing re-prepares after create/drop index and table re-creation"
    ~count:30
    QCheck2.Gen.(triple gen_universe (int_range 0 3) (int_range 0 2))
    (fun (u, vi, di) ->
      prepared_matches_reference
        ~ddl:(List.nth [ Create_index; Drop_index; Recreate_table ] di)
        u (List.nth (rule_texts u.delay) vi))

let suite =
  [
    ( "rule-properties",
      [
        QCheck_alcotest.to_alcotest prop_comp_variants;
        QCheck_alcotest.to_alcotest prop_option_variants;
        QCheck_alcotest.to_alcotest prop_both_views_together;
        QCheck_alcotest.to_alcotest prop_prepared_every_variant;
        QCheck_alcotest.to_alcotest prop_prepared_after_ddl;
      ] );
  ]
