open Strip_relational

(* ------------------------------------------------------------------ *)
(* Lexer.                                                               *)

let test_lexer_tokens () =
  let toks = Sql_lexer.tokenize "select a.b, 'it''s' <> 1.5e2 += -- note\n ;" in
  let strs = Array.to_list (Array.map Sql_lexer.token_to_string toks) in
  Alcotest.(check (list string))
    "tokens"
    [ "select"; "a"; "."; "b"; ","; "'it's'"; "<>"; "150."; "+="; ";"; "<eof>" ]
    strs

let test_lexer_errors () =
  (match Sql_lexer.tokenize "'unterminated" with
  | exception Sql_lexer.Lex_error (_, 0) -> ()
  | _ -> Alcotest.fail "unterminated string accepted");
  match Sql_lexer.tokenize "a ? b" with
  | exception Sql_lexer.Lex_error (_, 2) -> ()
  | _ -> Alcotest.fail "bad character accepted"

(* ------------------------------------------------------------------ *)
(* Parser.                                                              *)

let test_parse_select_shape () =
  let ast =
    Sql_parser.parse_select_string
      "select comp, sum(w * p) as total from t1, t2 x where t1.k = x.k and p \
       > 2 group by comp having total > 0 order by total desc limit 3"
  in
  Alcotest.(check int) "items" 2 (List.length ast.Sql_parser.items);
  Alcotest.(check (list string))
    "from aliases" [ "t1"; "x" ]
    (List.map (fun (r : Sql_parser.table_ref) -> r.alias) ast.Sql_parser.from);
  Alcotest.(check bool) "where" true (ast.Sql_parser.where <> None);
  Alcotest.(check int) "group by" 1 (List.length ast.Sql_parser.group_by);
  Alcotest.(check bool) "having" true (ast.Sql_parser.having <> None);
  Alcotest.(check int) "order" 1 (List.length ast.Sql_parser.order_by);
  Alcotest.(check (option int)) "limit" (Some 3) ast.Sql_parser.limit

let test_parse_paper_groupby_spelling () =
  (* Figure 6 writes "groupby" as one word. *)
  let ast =
    Sql_parser.parse_select_string
      "select comp, sum((new_price - old_price) * weight) as diff from \
       matches groupby comp"
  in
  Alcotest.(check int) "groupby parsed" 1 (List.length ast.Sql_parser.group_by)

let test_parse_statements_script () =
  let stmts =
    Sql_parser.parse_statements
      "create table t (a int, b float); insert into t values (1, 2.0); \
       update t set b += 1.0 where a = 1; delete from t where a = 2; select \
       * from t"
  in
  Alcotest.(check int) "five statements" 5 (List.length stmts);
  match stmts with
  | [ Sql_parser.Create_table { cols; _ }; Sql_parser.Insert _;
      Sql_parser.Update { sets = [ (_, Sql_parser.Increment, _) ]; _ };
      Sql_parser.Delete _; Sql_parser.Select _ ] ->
    Alcotest.(check int) "cols" 2 (List.length cols)
  | _ -> Alcotest.fail "unexpected statement shapes"

let test_parse_errors () =
  List.iter
    (fun sql ->
      match Sql_parser.parse_statement sql with
      | exception Sql_parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted: %s" sql)
    [
      "select from t";
      "create table t (a blob)";
      "insert into t (1)";
      "update t set";
      "select a from";
      "select a from t limit x";
      "select a from t; extra";
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end execution.                                                *)

let db () = Catalog.create ()

let exec cat s = Sql_exec.exec_string cat ~env:[] s

let rows cat s =
  match exec cat s with
  | Sql_exec.Rows r ->
    List.map
      (fun row -> Array.to_list (Array.map Value.to_string row))
      (Query.rows r)
  | _ -> Alcotest.fail "expected rows"

let count_of = function
  | Sql_exec.Count n -> n
  | _ -> Alcotest.fail "expected a count"

let test_exec_crud () =
  let cat = db () in
  ignore (exec cat "create table t (k string, v int)");
  ignore (exec cat "create index t_k on t (k)");
  Alcotest.(check int) "insert" 3
    (count_of (exec cat "insert into t values ('a',1),('b',2),('c',3)"));
  Alcotest.(check int) "indexed update" 1
    (count_of (exec cat "update t set v = 10 where k = 'a'"));
  Alcotest.(check int) "scan update" 2
    (count_of (exec cat "update t set v += 1 where v < 5"));
  Alcotest.(check int) "delete" 1 (count_of (exec cat "delete from t where k = 'b'"));
  Alcotest.(check (list (list string)))
    "final" [ [ "a"; "10" ]; [ "c"; "4" ] ]
    (rows cat "select k, v from t order by k")

let test_exec_uses_index_path () =
  let cat = db () in
  ignore (exec cat "create table t (k string, v int)");
  ignore (exec cat "create index t_k on t (k)");
  for i = 0 to 99 do
    ignore
      (exec cat (Printf.sprintf "insert into t values ('k%d', %d)" i i))
  done;
  Meter.reset ();
  ignore (exec cat "update t set v = 0 where k = 'k50'");
  (* index path: one probe, one fetch — not a 100-row scan *)
  Alcotest.(check int) "one fetch" 1 (Meter.get "fetch_cursor");
  Alcotest.(check int) "one probe" 1 (Meter.get "index_probe");
  Meter.reset ();
  ignore (exec cat "update t set v = 0 where v = 50");
  Alcotest.(check int) "unindexed predicate scans" 100 (Meter.get "fetch_cursor")

let test_insert_column_list () =
  let cat = db () in
  ignore (exec cat "create table t (a int, b string, c float)");
  ignore (exec cat "insert into t (c, a) values (1.5, 7)");
  Alcotest.(check (list (list string)))
    "reordered, missing defaults to NULL"
    [ [ "7"; "NULL"; "1.5" ] ]
    (rows cat "select * from t")

let test_create_view_materializes () =
  let cat = db () in
  ignore (exec cat "create table t (g string, x float)");
  ignore (exec cat "insert into t values ('a', 1.0), ('a', 2.0), ('b', 5.0)");
  let captured = ref None in
  ignore
    (Sql_exec.exec ~on_view:(fun name ast -> captured := Some (name, ast)) cat
       ~env:[]
       (Sql_parser.parse_statement
          "create view v as select g, sum(x) as s from t group by g"));
  Alcotest.(check (list (list string)))
    "materialized" [ [ "a"; "3.0" ]; [ "b"; "5.0" ] ]
    (rows cat "select g, s from v order by g");
  Alcotest.(check bool) "definition captured" true
    (match !captured with Some ("v", _) -> true | _ -> false)

let test_join_order_heuristic_temp_first () =
  (* The planner joins small temporaries before indexed standard tables so
     the index path applies; mimic a transition-table query. *)
  let cat = db () in
  ignore (exec cat "create table big (sym string, grp string)");
  ignore (exec cat "create index big_sym on big (sym)");
  for i = 0 to 499 do
    ignore
      (exec cat
         (Printf.sprintf "insert into big values ('s%d', 'g%d')" i (i mod 7)))
  done;
  let tiny =
    Temp_table.create_materialized ~name:"delta"
      ~schema:(Schema.of_list [ ("sym", Value.TStr) ])
  in
  Temp_table.append_values tiny [| Value.Str "s42" |];
  let env = [ ("delta", tiny) ] in
  Meter.reset ();
  let r =
    Sql_exec.query cat ~env
      "select grp from big, delta where big.sym = delta.sym"
  in
  Alcotest.(check int) "one match" 1 (Query.row_count r);
  Alcotest.(check bool) "no full scan of big" true (Meter.get "seq_row" < 10)

let test_select_star_and_qualified_star () =
  let cat = db () in
  ignore (exec cat "create table a (x int)");
  ignore (exec cat "create table b (y int)");
  ignore (exec cat "insert into a values (1)");
  ignore (exec cat "insert into b values (2)");
  Alcotest.(check (list (list string)))
    "star over join" [ [ "1"; "2" ] ]
    (rows cat "select * from a, b");
  Alcotest.(check (list (list string)))
    "qualified star" [ [ "2" ] ]
    (rows cat "select b.* from a, b")

let test_between_and_in () =
  let cat = db () in
  ignore (exec cat "create table t (k string, v int)");
  ignore
    (exec cat "insert into t values ('a',1),('b',2),('c',3),('d',4),('e',5)");
  Alcotest.(check (list (list string)))
    "between (inclusive)"
    [ [ "b" ]; [ "c" ]; [ "d" ] ]
    (rows cat "select k from t where v between 2 and 4 order by k");
  Alcotest.(check (list (list string)))
    "in list"
    [ [ "a" ]; [ "e" ] ]
    (rows cat "select k from t where k in ('a', 'e', 'zz') order by k");
  Alcotest.(check (list (list string)))
    "combined"
    [ [ "b" ] ]
    (rows cat
       "select k from t where v between 1 and 3 and k in ('b', 'd') order by k")

let test_range_cursor_via_tree_index () =
  let cat = db () in
  ignore (exec cat "create table t (k int, v int)");
  ignore (exec cat "create index t_k on t (k) using tree");
  for i = 0 to 99 do
    ignore (exec cat (Printf.sprintf "insert into t values (%d, 0)" i))
  done;
  Meter.reset ();
  Alcotest.(check int) "between hits the tree index" 11
    (count_of (exec cat "update t set v = 1 where k between 40 and 50"));
  Alcotest.(check bool) "fetched only the range" true
    (Meter.get "fetch_cursor" <= 11);
  Meter.reset ();
  Alcotest.(check int) "one-sided bound" 5
    (count_of (exec cat "update t set v = 2 where k >= 95"));
  Alcotest.(check bool) "fetched only the tail" true
    (Meter.get "fetch_cursor" <= 5);
  (* strict bounds widen to inclusive at the index; the residual predicate
     must still filter exactly *)
  Alcotest.(check int) "strict bounds exact" 9
    (count_of (exec cat "update t set v = 3 where k > 40 and k < 50"))

let test_distinct () =
  let cat = db () in
  ignore (exec cat "create table t (g string, v int)");
  ignore (exec cat "insert into t values ('a',1),('a',1),('a',2),('b',1)");
  Alcotest.(check (list (list string)))
    "distinct whole rows"
    [ [ "a"; "1" ]; [ "a"; "2" ]; [ "b"; "1" ] ]
    (rows cat "select distinct g, v from t order by g, v");
  Alcotest.(check (list (list string)))
    "distinct single column"
    [ [ "a" ]; [ "b" ] ]
    (rows cat "select distinct g from t order by g")

let test_join_on_syntax () =
  let cat = db () in
  ignore (exec cat "create table a (k string, x int)");
  ignore (exec cat "create table b (k string, y int)");
  ignore (exec cat "insert into a values ('p',1),('q',2)");
  ignore (exec cat "insert into b values ('q',20),('r',30)");
  Alcotest.(check (list (list string)))
    "join on" [ [ "q"; "2"; "20" ] ]
    (rows cat "select a.k as k, x, y from a join b on a.k = b.k");
  Alcotest.(check (list (list string)))
    "inner join + where" [ [ "q" ] ]
    (rows cat
       "select a.k as k from a inner join b on a.k = b.k where y > 10")

let test_explain_statement () =
  let cat = db () in
  ignore (exec cat "create table t (a int)");
  let lines =
    rows cat "explain select a from t where a > 1 order by a limit 5"
  in
  let text = String.concat "\n" (List.map List.hd lines) in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in plan") true (contains needle))
    [ "limit 5"; "order by"; "project"; "filter"; "scan t" ]

let test_drop_table () =
  let cat = db () in
  ignore (exec cat "create table t (a int)");
  ignore (exec cat "drop table t");
  (match exec cat "select a from t" with
  | exception Sql_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "dropped table still queryable");
  match exec cat "drop table t" with
  | exception Query.Plan_error _ -> ()
  | _ -> Alcotest.fail "double drop accepted"

let test_drop_index () =
  let cat = db () in
  ignore (exec cat "create table t (k string, v int)");
  ignore (exec cat "create index t_k on t (k)");
  ignore (exec cat "insert into t values ('a',1),('b',2)");
  ignore (exec cat "drop index t_k on t");
  Meter.reset ();
  ignore (exec cat "update t set v = 0 where k = 'a'");
  Alcotest.(check int) "no index left: the update scans" 2 (Meter.get "fetch_cursor");
  ignore (exec cat "insert into t values ('c',3)");
  Alcotest.(check (list (list string)))
    "rows intact" [ [ "a"; "0" ]; [ "b"; "2" ]; [ "c"; "3" ] ]
    (rows cat "select k, v from t order by k");
  match exec cat "drop index t_k on t" with
  | exception Query.Plan_error _ -> ()
  | _ -> Alcotest.fail "double drop accepted"

let test_aggregate_rejects_nested () =
  let cat = db () in
  ignore (exec cat "create table t (x int)");
  match exec cat "select sum(x) + 1 as s from t" with
  | exception Sql_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "nested aggregate expression accepted"

(* SQL NULL semantics for aggregates: COUNT yields 0 over an empty or
   all-NULL group; SUM/AVG/MIN/MAX yield NULL (never 0/0 or a garbage
   extremum).  NULL inputs are skipped, not counted. *)
let test_aggregate_empty_and_null_groups () =
  let cat = db () in
  ignore (exec cat "create table g (k string, v int)");
  Alcotest.(check (list (list string)))
    "grand aggregate over empty table"
    [ [ "0"; "0"; "NULL"; "NULL"; "NULL"; "NULL" ] ]
    (rows cat
       "select count(*) as c, count(v) as cv, sum(v) as s, avg(v) as a, \
        min(v) as mn, max(v) as mx from g");
  ignore
    (exec cat
       "insert into g values ('a', null), ('a', null), ('b', 3), ('b', null)");
  Alcotest.(check (list (list string)))
    "all-NULL group vs mixed group"
    [
      [ "a"; "2"; "0"; "NULL"; "NULL"; "NULL"; "NULL" ];
      [ "b"; "2"; "1"; "3"; "3.0"; "3"; "3" ];
    ]
    (rows cat
       "select k, count(*) as c, count(v) as cv, sum(v) as s, avg(v) as a, \
        min(v) as mn, max(v) as mx from g group by k order by k")

(* HAVING scopes over the grouped input rows, so its aggregates must be
   rewritten onto the Group operator's output (hidden aggregate columns
   when the select list doesn't carry them). *)
let test_having_aggregate_scoping () =
  let cat = db () in
  ignore (exec cat "create table h (sym string, n int, p float)");
  ignore
    (exec cat
       "insert into h values ('A', 1, 1.0), ('A', 2, 2.0), ('B', -1, 3.0), \
        ('B', -2, 4.0), ('C', 5, 5.0)");
  Alcotest.(check (list (list string)))
    "aggregate repeated from select list"
    [ [ "A"; "3" ]; [ "C"; "5" ] ]
    (rows cat
       "select sym, sum(n) as total from h group by sym having sum(n) > 0 \
        order by sym");
  (* aggregates absent from the select list become hidden columns and are
     projected away again *)
  Alcotest.(check (list (list string)))
    "hidden aggregates"
    [ [ "A" ] ]
    (rows cat
       "select sym from h group by sym having sum(n) > 0 and count(*) >= 2");
  Alcotest.(check (list (list string)))
    "alias reference"
    [ [ "A"; "3" ]; [ "C"; "5" ] ]
    (rows cat
       "select sym, sum(n) as t from h group by sym having t > 0 order by sym");
  Alcotest.(check (list (list string)))
    "arithmetic over two hidden aggregates"
    [ [ "A"; "1.5" ]; [ "B"; "3.5" ] ]
    (rows cat
       "select sym, avg(p) as ap from h group by sym having max(p) - min(p) \
        > 0.5 order by sym")

let suite =
  [
    ( "sql",
      [
        Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
        Alcotest.test_case "select AST shape" `Quick test_parse_select_shape;
        Alcotest.test_case "paper 'groupby' spelling" `Quick
          test_parse_paper_groupby_spelling;
        Alcotest.test_case "script parsing" `Quick test_parse_statements_script;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "CRUD end to end" `Quick test_exec_crud;
        Alcotest.test_case "cursor path picks indexes" `Quick test_exec_uses_index_path;
        Alcotest.test_case "insert column list" `Quick test_insert_column_list;
        Alcotest.test_case "create view materializes" `Quick test_create_view_materializes;
        Alcotest.test_case "join order: temporaries first" `Quick
          test_join_order_heuristic_temp_first;
        Alcotest.test_case "star expansion" `Quick test_select_star_and_qualified_star;
        Alcotest.test_case "between / in" `Quick test_between_and_in;
        Alcotest.test_case "range cursor via tree index" `Quick
          test_range_cursor_via_tree_index;
        Alcotest.test_case "select distinct" `Quick test_distinct;
        Alcotest.test_case "join ... on syntax" `Quick test_join_on_syntax;
        Alcotest.test_case "explain" `Quick test_explain_statement;
        Alcotest.test_case "drop table" `Quick test_drop_table;
        Alcotest.test_case "drop index" `Quick test_drop_index;
        Alcotest.test_case "nested aggregates rejected" `Quick
          test_aggregate_rejects_nested;
        Alcotest.test_case "aggregates over empty / all-NULL groups" `Quick
          test_aggregate_empty_and_null_groups;
        Alcotest.test_case "HAVING aggregate scoping" `Quick
          test_having_aggregate_scoping;
      ] );
  ]
