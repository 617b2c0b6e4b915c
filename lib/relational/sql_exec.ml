type lock_mode = Shared | Exclusive

type hooks = {
  lock_table : Table.t -> lock_mode -> unit;
  lock_record : Table.t -> Record.t -> lock_mode -> unit;
  on_insert : Table.t -> Record.t -> unit;
  on_update : Table.t -> old_rec:Record.t -> new_rec:Record.t -> unit;
  on_delete : Table.t -> Record.t -> unit;
}

let no_hooks =
  {
    lock_table = (fun _ _ -> ());
    lock_record = (fun _ _ _ -> ());
    on_insert = (fun _ _ -> ());
    on_update = (fun _ ~old_rec:_ ~new_rec:_ -> ());
    on_delete = (fun _ _ -> ());
  }

type exec_result =
  | Rows of Query.result
  | Count of int
  | Unit

let resolver cat ~env name =
  match Catalog.resolve cat ~env name with
  | Some (Catalog.Std tb) -> Some (Table.schema tb, `Std)
  | Some (Catalog.Tmp tmp) -> Some (Temp_table.schema tmp, `Tmp)
  | None -> None

let plan_select cat ~env ast =
  Sql_parser.plan_select ~resolve_rel:(resolver cat ~env) ast

(* ------------------------------------------------------------------ *)
(* WHERE analysis for the cursor path: find an indexed equality prefix. *)

let rec conjuncts = function
  | Expr.Binop (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Split a resolved predicate into [col = constant] bindings and the
   residual conjuncts. *)
let const_bindings pred =
  let binds = ref [] and residual = ref [] in
  List.iter
    (fun c ->
      match c with
      | Expr.Binop (Expr.Eq, Expr.Bound i, Expr.Const v)
      | Expr.Binop (Expr.Eq, Expr.Const v, Expr.Bound i) ->
        binds := (i, v) :: !binds
      | c -> residual := c :: !residual)
    (conjuncts pred);
  (List.rev !binds, List.rev !residual)

(* Choose an index whose key columns are all pinned by constants. *)
let pick_index tb binds =
  let pinned i = List.assoc_opt i binds in
  let usable idx =
    let cols = Index.key_cols idx in
    let rec loop k acc =
      if k >= Array.length cols then Some (List.rev acc)
      else
        match pinned cols.(k) with
        | Some v -> loop (k + 1) (v :: acc)
        | None -> None
    in
    loop 0 []
  in
  let rec first = function
    | [] -> None
    | idx :: rest -> (
      match usable idx with
      | Some key -> Some (idx, key)
      | None -> first rest)
  in
  first (Table.indexes tb)

(* Range bounds per column: [col >= / > lo] and [col <= / < hi] conjuncts
   (strict bounds widen to inclusive; the residual predicate re-checks). *)
let range_bounds pred =
  let lo = Hashtbl.create 4 and hi = Hashtbl.create 4 in
  let tighten tbl better i v =
    match Hashtbl.find_opt tbl i with
    | Some v0 when better (Value.compare v v0) -> Hashtbl.replace tbl i v
    | Some _ -> ()
    | None -> Hashtbl.replace tbl i v
  in
  List.iter
    (fun c ->
      match c with
      | Expr.Binop ((Expr.Ge | Expr.Gt), Expr.Bound i, Expr.Const v)
      | Expr.Binop ((Expr.Le | Expr.Lt), Expr.Const v, Expr.Bound i) ->
        tighten lo (fun c -> c > 0) i v
      | Expr.Binop ((Expr.Le | Expr.Lt), Expr.Bound i, Expr.Const v)
      | Expr.Binop ((Expr.Ge | Expr.Gt), Expr.Const v, Expr.Bound i) ->
        tighten hi (fun c -> c < 0) i v
      | _ -> ())
    (conjuncts pred);
  (lo, hi)

(* A single-column ordered index over a column with at least one range
   bound. *)
let pick_range_index tb pred =
  let lo, hi = range_bounds pred in
  let usable idx =
    match (Index.kind idx, Index.key_cols idx) with
    | Index.Ordered, [| i |] -> (
      match (Hashtbl.find_opt lo i, Hashtbl.find_opt hi i) with
      | None, None -> None
      | l, h ->
        Some
          ( idx,
            Option.map (fun v -> [ v ]) l,
            Option.map (fun v -> [ v ]) h ))
    | _ -> None
  in
  List.find_map usable (Table.indexes tb)

(* Open the cheapest cursor for a WHERE predicate; returns the cursor and
   the predicate still to check per row (None = accept all). *)
let open_matching_cursor tb where =
  let schema = Schema.requalify (Table.name tb) (Table.schema tb) in
  match where with
  | None -> (Table.open_cursor tb, None)
  | Some w -> (
    let w =
      try Expr.resolve schema w
      with Expr.Unknown_column c ->
        raise (Query.Plan_error (Printf.sprintf "unknown column %s" c))
    in
    let binds, _residual = const_bindings w in
    (* Keep the full predicate as the residual check in every indexed case:
       re-testing the pinned columns is cheap and keeps the logic obviously
       correct. *)
    match pick_index tb binds with
    | Some (idx, key) -> (Table.open_index_cursor tb idx key, Some w)
    | None -> (
      match pick_range_index tb w with
      | Some (idx, lo, hi) ->
        (Table.open_range_cursor tb idx ?lo ?hi (), Some w)
      | None -> (Table.open_cursor tb, Some w)))

let fold_matching ?(hooks = no_hooks) tb where ~mode f =
  (* Table-level lock: scans take S, and writers also take S — intention
     style.  A writer's exclusive claims are the per-record X locks its
     callback acquires on each matched row, so updates to disjoint records
     can overlap under the multi-server engine instead of serializing on a
     whole-table X lock.  INSERT keeps its table X lock (its appends have
     no pre-existing records to lock). *)
  ignore (mode : lock_mode);
  hooks.lock_table tb Shared;
  let cursor, pred = open_matching_cursor tb where in
  let n = ref 0 in
  let rec loop () =
    match Table.fetch cursor with
    | None -> ()
    | Some r ->
      let keep =
        match pred with
        | None -> true
        | Some p -> Expr.eval_pred p r.Record.values
      in
      if keep then begin
        incr n;
        f cursor r
      end;
      loop ()
  in
  loop ();
  Table.close_cursor cursor;
  !n

(* ------------------------------------------------------------------ *)

let table_of cat name =
  match Catalog.find_table cat name with
  | Some tb -> tb
  | None ->
    raise (Query.Plan_error (Printf.sprintf "unknown table %s" name))

let exec ?(hooks = no_hooks) ?on_view cat ~env (st : Sql_parser.statement) =
  match st with
  | Sql_parser.Create_table { name; cols } ->
    let schema = Schema.of_list cols in
    ignore (Catalog.create_table cat ~name ~schema);
    Unit
  | Sql_parser.Create_index { iname; table; cols; kind } ->
    let tb = table_of cat table in
    ignore (Table.create_index tb ~name:iname ~kind ~cols);
    Unit
  | Sql_parser.Create_view { name; select } ->
    let plan = plan_select cat ~env select in
    let result = Query.run cat ~env plan in
    let schema = Schema.unqualify (Query.result_schema result) in
    let tb = Catalog.create_table cat ~name ~schema in
    List.iter
      (fun row ->
        let r = Table.insert tb row in
        hooks.on_insert tb r)
      (Query.rows result);
    (match on_view with Some f -> f name select | None -> ());
    Unit
  | Sql_parser.Insert { table; columns; values } ->
    let tb = table_of cat table in
    hooks.lock_table tb Exclusive;
    let schema = Table.schema tb in
    let arity = Schema.arity schema in
    let positions =
      match columns with
      | None -> Array.init arity (fun i -> i)
      | Some cols ->
        Array.of_list
          (List.map
             (fun c ->
               match Schema.find schema c with
               | Some i -> i
               | None ->
                 raise
                   (Query.Plan_error
                      (Printf.sprintf "unknown column %s in INSERT" c)))
             cols)
    in
    List.iter
      (fun exprs ->
        if List.length exprs <> Array.length positions then
          raise
            (Query.Plan_error
               "INSERT row arity does not match the column list");
        let row = Array.make arity Value.Null in
        List.iteri
          (fun k e -> row.(positions.(k)) <- Expr.eval e [||])
          exprs;
        let r = Table.insert tb row in
        hooks.on_insert tb r)
      values;
    Count (List.length values)
  | Sql_parser.Update { table; sets; where } ->
    let tb = table_of cat table in
    let schema = Table.schema tb in
    let qschema = Schema.requalify (Table.name tb) schema in
    let resolved_sets =
      List.map
        (fun (col, op, e) ->
          let pos =
            match Schema.find schema col with
            | Some i -> i
            | None ->
              raise
                (Query.Plan_error
                   (Printf.sprintf "unknown column %s in UPDATE SET" col))
          in
          let e =
            try Expr.resolve qschema e
            with Expr.Unknown_column c ->
              raise (Query.Plan_error (Printf.sprintf "unknown column %s" c))
          in
          (pos, op, e))
        sets
    in
    let n =
      fold_matching ~hooks tb where ~mode:Exclusive (fun cursor r ->
          hooks.lock_record tb r Exclusive;
          let row = Array.copy r.Record.values in
          List.iter
            (fun (pos, op, e) ->
              let v = Expr.eval e r.Record.values in
              row.(pos) <-
                (match (op : Sql_parser.set_op) with
                | Sql_parser.Assign -> v
                | Sql_parser.Increment -> Value.add r.Record.values.(pos) v))
            resolved_sets;
          let r' = Table.cursor_update cursor row in
          hooks.on_update tb ~old_rec:r ~new_rec:r')
    in
    Count n
  | Sql_parser.Delete { table; where } ->
    let tb = table_of cat table in
    let n =
      fold_matching ~hooks tb where ~mode:Exclusive (fun cursor r ->
          hooks.lock_record tb r Exclusive;
          Table.cursor_delete cursor;
          hooks.on_delete tb r)
    in
    Count n
  | Sql_parser.Drop_table name ->
    (try Catalog.drop_table cat name
     with Not_found ->
       raise (Query.Plan_error (Printf.sprintf "unknown table %s" name)));
    Unit
  | Sql_parser.Drop_index { table; iname } ->
    (try Table.drop_index (table_of cat table) iname
     with Not_found ->
       raise (Query.Plan_error (Printf.sprintf "unknown index %s" iname)));
    Unit
  | Sql_parser.Select ast ->
    let plan = plan_select cat ~env ast in
    Rows (Query.run cat ~env plan)
  | Sql_parser.Explain ast ->
    let plan = plan_select cat ~env ast in
    let tmp =
      Temp_table.create_materialized ~name:"explain"
        ~schema:(Schema.of_list [ ("plan", Value.TStr) ])
    in
    String.split_on_char '\n' (Query.explain plan)
    |> List.iter (fun line ->
           if String.trim line <> "" then
             Temp_table.append_values tmp [| Value.Str line |]);
    let lines_cat = Catalog.create () in
    Rows
      (Query.run lines_cat
         ~env:[ ("explain", tmp) ]
         (Query.Scan { rel = "explain"; alias = None }))

let exec_string ?hooks ?on_view cat ~env s =
  exec ?hooks ?on_view cat ~env (Sql_parser.parse_statement s)

let query ?hooks cat ~env s =
  ignore hooks;
  let ast = Sql_parser.parse_select_string s in
  let plan = plan_select cat ~env ast in
  Query.run cat ~env plan
