let c_agg_row = Meter.counter "agg_row"
let c_group_init = Meter.counter "group_init"
let c_hash_build = Meter.counter "hash_build"
let c_hash_probe = Meter.counter "hash_probe"
let c_index_probe = Meter.counter "index_probe"
let c_join_row = Meter.counter "join_row"
let c_merge_step = Meter.counter "merge_step"
let c_partition_row = Meter.counter "partition_row"
let c_row_construct = Meter.counter "row_construct"
let c_seq_row = Meter.counter "seq_row"
let c_sort_row = Meter.counter "sort_row"

type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type select_item = {
  expr : Expr.t;
  alias : string option;
}

type plan =
  | Scan of { rel : string; alias : string option }
  | Filter of Expr.t * plan
  | Join of plan * plan * Expr.t option
  | Project of select_item list * plan
  | Group of {
      keys : select_item list;
      aggs : (agg * string) list;
      having : Expr.t option;
      input : plan;
    }
  | Order of (Expr.t * order) list * plan
  | Limit of int * plan
  | Distinct of plan

let item ?alias expr = { expr; alias }

exception Plan_error of string

let plan_error fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

(* Column provenance within an executing result: a verbatim copy of a
   standard-record attribute ([Slot]) or a computed value ([Mat]). *)
type colprov = Slot of int * int | Mat

type xdesc = {
  schema : Schema.t;
  nslots : int;
  colprov : colprov array;
}

type xrow = {
  vals : Value.t array;
  srcs : Record.t array;
}

type result = {
  desc : xdesc;
  xrows : xrow list;  (* result order *)
}

(* ------------------------------------------------------------------ *)
(* Descriptor computation.                                            *)

let item_name i (it : select_item) =
  match it.alias with
  | Some a -> a
  | None -> (
    match it.expr with
    | Expr.Col (_, n) -> n
    | _ -> Printf.sprintf "col%d" i)

let item_type schema (it : select_item) =
  match Expr.infer_type schema it.expr with
  | Some ty -> ty
  | None -> Value.TFloat  (* unregistered functions default to float *)

let agg_type schema = function
  | Count_star | Count _ -> Value.TInt
  | Avg _ -> Value.TFloat
  | Sum e | Min e | Max e -> (
    match Expr.infer_type schema e with Some ty -> ty | None -> Value.TFloat)

let scan_desc relation alias =
  let base = Catalog.relation_schema relation in
  let name = Option.value alias ~default:(Catalog.relation_name relation) in
  let schema = Schema.requalify name base in
  match relation with
  | Catalog.Std _ ->
    {
      schema;
      nslots = 1;
      colprov = Array.init (Schema.arity schema) (fun i -> Slot (0, i));
    }
  | Catalog.Tmp tmp ->
    let prov = Temp_table.static_map tmp in
    {
      schema;
      nslots = Temp_table.slots tmp;
      colprov =
        Array.map
          (function
            | Temp_table.From_record (s, o) -> Slot (s, o)
            | Temp_table.Computed _ -> Mat)
          prov;
    }

let join_desc dl dr =
  let schema =
    try Schema.append dl.schema dr.schema
    with Invalid_argument msg -> plan_error "join: %s" msg
  in
  let shift = function Slot (s, o) -> Slot (s + dl.nslots, o) | Mat -> Mat in
  {
    schema;
    nslots = dl.nslots + dr.nslots;
    colprov = Array.append dl.colprov (Array.map shift dr.colprov);
  }

let project_desc d items =
  let cols =
    List.mapi
      (fun i it -> Schema.column (item_name i it) (item_type d.schema it))
      items
  in
  let schema =
    try Schema.make cols
    with Invalid_argument msg ->
      plan_error "projection has duplicate output columns (%s); use AS aliases"
        msg
  in
  let colprov =
    items
    |> List.map (fun it ->
           match Expr.resolve d.schema it.expr with
           | Expr.Bound i -> d.colprov.(i)
           | _ -> Mat
           | exception Expr.Unknown_column c ->
             plan_error "unknown column %s" c)
    |> Array.of_list
  in
  { schema; nslots = d.nslots; colprov }

let group_desc d keys aggs =
  let key_cols =
    List.mapi
      (fun i it -> Schema.column (item_name i it) (item_type d.schema it))
      keys
  in
  let agg_cols =
    List.map (fun (a, name) -> Schema.column name (agg_type d.schema a)) aggs
  in
  let schema =
    try Schema.make (key_cols @ agg_cols)
    with Invalid_argument msg -> plan_error "group by: %s" msg
  in
  {
    schema;
    nslots = 0;
    colprov = Array.make (Schema.arity schema) Mat;
  }

(* ------------------------------------------------------------------ *)
(* Predicate analysis for join strategies.                              *)

let rec conjuncts = function
  | Expr.Binop (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Split a resolved join predicate into equi pairs (left position, right
   position relative to the right input) and residual conjuncts. *)
let split_equi ~left_arity pred =
  let equi = ref [] and residual = ref [] in
  List.iter
    (fun c ->
      match c with
      | Expr.Binop (Expr.Eq, Expr.Bound i, Expr.Bound j)
        when i < left_arity && j >= left_arity ->
        equi := (i, j - left_arity) :: !equi
      | Expr.Binop (Expr.Eq, Expr.Bound j, Expr.Bound i)
        when i < left_arity && j >= left_arity ->
        equi := (i, j - left_arity) :: !equi
      | c -> residual := c :: !residual)
    (conjuncts pred);
  (List.rev !equi, List.rev !residual)

module VKey = struct
  type t = Value.t list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: a', y :: b' -> Value.equal x y && equal a' b'
    | _ -> false

  (* As [Index.Key.hash]: fold, no list of hashes per call. *)
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 5381 k
end

module VTbl = Hashtbl.Make (VKey)

(* ------------------------------------------------------------------ *)
(* Join strategy selection.

   A pure function of the logical plan shape and the current catalog, so
   that [explain] and a preparation made against the same catalog always
   agree.  The choices, in priority order:

   - merge join: both inputs are bare standard-table scans whose equi
     columns are covered by [Ordered] indexes on both sides — stream the
     two red-black trees in key order (a two-way leapfrog);
   - index join: the right input is a bare standard-table scan with any
     index exactly covering its equi columns — probe per left row;
   - hash join: any other equi join;
   - nested loop: no equi conjunct (cross products and pure theta joins). *)

type strategy =
  | PMerge of (Table.t * Index.t) * (Table.t * Index.t)
  | PIndex of Table.t * Index.t
  | PHash
  | PNested

let equi_cols tb ~side equi =
  List.map
    (fun (i, j) ->
      (Schema.col (Table.schema tb) (match side with `L -> i | `R -> j))
        .Schema.cname)
    equi

let pick_strategy ~ltb ~rtb equi =
  match (equi, rtb) with
  | [], _ -> PNested
  | _, None -> PHash
  | _, Some rtb -> (
    match Table.index_on rtb (equi_cols rtb ~side:`R equi) with
    | None -> PHash
    | Some ridx -> (
      let lordered =
        match ltb with
        | None -> None
        | Some ltb -> (
          match Table.index_on ltb (equi_cols ltb ~side:`L equi) with
          | Some lidx when Index.kind lidx = Index.Ordered -> Some (ltb, lidx)
          | _ -> None)
      in
      match lordered with
      | Some (ltb, lidx) when Index.kind ridx = Index.Ordered ->
        PMerge ((ltb, lidx), (rtb, ridx))
      | _ -> PIndex (rtb, ridx)))

(* ------------------------------------------------------------------ *)
(* Prepared plans.

   [prepare] resolves a plan once, against the catalog and the layouts of
   the temporary tables in [env]: each scan is bound to its standard
   table or to its position in the execution-time temporary-table array,
   each predicate and select item to column positions, each join to its
   strategy, and each operator gets the scratch arrays its output rows
   are written into.  Executing does no name resolution and no probing of
   a plan cache.  A preparation stays valid while the catalog's table set
   ({!Catalog.generation}) and the scanned tables' index sets
   ({!Table.index_gen}) are what it assumed; a caller holding a stale
   plan prepares it again.  Preparing ticks no meter.

   Execution pushes rows downstream.  A row handed to a consumer is
   borrowed — the producer's scratch arrays, reused for its next row — so
   a consumer that keeps a row copies it. *)

type node =
  | NStd of { tb : Table.t; one : Record.t array }
  | NTmp of {
      pos : int;  (* index into the execution-time temporary tables *)
      layout : Temp_table.layout;
      tvals : Value.t array;
      tsrcs : Record.t array;
    }
  | NFilter of Expr.t * node
  | NJoin of join
  | NProject of { sub : node; exprs : Expr.t array; out : Value.t array }
  | NGroup of group
  | NOrder of (Expr.t * order) list * node
  | NLimit of int * node
  | NDistinct of node

and join = {
  left : node;
  right : node;
  strategy : strategy;
  equi : (int * int) list;
  residual : Expr.t option;
  la : int;  (* left arity; right columns start here *)
  nl : int;  (* left pointer slots; right slots start here *)
  jvals : Value.t array;
  jsrcs : Record.t array;
}

and group = {
  gsub : node;
  gkeys : Expr.t list;
  gaggs : (agg * Expr.t) list;  (* the agg's own expression is unused *)
  ghaving : Expr.t option;
}

(* How a result becomes a bound table (§6.1), fixed by its descriptor. *)
type binder = {
  blayout : Temp_table.layout;
  slot_of : int array;  (* bound-table slot -> result slot *)
  mat_of : int array;  (* bound-table cell -> result column, or -1-j: override j *)
}

type prepared = {
  root : node;
  pdesc : xdesc;
  pcat : Catalog.t;
  cat_gen : int;
  deps : (Table.t * int) list;  (* scanned tables and their index_gen *)
  binder : binder option;  (* when prepared for binding *)
}

let resolve_in schema e =
  try Expr.resolve schema e
  with Expr.Unknown_column c -> plan_error "unknown column %s" c

let binder desc ~overrides =
  let schema = Schema.unqualify desc.schema in
  let override_for col =
    let name = (Schema.col schema col).Schema.cname in
    let rec find j = function
      | [] -> None
      | n :: _ when n = name -> Some j
      | _ :: rest -> find (j + 1) rest
    in
    find 0 overrides
  in
  (* Keep only pointer slots actually referenced by a non-overridden output
     column (the §6.1 optimization; STRIP v2.0's footnote says it stored all
     slots — we implement the described design). *)
  let used = Array.make (max desc.nslots 1) false in
  Array.iteri
    (fun col prov ->
      match (prov, override_for col) with
      | Slot (s, _), None -> used.(s) <- true
      | _ -> ())
    desc.colprov;
  let slot_map = Array.make (max desc.nslots 1) (-1) in
  let slot_of = ref [] in
  Array.iteri
    (fun s u ->
      if u then begin
        slot_map.(s) <- List.length !slot_of;
        slot_of := s :: !slot_of
      end)
    used;
  let mat_of = ref [] in
  let prov =
    Array.mapi
      (fun col p ->
        match (p, override_for col) with
        | Slot (s, o), None -> Temp_table.From_record (slot_map.(s), o)
        | _, ov ->
          let m = List.length !mat_of in
          mat_of := (match ov with Some j -> -1 - j | None -> col) :: !mat_of;
          Temp_table.Computed m)
      desc.colprov
  in
  let slot_of = Array.of_list (List.rev !slot_of) in
  let mat_of = Array.of_list (List.rev !mat_of) in
  {
    blayout =
      Temp_table.layout ~schema ~nslots:(Array.length slot_of) ~prov;
    slot_of;
    mat_of;
  }

let prepare ?bind cat ~env plan =
  let deps = ref [] in
  let rec env_pos i name = function
    | [] -> None
    | (n, tmp) :: _ when n = name -> Some (i, tmp)
    | _ :: rest -> env_pos (i + 1) name rest
  in
  let rec prep = function
    | Scan { rel; alias } -> (
      match env_pos 0 rel env with
      | Some (pos, tmp) ->
        let desc = scan_desc (Catalog.Tmp tmp) alias in
        ( NTmp
            {
              pos;
              layout = Temp_table.layout_of tmp;
              tvals = Array.make (Schema.arity desc.schema) Value.Null;
              tsrcs = Array.make desc.nslots Record.dummy;
            },
          desc )
      | None -> (
        match Catalog.find_table cat rel with
        | None -> plan_error "unknown relation %s" rel
        | Some tb ->
          if not (List.mem_assq tb !deps) then
            deps := (tb, Table.index_gen tb) :: !deps;
          (NStd { tb; one = [| Record.dummy |] }, scan_desc (Catalog.Std tb) alias)))
    | Filter (pred, p) ->
      let n, d = prep p in
      (NFilter (resolve_in d.schema pred, n), d)
    | Join (l, r, pred) ->
      let ln, ld = prep l in
      let rn, rd = prep r in
      let desc = join_desc ld rd in
      let la = Schema.arity ld.schema in
      let equi, residual =
        match pred with
        | None -> ([], [])
        | Some p -> split_equi ~left_arity:la (resolve_in desc.schema p)
      in
      let std = function NStd { tb; _ } -> Some tb | _ -> None in
      ( NJoin
          {
            left = ln;
            right = rn;
            strategy = pick_strategy ~ltb:(std ln) ~rtb:(std rn) equi;
            equi;
            residual =
              (match residual with
              | [] -> None
              | c :: cs ->
                Some
                  (List.fold_left (fun acc c -> Expr.Binop (Expr.And, acc, c)) c cs));
            la;
            nl = ld.nslots;
            jvals = Array.make (Schema.arity desc.schema) Value.Null;
            jsrcs = Array.make desc.nslots Record.dummy;
          },
        desc )
    | Project (items, p) ->
      let n, d = prep p in
      let exprs =
        Array.of_list (List.map (fun it -> resolve_in d.schema it.expr) items)
      in
      ( NProject { sub = n; exprs; out = Array.make (Array.length exprs) Value.Null },
        project_desc d items )
    | Group { keys; aggs; having; input } ->
      let n, d = prep input in
      let desc = group_desc d keys aggs in
      let resolve = resolve_in d.schema in
      let agg_of (a, _) =
        match a with
        | Count_star -> (Count_star, Expr.Const Value.Null)
        | Count e -> (a, resolve e)
        | Sum e -> (a, resolve e)
        | Avg e -> (a, resolve e)
        | Min e -> (a, resolve e)
        | Max e -> (a, resolve e)
      in
      ( NGroup
          {
            gsub = n;
            gkeys = List.map (fun it -> resolve it.expr) keys;
            gaggs = List.map agg_of aggs;
            ghaving = Option.map (resolve_in desc.schema) having;
          },
        desc )
    | Order (specs, p) ->
      let n, d = prep p in
      (NOrder (List.map (fun (e, o) -> (resolve_in d.schema e, o)) specs, n), d)
    | Limit (k, p) ->
      let n, d = prep p in
      (NLimit (k, n), d)
    | Distinct p ->
      let n, d = prep p in
      (NDistinct n, d)
  in
  let root, desc = prep plan in
  {
    root;
    pdesc = desc;
    pcat = cat;
    cat_gen = Catalog.generation cat;
    deps = !deps;
    binder = Option.map (fun overrides -> binder desc ~overrides) bind;
  }

let valid p =
  Catalog.generation p.pcat = p.cat_gen
  && List.for_all (fun (tb, g) -> Table.index_gen tb = g) p.deps

let prepared_schema p = p.pdesc.schema

(* ------------------------------------------------------------------ *)
(* Execution.                                                           *)

(* Testing knob: when [false], the indexed-probe physical path is replaced
   by a hash-build fallback that reproduces the modeled path bit for bit —
   same "index_probe"/"join_row" ticks, same output order (an index posting
   list holds records newest-first, i.e. by descending rid).  Strategy
   *selection* is unaffected, so simulated results must not change; the
   differential tests assert exactly that. *)
let physical_index_join = ref true

(* Accumulator per aggregate: (count, sum as float, current value). *)
type acc = {
  mutable n : int;
  mutable fsum : float;
  mutable v : Value.t;  (* running sum / min / max *)
}

let new_acc _ = { n = 0; fsum = 0.0; v = Value.Null }

let accumulate row acc (kind, e) =
  match kind with
  | Count_star -> acc.n <- acc.n + 1
  | Count _ ->
    if not (Value.is_null (Expr.eval e row)) then acc.n <- acc.n + 1
  | Sum _ ->
    let v = Expr.eval e row in
    if not (Value.is_null v) then begin
      acc.n <- acc.n + 1;
      acc.v <- (if Value.is_null acc.v then v else Value.add acc.v v)
    end
  | Avg _ ->
    let v = Expr.eval e row in
    if not (Value.is_null v) then begin
      acc.n <- acc.n + 1;
      acc.fsum <- acc.fsum +. Value.to_float v
    end
  | Min _ ->
    let v = Expr.eval e row in
    if (not (Value.is_null v)) && (Value.is_null acc.v || Value.compare v acc.v < 0)
    then acc.v <- v
  | Max _ ->
    let v = Expr.eval e row in
    if (not (Value.is_null v)) && (Value.is_null acc.v || Value.compare v acc.v > 0)
    then acc.v <- v

let finish acc (kind, _) =
  match kind with
  | Count_star | Count _ -> Value.Int acc.n
  | Sum _ | Min _ | Max _ -> acc.v
  | Avg _ ->
    if acc.n = 0 then Value.Null else Value.Float (acc.fsum /. float_of_int acc.n)

let rec iter env node (k : Value.t array -> Record.t array -> unit) =
  match node with
  | NStd { tb; one } ->
    Table.iter tb (fun r ->
        Meter.tick_c c_seq_row;
        one.(0) <- r;
        k r.Record.values one)
  | NTmp { pos; layout; tvals; tsrcs } ->
    let tmp = env.(pos) in
    if Temp_table.layout_of tmp != layout then
      plan_error "temporary table %s changed shape since preparation"
        (Temp_table.name tmp);
    Temp_table.iter tmp (fun row ->
        Meter.tick_c c_seq_row;
        Temp_table.fill_values tmp row tvals;
        Temp_table.fill_sources tmp row tsrcs;
        k tvals tsrcs)
  | NFilter (pred, sub) ->
    iter env sub (fun v s -> if Expr.eval_pred pred v then k v s)
  | NJoin j -> iter_join env j k
  | NProject { sub; exprs; out } ->
    iter env sub (fun v s ->
        Meter.tick_c c_row_construct;
        for i = 0 to Array.length exprs - 1 do
          out.(i) <- Expr.eval exprs.(i) v
        done;
        k out s)
  | NGroup g -> iter_group env g k
  | NOrder (specs, sub) ->
    let keyed = ref [] in
    iter env sub (fun v s ->
        Meter.tick_c c_sort_row;
        let key = List.map (fun (e, ord) -> (Expr.eval e v, ord)) specs in
        keyed := (key, Array.copy v, Array.copy s) :: !keyed);
    let rec compare_keys a b =
      match (a, b) with
      | (va, o) :: a', (vb, _) :: b' ->
        let c = Value.compare va vb in
        let c = match o with Asc -> c | Desc -> -c in
        if c <> 0 then c else compare_keys a' b'
      | _ -> 0
    in
    List.stable_sort (fun (a, _, _) (b, _, _) -> compare_keys a b) (List.rev !keyed)
    |> List.iter (fun (_, v, s) -> k v s)
  | NLimit (n, sub) ->
    let taken = ref 0 in
    iter env sub (fun v s ->
        if !taken < n then begin
          incr taken;
          k v s
        end)
  | NDistinct sub ->
    let seen = VTbl.create 16 in
    iter env sub (fun v s ->
        Meter.tick_c c_hash_probe;
        let key = Array.to_list v in
        if not (VTbl.mem seen key) then begin
          VTbl.add seen key ();
          k v s
        end)

(* A join writes each output row into its scratch arrays: the left part
   once per left row, the right part per match. *)
and iter_join env j k =
  let vals = j.jvals and srcs = j.jsrcs in
  let ra = Array.length vals - j.la in
  let set_left lv ls =
    Array.blit lv 0 vals 0 j.la;
    Array.blit ls 0 srcs 0 j.nl
  in
  let emit () =
    match j.residual with
    | Some p when not (Expr.eval_pred p vals) -> ()
    | _ -> k vals srcs
  in
  let emit_right rv rs =
    Meter.tick_c c_join_row;
    Array.blit rv 0 vals j.la ra;
    Array.blit rs 0 srcs j.nl (Array.length rs);
    emit ()
  in
  let emit_record (r : Record.t) =
    Meter.tick_c c_join_row;
    Array.blit r.Record.values 0 vals j.la ra;
    srcs.(j.nl) <- r;
    emit ()
  in
  let probe_key lv = List.map (fun (i, _) -> lv.(i)) j.equi in
  (* The right input materialized, in order (rows are copied: they are
     borrowed from the producer). *)
  let right_rows ~tick =
    let acc = ref [] in
    iter env j.right (fun v s ->
        tick ();
        acc := (Array.copy v, Array.copy s) :: !acc);
    List.rev !acc
  in
  match j.strategy with
  | PIndex (_, idx) when !physical_index_join ->
    iter env j.left (fun lv ls ->
        set_left lv ls;
        List.iter emit_record (Index.lookup idx (probe_key lv)))
  | PIndex (tb, _) ->
    (* unmetered hash build, then per-left-row probes that replay the
       modeled index path's ticks and posting order *)
    let tbl = VTbl.create (Table.cardinal tb) in
    Table.iter tb (fun r ->
        let key = List.map (fun (_, jj) -> Record.value r jj) j.equi in
        let cur = match VTbl.find_opt tbl key with Some l -> l | None -> [] in
        VTbl.replace tbl key (r :: cur));
    iter env j.left (fun lv ls ->
        Meter.tick_c c_index_probe;
        match VTbl.find_opt tbl (probe_key lv) with
        | None -> ()
        | Some l ->
          set_left lv ls;
          List.iter emit_record
            (List.sort (fun (a : Record.t) (b : Record.t) -> compare b.rid a.rid) l))
  | PMerge ((_, lidx), (_, ridx)) ->
    (* Neither side is scanned: stream both ordered indexes in key order
       and intersect, one "merge_step" per pointer advance.  Output is in
       ascending key order; within a key, left then right postings
       oldest-first (ascending rid). *)
    let rec merge ls rs =
      match (ls, rs) with
      | [], _ | _, [] -> ()
      | (lk, lrecs) :: ls', (rk, rrecs) :: rs' ->
        Meter.tick_c c_merge_step;
        let c = Index.compare_keys lk rk in
        if c < 0 then merge ls' rs
        else if c > 0 then merge ls rs'
        else begin
          List.iter
            (fun (lr : Record.t) ->
              Array.blit lr.Record.values 0 vals 0 j.la;
              srcs.(0) <- lr;
              List.iter emit_record rrecs)
            lrecs;
          merge ls' rs'
        end
    in
    merge (Index.ordered_entries lidx) (Index.ordered_entries ridx)
  | PHash ->
    let rrows = right_rows ~tick:(fun () -> Meter.tick_c c_hash_build) in
    let tbl = VTbl.create (List.length rrows) in
    (* postings reversed, so each key's rows come out in build order *)
    List.iter
      (fun ((rv, _) as row) ->
        let key = List.map (fun (_, jj) -> rv.(jj)) j.equi in
        VTbl.replace tbl key
          (row :: Option.value (VTbl.find_opt tbl key) ~default:[]))
      (List.rev rrows);
    iter env j.left (fun lv ls ->
        Meter.tick_c c_hash_probe;
        match VTbl.find_opt tbl (probe_key lv) with
        | None -> ()
        | Some rrows ->
          set_left lv ls;
          List.iter (fun (rv, rs) -> emit_right rv rs) rrows)
  | PNested ->
    let rrows = right_rows ~tick:ignore in
    iter env j.left (fun lv ls ->
        set_left lv ls;
        List.iter (fun (rv, rs) -> emit_right rv rs) rrows)

and iter_group env g k =
  let groups = VTbl.create 16 in
  let order = ref [] in
  let naggs = List.length g.gaggs in
  iter env g.gsub (fun v _ ->
      Meter.tick_c c_agg_row;
      let key = List.map (fun e -> Expr.eval e v) g.gkeys in
      let accs =
        match VTbl.find_opt groups key with
        | Some a -> a
        | None ->
          Meter.tick_c c_group_init;
          let a = Array.init naggs new_acc in
          VTbl.add groups key a;
          order := key :: !order;
          a
      in
      List.iteri (fun i spec -> accumulate v accs.(i) spec) g.gaggs);
  (* A grand aggregate (no keys) over an empty input still yields one row. *)
  if g.gkeys = [] && VTbl.length groups = 0 then begin
    VTbl.add groups [] (Array.init naggs new_acc);
    order := [ [] ]
  end;
  List.iter
    (fun key ->
      let accs = VTbl.find groups key in
      Meter.tick_c c_row_construct;
      let row = Array.of_list (key @ List.mapi (fun i spec -> finish accs.(i) spec) g.gaggs) in
      match g.ghaving with
      | Some h when not (Expr.eval_pred h row) -> ()
      | _ -> k row [||])
    (List.rev !order)

let count p ~env =
  let n = ref 0 in
  iter env p.root (fun _ _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Binding results as temporary tables (§6.1).  Binding is unmetered:
   the rule system charges ["bound_append"] when it hands a bound table
   to a task ({!Temp_table.charge_bind}). *)

let bind_row b ~stamps tmp vals srcs =
  Temp_table.append_mapped tmp ~srcs ~slot_of:b.slot_of ~vals ~mat_of:b.mat_of
    ~stamps

let binder_of p =
  match p.binder with
  | Some b -> b
  | None -> invalid_arg "Query: plan not prepared for binding"

let bind_prepared p ~env ~name ~stamps =
  let b = binder_of p in
  let tmp = Temp_table.of_layout ~name b.blayout in
  iter env p.root (bind_row b ~stamps tmp);
  tmp

(* The Appendix-A step behind [unique on]: move a bound table's rows into
   one table per distinct value of the columns at positions [cols], keys
   in first-seen order. *)
let partition_bound tmp ~cols =
  let tbl = VTbl.create (Temp_table.cardinal tmp) in
  let order = ref [] in
  let name = Temp_table.name tmp and lay = Temp_table.layout_of tmp in
  Temp_table.split tmp (fun row ->
      Meter.tick_c c_partition_row;
      let key = List.map (Temp_table.get tmp row) cols in
      match VTbl.find_opt tbl key with
      | Some part -> part
      | None ->
        let part = Temp_table.of_layout ~name lay in
        VTbl.add tbl key part;
        order := (key, part) :: !order;
        part);
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Ad-hoc queries: prepare, then execute into a materialized result.    *)

let run cat ~env plan =
  let p = prepare cat ~env plan in
  let acc = ref [] in
  iter
    (Array.of_list (List.map snd env))
    p.root
    (fun v s -> acc := { vals = Array.copy v; srcs = Array.copy s } :: !acc);
  { desc = p.pdesc; xrows = List.rev !acc }

let schema_of cat ~env plan = prepared_schema (prepare cat ~env plan)

let result_schema r = r.desc.schema
let row_count r = List.length r.xrows
let rows r = List.map (fun x -> Array.copy x.vals) r.xrows

let bind ?(overrides = []) ~name r =
  let b = binder r.desc ~overrides:(List.map fst overrides) in
  let stamps = Array.of_list (List.map snd overrides) in
  let tmp = Temp_table.of_layout ~name b.blayout in
  List.iter (fun x -> bind_row b ~stamps tmp x.vals x.srcs) r.xrows;
  tmp

(* ------------------------------------------------------------------ *)

(* When a catalog is supplied, annotate each join with the access path the
   executor would choose right now (the strategy a preparation picks). *)
let strategy_note cat ~env l r pred =
  match prepare cat ~env (Join (l, r, pred)) with
  | { root = NJoin { strategy; _ }; _ } -> (
    match strategy with
    | PMerge ((_, lidx), (_, ridx)) ->
      Printf.sprintf " [merge join via %s, %s]" (Index.name lidx) (Index.name ridx)
    | PIndex (_, idx) -> Printf.sprintf " [index join via %s]" (Index.name idx)
    | PHash -> " [hash join]"
    | PNested -> " [nested loop]")
  | _ | (exception _) -> ""

let rec explain_at ?cat ?(env = []) depth plan =
  let pad = String.make (depth * 2) ' ' in
  let line = Printf.sprintf in
  match plan with
  | Scan { rel; alias } ->
    line "%sscan %s%s" pad rel
      (match alias with Some a when a <> rel -> " as " ^ a | _ -> "")
  | Filter (p, q) ->
    line "%sfilter %s\n%s" pad
      (Format.asprintf "%a" Expr.pp p)
      (explain_at ?cat ~env (depth + 1) q)
  | Join (l, r, p) ->
    line "%sjoin%s%s\n%s\n%s" pad
      (match p with
      | Some p -> " on " ^ Format.asprintf "%a" Expr.pp p
      | None -> " (cross)")
      (match cat with
      | Some cat -> strategy_note cat ~env l r p
      | None -> "")
      (explain_at ?cat ~env (depth + 1) l)
      (explain_at ?cat ~env (depth + 1) r)
  | Project (items, q) ->
    line "%sproject %s\n%s" pad
      (String.concat ", "
         (List.mapi
            (fun i it ->
              Format.asprintf "%a as %s" Expr.pp it.expr (item_name i it))
            items))
      (explain_at ?cat ~env (depth + 1) q)
  | Group { keys; aggs; input; _ } ->
    line "%sgroup by %s aggs %s\n%s" pad
      (String.concat ", "
         (List.mapi
            (fun i it -> item_name i it)
            keys))
      (String.concat ", " (List.map snd aggs))
      (explain_at ?cat ~env (depth + 1) input)
  | Order (specs, q) ->
    line "%sorder by %d key(s)\n%s" pad (List.length specs)
      (explain_at ?cat ~env (depth + 1) q)
  | Limit (n, q) -> line "%slimit %d\n%s" pad n (explain_at ?cat ~env (depth + 1) q)
  | Distinct q -> line "%sdistinct\n%s" pad (explain_at ?cat ~env (depth + 1) q)

let explain ?cat ?env plan = explain_at ?cat ?env 0 plan
