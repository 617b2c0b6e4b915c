open Strip_relational
open Strip_txn
let c_rule_check = Meter.counter "rule_check"
module Trace = Strip_obs.Trace
module Span = Strip_obs.Span
module Provenance = Strip_obs.Provenance

type action_ctx = {
  txn : Transaction.t;
  task : Task.t;
  cat : Catalog.t;
  clock : Clock.t;
}

type user_fun = action_ctx -> unit

exception Rule_error of string

let rule_error fmt = Printf.ksprintf (fun s -> raise (Rule_error s)) fmt

(* A bound query, prepared against the catalog and the rule table's
   transition layout; prepared again when its dependency check fails. *)
type query = {
  plan : Query.plan;
  bind_as : string option;
  mutable prep : Query.prepared;
  mutable owned : string list;  (* the [unique on] columns it outputs *)
  mutable key_cols : int list;  (* their output positions *)
}

type compiled = {
  rule : Rule_ast.t;
  cond : query list;
  eval : query list;
  (* declared layout of every named bound table, for merge compatibility *)
  bound_schemas : (string * Schema.t) list;
  mutable trigger : Rule_ast.trigger;
  mutable trigger_schema : Schema.t;  (* the table schema it resolved against *)
  fn : user_fun option ref;  (* the user function's registration cell *)
}

(* What a bound query produced at one firing. *)
type output =
  | Rows of int  (* not bound: only the row count matters *)
  | Whole of string * Temp_table.t
  | Keyed of query * Temp_table.t  (* holds [unique on] columns: split at firing *)

type t = {
  cat : Catalog.t;
  locks : Lock.t;
  clock : Clock.t;
  fault : Fault.t option;
  dur : Durable.t option;
  funcs : (string, user_fun option ref) Hashtbl.t;  (* lowercased name *)
  by_table : (string, compiled list ref) Hashtbl.t;
  mutable all_rules : compiled list;  (* creation order *)
  reg : Unique.t;
  mutable submit : (Task.t -> unit) option;
  mutable firings : int;
  mutable created : int;
  mutable merges : int;
  trace : Trace.t option;
  prov : Provenance.t option;
  (* trace context of the transaction currently committing through this
     manager — set from the running task so [fire] can parent-link the
     rule tasks it creates and [commit_txn] can annotate the WAL *)
  mutable cur_ctx : Span.ctx option;
  mutable on_commit :
    (task:Task.t -> tables:string list -> now:float -> unit) option;
  (* Cross-shard partial deltas (lib/shard).  [emit_partial] buffers a
     weighted contribution to a composite row owned by another shard while
     the action transaction runs; at commit the buffer is stamped with
     ship sequence numbers, contiguous per destination shard from 0,
     logged as [Wal.Shard_out] records in the same append batch as the
     commit (atomicity), and handed to the sink after the fsync.  All three stay empty outside sharded runs, so
     single-primary behavior is byte-identical. *)
  mutable partial_sink :
    (seq:int ->
    dst:int ->
    key:Value.t list ->
    delta:float ->
    created_at:float ->
    ctx:Span.ctx option ->
    unit)
    option;
  mutable partial_buf : (int * Value.t list * float) list;  (* reversed *)
  mutable release_buf : Value.t list list;  (* reversed *)
  partial_next : (int, int) Hashtbl.t;  (* dst -> next sequence number *)
  mutable release_sink : (key:Value.t list -> unit) option;
}

let create ~cat ~locks ~clock ?fault ?durable ?trace ?provenance () =
  {
    cat;
    locks;
    clock;
    fault;
    dur = durable;
    funcs = Hashtbl.create 16;
    by_table = Hashtbl.create 16;
    all_rules = [];
    reg = Unique.create ();
    submit = None;
    firings = 0;
    created = 0;
    merges = 0;
    trace;
    prov = provenance;
    cur_ctx = None;
    on_commit = None;
    partial_sink = None;
    partial_buf = [];
    release_buf = [];
    partial_next = Hashtbl.create 8;
    release_sink = None;
  }

let set_partial_sink t f = t.partial_sink <- Some f
let set_release_sink t f = t.release_sink <- Some f

let emit_partial t ~dst ~key ~delta =
  t.partial_buf <- (dst, key, delta) :: t.partial_buf

let note_shard_release t ~key = t.release_buf <- key :: t.release_buf

let clear_partials t =
  t.partial_buf <- [];
  t.release_buf <- []

let partial_seq t = Hashtbl.fold (fun _ n acc -> acc + n) t.partial_next 0

let partial_seqs t =
  Hashtbl.fold (fun dst n acc -> (dst, n) :: acc) t.partial_next []
  |> List.sort compare

let set_partial_seqs t seqs =
  Hashtbl.reset t.partial_next;
  List.iter (fun (dst, n) -> Hashtbl.replace t.partial_next dst n) seqs

let set_commit_hook t f = t.on_commit <- Some f

let set_current_ctx t ctx = t.cur_ctx <- ctx

let ctx_args (task : Task.t) =
  match task.Task.ctx with None -> [] | Some c -> Span.args c

let fault t = t.fault

let inject t ~txn ~site ~detail =
  match t.fault with
  | None -> ()
  | Some f -> Fault.fire f ~site ~txid:(Transaction.txid txn) ~detail

let set_submitter t f = t.submit <- Some f

let submit t task =
  match t.submit with
  | Some f -> f task
  | None -> rule_error "no task submitter installed (call set_submitter)"

(* One cell per function name, shared by every rule executing it, so a
   firing reaches its function without hashing or lowercasing the name
   and a later registration is still seen. *)
let function_cell t name =
  let key = String.lowercase_ascii name in
  match Hashtbl.find_opt t.funcs key with
  | Some cell -> cell
  | None ->
    let cell = ref None in
    Hashtbl.add t.funcs key cell;
    cell

let register_function t name fn = function_cell t name := Some fn

let registry t = t.reg

(* Installed as the engine's requeue hook: a failed unique transaction
   re-enters the registry while it waits out its retry backoff, so new
   firings keep merging into its (still intact) bound tables. *)
let reregister_task t (task : Task.t) =
  match task.Task.unique_key with
  | Some key -> Unique.register t.reg ~func:task.Task.func_name ~key task
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Durable queue logging.  With a durability layer wired, every unique
   queue transition is appended to the WAL (pending until the enclosing
   commit's fsync), so queued batches can be rebuilt after a crash. *)

(* Disk-full on an append is typed backpressure: the device refused the
   bytes, so the acked-but-unlogged work cannot be made durable.  Treat
   it as a crash — the restart driver recovers from the last checkpoint,
   whose truncation reclaims log space. *)
let wal_guard f =
  try f ()
  with Wal.Disk_full _ ->
    Meter.tick "disk_full_stall";
    raise (Fault.Crashed { at = "disk_full" })

let log_uq t record =
  match t.dur with
  | None -> ()
  | Some d -> wal_guard (fun () -> ignore (Wal.append (Durable.wal d) record))

let bound_rows_of (bound : (string * Temp_table.t) list) : Wal.bound_rows =
  List.map (fun (name, tmp) -> (name, Temp_table.to_rows tmp)) bound

(* Installed as the engine's shed hook.  A coalesced victim's rows change
   hands before the victim is cancelled: log the merge (and the victim's
   release) first, so the durable queue never loses the rows.  A plain
   drop logs nothing — the victim's durable enqueue survives, and replay
   after a crash conservatively restores the shed work. *)
let log_shed t ~(victim : Task.t) ~(into : Task.t option) =
  if t.dur <> None then
    match (victim.Task.unique_key, into) with
    | Some vkey, Some dst -> (
      match dst.Task.unique_key with
      | Some dkey ->
        log_uq t
          (Wal.Uq_merge
             {
               func = dst.Task.func_name;
               key = dkey;
               bound = bound_rows_of victim.Task.bound;
             });
        log_uq t
          (Wal.Uq_release { func = victim.Task.func_name; key = vkey })
      | None -> ())
    | _ -> ()

let n_rule_firings t = t.firings
let n_tasks_created t = t.created
let n_merges t = t.merges

let reset_stats t =
  t.firings <- 0;
  t.created <- 0;
  t.merges <- 0

(* ------------------------------------------------------------------ *)
(* Rule compilation.                                                    *)

(* The system stamps a bound table's [commit_time] column, if it has one,
   with the firing's clock. *)
let stamped = [ "commit_time" ]

(* Testing knob: when [true], every firing runs its queries ad hoc —
   [Query.run] and [Query.bind], preparing afresh — the reference the
   prepared path is checked against. *)
let reference_firing = ref false

let trigger_for (rule : Rule_ast.t) schema =
  match Rule_ast.resolve_events ~schema rule.events with
  | Ok trigger -> trigger
  | Error col ->
    rule_error "rule %s: unknown column %s in when updated" rule.rname col

let prepare_parts t (rule : Rule_ast.t) ~env plan bind_as =
  let prep =
    try Query.prepare ?bind:(Option.map (fun _ -> stamped) bind_as) t.cat ~env plan
    with Query.Plan_error msg -> (
      match bind_as with
      | Some n -> rule_error "rule %s, bound table %s: %s" rule.rname n msg
      | None -> rule_error "rule %s: %s" rule.rname msg)
  in
  let schema = Query.prepared_schema prep in
  let owned =
    match (rule.uniqueness, bind_as) with
    | Rule_ast.Unique_on cols, Some _ -> List.filter (Schema.mem schema) cols
    | _ -> []
  in
  let position col =
    match Schema.find schema col with
    | Some i -> i
    | None | (exception Schema.Ambiguous _) ->
      rule_error "rule %s: ambiguous unique column %s" rule.rname col
  in
  (prep, owned, List.map position owned)

let reprepare t rule ~env q =
  let prep, owned, key_cols = prepare_parts t rule ~env q.plan q.bind_as in
  q.prep <- prep;
  q.owned <- owned;
  q.key_cols <- key_cols

let compile_rule t (rule : Rule_ast.t) =
  let base =
    match Catalog.find_table t.cat rule.Rule_ast.rtable with
    | Some tb -> Table.schema tb
    | None -> rule_error "rule %s: unknown table %s" rule.rname rule.rtable
  in
  let trigger = trigger_for rule base in
  (* Queries are prepared against empty transition tables of the rule
     table's layout — the layout every commit's tables share. *)
  let env = Transition.env (Transition.build ~schema:base []) in
  let resolve_rel name =
    match List.assoc_opt name env with
    | Some tmp -> Some (Temp_table.schema tmp, `Tmp)
    | None ->
      Option.map (fun tb -> (Table.schema tb, `Std)) (Catalog.find_table t.cat name)
  in
  let prepare_bound (bq : Rule_ast.bound_query) =
    let plan =
      try Sql_parser.plan_select ~resolve_rel bq.query
      with Sql_parser.Parse_error msg ->
        rule_error "rule %s: %s" rule.rname msg
    in
    let prep, owned, key_cols = prepare_parts t rule ~env plan bq.bind_as in
    { plan; bind_as = bq.bind_as; prep; owned; key_cols }
  in
  let cond = List.map prepare_bound rule.condition in
  let eval = List.map prepare_bound rule.evaluate in
  let bound_schemas =
    List.filter_map
      (fun q ->
        Option.map
          (fun n -> (n, Schema.unqualify (Query.prepared_schema q.prep)))
          q.bind_as)
      (cond @ eval)
  in
  (* Unique columns must come from the bound tables. *)
  (match rule.uniqueness with
  | Rule_ast.Unique_on cols ->
    List.iter
      (fun col ->
        if
          not
            (List.exists (fun (_, sch) -> Schema.mem sch col) bound_schemas)
        then
          rule_error
            "rule %s: unique column %s does not appear in any bound table"
            rule.rname col)
      cols
  | Rule_ast.Not_unique | Rule_ast.Unique -> ());
  let fn = function_cell t rule.func in
  (* Bound tables of rules executing the same function must be defined
     identically (§2), so batches can merge. *)
  List.iter
    (fun other ->
      if other.fn == fn then
        List.iter
          (fun (n, sch) ->
            match List.assoc_opt n other.bound_schemas with
            | Some osch when not (Schema.equal_layout sch osch) ->
              rule_error
                "rule %s: bound table %s differs in layout from rule %s's \
                 definition (same function %s)"
                rule.rname n other.rule.Rule_ast.rname rule.func
            | _ -> ())
          bound_schemas)
    t.all_rules;
  { rule; cond; eval; bound_schemas; trigger; trigger_schema = base; fn }

let create_rule t rule =
  if
    List.exists
      (fun c -> c.rule.Rule_ast.rname = rule.Rule_ast.rname)
      t.all_rules
  then rule_error "duplicate rule name %s" rule.Rule_ast.rname;
  let compiled = compile_rule t rule in
  t.all_rules <- t.all_rules @ [ compiled ];
  let slot =
    match Hashtbl.find_opt t.by_table rule.Rule_ast.rtable with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.by_table rule.Rule_ast.rtable l;
      l
  in
  slot := !slot @ [ compiled ]

let create_rule_text t s = create_rule t (Rule_parser.parse s)

let drop_rule t name =
  if not (List.exists (fun c -> c.rule.Rule_ast.rname = name) t.all_rules)
  then rule_error "no such rule %s" name;
  t.all_rules <-
    List.filter (fun c -> c.rule.Rule_ast.rname <> name) t.all_rules;
  Hashtbl.iter
    (fun _ slot ->
      slot := List.filter (fun c -> c.rule.Rule_ast.rname <> name) !slot)
    t.by_table

let rules t = List.map (fun c -> c.rule) t.all_rules

(* ------------------------------------------------------------------ *)
(* Derived-row provenance.  At each rule-action commit, every written
   derived row (keyed by its leading column) gets an entry linking it to
   the firing — the task, transaction, trace context, and the bound-table
   base deltas that drove it.  Inputs are capped per bound table so one
   huge batch cannot bloat an entry; the ring itself bounds history. *)

let max_prov_inputs = 8

let render_row row =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string row)) ^ ")"

let prov_inputs (task : Task.t) =
  List.concat_map
    (fun (name, tmp) ->
      let rows = Temp_table.to_rows tmp in
      let n = List.length rows in
      let shown = List.filteri (fun i _ -> i < max_prov_inputs) rows in
      List.map
        (fun row -> { Provenance.src_table = name; src_desc = render_row row })
        shown
      @
      if n > max_prov_inputs then
        [
          {
            Provenance.src_table = name;
            src_desc =
              Printf.sprintf "... %d more row(s)" (n - max_prov_inputs);
          };
        ]
      else [])
    task.Task.bound

let record_provenance p ~(task : Task.t) ~txid ~now ~ops =
  let trace, span =
    match task.Task.ctx with
    | None -> (0, 0)
    | Some c -> (c.Span.trace, c.Span.span)
  in
  let inputs = prov_inputs task in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun op ->
      let view = Wal.op_table op in
      let key =
        match op with
        | Wal.Insert { values; _ } | Wal.Delete { values; _ } ->
          if Array.length values > 0 then Value.to_string values.(0) else ""
        | Wal.Update { new_values; _ } ->
          if Array.length new_values > 0 then Value.to_string new_values.(0)
          else ""
      in
      if not (Hashtbl.mem seen (view, key)) then begin
        Hashtbl.add seen (view, key) ();
        Provenance.record p
          {
            Provenance.view;
            key;
            rule = task.Task.func_name;
            task_id = task.Task.task_id;
            txid;
            trace;
            span;
            committed_at = now;
            inputs;
          }
      end)
    ops

(* ------------------------------------------------------------------ *)
(* Running one bound query at a firing.                                 *)

let output t compiled ~trans ~stamps q =
  let reference = !reference_firing in
  if (not reference) && not (Query.valid q.prep) then
    reprepare t compiled.rule ~env:(Transition.env trans) q;
  let run () = Query.run t.cat ~env:(Transition.env trans) q.plan in
  let env = trans.Transition.tables in
  match q.bind_as with
  | None -> Rows (if reference then Query.row_count (run ()) else Query.count q.prep ~env)
  | Some name ->
    let tmp =
      if reference then
        Query.bind ~overrides:(List.combine stamped (Array.to_list stamps)) ~name (run ())
      else Query.bind_prepared q.prep ~env ~name ~stamps
    in
    if q.owned = [] then Whole (name, tmp) else Keyed (q, tmp)

(* ------------------------------------------------------------------ *)
(* Action execution.                                                    *)

let rec run_action t cell task =
  let func = task.Task.func_name in
  match !cell with
  | None -> rule_error "user function %s is not registered" func
  | Some fn ->
    (* A fresh firing must now start a new transaction (§2). *)
    (match task.Task.unique_key with
    | Some key -> Unique.remove t.reg ~func ~key
    | None -> ());
    (* The action's trace context is current while it runs: cascade
       firings parent under it, and its commit note carries its span. *)
    t.cur_ctx <- task.Task.ctx;
    let txn =
      Transaction.begin_ ~cat:t.cat ~locks:t.locks ~clock:t.clock
        ~env:task.Task.bound ()
    in
    (try
       (* Injection sites for the fault harness: the user function raising
          on entry; then — after the real work, but before commit-time rule
          processing so no phantom cascade firings escape an aborted
          transaction — a lock conflict, a deadlock victimization, or a
          plain abort. *)
       inject t ~txn ~site:Fault.User_fun ~detail:func;
       fn { txn; task; cat = t.cat; clock = t.clock };
       inject t ~txn ~site:Fault.Lock_conflict ~detail:func;
       inject t ~txn ~site:Fault.Deadlock ~detail:func;
       inject t ~txn ~site:Fault.Txn_abort ~detail:func;
       inject t ~txn ~site:Fault.Crash ~detail:func
     with e ->
       if Transaction.status txn = Transaction.Active then
         Transaction.abort txn;
       t.cur_ctx <- None;
       clear_partials t;
       raise e);
    if Transaction.status txn = Transaction.Active then begin
      (* the written-table set, captured before cleanup clears the log *)
      let tables = Tlog.tables_touched (Transaction.log txn) in
      (* Redo images for provenance, captured likewise (the commit clears
         the transaction log). *)
      let prov_ops =
        match t.prov with
        | None -> []
        | Some _ -> Wal.ops_of_tlog (Transaction.log txn)
      in
      let txid = Transaction.txid txn in
      (* A committing unique transaction durably releases its queue slot. *)
      let release =
        match task.Task.unique_key with
        | Some key -> Some (func, key)
        | None -> None
      in
      commit_txn ?release t txn;
      t.cur_ctx <- None;
      let now = Clock.now t.clock in
      (match t.trace with
      | None -> ()
      | Some tr ->
        Trace.instant tr ~ts:now ~tid:Trace.tid_recompute
          ~args:
            ([
               ("task", Trace.Int task.Task.task_id);
               ("func", Trace.Str func);
               ("tables", Trace.Str (String.concat "," tables));
             ]
            @ ctx_args task)
          "commit");
      (match t.prov with
      | None -> ()
      | Some p -> record_provenance p ~task ~txid ~now ~ops:prov_ops);
      match t.on_commit with
      | Some f -> f ~task ~tables ~now
      | None -> ()
    end
    else begin
      t.cur_ctx <- None;
      clear_partials t
    end

(* ------------------------------------------------------------------ *)
(* Firing: hand the bound tables to tasks, merging unique batches.      *)

and fire t compiled named =
  let rule = compiled.rule in
  let now = Clock.now t.clock in
  let release = now +. rule.Rule_ast.delay in
  t.firings <- t.firings + 1;
  (* The rule task is a child span of the transaction that fired it. *)
  let new_task ?unique_key ?ctx bound =
    Task.create ~klass:Task.Recompute ~func_name:rule.Rule_ast.func ?unique_key
      ~bound ?ctx ~release_time:release ~created_at:now
      (fun task -> run_action t compiled.fn task)
  in
  let merge_or_create ~key bound =
    (* the bind charge: every table is handed over here exactly once *)
    List.iter (fun (_, tmp) -> Temp_table.charge_bind tmp) bound;
    match Unique.find t.reg ~func:rule.Rule_ast.func ~key with
    | Some queued ->
      (* Append this firing's rows to the queued TCB's bound tables. *)
      t.merges <- t.merges + 1;
      (match t.trace with
      | None -> ()
      | Some tr ->
        (* The merge event carries the queued task's context plus the
           incoming firing's span, so the merged trace shows both causal
           parents of the batch. *)
        let from_args =
          match t.cur_ctx with
          | None -> []
          | Some c ->
            [
              ("from_trace", Trace.Int c.Span.trace);
              ("from_span", Trace.Int c.Span.span);
            ]
        in
        Trace.instant tr ~ts:now ~tid:Trace.tid_recompute
          ~args:
            ([
               ("task", Trace.Int queued.Task.task_id);
               ("func", Trace.Str rule.Rule_ast.func);
               ( "key",
                 Trace.Str
                   (String.concat "," (List.map Value.to_string key)) );
             ]
            @ ctx_args queued @ from_args)
          "merge");
      if t.dur <> None then
        log_uq t
          (Wal.Uq_merge
             { func = rule.Rule_ast.func; key; bound = bound_rows_of bound });
      List.iter
        (fun (name, tmp) ->
          match List.assoc_opt name queued.Task.bound with
          | Some dst -> Temp_table.absorb dst tmp
          | None ->
            Temp_table.retire tmp;
            rule_error
              "rule %s: queued transaction for %s lacks bound table %s"
              rule.Rule_ast.rname rule.Rule_ast.func name)
        bound
    | None ->
      t.created <- t.created + 1;
      let ctx = Option.map Span.child t.cur_ctx in
      if t.dur <> None then begin
        log_uq t
          (Wal.Uq_enqueue
             {
               func = rule.Rule_ast.func;
               key;
               release_time = release;
               created_at = now;
               bound = bound_rows_of bound;
             });
        match ctx with
        | None -> ()
        | Some c ->
          (* rides the enqueue's fsync; crash recovery reattaches the
             context to the resubmitted batch *)
          log_uq t
            (Wal.Trace_note
               {
                 subject = Wal.For_uq { func = rule.Rule_ast.func; key };
                 trace = c.Span.trace;
                 span = c.Span.span;
               })
      end;
      let task = new_task ~unique_key:key ?ctx bound in
      Unique.register t.reg ~func:rule.Rule_ast.func ~key task;
      submit t task
  in
  let whole =
    List.filter_map
      (function Whole (n, tmp) -> Some (n, tmp) | Rows _ | Keyed _ -> None)
      named
  in
  match rule.Rule_ast.uniqueness with
  | Rule_ast.Not_unique ->
    t.created <- t.created + 1;
    let ctx = Option.map Span.child t.cur_ctx in
    List.iter (fun (_, tmp) -> Temp_table.charge_bind tmp) whole;
    submit t (new_task ?ctx whole)
  | Rule_ast.Unique -> merge_or_create ~key:[] whole
  | Rule_ast.Unique_on cols ->
    (* Appendix A: the bound tables that contain unique columns arrive
       partitioned by them; the others pass whole to every partition.  The
       unique key ranges over the cartesian product of the per-table
       distinct sub-keys (column names are unique across bound tables). *)
    let parted =
      List.filter_map
        (function
          | Keyed (q, tmp) ->
            Some
              (Temp_table.name tmp, q.owned, Query.partition_bound tmp ~cols:q.key_cols)
          | Rows _ | Whole _ -> None)
        named
    in
    let n = List.fold_left (fun acc (_, _, ps) -> acc * List.length ps) 1 parted in
    (* A table goes to every partition it is part of, a copy each time but
       the last: a merge empties what it absorbs. *)
    let share tmp uses = (tmp, ref uses) in
    let take (tmp, left) =
      decr left;
      if !left = 0 then tmp else Temp_table.copy tmp
    in
    let parted =
      List.map
        (fun (name, owned, ps) ->
          let uses = if ps = [] then 0 else n / List.length ps in
          (name, owned, List.map (fun (k, sub) -> (k, share sub uses)) ps))
        parted
    in
    let whole = List.map (fun (name, tmp) -> (name, share tmp n)) whole in
    let rec combos acc = function
      | [] -> [ List.rev acc ]
      | (name, owned, parts) :: rest ->
        List.concat_map
          (fun (key, sub) -> combos ((name, owned, key, sub) :: acc) rest)
          parts
    in
    if n = 0 then begin
      List.iter (fun (_, (tmp, _)) -> Temp_table.retire tmp) whole;
      List.iter
        (fun (_, _, ps) -> List.iter (fun (_, (tmp, _)) -> Temp_table.retire tmp) ps)
        parted
    end
    else
      List.iter
        (fun combo ->
          (* Key ordered by the rule's unique column list. *)
          let rec lookup col = function
            | [] -> assert false
            | (_, owned, key, _) :: rest -> (
              match List.find_index (String.equal col) owned with
              | Some j -> List.nth key j
              | None -> lookup col rest)
          in
          let key = List.map (fun col -> lookup col combo) cols in
          merge_or_create ~key
            (List.map (fun (name, _, _, sub) -> (name, take sub)) combo
            @ List.map (fun (name, tmp) -> (name, take tmp)) whole))
        (combos [] parted)

(* ------------------------------------------------------------------ *)
(* Commit-time processing (§6.3).                                       *)

and check_rule t compiled trans =
  let stamps = [| Value.Float (Clock.now t.clock) |] in
  let conds = List.map (output t compiled ~trans ~stamps) compiled.cond in
  let holds = function
    | Rows n -> n > 0
    | Whole (_, tmp) | Keyed (_, tmp) -> Temp_table.cardinal tmp > 0
  in
  if List.for_all holds conds then
    fire t compiled (conds @ List.map (output t compiled ~trans ~stamps) compiled.eval)
  else
    List.iter
      (function
        | Rows _ -> ()
        | Whole (_, tmp) | Keyed (_, tmp) -> Temp_table.retire tmp)
      conds

and process_commit t txn =
  let log = Transaction.log txn in
  if Tlog.length log > 0 then begin
    let tables = Tlog.tables_touched log in
    let all = lazy (Tlog.entries log) in
    List.iter
      (fun table ->
        match Hashtbl.find_opt t.by_table table with
        | None | Some { contents = [] } -> ()
        | Some { contents = rules } ->
          let schema = Table.schema (Catalog.table_exn t.cat table) in
          let entries =
            match tables with
            | [ _ ] -> Lazy.force all
            | _ ->
              List.filter
                (fun (e : Tlog.entry) -> e.table = table)
                (Lazy.force all)
          in
          let trans = Transition.build ~schema entries in
          List.iter
            (fun compiled ->
              Meter.tick_c c_rule_check;
              if compiled.trigger_schema != schema then begin
                compiled.trigger <- trigger_for compiled.rule schema;
                compiled.trigger_schema <- schema
              end;
              if
                List.exists
                  (fun (e : Tlog.entry) -> Rule_ast.fires compiled.trigger e.change)
                  entries
              then check_rule t compiled trans)
            rules;
          Transition.retire trans)
      tables
  end

and commit_txn ?release t txn =
  process_commit t txn;
  (* Redo images must be captured before cleanup clears the log; rule
     firings above have already appended their Uq records to the pending
     WAL tail, so the Commit record lands after them in log order. *)
  let ops =
    match t.dur with
    | None -> []
    | Some _ -> Wal.ops_of_tlog (Transaction.log txn)
  in
  Transaction.commit txn;
  (* Stamp buffered cross-shard partials with their stream's next
     sequence number in emit order; their Shard_out records ride the
     commit's append batch so the partial is durable iff the commit that
     produced it is. *)
  let commit_time = Clock.now t.clock in
  let partials =
    List.map
      (fun (dst, key, delta) ->
        let seq =
          Option.value (Hashtbl.find_opt t.partial_next dst) ~default:0
        in
        Hashtbl.replace t.partial_next dst (seq + 1);
        (seq, dst, key, delta))
      (List.rev t.partial_buf)
  in
  let shard_releases = List.rev t.release_buf in
  clear_partials t;
  (match t.dur with
  | None -> ()
  | Some d ->
    let w = Durable.wal d in
    let commit_recs =
      if ops = [] then []
      else
        (* The trace note precedes its Commit record so a replica scanning
           in order has the context before it applies the transaction. *)
        (match t.cur_ctx with
        | None -> []
        | Some c ->
          [
            Wal.Trace_note
              {
                subject = Wal.For_txn (Transaction.txid txn);
                trace = c.Span.trace;
                span = c.Span.span;
              };
          ])
        @ [
            Wal.Commit
              { txid = Transaction.txid txn; time = commit_time; ops };
          ]
    in
    let commit_recs =
      commit_recs
      @ (match release with
        | Some (func, key) -> [ Wal.Uq_release { func; key } ]
        | None -> [])
      @ List.map
          (fun (seq, dst, key, delta) ->
            Wal.Shard_out { seq; dst; key; delta; created_at = commit_time })
          partials
      @ List.map (fun key -> Wal.Shard_release { key }) shard_releases
    in
    if commit_recs <> [] then
      wal_guard (fun () -> ignore (Wal.append_batch w commit_recs));
    if Wal.pending_bytes w > 0 then begin
      (* The window between the in-memory commit and the log reaching
         stable storage: a crash here loses this transaction. *)
      inject t ~txn ~site:Fault.Crash ~detail:"wal_flush";
      Wal.fsync w
    end);
  (* Hand the now-durable partials to the shard coordinator for shipping.
     The sink runs after the fsync: a crash before this point re-ships
     from the WAL, a crash after it ships twice — both collapse to one
     merge at the owner's dedup. *)
  (match t.partial_sink with
  | None -> ()
  | Some sink ->
    List.iter
      (fun (seq, dst, key, delta) ->
        sink ~seq ~dst ~key ~delta ~created_at:commit_time ~ctx:t.cur_ctx)
      partials);
  (* Releases likewise reach the coordinator only once durable: the apply
     task peeks (never takes) the merged delta, so an abort after the body
     leaves the queue entry intact for a clean re-apply. *)
  (match t.release_sink with
  | None -> ()
  | Some f -> List.iter (fun key -> f ~key) shard_releases);
  Transaction.cleanup txn

(* ------------------------------------------------------------------ *)
(* Crash recovery support.                                              *)

let bound_schemas_for t ~func =
  let lf = String.lowercase_ascii func in
  Option.map
    (fun c -> c.bound_schemas)
    (List.find_opt
       (fun c -> String.lowercase_ascii c.rule.Rule_ast.func = lf)
       t.all_rules)

let resubmit_recovered t ~ctx ~func ~key ~release_time ~created_at
    ~(bound : Wal.bound_rows) =
  let cell = function_cell t func in
  match bound_schemas_for t ~func with
  | None -> rule_error "recovery: no rule executes user function %s" func
  | Some schemas ->
    let bound_tbls =
      List.map
        (fun (name, rows) ->
          match List.assoc_opt name schemas with
          | None ->
            rule_error "recovery: function %s has no bound table %s" func name
          | Some schema ->
            (* No record pointers survive a restart: the recovered TCB is
               fully materialized, and later merges copy by value (the
               absorb slow path). *)
            let tmp = Temp_table.create_materialized ~name ~schema in
            List.iter (Temp_table.append_values tmp) rows;
            (name, tmp))
        bound
    in
    t.created <- t.created + 1;
    let task =
      Task.create ~klass:Task.Recompute ~func_name:func ~unique_key:key
        ~bound:bound_tbls ?ctx ~release_time ~created_at
        (fun task -> run_action t cell task)
    in
    Unique.register t.reg ~func ~key task;
    submit t task
