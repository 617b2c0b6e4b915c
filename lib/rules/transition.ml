open Strip_relational
open Strip_txn

type t = {
  inserted : Temp_table.t;
  deleted : Temp_table.t;
  new_ : Temp_table.t;
  old : Temp_table.t;
  tables : Temp_table.t array;  (* the four, in [env] order *)
}

let execute_order_column = "execute_order"

let transition_schema base =
  Schema.make
    (Schema.columns (Schema.unqualify base)
    @ [ Schema.column execute_order_column Value.TInt ])

(* Every commit against the same base table builds four transition tables
   with the same derived layout.  Cache the layout per base schema
   (physical identity — schemas are created once per table), so a commit
   pays for no validation, every transition table over one base shares
   one physical layout, and a query prepared against it stays valid for
   every later commit. *)
let layouts : (Schema.t * Temp_table.layout) list ref = ref []

let layout_for base =
  match List.assq_opt base !layouts with
  | Some l -> l
  | None ->
    let base_arity = Schema.arity base in
    let prov =
      (* base columns point into the source record; execute_order is
         materialized *)
      Array.init (base_arity + 1) (fun i ->
          if i < base_arity then Temp_table.From_record (0, i)
          else Temp_table.Computed 0)
    in
    let l = Temp_table.layout ~schema:(transition_schema base) ~nslots:1 ~prov in
    layouts := (base, l) :: !layouts;
    l

let build ~schema entries =
  let layout = layout_for schema in
  let make_table name = Temp_table.of_layout ~name layout in
  let inserted = make_table "inserted" in
  let deleted = make_table "deleted" in
  let new_ = make_table "new" in
  let old = make_table "old" in
  (* size each arena exactly: one pass to count, then no regrowth *)
  let ins = ref 0 and del = ref 0 and upd = ref 0 in
  List.iter
    (fun (e : Tlog.entry) ->
      match e.change with
      | Tlog.Inserted _ -> incr ins
      | Tlog.Deleted _ -> incr del
      | Tlog.Updated _ -> incr upd)
    entries;
  Temp_table.reserve inserted !ins;
  Temp_table.reserve deleted !del;
  Temp_table.reserve new_ !upd;
  Temp_table.reserve old !upd;
  (* appends copy out of these, so one pair serves every entry *)
  let src = [| Record.dummy |] and seq = [| Value.Null |] in
  let add tmp r order =
    src.(0) <- r;
    seq.(0) <- Value.Int order;
    Temp_table.append tmp ~srcs:src ~mats:seq
  in
  List.iter
    (fun (e : Tlog.entry) ->
      match e.change with
      | Tlog.Inserted r -> add inserted r e.execute_order
      | Tlog.Deleted r -> add deleted r e.execute_order
      | Tlog.Updated { old_rec; new_rec } ->
        add old old_rec e.execute_order;
        add new_ new_rec e.execute_order)
    entries;
  { inserted; deleted; new_; old; tables = [| inserted; deleted; new_; old |] }

let env t =
  [
    ("inserted", t.inserted);
    ("deleted", t.deleted);
    ("new", t.new_);
    ("old", t.old);
  ]

let retire t = Array.iter Temp_table.retire t.tables
