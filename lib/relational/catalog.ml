type relation =
  | Std of Table.t
  | Tmp of Temp_table.t

type env = (string * Temp_table.t) list

type t = {
  tbl : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (* creation order, newest first *)
  mutable gen : int;  (* bumped whenever a table is added or dropped *)
}

let create () = { tbl = Hashtbl.create 32; order = []; gen = 0 }
let generation t = t.gen

let add_table t table =
  let n = Table.name table in
  if Hashtbl.mem t.tbl n then
    invalid_arg (Printf.sprintf "Catalog: table %s already exists" n);
  Hashtbl.add t.tbl n table;
  t.order <- n :: t.order;
  t.gen <- t.gen + 1

let create_table t ~name ~schema =
  let table = Table.create ~name ~schema in
  add_table t table;
  table

let drop_table t name =
  if not (Hashtbl.mem t.tbl name) then raise Not_found;
  Hashtbl.remove t.tbl name;
  t.order <- List.filter (fun n -> n <> name) t.order;
  t.gen <- t.gen + 1

let find_table t name = Hashtbl.find_opt t.tbl name

let table_exn t name =
  match find_table t name with Some tb -> tb | None -> raise Not_found

let resolve t ~env name =
  match List.assoc_opt name env with
  | Some tmp -> Some (Tmp tmp)
  | None -> (
    match find_table t name with Some tb -> Some (Std tb) | None -> None)

let resolve_exn t ~env name =
  match resolve t ~env name with Some r -> r | None -> raise Not_found

let relation_schema = function
  | Std tb -> Table.schema tb
  | Tmp tmp -> Temp_table.schema tmp

let relation_name = function
  | Std tb -> Table.name tb
  | Tmp tmp -> Temp_table.name tmp

let tables t =
  List.rev_map (fun n -> Hashtbl.find t.tbl n) t.order
