open Strip_relational
open Strip_txn

type event =
  | On_insert
  | On_delete
  | On_update of string list

type bound_query = {
  query : Sql_parser.select_ast;
  bind_as : string option;
}

type uniqueness =
  | Not_unique
  | Unique
  | Unique_on of string list

type t = {
  rname : string;
  rtable : string;
  events : event list;
  condition : bound_query list;
  evaluate : bound_query list;
  func : string;
  uniqueness : uniqueness;
  delay : float;
}

type trigger = {
  on_insert : bool;
  on_delete : bool;
  on_any_update : bool;
  update_cols : int array;  (* positions whose change triggers *)
}

let resolve_events ~schema events =
  let unknown = ref None in
  let cols =
    List.concat_map
      (function
        | On_update cols ->
          List.filter_map
            (fun col ->
              match Schema.find schema col with
              | Some i -> Some i
              | None ->
                if !unknown = None then unknown := Some col;
                None)
            cols
        | On_insert | On_delete -> [])
      events
  in
  match !unknown with
  | Some col -> Error col
  | None ->
    Ok
      {
        on_insert = List.mem On_insert events;
        on_delete = List.mem On_delete events;
        on_any_update = List.mem (On_update []) events;
        update_cols = Array.of_list cols;
      }

let fires tr (change : Tlog.change) =
  match change with
  | Tlog.Inserted _ -> tr.on_insert
  | Tlog.Deleted _ -> tr.on_delete
  | Tlog.Updated { old_rec; new_rec } ->
    tr.on_any_update
    || Array.exists
         (fun i ->
           not (Value.equal (Record.value old_rec i) (Record.value new_rec i)))
         tr.update_cols

let pp_event ppf = function
  | On_insert -> Format.pp_print_string ppf "inserted"
  | On_delete -> Format.pp_print_string ppf "deleted"
  | On_update [] -> Format.pp_print_string ppf "updated"
  | On_update cols ->
    Format.fprintf ppf "updated %s" (String.concat ", " cols)

let pp ppf r =
  Format.fprintf ppf "rule %s on %s when %a -> %s%s%s" r.rname r.rtable
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       pp_event)
    r.events r.func
    (match r.uniqueness with
    | Not_unique -> ""
    | Unique -> " unique"
    | Unique_on cols -> " unique on " ^ String.concat ", " cols)
    (if r.delay > 0.0 then Printf.sprintf " after %gs" r.delay else "")
