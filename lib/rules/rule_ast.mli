(** Rule definitions — the abstract syntax of paper Figure 2.

    {[
      create rule rule-name on t-name
         when transition-predicate
             [ if condition ]
         then
             [ evaluate query-commalist ]
             execute function-name
             [ unique [on column-commalist] ]
             [ after time-value ]
    ]} *)

type event =
  | On_insert
  | On_delete
  | On_update of string list
      (** columns whose change triggers the rule; empty = any column *)

type bound_query = {
  query : Strip_relational.Sql_parser.select_ast;
  bind_as : string option;  (** [bind as bound-table-name] *)
}

type uniqueness =
  | Not_unique  (** a fresh action transaction per firing *)
  | Unique  (** coarse: at most one queued transaction per user function *)
  | Unique_on of string list
      (** at most one queued transaction per (function, unique-column
          values) combination *)

type t = {
  rname : string;
  rtable : string;  (** the table the rule is defined on *)
  events : event list;
  condition : bound_query list;
      (** the [if] clause: true iff every query returns at least one row *)
  evaluate : bound_query list;
      (** extra queries bound for the action without affecting the
          condition *)
  func : string;  (** user function run by the action transaction *)
  uniqueness : uniqueness;
  delay : float;  (** release delay in seconds; 0 = release at commit *)
}

type trigger
(** A rule's events resolved against its table's schema. *)

val resolve_events :
  schema:Strip_relational.Schema.t -> event list -> (trigger, string) result
(** Resolve the columns of every [On_update] to positions; [Error col]
    names the first column the schema lacks. *)

val fires : trigger -> Strip_txn.Tlog.change -> bool
(** Does a log entry trigger any of the events?  [On_update cols] matches
    an update that changed at least one of [cols] (any column when the
    list is empty). *)

val pp : Format.formatter -> t -> unit
