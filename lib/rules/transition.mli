(** Transition tables (paper §2, §6.3).

    At commit time the rule system makes one pass over the transaction log
    and materializes, per touched table, the four transition tables —
    [inserted], [deleted], and [new]/[old] for updates.  Each has the base
    table's columns plus the system [execute_order] column that sequences
    changes within the transaction (the old and new images of one update
    share a number).  No net-effect reduction is performed: a tuple
    inserted and deleted in the same transaction appears in both tables.

    The tables use the §6.1 pointer representation: one pointer slot to the
    (possibly retired) record, with only [execute_order] materialized.
    Appending pins the records, so pre-images survive until the consuming
    rule evaluation finishes. *)

type t = {
  inserted : Strip_relational.Temp_table.t;
  deleted : Strip_relational.Temp_table.t;
  new_ : Strip_relational.Temp_table.t;
  old : Strip_relational.Temp_table.t;
  tables : Strip_relational.Temp_table.t array;
      (** the four, in {!env} order: the execution-time environment of a
          query prepared against {!env} *)
}

val build : schema:Strip_relational.Schema.t -> Strip_txn.Tlog.entry list -> t
(** Build the four tables from one table's log entries (the caller
    filters the log by table name; [entries] must be in execution order).
    The tables share the layout cached for [schema], and a table that gets
    no row allocates no storage. *)

val env : t -> Strip_relational.Catalog.env
(** The four tables under their standard names [inserted], [deleted],
    [new], [old]. *)

val retire : t -> unit
(** Release all four tables (unpinning pre-images). *)
