(** Standard tables (paper §6.1).

    A standard table is a linked list of fixed-layout records plus any number
    of secondary indexes (hash or red-black).  Updates are versioned: the new
    record takes the old one's place in the same list node, the old record
    is retired and survives only while pinned by temporary tables.

    Cursors are the primitive access path measured in the paper's Table 1:
    open / fetch / update / delete / close, each ticking its meter counter.
    A full-scan cursor walks the list; an index cursor walks the matching
    records of one key.  Cursors capture their successor before yielding a
    record, so updating or deleting through the cursor is safe.  A row
    keeps its list node across versions, so a full-scan cursor whose next
    row is updated by another call fetches the new version and goes on to
    the end of the table.

    This module is transaction-agnostic; locking and logging are layered on
    top by {!Strip_txn.Transaction}. *)

type t

type cursor

val create : name:string -> schema:Schema.t -> t

val name : t -> string
val schema : t -> Schema.t
val cardinal : t -> int
(** Number of live records. *)

val generation : t -> int
(** Mutation counter, bumped by every insert, update, delete,
    {!create_index} and {!drop_index}.  Two observations of one table with the same
    generation see the same rows, in the same order, and the same
    indexes — which lets checkpointing reuse an unchanged table's
    encoding. *)

val create_index : t -> name:string -> kind:Index.kind -> cols:string list -> Index.t
(** Build (and register) an index over existing rows.
    @raise Not_found if a column name is unknown.
    @raise Invalid_argument if the index name is taken. *)

val drop_index : t -> string -> unit
(** Unregister an index (SQL [DROP INDEX]); it is no longer maintained,
    so a caller still holding its {!Index.t} must stop using it, as one
    holding a dropped table must.
    @raise Not_found if no index has this name. *)

val find_index : t -> string -> Index.t option

val index_on : t -> string list -> Index.t option
(** Any index whose key columns are exactly these (by name, in order). *)

val indexes : t -> Index.t list

val index_gen : t -> int
(** Generation counter, bumped whenever the set of indexes changes.  Lets
    cached query plans validate their access-path choice in O(1). *)

val insert : t -> Value.t array -> Record.t
(** Append a record.  @raise Invalid_argument on schema mismatch. *)

val update : t -> Record.t -> Value.t array -> Record.t
(** [update t old values] puts a fresh record in [old]'s place and retires
    [old] (§6.1 versioning).  Returns the new record.
    @raise Invalid_argument if [old] is not live in [t], which includes a
    version that a later update has superseded. *)

val delete : t -> Record.t -> unit
(** Unlink and retire a record.  @raise Invalid_argument if not live. *)

val iter : t -> (Record.t -> unit) -> unit
(** Unmetered whole-table iteration (used for bulk loading and tests). *)

val open_cursor : t -> cursor
(** Full-scan cursor. *)

val open_index_cursor : t -> Index.t -> Value.t list -> cursor
(** Cursor over the records matching one index key. *)

val open_range_cursor :
  t -> Index.t -> ?lo:Value.t list -> ?hi:Value.t list -> unit -> cursor
(** Cursor over the records whose ordered-index key lies in the inclusive
    range, in ascending key order.
    @raise Invalid_argument on a hash index. *)

val fetch : cursor -> Record.t option
(** Next record, or [None] at end. *)

val cursor_update : cursor -> Value.t array -> Record.t
(** Replace the record most recently fetched.  @raise Invalid_argument if no
    record has been fetched or it is no longer live. *)

val cursor_delete : cursor -> unit

val close_cursor : cursor -> unit

val clear : t -> unit
(** Remove all records (retiring each). *)

val to_rows : t -> Value.t array list
(** Snapshot of all live rows, in list order (copies). *)
