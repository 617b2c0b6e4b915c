(** Action-consistent database snapshots (fuzzy checkpointing).

    A checkpoint captures, at a point between transactions, everything a
    restart needs that the WAL alone cannot cheaply provide: all standard
    tables (base {e and} maintained views) with their index definitions,
    the SQL text of each view, and the queued unique transactions with
    their bound rows.  The feed is never stopped — the snapshot runs as an
    ordinary background task between transactions, so it is consistent at
    its instant while the log keeps flowing around it ("fuzzy" at the
    level of the feed, action-consistent at the level of transactions).

    The image records the WAL LSN it is consistent up to; redo starts
    there, and the log behind it can be truncated once the image is
    durably installed. *)

open Strip_relational
open Strip_txn

type table_snap = {
  tname : string;
  cols : (string * Value.ty) list;
  indexes : (string * Index.kind * string list) list;
  rows : Value.t array list;
}

type queue_entry = {
  qfunc : string;
  qkey : Value.t list;
  qrelease_time : float;
  qcreated_at : float;
  qbound : Wal.bound_rows;
}

type t = {
  taken_at : float;
  wal_lsn : int;
  tables : table_snap list;  (** catalog creation order *)
  views : (string * string) list;  (** (name, sql), declaration order *)
  queue : queue_entry list;  (** task-id order *)
}

val capture :
  cat:Catalog.t ->
  views:(string * string) list ->
  reg:Unique.t ->
  now:float ->
  wal_lsn:int ->
  t

val total_rows : t -> int
(** Table rows plus queued bound rows — the unit the ["checkpoint_row"]
    cost is charged per. *)

val restore_tables : t -> Catalog.t -> unit
(** Recreate every table (rows, then indexes) in a fresh catalog with raw
    unlogged inserts.  View {e tables} are restored like any other — their
    definitions must be re-registered separately, without re-execution. *)

val encode : t -> string

val decode : string -> t
(** @raise Strip_txn.Codec.Decode_error on a malformed image. *)

(** {1 Incremental images}

    Between two checkpoints usually only a few tables change (the base
    table the feed updates and the views maintained from it).  An image
    is built as a list of {!Strip_txn.Durable.segment}s: a header (time,
    LSN, table count), one segment per table in catalog order, and a
    trailer (views and queued transactions).  A [cache] remembers each
    table's segment together with the table's
    {!Strip_relational.Table.generation}, so the next image re-encodes
    (and CRCs) only tables that moved and reuses the rest by reference. *)

type cache

val create_cache : unit -> cache

val cached_tables : cache -> int
(** Tables whose segment the cache can reuse (0 for a fresh cache). *)

val encode_catalog :
  cache ->
  cat:Catalog.t ->
  views:(string * string) list ->
  reg:Unique.t ->
  now:float ->
  wal_lsn:int ->
  Durable.segment list * int
(** [(segments, rows)] where the concatenation of [segments] is
    byte-identical to [encode (capture ~cat ~views ~reg ~now ~wal_lsn)]
    and [rows] equals that snapshot's {!total_rows}.  The segment of a
    table whose identity and generation are unchanged since the previous
    call is physically the previous call's.  Updates the cache. *)
