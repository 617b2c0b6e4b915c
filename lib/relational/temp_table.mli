(** Temporary tables: intermediate results, transition tables, bound tables
    (paper §6.1).

    A temporary tuple does not copy attribute values.  It stores one pointer
    per standard record that contributes at least one attribute, plus the
    materialized values of aggregate/computed/timestamp columns, which exist
    nowhere else.  A per-table static map records, for every column, whether
    to follow pointer slot [s] at offset [o] or to read materialized cell
    [m].

    Every stored pointer pins its record ({!Record.pin}), so records retired
    by later updates remain readable until the temporary table is itself
    retired — this is exactly the mechanism that lets a rule action see the
    database state of condition-evaluation time. *)

type provenance =
  | From_record of int * int
      (** [(slot, offset)]: follow source pointer [slot], read attribute
          [offset] of that record *)
  | Computed of int  (** read materialized cell [idx] *)

type t

type layout
(** A validated schema + static map, shared physically by every table
    built from it. *)

val layout : schema:Schema.t -> nslots:int -> prov:provenance array -> layout
(** [prov] must have one entry per schema column; materialized cells must be
    numbered densely from 0.  @raise Invalid_argument otherwise. *)

val of_layout : name:string -> layout -> t
(** An empty table; no arena is allocated until the first append. *)

val layout_of : t -> layout

val create : name:string -> schema:Schema.t -> nslots:int -> prov:provenance array -> t
(** [of_layout ~name (layout ~schema ~nslots ~prov)]. *)

val create_materialized : name:string -> schema:Schema.t -> t
(** Convenience: no pointer slots, every column materialized. *)

val name : t -> string
val schema : t -> Schema.t
val cardinal : t -> int
val slots : t -> int
val static_map : t -> provenance array

type row
(** One temporary tuple. *)

val reserve : t -> int -> unit
(** Pre-grow the backing arenas so the next [n] appends don't reallocate
    (an empty table gets exactly [n] rows of room).  Purely a capacity
    hint; contents and metering are unaffected. *)

val append : t -> srcs:Record.t array -> mats:Value.t array -> unit
(** Add a tuple; pins each source record and ticks ["bound_append"].
    @raise Invalid_argument on arity mismatch with the static map. *)

val append_mapped :
  t ->
  srcs:Record.t array ->
  slot_of:int array ->
  vals:Value.t array ->
  mat_of:int array ->
  stamps:Value.t array ->
  unit
(** Unmetered append of a tuple projected from a wider row: source slot
    [s] is [srcs.(slot_of.(s))] (pinned), materialized cell [m] is
    [vals.(mat_of.(m))], or [stamps.(-1 - mat_of.(m))] where [mat_of.(m)]
    is negative.  Binding writes rows this way; {!charge_bind} ticks
    them when the table is handed to a task. *)

val charge_bind : t -> unit
(** Tick ["bound_append"] once per tuple held. *)

val append_values : t -> Value.t array -> unit
(** Add a fully-materialized tuple (table must have zero slots). *)

val get : t -> row -> int -> Value.t
(** Column value, through the static map. *)

val row_values : t -> row -> Value.t array
(** All column values of a tuple, materialized into a fresh array. *)

val fill_values : t -> row -> Value.t array -> unit
(** [row_values] into a caller-owned array of the table's arity. *)

val fill_sources : t -> row -> Record.t array -> unit
(** Copy a tuple's source pointers into a caller-owned array of
    {!slots} cells (no pinning). *)

val iter : t -> (row -> unit) -> unit
(** Iterate tuples in insertion order. *)

val fold : t -> init:'a -> f:('a -> row -> 'a) -> 'a

val absorb : t -> t -> unit
(** [absorb dst src] moves every tuple of [src] to the end of [dst] — the
    unique-transaction merge of paper §2.  When the layouts (schema and
    static map) match, pins transfer with the tuples; when [dst] is fully
    materialized (no pointer slots, as in a TCB rebuilt by crash recovery)
    and only the column schemas match, the rows are copied by value and
    [src]'s pins are released.  Either way [src] is emptied (but not
    retired).
    @raise Invalid_argument on any other layout mismatch. *)

val split : t -> (row -> t) -> unit
(** [split t dest] moves each tuple of [t], in order, to the end of the
    table [dest row] names, which must be another unretired table of
    [t]'s layout; pins move with the tuples.  [t] is left empty (but not
    retired).  Unmetered.
    @raise Invalid_argument on any other destination. *)

val copy : t -> t
(** Same name, layout and tuples; pins each source record again.  Unmetered. *)

val retire : t -> unit
(** Drop the table's contents, unpinning every source record.  Idempotent.
    Called when the task owning a bound table finishes (§6.3). *)

val retired : t -> bool

val to_rows : t -> Value.t array list
(** Materialized snapshot, insertion order. *)
