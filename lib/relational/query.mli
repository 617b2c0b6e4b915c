(** Logical query plans and their executor.

    The planner side of the SQL subset STRIP v2.0 supports: scans,
    selections, theta-joins, projections, grouped aggregation, ordering and
    limits.  Equi-joins pick an access path when prepared, in priority
    order: merge join (both inputs are standard-table scans whose equi
    columns are covered by [Ordered] indexes — the two trees stream in key
    order), index join (the right input is a standard-table scan with any
    exactly-covering index — probe per left row), hash join otherwise;
    non-equi predicates fall back to a nested loop.

    {!prepare} resolves a plan once — tables, join strategies, column
    positions, scratch rows — and a prepared plan executes any number of
    times with no name resolution.  It stays {!valid} while the catalog's
    table set and the scanned tables' index sets are unchanged; the rule
    system prepares each bound query at [create rule] and again only when
    that check fails.  [run] prepares and executes through the same
    executor.  Preparing never ticks a meter.

    Execution tracks provenance: a result column that is a verbatim copy of
    a standard-table attribute remembers which pointer slot and offset it
    came from, so {!bind} can build bound tables with the paper's §6.1
    pointer representation instead of copying values.  Aggregates, computed
    expressions and values that flow through grouping are materialized, as
    in the paper.

    Work is metered: ["seq_row"] per scanned row, ["index_probe"] per index
    probe, ["merge_step"] per merge-join pointer advance, ["hash_probe"]
    per hash-join probe, ["join_row"] per joined row, ["row_construct"] per
    output row, ["agg_row"] per aggregated input row, ["group_init"] per
    group, ["sort_row"] per sorted row. *)

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
  alias : string option;  (** output column name; derived if absent *)
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
      (** duplicate elimination over whole rows (first occurrence kept,
          with its provenance); ticks ["hash_probe"] per input row *)

val item : ?alias:string -> Expr.t -> select_item

type result
(** Materialized query result with provenance. *)

exception Plan_error of string
(** Planning/typing failures: unknown relation, unresolvable column, ... *)

val run : Catalog.t -> env:Catalog.env -> plan -> result
(** Prepare and execute once. *)

type prepared
(** A plan resolved against a catalog and the layouts of the temporary
    tables in an environment. *)

val prepare :
  ?bind:string list -> Catalog.t -> env:Catalog.env -> plan -> prepared
(** [env]'s tables fix the layout (and the position) of every temporary
    table the plan scans; execution takes the temporary tables as an array
    in the same order.  [bind] prepares the plan for {!bind_prepared} too,
    fixing the bound-table layout now; it names the output columns that
    are stamped with a caller-supplied value instead of the computed one
    (the rule system's [commit_time]), and names the output lacks are
    ignored.
    @raise Plan_error as {!run} would. *)

val valid : prepared -> bool
(** The preparation's dependency check: the catalog has added or dropped
    no table, and no scanned table has gained or lost an index, since
    {!prepare}.  A stale plan must be prepared again. *)

val prepared_schema : prepared -> Schema.t

val count : prepared -> env:Temp_table.t array -> int
(** Execute and count the output rows. *)

val bind_prepared :
  prepared -> env:Temp_table.t array -> name:string -> stamps:Value.t array ->
  Temp_table.t
(** Execute straight into a new bound table with {!bind}'s layout;
    [stamps.(j)] is the value of the [j]th column named in [prepare]'s
    [bind].  Unmetered, like {!bind}.
    @raise Plan_error if a temporary table's layout is not the one the
    plan was prepared against.
    @raise Invalid_argument if the plan was prepared without [bind]. *)

val partition_bound : Temp_table.t -> cols:int list -> (Value.t list * Temp_table.t) list
(** Move a bound table's rows into one table per distinct value of the
    columns at positions [cols] (same name and layout; pins move with the
    rows), keys in first-seen order, rows in their original order; one
    ["partition_row"] tick per row.  The argument is left empty.  This is
    the Appendix-A partitioning step behind [unique on]. *)

val physical_index_join : bool ref
(** Testing knob, default [true].  When [false], the index join's physical
    probe is replaced by a hash-build fallback that replays the modeled
    path exactly — same ["index_probe"]/["join_row"] ticks, same output
    order (index postings are newest-first).  Strategy selection is
    unaffected, so all simulated results must be byte-identical; the
    differential tests assert this. *)

val schema_of : Catalog.t -> env:Catalog.env -> plan -> Schema.t
(** Output schema without executing. *)

val result_schema : result -> Schema.t
val row_count : result -> int
val rows : result -> Value.t array list
(** Fully-materialized rows, in result order. *)

val bind : ?overrides:(string * Value.t) list -> name:string -> result -> Temp_table.t
(** Materialize a result as a named bound table using pointer provenance
    where possible (§6.1).  [overrides] force named columns to a constant —
    the rule system uses this to stamp [commit_time] at bind time.
    Unmetered: ["bound_append"] is charged when the table is handed to a
    task ({!Temp_table.charge_bind}). *)

val explain : ?cat:Catalog.t -> ?env:Catalog.env -> plan -> string
(** Multi-line plan rendering.  With [?cat] (and optionally [?env]), each
    join line is annotated with the access path the executor would choose
    right now: [[merge join via i1, i2]], [[index join via i]],
    [[hash join]] or [[nested loop]]. *)
