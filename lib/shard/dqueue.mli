(** The distributed unique-transaction queue (owner side).

    The sharded analogue of STRIP's unique-transaction hash (paper §6.3):
    where a single primary merges same-key rule firings into one queued
    batch, the composite owner merges same-key {e partial deltas} arriving
    from many shards into one pending entry, and fires the maintenance
    action once per key rather than once per arrival.

    Idempotence: every arrival is first checked against the
    [(src, seq)] identities already merged — a resent or duplicated
    partial is a {!verdict.Duplicate} and changes nothing.  Each source
    numbers its partials to this owner contiguously from 0, so the set
    is kept per source as a high-water mark (every [seq] below it is
    merged) plus the few merged ones above it that overtook a dropped
    or delayed predecessor.  Its size tracks the partials in flight, not
    the length of the run.  Merging is
    commutative addition (DBSP linearity of the composite rules), so
    arrival order across shards cannot change the merged total, and the
    entry keeps its {e first} arrival's [created_at] so latency
    accounting measures the oldest unapplied contribution.

    The queue is volatile; the owner's WAL ([Shard_in] / [Shard_release] /
    [Shard_state] records) is the durable truth, and
    {!Strip_shard.Coordinator} rebuilds the queue from it at recovery via
    {!restore}. *)

type t

type verdict =
  | Duplicate  (** [(src, seq)] already merged — no effect *)
  | Merged  (** folded into an existing pending entry for the key *)
  | Fresh  (** first pending contribution for the key *)

val create : unit -> t

val offer :
  t ->
  src:int ->
  seq:int ->
  key:Strip_relational.Value.t list ->
  delta:float ->
  created_at:float ->
  verdict

val peek : t -> key:Strip_relational.Value.t list -> (float * float) option
(** Current [(merged delta, first created_at)] for [key] —
    non-destructive, so an aborted apply leaves the entry intact. *)

val remove : t -> key:Strip_relational.Value.t list -> unit
(** Retire [key]'s pending entry (the durable-release path); no-op if
    absent. *)

val pending_keys : t -> Strip_relational.Value.t list list
(** Keys with unapplied merged deltas, first-arrival order. *)

val n_pending : t -> int

val seen_state : t -> (int * int * int list) list
(** The dedup set as [(src, hwm, out_of_order)] per source, ascending by
    [src]: every [seq < hwm] and each [seq] in [out_of_order] (ascending,
    all above [hwm]) has been merged.  Exported into [Shard_state]
    snapshots. *)

val max_out_of_order : t -> int
(** The most merged identities any one source has had above its
    high-water mark at once, since creation. *)

val pending_list : t -> (Strip_relational.Value.t list * float * float) list
(** Pending [(key, delta, created_at)] entries, first-arrival order. *)

val restore :
  t ->
  seen:(int * int * int list) list ->
  pending:(Strip_relational.Value.t list * float * float) list ->
  unit
(** Replace the queue's state wholesale (crash recovery). *)

(** {1 Counters} *)

val n_offered : t -> int
val n_duplicates : t -> int
val n_merged : t -> int
val n_fresh : t -> int
val n_applied : t -> int
(** Entries retired through {!remove}. *)
