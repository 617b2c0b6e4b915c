(** The sharded write path: N shard primaries, each a full
    {!Strip_core.Strip_db} (own engine, WAL, checkpoints), stitched
    together by an asynchronous partial-delta protocol for composite
    rows whose members live on other shards.

    {2 Protocol}

    A routed rule action on the emitting shard computes its {e local}
    weighted contribution to a remote composite and calls
    {!Strip_core.Rule_manager.emit_partial}; the partial is stamped at
    commit with the next sequence number of its (src→dst) stream,
    logged as a [Wal.Shard_out] in the same append batch as the commit,
    and handed to this coordinator's outbox after the fsync.  The
    coordinator ships it over the shard-to-shard {!Strip_repl.Link} on
    the next tick and keeps it in an unacked window keyed by
    [(dst, seq)], resending every [resend_after] seconds until the
    owner's ack — matched on the link it arrives from — retires it.

    The owner dedups each arrival by [(src, seq)] ({!Dqueue}), logs a
    [Wal.Shard_in] for every novel one, merges same-key deltas, and —
    on the first pending contribution for a key — submits a
    recompute-class maintenance task that {e peeks} the merged delta,
    applies it to the composite table, and notes the release; the
    [Wal.Shard_release] rides the applying commit's fsync, after which
    the queue entry is retired.  Acks are always sent, duplicates
    included, because the first ack may itself have been dropped.

    At-least-once shipping + idempotent merge + atomic apply/release =
    exactly-once composite effect across crashes.

    {2 Determinism}

    Each tick processes shards in index order, then drains every link's
    arrived messages and handles them sorted by
    [(arrives_at, source shard, link sequence)] — a total order
    independent of hashtable iteration or arrival interleaving, so a
    fixed-seed run is byte-identical across re-runs.

    {2 Crash handling}

    A shard primary that crashes is restarted {e in place} from its own
    WAL + checkpoint ({!Strip_core.Recovery.restart}), not failed over:
    an unshipped [Shard_out] tail is durable only in the primary's log,
    so promoting a replica that never saw those bytes could silently
    lose committed partials.  Recovery scans the log {e before}
    {!Strip_core.Recovery.recover} truncates it ({!scan_state} rebuilds
    the dedup set, pending merges, unacked ships and the per-stream
    sequence counters from [Shard_state] + subsequent records), re-ships
    everything unacknowledged, resubmits an apply task per pending key,
    and appends a fresh [Shard_state] past the recovery checkpoint's
    truncation point. *)

type config = {
  link : Strip_repl.Link.config;  (** shard-to-shard link model *)
  ship_every : float;  (** coordinator tick, seconds of virtual time *)
  resend_after : float;  (** unacked partials are re-shipped after this *)
  checkpoint_every : float option;
      (** coordinator-driven fuzzy checkpoints; driven here rather than
          by {!Strip_core.Strip_db.schedule_checkpoints} so every log
          truncation is immediately followed by a fresh [Shard_state] *)
  cost : Strip_sim.Cost_model.t;  (** charges recovery work *)
}

type callbacks = {
  remake : sid:int -> now:float -> Strip_core.Strip_db.t;
      (** fresh database bound to shard [sid]'s durable store *)
  reinstall : sid:int -> Strip_core.Strip_db.t -> unit;
      (** re-register user functions / rules / view defs during recovery *)
  apply :
    sid:int ->
    Strip_core.Strip_db.t ->
    Strip_txn.Transaction.t ->
    key:Strip_relational.Value.t list ->
    delta:float ->
    unit;
      (** fold a merged partial delta into shard [sid]'s composite row *)
  resume :
    sid:int ->
    Strip_core.Strip_db.t ->
    after:float ->
    Strip_core.Recovery.stats ->
    unit;
      (** after a restart: resubmit the shard's feed updates past the
          crash cut and account the recovery's work *)
}

type t

val create : cfg:config -> cb:callbacks -> Strip_core.Strip_db.t array -> t
(** Installs the partial and release sinks on every shard's rule
    manager.  @raise Invalid_argument on an empty array. *)

val checkpoint_all : t -> unit
(** Checkpoint every durable shard and append a fresh [Shard_state]
    snapshot after each truncation (also the initial baseline). *)

val step : t -> now:float -> unit
(** One coordinator tick: advance every shard's engine to [now]
    (recovering any that crash), take due checkpoints, flush outboxes
    and acks, resend stale unacked partials, then deliver and process
    everything arrived, in the deterministic order above. *)

val run : t -> until:float -> unit
(** Tick every [ship_every] up to [until], then keep ticking until the
    system is quiescent: all engines drained, no partial unshipped,
    unacked or unapplied, no message in flight. *)

(** {1 Protocol state} *)

type proto_state = {
  next_seq : (int * int) list;
      (** [(dst, next)] per outgoing stream, ascending by [dst] *)
  queue : Dqueue.t;
      (** a fresh queue holding the dedup set and pending merges *)
  unacked : (int * int * Strip_relational.Value.t list * float * float) list;
      (** logged, unacknowledged ships [(seq, dst, key, delta, created_at)],
          ascending by [(dst, seq)] *)
}

val scan_state : Strip_txn.Durable.t -> proto_state
(** Rebuild a shard's protocol state from its own log in one pass: the
    last [Shard_state] record is the baseline and every later
    [Shard_out], [Shard_in] and [Shard_release] is replayed on top of
    it.  Crash recovery runs this before {!Strip_core.Recovery.recover}
    truncates the log. *)

(** {1 Inspection} *)

val n_shards : t -> int
val db : t -> int -> Strip_core.Strip_db.t
val prior_dbs : t -> int -> Strip_core.Strip_db.t list
(** Crashed incarnations of shard [i], newest first (for stats folds). *)

val queue : t -> int -> Dqueue.t
val crashes : t -> int -> int
val recovery_s : t -> int -> float
val msgs_sent : t -> int
val bytes_shipped : t -> int
val partials_shipped : t -> int
val acks_sent : t -> int
val reships : t -> int
