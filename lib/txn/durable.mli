(** Stable storage surviving a crash: the WAL plus retained checkpoint
    slots and a media-fault ledger.

    A [Durable.t] is the only state that outlives {!Fault.Crashed} — the
    engine, catalog, queues and every other in-memory structure are
    discarded and rebuilt from it by [Strip_core.Recovery].

    Checkpoint installation is atomic.  A slot's image is a list of
    {!segment}s — the checkpoint encoder makes one per table plus a
    header and a trailer — each carrying a CRC computed once, when the
    segment was encoded.  A segment carried over unchanged from the
    previous image is shared by reference, CRC included, so a checkpoint
    pays only for the segments that changed.  Verification
    ({!verified_slot}, {!scrub_slots}) checks every segment against its
    CRC, so it can tell a rotted image from a clean one.  Up to [retain]
    slots are kept, newest first; with [retain >= 2] recovery can fall
    back to the previous slot when the newest image fails verification,
    provided the log is truncated no further than {!truncation_floor}.

    The media-fault ledger records every injected at-rest fault (bit rot
    in WAL bytes or checkpoint images, lying fsyncs) and tracks it from
    [Outstanding] through detection to one of the terminal states.  The
    chaos invariant [no_silent_corruption] asserts that no fault is
    still [Outstanding] when the run ends. *)

type t

(** [create ?wal ?retain ()] — [?wal] supplies a pre-existing log (a
    replica's shipped copy, whose [base_lsn] is the bootstrap
    checkpoint's LSN); default is a fresh empty log.  [?retain] (default
    1) is how many checkpoint slots to keep. *)
val create : ?wal:Wal.t -> ?retain:int -> unit -> t

val wal : t -> Wal.t
val retain : t -> int

(** {1 Checkpoint slots} *)

type segment
(** A piece of a checkpoint image: its bytes and their CRC-32. *)

val segment : string -> segment
(** Wrap freshly encoded bytes, computing their CRC (the only time it is
    computed for these bytes). *)

val segment_bytes : segment -> string

val snapshot : t -> string option
(** Latest installed checkpoint image (encoded), if any — unverified;
    media-aware callers use {!verified_slot}.  The segments are
    concatenated on demand. *)

val snapshot_lsn : t -> int
(** WAL position the latest snapshot is consistent up to; redo starts
    here. *)

val snapshot_time : t -> float
val n_checkpoints : t -> int
val last_checkpoint_bytes : t -> int

val install_checkpoint :
  t -> segments:segment list -> lsn:int -> time:float -> unit
(** Atomically publish a new checkpoint image made of [segments] (in
    image order), rotating out the oldest slot beyond [retain].  A
    segment already part of an earlier installed slot counts as reused
    bytes, any other as encoded bytes. *)

val checkpoint_encoded_bytes : t -> int
(** Image bytes installed as new segments, summed over all checkpoints. *)

val checkpoint_reused_bytes : t -> int
(** Image bytes installed as segments shared with an earlier slot. *)

val verified_slot : t -> (string * int * float * int) option
(** [(image, lsn, time, skipped)] for the newest slot whose every segment
    still matches its CRC; [skipped] counts newer slots that failed
    verification and were passed over.  [None] if no slot verifies. *)

val truncation_floor : t -> int
(** LSN of the oldest retained slot — the log must not be truncated past
    it or slot fallback loses its redo tail.  0 when no slot exists. *)

val set_truncation_hold : t -> (unit -> int) option -> unit
(** Install (or, with [None], drop) a truncation hold: a probe for the
    lowest LSN a live replica still needs — the analogue of a
    replication slot.  A checkpoint keeps the log back to the hold, but
    never below the previous checkpoint's LSN, so a replica more than one
    checkpoint interval behind is re-seeded instead of pinning the log.
    The scrubber's emergency truncate ignores it. *)

val truncation_hold : t -> int option
(** The hold's current value; [None] when no hold is set. *)

val slots_valid : t -> bool
(** Every segment of every retained slot passes its CRC. *)

val scrub_slots : t -> int
(** Drop every slot with a segment that fails its CRC (marking matching ledger
    faults [Detected]); returns how many were dropped.  The caller is
    expected to take a fresh checkpoint when the count is nonzero. *)

(** {1 Media-fault ledger} *)

type fault_kind = Bitrot_wal | Bitrot_checkpoint | Fsync_lie

type fault_state =
  | Outstanding
  | Detected
  | Repaired
  | Quarantined
  | Expunged

val arm_media : t -> unit
(** Mark this store as running under storage-fault injection; gates the
    (scan-cost-bearing) ship-time verification and media metrics so
    fault-free runs stay byte-identical. *)

val media_armed : t -> bool
val note_injected : t -> kind:fault_kind -> lsn:int -> len:int -> unit

val flip_snapshot_byte : t -> frac:float -> bool
(** Bit-rot the newest checkpoint image at relative offset [frac]
    (0..1), recording the injection; the stored CRC is left alone so
    verification fails.  The slot gets a rotted copy of the segment
    holding that byte, so a string shared with older slots or with the
    encoder's cache stays clean.  Returns false if there is no image to
    rot. *)

val note_wal_detected : t -> lsn:int -> len:int -> unit
val note_wal_repaired : t -> lsn:int -> len:int -> unit
val note_wal_quarantined : t -> from_lsn:int -> unit

val note_truncated : t -> below:int -> unit
(** WAL bytes strictly below [below] left the log behind a checkpoint
    without ever being read; faults wholly inside them become
    [Expunged]. *)

val note_cp_detected : t -> unit
val note_cp_repaired : t -> unit

val note_abandoned : t -> unit
(** The whole store left service (failover elected another node); every
    fault still pending becomes [Expunged]. *)

type media_counts = {
  injected_bitrot_wal : int;
  injected_bitrot_cp : int;
  injected_fsync_lie : int;
  detected : int;
  repaired : int;
  quarantined : int;
  expunged : int;
  outstanding : int;
}

val zero_counts : media_counts

val add_counts : t -> media_counts -> media_counts
(** Fold this store's ledger into [counts] — metrics union the current
    primary's store with every store abandoned at a failover. *)

val media_counts : t -> media_counts
val outstanding : t -> int
