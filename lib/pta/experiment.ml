open Strip_relational
open Strip_core
open Strip_market

type rule_choice =
  | Comp_view of Comp_rules.variant
  | Option_view of Option_rules.variant

type recovery_cfg = {
  checkpoint_every : float option;
      (* None = only the initial post-population checkpoint *)
  crash_at : float option;
  max_crashes : int;
}

let default_recovery =
  { checkpoint_every = Some 5.0; crash_at = None; max_crashes = 8 }

type repl_cfg = {
  replicas : int;
  read_policy : Strip_repl.Cluster.read_policy;
  read_rate : float;
  read_cost_s : float;
  link : Strip_repl.Link.config;
  ship_every : float;
  partition_detect_s : float;
}

let default_repl =
  {
    replicas = 1;
    read_policy = Strip_repl.Cluster.Any;
    read_rate = 0.0;
    read_cost_s = 0.0;
    link = Strip_repl.Link.default_config;
    ship_every = 0.05;
    partition_detect_s = 0.1;
  }

type storage_cfg = {
  scrub_every : float option;
      (* None = no background scrubber: at-rest faults are only found if
         something reads them (the planted-bug configuration) *)
  retain : int;  (* checkpoint slots kept for CRC-failure fallback *)
}

let default_storage = { scrub_every = Some 0.5; retain = 2 }

type shard_cfg = {
  shards : int;
  shard_link : Strip_repl.Link.config;
  shard_ship_every : float;
  shard_resend_after : float;
  shard_crash_at : (int * float) option;  (* (shard id, simulated time) *)
  shard_checkpoint_every : float option;
}

let default_shard ~shards =
  {
    shards;
    shard_link = Strip_repl.Link.default_config;
    shard_ship_every = 0.05;
    shard_resend_after = 0.25;
    shard_crash_at = None;
    shard_checkpoint_every = Some 5.0;
  }

(* One deterministic fault in a chaos schedule, in absolute simulated
   time.  Crash and partition events are armed as scheduled engine tasks
   (re-armed on whatever instance is live after each escape); drop
   bursts are installed on the shipping links at cluster creation;
   checkpoint events force an extra checkpoint to race the surrounding
   faults. *)
type chaos_event =
  | Crash_at of float
  | Partition_at of { at : float; heal_after_s : float }
  | Drop_burst of { at : float; until_s : float; rate : float }
  | Checkpoint_at of float
  | Bitrot_at of { at : float; target : [ `Wal | `Checkpoint ]; frac : float }
  | Fsync_lie_at of float
  | Disk_full_at of { at : float; free_bytes : int; heal_after_s : float }

let chaos_event_time = function
  | Crash_at at | Checkpoint_at at | Fsync_lie_at at -> at
  | Partition_at { at; _ }
  | Drop_burst { at; _ }
  | Bitrot_at { at; _ }
  | Disk_full_at { at; _ } ->
    at

let is_storage_event = function
  | Bitrot_at _ | Fsync_lie_at _ | Disk_full_at _ -> true
  | Crash_at _ | Partition_at _ | Drop_burst _ | Checkpoint_at _ -> false

type config = {
  rule : rule_choice;
  delay : float;
  feed : Feed.config;
  sizes : Pta_tables.sizes;
  cost : Strip_sim.Cost_model.t;
  verify : bool;
  servers : int;
  lock_timeout_s : float;
  fault : Strip_txn.Fault.config option;
  retry : Strip_sim.Engine.retry option;
  overload : Strip_sim.Engine.overload option;
  trace : Strip_obs.Trace.t option;
  slo : Strip_obs.Slo.t option;
  provenance : Strip_obs.Provenance.t option;
  recovery : recovery_cfg option;
  repl : repl_cfg option;
  storage : storage_cfg option;
  chaos : chaos_event list;
  shard : shard_cfg option;
}

let default_config rule ~delay =
  {
    rule;
    delay;
    feed = Feed.default_config;
    sizes = Pta_tables.default_sizes;
    cost = Strip_sim.Cost_model.default;
    verify = true;
    servers = 1;
    lock_timeout_s = 5.0;
    fault = None;
    retry = None;
    overload = None;
    trace = None;
    slo = None;
    provenance = None;
    recovery = None;
    repl = None;
    storage = None;
    chaos = [];
    shard = None;
  }

let with_faults ?seed ?(retry = Strip_sim.Engine.default_retry) ~abort_rate cfg =
  { cfg with fault = Some (Strip_txn.Fault.abort_only ?seed abort_rate); retry = Some retry }

let quick cfg f =
  {
    cfg with
    feed = Feed.scaled cfg.feed f;
    sizes = Pta_tables.scaled_sizes cfg.sizes f;
  }

(* Config promotion and validation, in one place for both drivers.
   Replication and chaos ride on the durability substrate (replicas
   bootstrap from checkpoints; a chaos schedule needs the crash-restart
   loop), storage events on the storage substrate, and a sharded run is
   always durable: the partial-delta protocol's exactly-once guarantee
   rests on Shard_* WAL records.  The sharded driver rejects what it
   cannot honour instead of silently dropping it. *)
let validate ~sharded cfg =
  let reject field =
    invalid_arg
      (Printf.sprintf "Experiment.validate: %s is not supported with shards > 1"
         field)
  in
  let replicas, read_rate =
    match cfg.repl with Some r -> (r.replicas, r.read_rate) | None -> (0, 0.0)
  in
  if sharded then begin
    if replicas > 0 then reject "repl.replicas";
    if read_rate > 0.0 then reject "repl.read_rate";
    if cfg.chaos <> [] then reject "chaos";
    if Option.bind cfg.recovery (fun r -> r.crash_at) <> None then
      reject "recovery.crash_at"
  end;
  let cfg =
    if cfg.recovery = None && (sharded || replicas > 0 || cfg.chaos <> []) then
      { cfg with recovery = Some default_recovery }
    else cfg
  in
  if cfg.storage = None && List.exists is_storage_event cfg.chaos then
    { cfg with storage = Some default_storage }
  else cfg

type recovery_metrics = {
  n_crashes : int;
  n_checkpoints : int;
  checkpoint_bytes : int;
  wal_appends : int;
  wal_fsyncs : int;
  wal_appended_bytes : int;
  wal_overhead_s : float;
  checkpoint_overhead_s : float;
  redo_commits : int;
  redo_ops : int;
  requeued : int;
  restored_rows : int;
  total_recovery_s : float;
  audit_clean : bool;
  audit_divergences : int;
  repairs : int;
}

type replica_metrics = {
  r_id : int;
  r_applied_lsn : int;
  r_segments : int;
  r_duplicates : int;
  r_reordered : int;
  r_bootstraps : int;
  r_reads : int;
  r_lag : Strip_obs.Histogram.summary option;
}

type repl_metrics = {
  n_replicas : int;
  read_policy : string;
  read_rate : float;
  n_reads : int;
  reads_primary : int;
  reads_replica : int;
  read_latency : Strip_obs.Histogram.summary option;
  read_throughput_per_s : float;
  n_failovers : int;
  promotion_lost_bytes : int;
  epoch : int;
  epochs : (int * int) list;
  promotions : (int * int * int) list;
  final_lsn : int;
  fenced_bytes : int;
  n_partitions : int;
  partition_drops : int;
  fenced_messages : int;
  segments_sent : int;
  segments_dropped : int;
  bytes_shipped : int;
  cluster_lag : Strip_obs.Histogram.summary option;
      (* replication lag merged across every replica's histogram — a
         cluster-level percentile row instead of primary-only *)
  cluster_lock_wait : Strip_obs.Histogram.summary option;
      (* lock waits merged across all primary incarnations (epochs) *)
  per_replica : replica_metrics list;
}

(* End-of-run storage-fault accounting: the media-fault ledger unioned
   over every durable store the run touched (the live one plus any
   abandoned at failover), scrubber work, salvage outcomes, and the
   final cleanliness verdict the chaos invariants check. *)
type storage_metrics = {
  injected_bitrot_wal : int;
  injected_bitrot_cp : int;
  injected_fsync_lie : int;
  faults_detected : int;
  faults_repaired : int;
  faults_quarantined : int;
  faults_expunged : int;
  faults_outstanding : int;
  scrub_passes : int;
  scrub_bytes : int;
  wal_corruptions : int;
  cp_corruptions : int;
  repaired_replica : int;
  repaired_checkpoint : int;
  scrub_salvaged_bytes : int;
  scrub_expunged_bytes : int;
  cp_fallbacks : int;
  salvaged_ranges : int;
  salvaged_bytes : int;
  quarantined_bytes : int;
  orphan_merges : int;
  disk_fulls : int;
  lied_bytes : int;
  ship_verify_skips : int;
  salvage_s : float;  (* modeled seconds spent on detection + repair *)
  final_clean : bool;
      (* end of run: WAL frame chain verifies and every retained
         checkpoint slot passes its CRC *)
}

(* One shard primary's slice of a sharded run. *)
type shard_row = {
  sh_id : int;
  sh_updates : int;
  sh_recomputes : int;
  sh_firings : int;
  sh_partials_out : int;  (* weighted partials this shard emitted *)
  sh_offered : int;  (* arrivals offered to this shard's queue *)
  sh_duplicates : int;  (* resends the (src, seq) dedup collapsed *)
  sh_merged : int;  (* arrivals folded into a pending entry *)
  sh_applied : int;  (* merged entries applied and released *)
  sh_crashes : int;
  sh_final_lsn : int;
}

type shard_metrics = {
  n_shards : int;
  sh_rows : shard_row list;
  sh_msgs : int;  (* shard-to-shard messages sent (partials + acks) *)
  sh_bytes : int;
  sh_partials : int;  (* first ships *)
  sh_acks : int;
  sh_reships : int;  (* resends past the ack deadline *)
  sh_recovery_s : float;  (* downtime summed over shard restarts *)
  cross_checks : int;  (* composites compared by the cross-shard audit *)
  cross_divergences : int;  (* comparisons beyond tolerance *)
}

type metrics = {
  label : string;
  delay : float;
  duration_s : float;
  servers : int;
  makespan_s : float;
  recompute_throughput_per_s : float;
  per_server_utilization : float list;
  n_lock_waits : int;
  n_lock_timeouts : int;
  lock_wait_s : Strip_obs.Histogram.summary option;
  utilization : float;
  n_updates : int;
  n_recompute : int;
  mean_recompute_us : float;
  p50_recompute_us : float;
  p90_recompute_us : float;
  p99_recompute_us : float;
  max_recompute_us : float;
  busy_update_s : float;
  busy_recompute_s : float;
  n_firings : int;
  n_merges : int;
  context_switches : int;
  expected_fanout : float;
  verified : bool option;
  max_abs_error : float;
  n_injected : int;
  n_aborts : int;
  n_retries : int;
  n_sheds : int;
  n_dead_letters : int;
  mean_recovery_s : float;
  staleness : (string * Strip_obs.Histogram.summary) list;
  registry : Strip_obs.Metrics.row list;
  recovery : recovery_metrics option;
  repl : repl_metrics option;
  storage : storage_metrics option;
  shard : shard_metrics option;
      (* present iff the run went through the sharded write path *)
  slo : Strip_obs.Slo.view_report list;
      (* one report per objective; empty when no SLO monitor is attached *)
  trace_spans : (string * int * int) list;
      (* (node, events buffered, events dropped) per traced node; empty
         when tracing is off *)
  cluster_traces : (string * Strip_obs.Trace.t) list;
      (* per-node span buffers for a merged cluster trace export, primary
         first; empty unless tracing a replicated run *)
}

let label_of = function
  | Comp_view v -> "comp_prices/" ^ Comp_rules.variant_name v
  | Option_view v -> "option_prices/" ^ Option_rules.variant_name v

let verify_tolerance = function
  | Comp_view _ -> 1e-6
  | Option_view _ -> 1e-9

(* One summary row over several histograms (nodes or incarnations);
   [None] when they are all empty. *)
let merged_summary hs =
  let m = Strip_obs.Histogram.merge hs in
  if Strip_obs.Histogram.count m = 0 then None
  else Some (Strip_obs.Histogram.summary m)

(* Compare two sorted (name, value) association lists. *)
let max_error expected actual =
  let tbl = Hashtbl.create (List.length expected * 2) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) expected;
  List.fold_left
    (fun worst (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some e -> Float.max worst (Float.abs (v -. e))
      | None -> infinity)
    (if List.length expected = List.length actual then 0.0 else infinity)
    actual

let install_rules cfg db h =
  match cfg.rule with
  | Comp_view v -> Comp_rules.install db h v ~delay:cfg.delay
  | Option_view v -> Option_rules.install db h v ~delay:cfg.delay

let mk_db ?now ?durable ?fault (cfg : config) =
  (* Storage-fault runs arm every durable store a primary incarnation
     uses — including a promoted replica's copy — before the instance
     registers its metrics, so the media probes exist on every registry
     and ship-time verification covers every term. *)
  (match (cfg.storage, durable) with
  | Some _, Some d -> Strip_txn.Durable.arm_media d
  | _ -> ());
  (* The trace buffer, SLO monitor and provenance store are caller-owned
     and shared across every instance a crashy run burns through, so one
     causal story spans restarts and failovers. *)
  Strip_db.create ~cost:cfg.cost ?now ?durable ?fault ?retry:cfg.retry
    ?overload:cfg.overload ~servers:cfg.servers
    ~lock_timeout_s:cfg.lock_timeout_s ?trace:cfg.trace ?slo:cfg.slo
    ?provenance:cfg.provenance ()

(* Counters accumulated from the instances a crashy run burns through —
   the final instance's {!Strip_sim.Stats} only covers the last epoch.
   (Histograms and percentiles are not mergeable and stay last-epoch.) *)
type acc = {
  mutable a_updates : int;
  mutable a_recompute : int;
  mutable a_firings : int;
  mutable a_merges : int;
  mutable a_injected : int;
  mutable a_aborts : int;
  mutable a_retries : int;
  mutable a_sheds : int;
  mutable a_dead : int;
  mutable a_ctxsw : int;
  mutable a_lock_waits : int;
  mutable a_lock_timeouts : int;
  mutable a_busy_update_us : float;
  mutable a_busy_recompute_us : float;
  a_lock_h : Strip_obs.Histogram.t;
      (* lock waits of dead instances, merged for the cluster-wide row *)
}

let zero_acc () =
  {
    a_updates = 0;
    a_recompute = 0;
    a_firings = 0;
    a_merges = 0;
    a_injected = 0;
    a_aborts = 0;
    a_retries = 0;
    a_sheds = 0;
    a_dead = 0;
    a_ctxsw = 0;
    a_lock_waits = 0;
    a_lock_timeouts = 0;
    a_busy_update_us = 0.0;
    a_busy_recompute_us = 0.0;
    a_lock_h = Strip_obs.Histogram.create ();
  }

let accumulate acc db =
  let open Strip_txn in
  let st = Strip_db.stats db in
  let mgr = Strip_db.rules db in
  acc.a_updates <- acc.a_updates + Strip_sim.Stats.tasks_run st Task.Update;
  acc.a_recompute <- acc.a_recompute + Strip_sim.Stats.n_recompute st;
  acc.a_firings <- acc.a_firings + Rule_manager.n_rule_firings mgr;
  acc.a_merges <- acc.a_merges + Rule_manager.n_merges mgr;
  acc.a_injected <-
    (acc.a_injected
    +
    match Strip_db.fault_injector db with
    | Some fi -> Fault.total_injected fi
    | None -> 0);
  acc.a_aborts <- acc.a_aborts + Strip_sim.Stats.n_aborts st;
  acc.a_retries <- acc.a_retries + Strip_sim.Stats.n_retries st;
  acc.a_sheds <- acc.a_sheds + Strip_sim.Stats.n_sheds st;
  acc.a_dead <- acc.a_dead + Strip_sim.Stats.n_dead_letters st;
  acc.a_ctxsw <- acc.a_ctxsw + Strip_sim.Stats.context_switches st;
  acc.a_lock_waits <- acc.a_lock_waits + Strip_sim.Stats.n_lock_waits st;
  acc.a_lock_timeouts <-
    acc.a_lock_timeouts + Strip_sim.Stats.n_lock_timeouts st;
  acc.a_busy_update_us <-
    acc.a_busy_update_us +. Strip_sim.Stats.busy_us_of st Task.Update;
  acc.a_busy_recompute_us <-
    acc.a_busy_recompute_us +. Strip_sim.Stats.busy_us_of st Task.Recompute;
  Strip_obs.Histogram.merge_into ~dst:acc.a_lock_h
    (Strip_sim.Stats.lock_wait_hist st)

(* Running totals of recovery work across all crashes of one run. *)
type rec_totals = {
  mutable t_crashes : int;
  mutable t_partitions : int;
  mutable t_promotions : (int * int * int) list;
      (* (epoch, promoted id, promoted lsn), newest first *)
  mutable t_redo_commits : int;
  mutable t_redo_ops : int;
  mutable t_requeued : int;
  mutable t_restored_rows : int;
  mutable t_recovery_s : float;
  mutable t_cp_fallbacks : int;
  mutable t_salvaged_ranges : int;
  mutable t_salvaged_bytes : int;
  mutable t_quarantined_bytes : int;
  mutable t_orphan_merges : int;
}

let zero_totals () =
  {
    t_crashes = 0;
    t_partitions = 0;
    t_promotions = [];
    t_redo_commits = 0;
    t_redo_ops = 0;
    t_requeued = 0;
    t_restored_rows = 0;
    t_recovery_s = 0.0;
    t_cp_fallbacks = 0;
    t_salvaged_ranges = 0;
    t_salvaged_bytes = 0;
    t_quarantined_bytes = 0;
    t_orphan_merges = 0;
  }

let add_recovery totals (rs : Recovery.stats) =
  totals.t_redo_commits <- totals.t_redo_commits + rs.Recovery.redo_commits;
  totals.t_redo_ops <- totals.t_redo_ops + rs.Recovery.redo_ops;
  totals.t_requeued <- totals.t_requeued + rs.Recovery.requeued;
  totals.t_restored_rows <- totals.t_restored_rows + rs.Recovery.restored_rows;
  totals.t_cp_fallbacks <- totals.t_cp_fallbacks + rs.Recovery.cp_fallbacks;
  totals.t_salvaged_ranges <-
    totals.t_salvaged_ranges + rs.Recovery.salvaged_ranges;
  totals.t_salvaged_bytes <- totals.t_salvaged_bytes + rs.Recovery.salvaged_bytes;
  totals.t_quarantined_bytes <-
    totals.t_quarantined_bytes + rs.Recovery.quarantined_bytes;
  totals.t_orphan_merges <- totals.t_orphan_merges + rs.Recovery.orphan_merges

(* Crashes and partitions share one budget: once [spent] reaches
   [max_crashes], fresh instances get zeroed crash and partition rates
   so a hostile seed cannot prevent convergence (scheduled events fire
   once by construction). *)
let budget_fault cfg rcfg ~spent =
  if spent >= rcfg.max_crashes then
    Option.map
      (fun (c : Strip_txn.Fault.config) ->
        {
          c with
          Strip_txn.Fault.rates =
            {
              c.Strip_txn.Fault.rates with
              Strip_txn.Fault.crash = 0.0;
              partition = 0.0;
            };
        })
      cfg.fault
  else cfg.fault

let import_target (h : Pta_tables.handles) =
  {
    Strip_ingest.Import.stocks = h.Pta_tables.stocks;
    by_symbol = h.Pta_tables.stocks_by_symbol;
  }

(* Quotes at or before a crash (or partition) cut are consumed or lost
   input; the rest of the feed resumes against the recovered instance.
   Re-running a quote would be harmless (prices are absolute), so the
   conservative cut is exact-time exclusive. *)
let requote db h quotes ~after =
  let rest =
    Array.of_seq
      (Seq.filter
         (fun (q : Feed.quote) -> q.Feed.time > after)
         (Array.to_seq quotes))
  in
  ignore (Strip_ingest.Import.replay db (import_target h) rest)

(* Modeled seconds for the global meter's current counts of [cells]. *)
let metered_s cost cells =
  1e-6
  *. Strip_sim.Cost_model.charge cost (List.map (fun c -> (c, Meter.get c)) cells)

(* The recovery report over the durable stores still in service. *)
let recovery_metrics cost ~durables ~totals ~n_crashes ~total_recovery_s
    ~audit_clean ~audit_divergences ~repairs =
  let open Strip_txn in
  let sum f = List.fold_left (fun t d -> t + f d) 0 durables in
  let sum_wal f = sum (fun d -> f (Durable.wal d)) in
  {
    n_crashes;
    n_checkpoints = sum Durable.n_checkpoints;
    checkpoint_bytes = sum Durable.last_checkpoint_bytes;
    wal_appends = sum_wal Wal.n_appends;
    wal_fsyncs = sum_wal Wal.n_fsyncs;
    wal_appended_bytes = sum_wal Wal.appended_bytes;
    wal_overhead_s = metered_s cost [ "wal_append"; "wal_fsync" ];
    checkpoint_overhead_s = metered_s cost [ "checkpoint_row" ];
    redo_commits = totals.t_redo_commits;
    redo_ops = totals.t_redo_ops;
    requeued = totals.t_requeued;
    restored_rows = totals.t_restored_rows;
    total_recovery_s;
    audit_clean;
    audit_divergences;
    repairs;
  }

(* (Re-)arm the chaos events still strictly in the future on the live
   instance — called at the start of the drive and after every crash or
   failover, so a schedule keeps firing across instance boundaries
   (events inside an outage window are consumed by it). *)
let arm_chaos cfg db ~now =
  List.iter
    (fun ev ->
      match ev with
      | Crash_at at -> if at > now then Strip_db.schedule_crash db ~at
      | Partition_at { at; heal_after_s } ->
        if at > now then Strip_db.schedule_partition db ~at ~heal_after_s
      | Checkpoint_at at ->
        if at > now then
          Strip_db.schedule_checkpoints db ~every:at ~start:at ~until:at ()
      | Bitrot_at { at; target; frac } ->
        if at > now then Strip_db.schedule_bitrot db ~at ~target ~frac
      | Fsync_lie_at at -> if at > now then Strip_db.schedule_fsync_lie db ~at
      | Disk_full_at { at; free_bytes; heal_after_s } ->
        (* The capacity clamp lives on the WAL, which survives restarts:
           a post-crash instance re-arms only the heal still due, so a
           crash inside the full window cannot leave the disk full
           forever. *)
        if at > now then begin
          Strip_db.schedule_disk_full db ~at ~free_bytes;
          Strip_db.schedule_disk_heal db ~at:(at +. heal_after_s)
        end
        else if at +. heal_after_s > now then
          Strip_db.schedule_disk_heal db ~at:(at +. heal_after_s)
      | Drop_burst _ -> ())
    cfg.chaos

(* Interleave policy-routed read-only queries with the engine: run to the
   next read's release time, serve it at that instant against whichever
   node the router picks, repeat.  With no cluster this is exactly
   [Strip_db.run] — the replication-free path is untouched. *)
let run_with_reads ~cluster db =
  match cluster with
  | None -> Strip_db.run db
  | Some c ->
    let rec loop () =
      match Strip_repl.Cluster.next_read_time c with
      | Some tr ->
        Strip_db.run ~until:tr db;
        Strip_repl.Cluster.serve_read c ~now:tr;
        loop ()
      | None -> Strip_db.run db
    in
    loop ()

(* Crash-restart loop: run the engine until it drains; on every
   {!Strip_txn.Fault.Crashed} escape, condemn the volatile state, bring up
   a fresh instance against the shared durable store and recover it
   ({!Recovery.restart} charges the modeled latency as downtime), resubmit
   the quotes the crash did not consume, and keep going.  With replicas
   attached, the crash is instead resolved by failover: the cluster
   promotes the replica with the highest applied LSN and recovery replays
   {e its} durable copy; a partition that outlives detection elects over
   the cut the same way.  After [max_crashes] the crash {e rate} is zeroed
   (a scheduled [crash_at] fires once by construction) so a hostile seed
   cannot loop forever. *)
let drive cfg rcfg ~durable ~quotes ~acc ~totals ~mk_cluster ~arm_scrub
    ~abandoned db0 h0 =
  let open Strip_txn in
  let module C = Strip_repl.Cluster in
  Strip_db.checkpoint db0;
  (* Bound the checkpoint schedule by the feed: an unbounded schedule would
     keep the event queue non-empty forever and the engine would never
     drain.  The tail of the run past the last periodic checkpoint is
     covered by the WAL. *)
  let cp_until = cfg.feed.Feed.duration in
  (* The cluster bootstraps its replicas from the checkpoint just taken. *)
  let cluster = mk_cluster db0 in
  (match cluster with
  | Some c ->
    C.register_metrics c (Strip_db.metrics db0);
    C.schedule_shipping c ~until:cp_until
  | None -> ());
  (* Checkpoints, chaos events and the scrubber die with their engine:
     every incarnation re-arms them. *)
  let arm ?crash_at db =
    (match rcfg.checkpoint_every with
    | Some every -> Strip_db.schedule_checkpoints db ~every ~until:cp_until ()
    | None -> ());
    Option.iter (fun at -> Strip_db.schedule_crash db ~at) crash_at;
    arm_chaos cfg db ~now:(Strip_db.now db);
    arm_scrub db cluster
  in
  arm ?crash_at:rcfg.crash_at db0;
  (* Crashes and long partitions fail over only with replicas to elect. *)
  let replicated =
    match cluster with Some c when C.n_replicas c > 0 -> cluster | _ -> None
  in
  let db = ref db0 and h = ref h0 in
  let finished = ref false in
  let fresh_fault () =
    budget_fault cfg rcfg ~spent:(totals.t_crashes + totals.t_partitions)
  in
  (* Every recovery attempt reattaches the handles and reinstalls the
     rules on its fresh instance. *)
  let nh = ref h0 in
  let reinstall ndb =
    let hh = Pta_tables.reattach ndb in
    nh := hh;
    install_rules cfg ndb hh
  in
  (* Failover attempt: promotion recovers from the elected replica's
     durable copy (bootstrap image + shipped tail) instead of the dead
     primary's store. *)
  let promote c ~isolated ~now () =
    let ndb, rs, info =
      (if isolated then C.promote_isolated else C.promote)
        c ~now
        ~mk_db:(fun dur -> mk_db ~now ~durable:dur ?fault:(fresh_fault ()) cfg)
        ~reinstall
    in
    totals.t_promotions <-
      (info.C.epoch, info.C.promoted, info.C.promoted_lsn)
      :: totals.t_promotions;
    (ndb, rs)
  in
  (* A store that left service can no longer influence a served read, but
     its media-fault ledger still counts toward the run's
     silent-corruption audit. *)
  let abandon od =
    if not (List.memq od !abandoned) then begin
      Durable.note_abandoned od;
      abandoned := od :: !abandoned
    end
  in
  let resume ~cut (ndb, rs, rec_s) =
    add_recovery totals rs;
    totals.t_recovery_s <- totals.t_recovery_s +. rec_s;
    requote ndb !nh quotes ~after:cut;
    arm ndb;
    db := ndb;
    h := !nh
  in
  while not !finished do
    match run_with_reads ~cluster !db with
    | () -> finished := true
    | exception Fault.Crashed _ ->
      let t_crash = Strip_db.now !db in
      accumulate acc !db;
      Strip_db.crash !db;
      totals.t_crashes <- totals.t_crashes + 1;
      let fresh = ref !db in
      let restart () =
        let ndb = mk_db ~now:t_crash ~durable ?fault:(fresh_fault ()) cfg in
        fresh := ndb;
        (ndb, Recovery.recover ndb ~reinstall:(fun () -> reinstall ndb))
      in
      let attempt =
        match replicated with
        | Some c ->
          (* Failing over abandons the dead primary's durable store. *)
          Option.iter abandon (Strip_db.durable !db);
          promote c ~isolated:false ~now:t_crash
        | None -> restart
      in
      let ((ndb, _, rec_s) as r) =
        Recovery.restart ~cost:cfg.cost attempt ~on_crash:(fun () ->
            totals.t_crashes <- totals.t_crashes + 1;
            if replicated = None then Strip_db.crash !fresh)
      in
      Strip_sim.Stats.record_crash (Strip_db.stats ndb) ~recovery_s:rec_s;
      (* Re-seed the surviving nodes (and the demoted old primary's slot)
         from the promoted node's fresh checkpoint, after the downtime
         accounting — resynchronization proceeds in parallel with resumed
         service. *)
      Option.iter
        (fun c ->
          C.resume c ~now:(Clock.now (Strip_db.clock ndb)) ~ship_until:cp_until;
          C.register_metrics c (Strip_db.metrics ndb))
        replicated;
      resume ~cut:t_crash r
    | exception Fault.Partitioned { heal_after_s; _ } -> (
      let t_part = Strip_db.now !db in
      let detect_s =
        match cfg.repl with Some r -> r.partition_detect_s | None -> 0.1
      in
      match replicated with
      | Some c when heal_after_s > detect_s ->
        let heal_at = t_part +. heal_after_s in
        let detect_at = t_part +. detect_s in
        totals.t_partitions <- totals.t_partitions + 1;
        C.begin_partition c ~now:t_part ~heal_at;
        (* The isolated primary is alive, not dead: it keeps committing
           and its surviving shipping chain keeps sending in the old
           term, but every send dies on the epoch-tagged partition
           windows.  A nested crash fells it for good; a nested
           partition of an already-cut node changes nothing. *)
        let old_db = !db in
        let old_alive = ref true in
        let rec run_doomed until =
          match Strip_db.run ~until old_db with
          | () -> ()
          | exception Fault.Crashed _ -> old_alive := false
          | exception Fault.Partitioned _ -> run_doomed until
        in
        run_doomed detect_at;
        (* Detection timeout expired: the majority side elects a new
           primary over the partition.  Mid-recovery crashes of the
           candidate retry the election, spending crash budget. *)
        let ((ndb, _, _) as r) =
          Recovery.restart ~cost:cfg.cost
            ~on_crash:(fun () -> totals.t_crashes <- totals.t_crashes + 1)
            (promote c ~isolated:true ~now:detect_at)
        in
        (* The new term opens immediately: shipping and reads resume on
           the promoted primary while the deposed one rides out the
           partition on the other side. *)
        C.resume c ~now:(Clock.now (Strip_db.clock ndb)) ~ship_until:cp_until;
        C.register_metrics c (Strip_db.metrics ndb);
        (* Split brain, contained: run the old primary to the heal point
           so it accumulates a divergent tail nobody will ever see, then
           fence it — it discards that tail and stands by to rejoin as a
           replica at the next re-seed. *)
        if !old_alive then run_doomed heal_at;
        accumulate acc old_db;
        Strip_db.crash old_db;
        ignore (C.heal c ~now:heal_at);
        Option.iter abandon (Strip_db.durable old_db);
        (* Quotes after the cut belong to the new timeline; the doomed
           instance's work on them was fenced away with its tail. *)
        resume ~cut:t_part r
      | _ ->
        (* No cluster to fail over to, or a blip shorter than the
           detection timeout: the node keeps running (volatile state is
           intact — only the raising task was discarded).  With a
           cluster attached, the blip still drops its sends for the
           window; the shipper re-covers the gap on later ticks. *)
        (match replicated with
        | Some c when heal_after_s > 0.0 ->
          totals.t_partitions <- totals.t_partitions + 1;
          C.begin_partition c ~now:t_part ~heal_at:(t_part +. heal_after_s)
        | _ -> ()))
  done;
  (!db, !h, cluster)

let run (cfg : config) =
  let cfg = validate ~sharded:false cfg in
  let durable =
    Option.map
      (fun _ ->
        let retain =
          match cfg.storage with Some s -> max 1 s.retain | None -> 1
        in
        Strip_txn.Durable.create ~retain ())
      cfg.recovery
  in
  let db = mk_db ?durable ?fault:cfg.fault cfg in
  let h = Pta_tables.populate db ~feed:cfg.feed cfg.sizes in
  let weights = Feed.activity_weights cfg.feed in
  let expected_fanout =
    match cfg.rule with
    | Comp_view _ -> Pta_tables.expected_comps_per_update h ~weights
    | Option_view _ -> Pta_tables.expected_options_per_update h ~weights
  in
  install_rules cfg db h;
  let quotes = Feed.generate cfg.feed in
  ignore (Strip_ingest.Import.replay db (import_target h) quotes);
  Meter.reset ();
  Rule_manager.reset_stats (Strip_db.rules db);
  let acc = zero_acc () in
  let totals = zero_totals () in
  let scrub_stats =
    match cfg.storage with Some _ -> Some (Scrub.create ()) | None -> None
  in
  let abandoned : Strip_txn.Durable.t list ref = ref [] in
  let fetch_of cluster =
    Option.map
      (fun c ~from_lsn ~len -> Strip_repl.Cluster.fetch_clean c ~from_lsn ~len)
      cluster
  in
  (* (Re-)schedule the background scrubber on the live instance — like
     checkpoints, the chain dies with its engine at a crash and must be
     re-armed on every incarnation. *)
  let arm_scrub db cluster =
    match (cfg.storage, scrub_stats) with
    | Some { scrub_every = Some every; _ }, Some st
      when Strip_db.durable db <> None ->
      Scrub.schedule st db ~every ~until:cfg.feed.Feed.duration
        ?fetch:(fetch_of cluster) ()
    | _ -> ()
  in
  (* Per-replica span buffers are owned here rather than by the cluster so
     they survive failover re-seeding; they merge with the primary buffer
     into one cluster-wide trace export. *)
  let replica_traces =
    match (cfg.trace, cfg.repl) with
    | Some _, Some r when r.replicas > 0 ->
      List.init r.replicas (fun i ->
          (Printf.sprintf "replica-%d" i, Strip_obs.Trace.create ()))
    | _ -> []
  in
  let mk_cluster db =
    match cfg.repl with
    | None -> None
    | Some r ->
      let read_table, read_key_col =
        match cfg.rule with
        | Comp_view _ -> ("comp_prices", "comp")
        | Option_view _ -> ("option_prices", "option_symbol")
      in
      let read_keys =
        Strip_db.query_rows db
          (Printf.sprintf "select %s from %s" read_key_col read_table)
        |> List.map (fun row -> Value.to_string row.(0))
        |> Array.of_list
      in
      let ccfg =
        {
          Strip_repl.Cluster.n_replicas = r.replicas;
          link = r.link;
          ship_every = r.ship_every;
          read_policy = r.read_policy;
          read_rate = r.read_rate;
          read_cost_s = r.read_cost_s;
          seed = 11;
        }
      in
      let c =
        Strip_repl.Cluster.create
          ~trace_for:(fun i -> Option.map snd (List.nth_opt replica_traces i))
          ccfg ~primary:db ~read_table ~read_key_col ~read_keys
          ~read_until:cfg.feed.Feed.duration
      in
      (* Drop bursts live on the links, which survive failovers. *)
      List.iter
        (function
          | Drop_burst { at; until_s; rate } ->
            for i = 0 to Strip_repl.Cluster.n_replicas c - 1 do
              Strip_repl.Link.add_drop_burst
                (Strip_repl.Cluster.link c i)
                ~from_s:at ~until_s ~rate
            done
          | _ -> ())
        cfg.chaos;
      Some c
  in
  let db, h, cluster =
    match cfg.recovery with
    | None ->
      (* A cluster here has zero replicas: a read pump with no shipping
         needs no durability layer. *)
      let cluster = mk_cluster db in
      Option.iter
        (fun c -> Strip_repl.Cluster.register_metrics c (Strip_db.metrics db))
        cluster;
      run_with_reads ~cluster db;
      (db, h, cluster)
    | Some rcfg ->
      drive cfg rcfg ~durable:(Option.get durable) ~quotes ~acc ~totals
        ~mk_cluster ~arm_scrub ~abandoned db h
  in
  (* One last scrub pass before the administrative catch-up, so a fault
     injected after the final periodic tick is still detected and
     repaired before the run is judged (and before replicas converge on
     the final log). *)
  (match (cfg.storage, scrub_stats) with
  | Some { scrub_every = Some _; _ }, Some st when Strip_db.durable db <> None
    ->
    Scrub.scrub ?fetch:(fetch_of cluster) st db
  | _ -> ());
  (* Converge the replicas administratively so end-of-run lag/LSN metrics
     (and the tests) compare equals against the final primary. *)
  (match cluster with
  | Some c ->
    Strip_repl.Cluster.final_sync c
      ~now:(Strip_txn.Clock.now (Strip_db.clock db))
  | None -> ());
  (* Consistency audit (recovery runs only): the recovered queue has
     drained, so the views must now equal their recomputation; divergences
     become repair transactions and the audit reruns. *)
  let recovery_audit =
    match cfg.recovery with
    | None -> None
    | Some _ ->
      (* Composites accumulate float increments, so audit with the
         end-to-end verification's tolerance.  Audit only the view this
         run maintains: the other has no installed rule, so it is stale
         by design. *)
      let eps = verify_tolerance cfg.rule in
      let views =
        match cfg.rule with
        | Comp_view _ -> [ "comp_prices" ]
        | Option_view _ -> [ "option_prices" ]
      in
      Some (Auditor.audit_and_repair ~eps ~views db)
  in
  (* Close any violation window still open at end of run (audit repairs
     above were the last possible staleness samples). *)
  Option.iter Strip_obs.Slo.finish cfg.slo;
  let stats = Strip_db.stats db in
  let duration_s = cfg.feed.Feed.duration in
  let verified, max_abs_error =
    if cfg.verify then begin
      let expected, actual =
        match cfg.rule with
        | Comp_view _ ->
          (Comp_rules.recompute_from_scratch h, Comp_rules.maintained h)
        | Option_view _ ->
          (Option_rules.recompute_from_scratch h, Option_rules.maintained h)
      in
      let err = max_error expected actual in
      (Some (err <= verify_tolerance cfg.rule), err)
    end
    else (None, nan)
  in
  let open Strip_txn in
  (* Makespan: the simulated instant the last dispatched task finished
     (the clock ends on its completion event).  Recompute throughput over
     the makespan is the quantity the server sweep improves: an overloaded
     single server drains its backlog long after the feed ends, and extra
     servers shrink that tail. *)
  let makespan_s = Clock.now (Strip_db.clock db) in
  (* From here on [acc] covers every incarnation, the live one included. *)
  accumulate acc db;
  let n_recompute = acc.a_recompute in
  let recovery =
    (* After a failover the live durable store is the promoted replica's
       copy, not the one the run started with. *)
    match (cfg.recovery, Strip_db.durable db, recovery_audit) with
    | Some _, Some d, Some (final, repairs) ->
      Some
        (recovery_metrics cfg.cost ~durables:[ d ] ~totals
           ~n_crashes:totals.t_crashes ~total_recovery_s:totals.t_recovery_s
           ~audit_clean:(Auditor.clean final)
           ~audit_divergences:(List.length final.Auditor.divergences)
           ~repairs)
    | _ -> None
  in
  let repl =
    match cluster with
    | None -> None
    | Some c ->
      let module C = Strip_repl.Cluster in
      let module R = Strip_repl.Replica in
      let n_reads = C.reads_issued c in
      let last_done = C.last_read_done c in
      Some
        {
          n_replicas = C.n_replicas c;
          read_policy =
            (match cfg.repl with
            | Some r -> C.policy_string r.read_policy
            | None -> "any");
          read_rate =
            (match cfg.repl with Some r -> r.read_rate | None -> 0.0);
          n_reads;
          reads_primary = C.reads_primary c;
          reads_replica = C.reads_replica c;
          read_latency = merged_summary [ C.read_latency c ];
          read_throughput_per_s =
            (if last_done <= 0.0 then 0.0
             else float_of_int n_reads /. last_done);
          n_failovers = C.n_failovers c;
          promotion_lost_bytes = C.lost_bytes_total c;
          epoch = C.epoch c;
          epochs = C.epoch_history c;
          promotions = List.rev totals.t_promotions;
          final_lsn =
            (match Strip_db.durable db with
            | Some d -> Wal.durable_end (Durable.wal d)
            | None -> 0);
          fenced_bytes = C.fenced_bytes_total c;
          n_partitions = C.n_partitions c;
          partition_drops = C.partition_drops_total c;
          fenced_messages = C.fenced_messages_total c;
          segments_sent = C.segments_sent c;
          segments_dropped = C.segments_dropped c;
          bytes_shipped = C.bytes_shipped c;
          cluster_lag =
            merged_summary
              (List.init (C.n_replicas c) (fun i -> R.lag (C.replica c i)));
          cluster_lock_wait =
            merged_summary [ acc.a_lock_h ];
          per_replica =
            List.init (C.n_replicas c) (fun i ->
                let r = C.replica c i in
                {
                  r_id = R.id r;
                  r_applied_lsn = R.applied_lsn r;
                  r_segments = R.n_segments r;
                  r_duplicates = R.n_duplicates r;
                  r_reordered = R.n_reordered r;
                  r_bootstraps = R.n_bootstraps r;
                  r_reads = R.n_reads r;
                  r_lag = merged_summary [ R.lag r ];
                });
        }
  in
  let storage =
    match (cfg.storage, Strip_db.durable db) with
    | Some _, Some d ->
      let stores = d :: !abandoned in
      let counts =
        List.fold_left
          (fun c od -> Durable.add_counts od c)
          Durable.zero_counts stores
      in
      let sum_wal f =
        List.fold_left (fun a od -> a + f (Durable.wal od)) 0 stores
      in
      let sget f = match scrub_stats with Some s -> f s | None -> 0 in
      let salvage_s =
        metered_s cfg.cost
          [
            "scrub_pass";
            "scrub_byte";
            "salvage_attempt";
            "salvage_byte";
            "quarantine_byte";
          ]
      in
      Some
        {
          injected_bitrot_wal = counts.Durable.injected_bitrot_wal;
          injected_bitrot_cp = counts.Durable.injected_bitrot_cp;
          injected_fsync_lie = counts.Durable.injected_fsync_lie;
          faults_detected = counts.Durable.detected;
          faults_repaired = counts.Durable.repaired;
          faults_quarantined = counts.Durable.quarantined;
          faults_expunged = counts.Durable.expunged;
          faults_outstanding = counts.Durable.outstanding;
          scrub_passes = sget Scrub.passes;
          scrub_bytes = sget Scrub.bytes_scanned;
          wal_corruptions = sget Scrub.wal_corruptions;
          cp_corruptions = sget Scrub.cp_corruptions;
          repaired_replica = sget Scrub.repaired_replica;
          repaired_checkpoint = sget Scrub.repaired_checkpoint;
          scrub_salvaged_bytes = sget Scrub.salvaged_bytes;
          scrub_expunged_bytes = sget Scrub.expunged_bytes;
          cp_fallbacks = totals.t_cp_fallbacks;
          salvaged_ranges = totals.t_salvaged_ranges;
          salvaged_bytes = totals.t_salvaged_bytes;
          quarantined_bytes = totals.t_quarantined_bytes;
          orphan_merges = totals.t_orphan_merges;
          disk_fulls = sum_wal Wal.n_disk_fulls;
          lied_bytes = sum_wal Wal.lied_bytes;
          ship_verify_skips =
            (match cluster with
            | Some c -> Strip_repl.Cluster.ship_verify_skips c
            | None -> 0);
          salvage_s;
          final_clean =
            Wal.verify (Durable.wal d) = [] && Durable.slots_valid d;
        }
    | _ -> None
  in
  {
    label = label_of cfg.rule;
    delay = cfg.delay;
    duration_s;
    servers = cfg.servers;
    makespan_s;
    recompute_throughput_per_s =
      (if makespan_s <= 0.0 then 0.0
       else float_of_int n_recompute /. makespan_s);
    per_server_utilization =
      Strip_sim.Stats.per_server_utilization stats
        ~duration_s:(Float.max duration_s makespan_s);
    n_lock_waits = acc.a_lock_waits;
    n_lock_timeouts = acc.a_lock_timeouts;
    lock_wait_s =
      (if Strip_sim.Stats.n_lock_waits stats = 0 then None
       else
         Some
           (Strip_obs.Histogram.summary
              (Strip_sim.Stats.lock_wait_hist stats)));
    utilization = Strip_sim.Stats.utilization stats ~duration_s;
    n_updates = acc.a_updates;
    n_recompute;
    mean_recompute_us = Strip_sim.Stats.mean_service_us stats Task.Recompute;
    p50_recompute_us = Strip_sim.Stats.service_percentile_us stats Task.Recompute 50.0;
    p90_recompute_us = Strip_sim.Stats.service_percentile_us stats Task.Recompute 90.0;
    p99_recompute_us = Strip_sim.Stats.service_percentile_us stats Task.Recompute 99.0;
    max_recompute_us = Strip_sim.Stats.max_service_us stats Task.Recompute;
    busy_update_s = acc.a_busy_update_us *. 1e-6;
    busy_recompute_s = acc.a_busy_recompute_us *. 1e-6;
    n_firings = acc.a_firings;
    n_merges = acc.a_merges;
    context_switches = acc.a_ctxsw;
    expected_fanout;
    verified;
    max_abs_error;
    n_injected = acc.a_injected;
    n_aborts = acc.a_aborts;
    n_retries = acc.a_retries;
    n_sheds = acc.a_sheds;
    n_dead_letters = acc.a_dead;
    mean_recovery_s = Strip_sim.Stats.mean_recovery_s stats;
    staleness =
      List.map
        (fun table ->
          (table, Strip_obs.Histogram.summary (Strip_sim.Stats.staleness_hist stats table)))
        (Strip_sim.Stats.staleness_tables stats);
    registry = Strip_obs.Metrics.snapshot (Strip_db.metrics db);
    recovery;
    repl;
    storage;
    shard = None;
    slo = (match cfg.slo with None -> [] | Some s -> Strip_obs.Slo.report s);
    trace_spans =
      (match cfg.trace with
      | None -> []
      | Some tr ->
        ("primary", Strip_obs.Trace.length tr, Strip_obs.Trace.dropped tr)
        :: List.map
             (fun (name, t) ->
               (name, Strip_obs.Trace.length t, Strip_obs.Trace.dropped t))
             replica_traces);
    cluster_traces =
      (match cfg.trace with
      | Some tr when replica_traces <> [] -> ("primary", tr) :: replica_traces
      | _ -> []);
  }
