open Strip_relational
open Strip_core
open Strip_market
open Experiment
module Coordinator = Strip_shard.Coordinator

(* The sharded analogue of {!Experiment.run}: N shard primaries, each a
   full Strip_db with its own durable store, stitched together by the
   {!Strip_shard.Coordinator} partial-delta protocol.  The population,
   rule install, feed replay, crash accounting and metrics assembly
   mirror the single-primary driver so a shard sweep is an
   apples-to-apples comparison; what differs is that composite writes for
   non-local composites travel as weighted partial deltas and the
   end-of-run verification is a cross-shard audit over the union of all
   shards' base tables. *)

let run (cfg : config) : metrics =
  let scfg =
    match cfg.shard with
    | Some s -> s
    | None -> invalid_arg "Shard_exp.run: config.shard is required"
  in
  let n = scfg.shards in
  if n < 1 then invalid_arg "Shard_exp.run: shards must be >= 1";
  let cfg = validate ~sharded:true cfg in
  let rcfg = Option.get cfg.recovery in
  (* Multi-engine determinism: the task/span id wells are global, so an
     in-process re-run must restart them from the same origin or every
     id (and thus every trace byte) shifts. *)
  Strip_txn.Task.reset_ids ();
  let part = Strip_shard.Partitioner.create ~shards:n in
  let owner_sym = Strip_shard.Partitioner.shard_of_symbol part in
  let owner_comp = Strip_shard.Partitioner.shard_of_comp part in
  let retain = match cfg.storage with Some s -> max 1 s.retain | None -> 1 in
  let durables =
    Array.init n (fun _ -> Strip_txn.Durable.create ~retain ())
  in
  let dbs =
    Array.init n (fun i -> mk_db ~durable:durables.(i) ?fault:cfg.fault cfg)
  in
  let handles =
    Pta_tables.populate_sharded dbs ~owner_sym ~owner_comp ~feed:cfg.feed
      cfg.sizes
  in
  let weights = Feed.activity_weights cfg.feed in
  (* Membership rows are partitioned by symbol owner, so the global
     E[fanout] is the sum of each shard's partition fanout. *)
  let expected_fanout =
    Array.fold_left
      (fun acc h ->
        acc
        +.
        match cfg.rule with
        | Comp_view _ -> Pta_tables.expected_comps_per_update h ~weights
        | Option_view _ -> Pta_tables.expected_options_per_update h ~weights)
      0.0 handles
  in
  let install sid db h =
    match cfg.rule with
    | Comp_view v ->
      Comp_rules.install_routed db h ~sid ~owner:owner_comp v ~delay:cfg.delay
    | Option_view v ->
      (* Options are fully local (stocks / stock_stdev / options_list are
         co-partitioned by symbol): the plain install never emits a
         partial. *)
      Option_rules.install db h v ~delay:cfg.delay
  in
  Array.iteri (fun i db -> install i db handles.(i)) dbs;
  let quotes = Feed.generate cfg.feed in
  let shard_quotes =
    Array.init n (fun i ->
        Array.of_seq
          (Seq.filter
             (fun (q : Feed.quote) -> owner_sym (Taq.symbol q.Feed.stock) = i)
             (Array.to_seq quotes)))
  in
  Array.iteri
    (fun i db ->
      ignore
        (Strip_ingest.Import.replay db (import_target handles.(i))
           shard_quotes.(i)))
    dbs;
  Meter.reset ();
  Array.iter (fun db -> Rule_manager.reset_stats (Strip_db.rules db)) dbs;
  (* One crash budget across all shards: every fresh instance spends
     from it. *)
  let restarts = ref 0 in
  let totals = zero_totals () in
  let cb =
    {
      Coordinator.remake =
        (fun ~sid ~now ->
          incr restarts;
          mk_db ~now ~durable:durables.(sid)
            ?fault:(budget_fault cfg rcfg ~spent:!restarts)
            cfg);
      reinstall =
        (fun ~sid ndb ->
          let hh = Pta_tables.reattach ndb in
          handles.(sid) <- hh;
          install sid ndb hh);
      apply =
        (fun ~sid _db txn ~key ~delta ->
          match cfg.rule with
          | Comp_view _ -> Comp_rules.apply_partial handles.(sid) txn ~key ~delta
          | Option_view _ -> ());
      resume =
        (fun ~sid ndb ~after rs ->
          requote ndb handles.(sid) shard_quotes.(sid) ~after;
          add_recovery totals rs);
    }
  in
  let ccfg =
    {
      Coordinator.link = scfg.shard_link;
      ship_every = scfg.shard_ship_every;
      resend_after = scfg.shard_resend_after;
      checkpoint_every = scfg.shard_checkpoint_every;
      cost = cfg.cost;
    }
  in
  let coord = Coordinator.create ~cfg:ccfg ~cb dbs in
  Coordinator.checkpoint_all coord;
  (match scfg.shard_crash_at with
  | Some (sid, at) when sid >= 0 && sid < n ->
    Strip_db.schedule_crash dbs.(sid) ~at
  | Some (sid, _) ->
    invalid_arg (Printf.sprintf "Shard_exp.run: shard_crash_at shard %d out of range" sid)
  | None -> ());
  let duration_s = cfg.feed.Feed.duration in
  Coordinator.run coord ~until:duration_s;
  Option.iter Strip_obs.Slo.finish cfg.slo;
  let final i = Coordinator.db coord i in
  let finals = Array.init n final in
  (* Per-shard counter accumulation (crashed incarnations + the live
     one); the global figures are the per-shard sums. *)
  let per_acc =
    Array.init n (fun i ->
        let a = zero_acc () in
        List.iter (accumulate a) (Coordinator.prior_dbs coord i);
        accumulate a (final i);
        a)
  in
  let sum f = Array.fold_left (fun t a -> t + f a) 0 per_acc in
  let sumf f = Array.fold_left (fun t a -> t +. f a) 0.0 per_acc in
  let eps = verify_tolerance cfg.rule in
  (* Per-shard audit: only views with a locally-complete definition are
     auditable in place.  The sharded [comp_prices] is a plain partition
     (its members live everywhere), so composites are judged by the
     cross-shard pass below instead. *)
  let shard_audits =
    match cfg.rule with
    | Option_view _ ->
      Array.to_list finals
      |> List.map (Auditor.audit_and_repair ~eps ~views:[ "option_prices" ])
    | Comp_view _ -> []
  in
  let per_shard_clean =
    List.for_all (fun (r, _) -> Auditor.clean r) shard_audits
  in
  let audit_divs =
    List.fold_left
      (fun t (r, _) -> t + List.length r.Auditor.divergences)
      0 shard_audits
  in
  let repairs_total = List.fold_left (fun t (_, n) -> t + n) 0 shard_audits in
  (* Cross-shard audit: recompute every composite from the union of all
     shards' base tables and compare against the union of the maintained
     partitions — the check no single shard can run alone. *)
  let cross_expected, cross_actual =
    match cfg.rule with
    | Comp_view _ ->
      ( Comp_rules.recompute_from_scratch_sharded handles,
        Comp_rules.maintained_sharded handles )
    | Option_view _ ->
      let union f =
        Array.to_list handles |> List.concat_map f |> List.sort compare
      in
      ( union Option_rules.recompute_from_scratch,
        union Option_rules.maintained )
  in
  let cross_checks = List.length cross_expected in
  let cross_err = max_error cross_expected cross_actual in
  let cross_divergences =
    let tbl = Hashtbl.create (2 * cross_checks) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) cross_expected;
    let diverging =
      List.fold_left
        (fun acc (k, v) ->
          match Hashtbl.find_opt tbl k with
          | Some e when Float.abs (v -. e) <= eps -> acc
          | _ -> acc + 1)
        0 cross_actual
    in
    diverging + abs (List.length cross_expected - List.length cross_actual)
  in
  let cross_clean = cross_divergences = 0 in
  let verified, max_abs_error =
    if cfg.verify then (Some (cross_clean && per_shard_clean), cross_err)
    else (None, nan)
  in
  let open Strip_txn in
  let makespan_s =
    Array.fold_left
      (fun m db -> Float.max m (Clock.now (Strip_db.clock db)))
      0.0 finals
  in
  let n_recompute = sum (fun a -> a.a_recompute) in
  (* Service-time percentiles live in per-engine reservoirs and do not
     merge; report the busiest shard's recompute distribution as the
     representative one. *)
  let rep_stats =
    let best = ref (Strip_db.stats finals.(0)) and best_n = ref (-1) in
    Array.iter
      (fun db ->
        let st = Strip_db.stats db in
        let nr = Strip_sim.Stats.n_recompute st in
        if nr > !best_n then begin
          best := st;
          best_n := nr
        end)
      finals;
    !best
  in
  let lock_h = Strip_obs.Histogram.create () in
  Array.iter
    (fun a -> Strip_obs.Histogram.merge_into ~dst:lock_h a.a_lock_h)
    per_acc;
  let staleness =
    let tables =
      Array.to_list finals
      |> List.concat_map (fun db ->
             Strip_sim.Stats.staleness_tables (Strip_db.stats db))
      |> List.sort_uniq compare
    in
    List.map
      (fun table ->
        let hs =
          Array.to_list finals
          |> List.filter_map (fun db ->
                 let st = Strip_db.stats db in
                 if List.mem table (Strip_sim.Stats.staleness_tables st) then
                   Some (Strip_sim.Stats.staleness_hist st table)
                 else None)
        in
        (table, Strip_obs.Histogram.summary (Strip_obs.Histogram.merge hs)))
      tables
  in
  (* One report, N registries: every shard's rows tagged with a [shard]
     label and re-sorted into a single deterministic snapshot. *)
  let registry =
    Array.to_list finals
    |> List.mapi (fun i db ->
           List.map
             (fun (r : Strip_obs.Metrics.row) ->
               {
                 r with
                 Strip_obs.Metrics.labels =
                   ("shard", string_of_int i) :: r.Strip_obs.Metrics.labels;
               })
             (Strip_obs.Metrics.snapshot (Strip_db.metrics db)))
    |> List.concat
    |> List.sort compare
  in
  let n_crashes =
    Array.fold_left ( + ) 0 (Array.init n (Coordinator.crashes coord))
  in
  let total_recovery_s =
    Array.fold_left ( +. ) 0.0 (Array.init n (Coordinator.recovery_s coord))
  in
  let recovery =
    Some
      (recovery_metrics cfg.cost ~durables:(Array.to_list durables) ~totals
         ~n_crashes ~total_recovery_s
         ~audit_clean:(cross_clean && per_shard_clean)
         ~audit_divergences:(audit_divs + cross_divergences)
         ~repairs:repairs_total)
  in
  let sh_rows =
    List.init n (fun i ->
        let dq = Coordinator.queue coord i in
        {
          sh_id = i;
          sh_updates = per_acc.(i).a_updates;
          sh_recomputes = per_acc.(i).a_recompute;
          sh_firings = per_acc.(i).a_firings;
          sh_partials_out = Rule_manager.partial_seq (Strip_db.rules (final i));
          sh_offered = Strip_shard.Dqueue.n_offered dq;
          sh_duplicates = Strip_shard.Dqueue.n_duplicates dq;
          sh_merged = Strip_shard.Dqueue.n_merged dq;
          sh_applied = Strip_shard.Dqueue.n_applied dq;
          sh_crashes = Coordinator.crashes coord i;
          sh_final_lsn = Wal.durable_end (Durable.wal durables.(i));
        })
  in
  let shard =
    Some
      {
        n_shards = n;
        sh_rows;
        sh_msgs = Coordinator.msgs_sent coord;
        sh_bytes = Coordinator.bytes_shipped coord;
        sh_partials = Coordinator.partials_shipped coord;
        sh_acks = Coordinator.acks_sent coord;
        sh_reships = Coordinator.reships coord;
        sh_recovery_s = total_recovery_s;
        cross_checks;
        cross_divergences;
      }
  in
  let dur = Float.max duration_s makespan_s in
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
      Array.to_list finals
      |> List.concat_map (fun db ->
             Strip_sim.Stats.per_server_utilization (Strip_db.stats db)
               ~duration_s:dur);
    n_lock_waits = sum (fun a -> a.a_lock_waits);
    n_lock_timeouts = sum (fun a -> a.a_lock_timeouts);
    lock_wait_s =
      (if Strip_obs.Histogram.count lock_h = 0 then None
       else Some (Strip_obs.Histogram.summary lock_h));
    utilization =
      (let u =
         Array.fold_left
           (fun t db ->
             t +. Strip_sim.Stats.utilization (Strip_db.stats db) ~duration_s)
           0.0 finals
       in
       u /. float_of_int n);
    n_updates = sum (fun a -> a.a_updates);
    n_recompute;
    mean_recompute_us = Strip_sim.Stats.mean_service_us rep_stats Task.Recompute;
    p50_recompute_us =
      Strip_sim.Stats.service_percentile_us rep_stats Task.Recompute 50.0;
    p90_recompute_us =
      Strip_sim.Stats.service_percentile_us rep_stats Task.Recompute 90.0;
    p99_recompute_us =
      Strip_sim.Stats.service_percentile_us rep_stats Task.Recompute 99.0;
    max_recompute_us = Strip_sim.Stats.max_service_us rep_stats Task.Recompute;
    busy_update_s = sumf (fun a -> a.a_busy_update_us) *. 1e-6;
    busy_recompute_s = sumf (fun a -> a.a_busy_recompute_us) *. 1e-6;
    n_firings = sum (fun a -> a.a_firings);
    n_merges = sum (fun a -> a.a_merges);
    context_switches = sum (fun a -> a.a_ctxsw);
    expected_fanout;
    verified;
    max_abs_error;
    n_injected = sum (fun a -> a.a_injected);
    n_aborts = sum (fun a -> a.a_aborts);
    n_retries = sum (fun a -> a.a_retries);
    n_sheds = sum (fun a -> a.a_sheds);
    n_dead_letters = sum (fun a -> a.a_dead);
    mean_recovery_s =
      (if n_crashes = 0 then 0.0
       else total_recovery_s /. float_of_int n_crashes);
    staleness;
    registry;
    recovery;
    repl = None;
    storage = None;
    shard;
    slo = (match cfg.slo with None -> [] | Some s -> Strip_obs.Slo.report s);
    trace_spans =
      (match cfg.trace with
      | None -> []
      | Some tr ->
        [ ("primary", Strip_obs.Trace.length tr, Strip_obs.Trace.dropped tr) ]);
    cluster_traces = [];
  }

(* The single entry point drivers should call: sharded configs go through
   the coordinator, everything else takes the unchanged single-primary
   path ({!Experiment.run} never consults [config.shard], so a [None] /
   1-shard run is byte-identical to a build without this module). *)
let dispatch (cfg : config) : metrics =
  match cfg.shard with
  | Some s when s.shards > 1 -> run cfg
  | _ -> Experiment.run cfg
