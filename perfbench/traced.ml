(* The traced run: per-layer numbers, kept apart from the timed run.

   Per input and round it makes three passes:

   - the untraced entry point ({!Measure.entry_once}), whose result and
     meter counters give the per-layer counts and simulated µs;
   - the public set-up calls of the workload's own config, with a span
     around each (generate, populate, install, submit);
   - a traced drive of the workload's plain config (no WAL, replicas or
     shards): the same public-call sequence the entry point makes on its
     no-durability path, with spans around [Strip_db.run] and the
     verification, and update tasks whose bodies time
     [Db_ops.update_stock_price].  For the two plain workloads the drive
     must tick exactly the entry point's counters, or the per-layer
     numbers would describe a different program and the run fails.

   Real-time numbers are medians over rounds, averaged over inputs;
   counts come from the first round (they are deterministic). *)

open Strip_pta
open Strip_core
module Feed = Strip_market.Feed

(* ---- spans ---------------------------------------------------------- *)

(* Set-up spans of one pass, by name; durations add up if a name repeats. *)
let spans : (string * float) list ref = ref []

let recording =
  {
    Workloads.span =
      (fun name f ->
        let r, dur = Measure.time f in
        spans := (name, dur) :: !spans;
        r);
  }

(* The workload's public set-up calls with a span around each, in a fresh
   process; returns the spans. *)
let traced_setup c =
  Measure.in_child (fun () ->
      ignore (Workloads.setup recording c);
      !spans)

let span_total spans name =
  List.fold_left (fun a (n, d) -> if n = name then a +. d else a) 0.0 spans

(* ---- the traced drive ------------------------------------------------ *)

type drive = {
  run_s : float;
  verify_s : float;
  bodies_ns : float array;  (** one per update body, in execution order *)
  drive_ticks : (string * int) list;
  max_error : float;
}

(* Experiment.run's no-durability path, call for call, with the quote
   submission of Import.replay done by bench closures that time the update
   body. *)
let traced_drive (c : Experiment.config) =
  Measure.in_child @@ fun () ->
  let db = Experiment.mk_db c in
  let h = Pta_tables.populate db ~feed:c.Experiment.feed c.Experiment.sizes in
  Workloads.install c db h;
  let quotes = Feed.generate c.Experiment.feed in
  let bodies = Array.make (Array.length quotes) nan in
  let n = ref 0 in
  Array.iter
    (fun (q : Feed.quote) ->
      let symbol = Strip_market.Taq.symbol q.Feed.stock in
      let price = q.Feed.price in
      Strip_db.submit_update db ~at:q.Feed.time ~label:"quote" (fun txn ->
          let t0 = Measure.now () in
          Db_ops.update_stock_price txn ~stocks:h.Pta_tables.stocks
            ~by_symbol:h.Pta_tables.stocks_by_symbol ~symbol ~price;
          if !n < Array.length bodies then bodies.(!n) <- (Measure.now () -. t0) *. 1e9;
          incr n))
    quotes;
  Strip_sim.Engine.set_arrival_profile (Strip_db.engine db)
    (Feed.arrival_times quotes);
  Strip_relational.Meter.reset ();
  Rule_manager.reset_stats (Strip_db.rules db);
  let (), run_s = Measure.time (fun () -> Strip_db.run db) in
  let max_error, verify_s =
    Measure.time (fun () ->
        let expected, actual =
          match c.Experiment.rule with
          | Experiment.Comp_view _ ->
            (Comp_rules.recompute_from_scratch h, Comp_rules.maintained h)
          | Experiment.Option_view _ ->
            (Option_rules.recompute_from_scratch h, Option_rules.maintained h)
        in
        Experiment.max_error expected actual)
  in
  {
    run_s;
    verify_s;
    bodies_ns = Array.sub bodies 0 (min !n (Array.length bodies));
    drive_ticks = Ledger.counters ();
    max_error;
  }

(* ---- primitive micro-benchmarks ------------------------------------- *)

(* Bechamel over the public primitives, as the Table-1 bench does, plus
   one Black-Scholes evaluation.  ns per call, by OLS over the run. *)
let primitives () =
  Measure.in_child @@ fun () ->
  let open Strip_relational in
  let open Strip_txn in
  let cat = Catalog.create () in
  let tb =
    Catalog.create_table cat ~name:"t"
      ~schema:(Schema.of_list [ ("k", Value.TInt); ("v", Value.TFloat) ])
  in
  let idx = Table.create_index tb ~name:"t_k" ~kind:Index.Hash ~cols:[ "k" ] in
  for i = 0 to 9_999 do
    ignore (Table.insert tb [| Value.Int i; Value.Float (float_of_int i) |])
  done;
  let locks = Lock.create () in
  let clock = Clock.create () in
  let next = ref 0 in
  let bump () =
    next := (!next + 7919) mod 10_000;
    !next
  in
  let open Bechamel in
  let tests =
    [
      ( "relational.index_probe_ns",
        fun () -> ignore (Index.lookup idx [ Value.Int (bump ()) ]) );
      ( "relational.cursor_update_ns",
        fun () ->
          let c = Table.open_index_cursor tb idx [ Value.Int (bump ()) ] in
          (match Table.fetch c with
          | Some r ->
            ignore
              (Table.cursor_update c
                 [| Record.value r 0; Value.add (Record.value r 1) (Value.Float 1.0) |])
          | None -> ());
          Table.close_cursor c );
      ( "txn.lock_ns",
        fun () ->
          ignore (Lock.acquire locks ~owner:0 (Lock.Rec ("t", bump ())) Lock.X);
          Lock.release_all locks ~owner:0 );
      ( "txn.begin_commit_ns",
        fun () ->
          let txn = Transaction.begin_ ~cat ~locks ~clock () in
          Transaction.commit txn;
          Transaction.cleanup txn );
      ( "txn.update_txn_ns",
        fun () ->
          let txn = Transaction.begin_ ~cat ~locks ~clock () in
          ignore
            (Transaction.exec txn
               (Printf.sprintf "update t set v = v + 1.0 where k = %d" (bump ())));
          Transaction.commit txn;
          Transaction.cleanup txn );
      ( "finance.bs_call_ns",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Strip_finance.Black_scholes.call
                  ~stock_price:(50.0 +. float_of_int (bump () mod 50))
                  ~strike:60.0 ~rate:Strip_finance.Black_scholes.default_rate
                  ~volatility:0.3 ~expiry_years:0.25)) );
    ]
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  List.map
    (fun (name, f) ->
      let raw =
        Benchmark.all cfg [ instance ] (Test.make ~name (Staged.stage f))
      in
      let ns =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some (ns :: _) -> ns | _ -> acc)
          (Analyze.all ols instance raw)
          nan
      in
      (name, ns))
    tests

(* ---- the run ---------------------------------------------------------- *)

type input = {
  cfg : Experiment.config;
  mutable quotes : int;
  mutable entries : Measure.entry_sample list;  (** newest first *)
  mutable setups : (float * (string * float) list) list;
      (** untraced set-up time, traced set-up spans *)
  mutable drives : drive list;
}

let run (w : Workloads.t) ~seed ~seconds =
  let inputs =
    List.map
      (fun cfg -> { cfg; quotes = 0; entries = []; setups = []; drives = [] })
      (Workloads.inputs w ~seed)
  in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let start = Measure.now () in
  let prims = primitives () in
  let rounds = ref 0 in
  let continue_ () =
    let elapsed = Measure.now () -. start in
    let per_round = elapsed /. float_of_int (max 1 !rounds) in
    !rounds < 1 || (!rounds < 100 && elapsed +. per_round <= seconds)
  in
  while !errors = [] && continue_ () do
    List.iteri
      (fun k inp ->
        let s = Measure.setup_once inp.cfg in
        let e = Measure.entry_once inp.cfg in
        let sp = traced_setup inp.cfg in
        let d = traced_drive (Workloads.plain inp.cfg) in
        if inp.entries = [] then begin
          inp.quotes <- s.Measure.quotes;
          (match Ledger.unmapped e.Measure.ticks with
          | [] -> ()
          | names ->
            error "input %d: counters with no layer: %s" k (String.concat ", " names));
          if Workloads.is_plain inp.cfg && d.drive_ticks <> e.Measure.ticks then
            error
              "input %d: traced drive counters differ from the entry point's" k;
          if d.max_error > Experiment.verify_tolerance inp.cfg.Experiment.rule
          then error "input %d: traced drive diverged (error %g)" k d.max_error;
          let f = Measure.failures ~quotes:inp.quotes e.Measure.m in
          if f > 0 then error "input %d: %d failed operations" k f
        end;
        inp.entries <- e :: inp.entries;
        inp.setups <- (s.Measure.setup_s, sp) :: inp.setups;
        inp.drives <- d :: inp.drives)
      inputs;
    incr rounds
  done;
  let total_quotes = List.fold_left (fun a inp -> a + inp.quotes) 0 inputs in
  let fq = float_of_int total_quotes in
  (* median over rounds per input, mean over inputs *)
  let real f = Measure.mean (List.map (fun inp -> Measure.median (f inp)) inputs) in
  let span name =
    real (fun inp -> List.map (fun (_, sp) -> span_total sp name) inp.setups)
  in
  let drive f = real (fun inp -> List.map f inp.drives) in
  let firsts = List.map (fun inp -> List.hd (List.rev inp.entries)) inputs in
  let ms = List.map (fun e -> e.Measure.m) firsts in
  (* sum over inputs, per-input mean, per-input mean of a count, and a
     ratio of sums *)
  let sum f = List.fold_left (fun a m -> a +. f m) 0.0 ms in
  let per_input f = sum f /. float_of_int (List.length ms) in
  let count f = per_input (fun m -> float_of_int (f m)) in
  let ratio num den = let d = sum den in if d = 0.0 then 0.0 else sum num /. d in
  let ticks_sum name =
    List.fold_left
      (fun a e -> a +. float_of_int (Ledger.get e.Measure.ticks name))
      0.0 firsts
  in
  let layer_us =
    List.fold_left
      (fun acc e ->
        List.map2
          (fun (l, a) (_, b) -> (l, a +. b))
          acc (Ledger.sim_us_by_layer e.Measure.ticks))
      (List.map (fun l -> (l, 0.0)) Ledger.layer_names)
      firsts
  in
  let rec_ f m = match m.Experiment.recovery with Some r -> f r | None -> 0.0 in
  let repl f m = match m.Experiment.repl with Some r -> f r | None -> 0.0 in
  let shard f m = match m.Experiment.shard with Some s -> f s | None -> 0.0 in
  let fi = float_of_int in
  let replicas f r =
    List.fold_left (fun a x -> a +. fi (f x)) 0.0 r.Experiment.per_replica
  in
  let body_p p = drive (fun d -> Measure.percentile d.bodies_ns p) in
  let body_total = drive (fun d -> Array.fold_left ( +. ) 0.0 d.bodies_ns *. 1e-9) in
  let run_s = drive (fun d -> d.run_s) in
  let verify_s = drive (fun d -> d.verify_s) in
  let setup_untraced = real (fun inp -> List.map fst inp.setups) in
  let entry_s = real (fun inp -> List.map (fun e -> e.Measure.entry_s) inp.entries) in
  let n_inputs = fi (List.length inputs) in
  let untraced_qps = fq /. (n_inputs *. (entry_s -. setup_untraced)) in
  let traced_qps =
    if Workloads.is_plain w.Workloads.template then
      fq /. (n_inputs *. (run_s +. verify_s))
    else
      let setup_traced =
        List.fold_left
          (fun a n -> a +. span n)
          0.0
          [ "pta.create_db"; "pta.populate"; "pta.install"; "market.generate";
            "ingest.submit" ]
      in
      fq /. (n_inputs *. (entry_s -. setup_traced))
  in
  let attempted = int_of_float (sum (fun m -> fi (Measure.attempted m))) in
  let failed =
    List.fold_left2
      (fun a inp m -> a + Measure.failures ~quotes:inp.quotes m)
      0 inputs ms
  in
  let metrics =
    [
      ("market.generate_s", span "market.generate", "s");
      ("pta.populate_s", span "pta.populate", "s");
      ("pta.install_s", span "pta.install", "s");
      ("ingest.submit_s", span "ingest.submit", "s");
      ("sim.run_s", run_s, "s");
      ("sim.run_self_s", run_s -. body_total, "s");
      ("relational.update_body_p50_ns", body_p 50.0, "ns");
      ("relational.update_body_p99_ns", body_p 99.0, "ns");
      ("relational.update_body_total_s", body_total, "s");
    ]
    @ List.map (fun (n, ns) -> (n, ns, "ns")) prims
    @ List.map
        (fun (l, us) -> (l ^ ".sim_us_per_quote", us /. fq, "sim_us"))
        layer_us
    @ [
        ("relational.index_probes_per_quote", ticks_sum "index_probe" /. fq, "count");
        ("relational.seq_rows_per_quote", ticks_sum "seq_row" /. fq, "count");
        ("relational.join_rows_per_quote", ticks_sum "join_row" /. fq, "count");
        ("finance.bs_evals_per_quote", ticks_sum "bs_eval" /. fq, "count");
        ("rules.firings", count (fun m -> m.Experiment.n_firings), "count");
        ("rules.recomputes", count (fun m -> m.Experiment.n_recompute), "count");
        ("rules.merges", count (fun m -> m.Experiment.n_merges), "count");
        ( "rules.merge_ratio",
          ratio (fun m -> fi m.Experiment.n_merges) (fun m -> fi m.Experiment.n_firings),
          "ratio" );
        ("sim.context_switches", count (fun m -> m.Experiment.context_switches), "count");
        ( "gc.major_collections",
          real (fun inp -> List.map (fun e -> fi e.Measure.majors) inp.entries),
          "count" );
        ( "txn.wal_bytes_per_quote",
          sum (rec_ (fun r -> fi r.Experiment.wal_appended_bytes)) /. fq,
          "bytes" );
        ( "txn.fsyncs_per_quote",
          sum (rec_ (fun r -> fi r.Experiment.wal_fsyncs)) /. fq,
          "count" );
        ( "txn.checkpoint_bytes",
          per_input (rec_ (fun r -> fi r.Experiment.checkpoint_bytes)),
          "bytes" );
        ( "repl.bytes_shipped",
          per_input (repl (fun r -> fi r.Experiment.bytes_shipped)),
          "bytes" );
        ( "repl.amplification",
          ratio
            (repl (fun r -> fi r.Experiment.bytes_shipped))
            (fun m ->
              repl (fun r -> fi r.Experiment.n_replicas) m
              *. rec_ (fun r -> fi r.Experiment.wal_appended_bytes) m),
          "ratio" );
        ( "repl.dup_ratio",
          ratio
            (repl (replicas (fun x -> x.Experiment.r_duplicates)))
            (repl
               (replicas (fun x -> x.Experiment.r_segments + x.Experiment.r_duplicates))),
          "ratio" );
        ( "repl.reseeds",
          per_input (repl (replicas (fun x -> x.Experiment.r_bootstraps))),
          "count" );
        ( "repl.lag_p99_ms",
          per_input
            (repl (fun r ->
                 match r.Experiment.cluster_lag with
                 | Some s -> 1e3 *. s.Strip_obs.Histogram.p99
                 | None -> 0.0)),
          "sim_ms" );
        ( "repl.read_p99_ms",
          per_input
            (repl (fun r ->
                 match r.Experiment.read_latency with
                 | Some s -> 1e3 *. s.Strip_obs.Histogram.p99
                 | None -> 0.0)),
          "sim_ms" );
        ("shard.partials", per_input (shard (fun s -> fi s.Experiment.sh_partials)), "count");
        ("shard.reships", per_input (shard (fun s -> fi s.Experiment.sh_reships)), "count");
        ("shard.bytes", per_input (shard (fun s -> fi s.Experiment.sh_bytes)), "bytes");
        ( "shard.dup_ratio",
          ratio
            (shard (fun s ->
                 List.fold_left (fun a r -> a +. fi r.Experiment.sh_duplicates) 0.0
                   s.Experiment.sh_rows))
            (shard (fun s ->
                 List.fold_left (fun a r -> a +. fi r.Experiment.sh_offered) 0.0
                   s.Experiment.sh_rows)),
          "ratio" );
        ( "shard.recovery_s",
          per_input (shard (fun s -> s.Experiment.sh_recovery_s)),
          "sim_s" );
        ("pta.verify_s", verify_s, "s");
        ("trace.quotes_per_s", traced_qps, "1/s");
        ("failed_ops_frac", fi failed /. fi (max 1 attempted), "ratio");
      ]
  in
  Printf.printf "traced rounds: %d over %d input(s), %.1f s\n" !rounds
    (List.length inputs) (Measure.now () -. start);
  Printf.printf
    "  tracing overhead: traced quotes_per_s %.1f - untraced %.1f = %.1f\n"
    traced_qps untraced_qps (traced_qps -. untraced_qps);
  if not (Workloads.is_plain w.Workloads.template) then
    Printf.printf
      "  sim.*, relational.update_body_* and pta.verify_s come from the plain \
       drive (no WAL, replicas or shards) of this workload's rule and inputs\n";
  List.iter (fun e -> Printf.printf "ERROR: %s\n" e) (List.rev !errors);
  {
    Timed.correct = !errors = [];
    attempted;
    failed;
    metrics;
  }
