(* The sharded write path: hash partitioner, partial-delta codec, the
   Shard_* WAL records, the distributed unique-transaction queue's
   idempotence and determinism, and end-to-end sharded runs (clean
   cross-shard audit, in-process re-run determinism, crash-during-ship
   exactly-once recovery). *)

open Strip_relational
open Strip_txn
open Strip_pta
module Partitioner = Strip_shard.Partitioner
module Partial = Strip_shard.Partial
module Dqueue = Strip_shard.Dqueue

(* ------------------------------------------------------------------ *)
(* Partitioner *)

let test_partitioner () =
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Partitioner.create: shards < 1") (fun () ->
      ignore (Partitioner.create ~shards:0));
  let p = Partitioner.create ~shards:4 in
  let syms = List.init 500 Strip_market.Taq.symbol in
  let hit = Array.make 4 false in
  List.iter
    (fun s ->
      let i = Partitioner.shard_of_symbol p s in
      Alcotest.(check bool) "in range" true (i >= 0 && i < 4);
      Alcotest.(check int) "deterministic" i (Partitioner.shard_of_symbol p s);
      (* symbol and composite keys route through the same hash *)
      Alcotest.(check int) "comp = symbol routing" i
        (Partitioner.shard_of_comp p s);
      hit.(i) <- true)
    syms;
  Alcotest.(check bool) "all shards populated" true
    (Array.for_all Fun.id hit);
  let one = Partitioner.create ~shards:1 in
  List.iter
    (fun s ->
      Alcotest.(check int) "single shard owns all" 0
        (Partitioner.shard_of_symbol one s))
    syms

(* ------------------------------------------------------------------ *)
(* Partial-delta codec *)

let roundtrip msg = Partial.decode (Partial.encode msg)

let test_partial_codec () =
  let p =
    {
      Partial.src = 2;
      seq = 41;
      dst = 0;
      key = [ Value.Str "C17" ];
      delta = -3.125;
      created_at = 12.5;
      ctx = Some (77, 13);
    }
  in
  (match roundtrip (Partial.Partial p) with
  | Partial.Partial q ->
    Alcotest.(check int) "src" p.Partial.src q.Partial.src;
    Alcotest.(check int) "seq" p.Partial.seq q.Partial.seq;
    Alcotest.(check int) "dst" p.Partial.dst q.Partial.dst;
    Alcotest.(check bool) "key" true (p.Partial.key = q.Partial.key);
    Alcotest.(check (float 0.0)) "delta" p.Partial.delta q.Partial.delta;
    Alcotest.(check (float 0.0)) "created_at" p.Partial.created_at
      q.Partial.created_at;
    Alcotest.(check bool) "ctx" true (q.Partial.ctx = Some (77, 13))
  | Partial.Ack _ -> Alcotest.fail "decoded as ack");
  (match roundtrip (Partial.Partial { p with Partial.ctx = None }) with
  | Partial.Partial q -> Alcotest.(check bool) "no ctx" true (q.Partial.ctx = None)
  | Partial.Ack _ -> Alcotest.fail "decoded as ack");
  (match roundtrip (Partial.Ack { src = 3; seq = 99 }) with
  | Partial.Ack { src; seq } ->
    Alcotest.(check int) "ack src" 3 src;
    Alcotest.(check int) "ack seq" 99 seq
  | Partial.Partial _ -> Alcotest.fail "decoded as partial");
  let garbage = "\xff" ^ String.make 8 '\x00' in
  Alcotest.(check bool) "unknown tag raises" true
    (match Partial.decode garbage with
    | exception Strip_txn.Codec.Decode_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Shard_* WAL records *)

let test_wal_shard_records () =
  let recs =
    [
      Wal.Shard_out
        {
          seq = 5;
          dst = 1;
          key = [ Value.Str "C3" ];
          delta = 0.625;
          created_at = 1.5;
        };
      Wal.Shard_in
        {
          src = 3;
          seq = 12;
          key = [ Value.Str "C3"; Value.Int 7 ];
          delta = -1.25;
          created_at = 2.0;
        };
      Wal.Shard_release { key = [ Value.Str "C3" ] };
      Wal.Shard_state
        {
          next_seq = [ (0, 3); (1, 6) ];
          seen = [ (0, 2, []); (2, 4, [ 6; 9 ]) ];
          pending = [ ([ Value.Str "C9" ], 2.5, 1.0) ];
          unacked = [ (5, 1, [ Value.Str "C3" ], 0.625, 1.5) ];
        };
    ]
  in
  let w = Wal.create () in
  ignore (Wal.append_batch w recs);
  Wal.fsync w;
  let got = List.map snd (Wal.read w).Wal.records in
  Alcotest.(check int) "all read back" (List.length recs) (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "record round-trips" true (a = b))
    recs got

(* ------------------------------------------------------------------ *)
(* Distributed unique-transaction queue *)

let k c = [ Value.Str c ]

let test_dqueue_idempotence () =
  let q = Dqueue.create () in
  let offer ?(src = 0) ?(seq = 0) ?(key = "C1") ?(delta = 1.0) ?(at = 1.0) () =
    Dqueue.offer q ~src ~seq ~key:(k key) ~delta ~created_at:at
  in
  Alcotest.(check bool) "first is fresh" true (offer () = Dqueue.Fresh);
  Alcotest.(check bool) "resend is duplicate" true
    (offer ~delta:99.0 () = Dqueue.Duplicate);
  Alcotest.(check bool) "same key, new identity merges" true
    (offer ~src:1 ~seq:0 ~delta:0.5 ~at:2.0 () = Dqueue.Merged);
  (match Dqueue.peek q ~key:(k "C1") with
  | Some (d, at) ->
    Alcotest.(check (float 1e-12)) "merged total" 1.5 d;
    Alcotest.(check (float 0.0)) "keeps first arrival time" 1.0 at
  | None -> Alcotest.fail "pending entry missing");
  (* duplicate of the merged identity still changes nothing *)
  Alcotest.(check bool) "merged identity deduped" true
    (offer ~src:1 ~seq:0 ~delta:7.0 () = Dqueue.Duplicate);
  Alcotest.(check int) "counters: offered" 4 (Dqueue.n_offered q);
  Alcotest.(check int) "counters: duplicates" 2 (Dqueue.n_duplicates q);
  Alcotest.(check int) "counters: merged" 1 (Dqueue.n_merged q);
  Alcotest.(check int) "counters: fresh" 1 (Dqueue.n_fresh q);
  Dqueue.remove q ~key:(k "C1");
  Alcotest.(check int) "applied" 1 (Dqueue.n_applied q);
  Alcotest.(check bool) "removed" true (Dqueue.peek q ~key:(k "C1") = None);
  (* removing an absent key is a no-op, not a second apply *)
  Dqueue.remove q ~key:(k "C1");
  Alcotest.(check int) "no-op remove not counted" 1 (Dqueue.n_applied q)

(* Any arrival order of the same identity set yields the same merged
   totals and the same first-arrival bookkeeping: merge is commutative
   addition and dedup is order-independent. *)
let test_dqueue_order_independence () =
  let deliveries =
    [
      (0, 0, "C1", 1.0, 1.0);
      (1, 0, "C1", 2.0, 1.5);
      (0, 1, "C2", -0.5, 2.0);
      (2, 3, "C1", 0.25, 2.5);
      (1, 1, "C2", 4.0, 3.0);
      (0, 0, "C1", 1.0, 3.5) (* resend of the first *);
    ]
  in
  let feed order =
    let q = Dqueue.create () in
    List.iter
      (fun (src, seq, key, delta, at) ->
        ignore (Dqueue.offer q ~src ~seq ~key:(k key) ~delta ~created_at:at))
      order;
    List.map
      (fun key ->
        match Dqueue.peek q ~key:(k key) with
        | Some (d, _) -> (key, d)
        | None -> (key, nan))
      [ "C1"; "C2" ]
  in
  let base = feed deliveries in
  Alcotest.(check (float 1e-12)) "C1 total" 3.25 (List.assoc "C1" base);
  Alcotest.(check (float 1e-12)) "C2 total" 3.5 (List.assoc "C2" base);
  let rev = feed (List.rev deliveries) in
  List.iter2
    (fun (ka, va) (kb, vb) ->
      Alcotest.(check string) "same key" ka kb;
      Alcotest.(check (float 1e-12)) "same total under reorder" va vb)
    base rev

let test_dqueue_restore () =
  let q = Dqueue.create () in
  ignore (Dqueue.offer q ~src:0 ~seq:0 ~key:(k "C1") ~delta:1.0 ~created_at:1.0);
  ignore (Dqueue.offer q ~src:1 ~seq:2 ~key:(k "C2") ~delta:2.0 ~created_at:2.0);
  ignore (Dqueue.offer q ~src:0 ~seq:1 ~key:(k "C1") ~delta:0.5 ~created_at:3.0);
  let seen = Dqueue.seen_state q and pending = Dqueue.pending_list q in
  (* src 0 delivered 0 and 1 in order; src 1's seq 2 overtook 0 and 1 *)
  Alcotest.(check bool) "compact seen state" true
    (seen = [ (0, 2, []); (1, 0, [ 2 ]) ]);
  Alcotest.(check int) "seen size" 3
    (List.fold_left (fun n (_, hwm, ooo) -> n + hwm + List.length ooo) 0 seen);
  Alcotest.(check int) "pending size" 2 (List.length pending);
  let q2 = Dqueue.create () in
  Dqueue.restore q2 ~seen ~pending;
  Alcotest.(check bool) "seen restored" true (Dqueue.seen_state q2 = seen);
  Alcotest.(check bool) "pending restored" true
    (Dqueue.pending_list q2 = pending);
  Alcotest.(check bool) "first-arrival order kept" true
    (Dqueue.pending_keys q2 = Dqueue.pending_keys q);
  (* restored dedup set still rejects the old identities, below the
     high-water mark and above it *)
  Alcotest.(check bool) "restored dedup" true
    (Dqueue.offer q2 ~src:0 ~seq:0 ~key:(k "C1") ~delta:9.0 ~created_at:9.0
    = Dqueue.Duplicate);
  Alcotest.(check bool) "restored out-of-order dedup" true
    (Dqueue.offer q2 ~src:1 ~seq:2 ~key:(k "C2") ~delta:9.0 ~created_at:9.0
    = Dqueue.Duplicate);
  (* filling the gap folds the out-of-order identity into the mark *)
  ignore (Dqueue.offer q2 ~src:1 ~seq:0 ~key:(k "C2") ~delta:1.0 ~created_at:9.0);
  ignore (Dqueue.offer q2 ~src:1 ~seq:1 ~key:(k "C2") ~delta:1.0 ~created_at:9.0);
  Alcotest.(check bool) "gap closed, out-of-order set drained" true
    (Dqueue.seen_state q2 = [ (0, 2, []); (1, 3, []) ])

(* Per-stream deliveries with drops and resends, duplicates, reordering,
   releases, checkpoints and owner crashes rebuilt through
   [Coordinator.scan_state]: every verdict equals a reference model that
   keeps every (src, dst, seq) ever merged, and the compact dedup state
   is exactly that set, with an out-of-order part no larger than the
   stream's in flight (its partials from the oldest unmerged one to the
   newest emitted). *)

type dq_event =
  | Emit of { src : int; dst : int; key : int }
  | Deliver of { src : int; dst : int; pick : int }
  | Release of { dst : int; key : int }
  | Checkpoint of int
  | Crash of int

let n_src = 3 and n_dst = 2

let dq_event_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun src dst key -> Emit { src; dst; key })
            (int_bound (n_src - 1)) (int_bound (n_dst - 1)) (int_bound 3) );
        ( 6,
          map3
            (fun src dst pick -> Deliver { src; dst; pick })
            (int_bound (n_src - 1)) (int_bound (n_dst - 1)) nat );
        ( 2,
          map2 (fun dst key -> Release { dst; key }) (int_bound (n_dst - 1))
            (int_bound 3) );
        (1, map (fun d -> Checkpoint d) (int_bound (n_dst - 1)));
        (1, map (fun d -> Crash d) (int_bound (n_dst - 1)));
      ])

let print_dq_event = function
  | Emit { src; dst; key } -> Printf.sprintf "emit %d->%d C%d" src dst key
  | Deliver { src; dst; pick } -> Printf.sprintf "deliver %d->%d #%d" src dst pick
  | Release { dst; key } -> Printf.sprintf "release %d C%d" dst key
  | Checkpoint d -> Printf.sprintf "checkpoint %d" d
  | Crash d -> Printf.sprintf "crash %d" d

let run_dq_events events =
  let emitted = Array.make_matrix n_src n_dst [||] in
  (* the reference model *)
  let merged = Hashtbl.create 64 and model_pending = Hashtbl.create 8 in
  let owners =
    Array.init n_dst (fun _ -> (Dqueue.create (), Strip_txn.Durable.create ()))
  in
  let log dst r =
    let w = Strip_txn.Durable.wal (snd owners.(dst)) in
    ignore (Wal.append w r);
    Wal.fsync w
  in
  List.iter
    (fun ev ->
      (match ev with
      | Emit { src; dst; key } ->
        let ps = emitted.(src).(dst) in
        emitted.(src).(dst) <- Array.append ps [| key |]
      | Deliver { src; dst; pick } ->
        let ps = emitted.(src).(dst) in
        if Array.length ps > 0 then begin
          let seq = pick mod Array.length ps in
          let key = k (Printf.sprintf "C%d" ps.(seq)) in
          let expected =
            if Hashtbl.mem merged (src, dst, seq) then Dqueue.Duplicate
            else begin
              Hashtbl.replace merged (src, dst, seq) ();
              if Hashtbl.mem model_pending (dst, key) then Dqueue.Merged
              else begin
                Hashtbl.replace model_pending (dst, key) ();
                Dqueue.Fresh
              end
            end
          in
          let q = fst owners.(dst) in
          let got = Dqueue.offer q ~src ~seq ~key ~delta:1.0 ~created_at:0.0 in
          if got <> expected then
            QCheck2.Test.fail_reportf "verdict for (%d, %d, %d)" src dst seq;
          if got <> Dqueue.Duplicate then
            log dst
              (Wal.Shard_in { src; seq; key; delta = 1.0; created_at = 0.0 })
        end
      | Release { dst; key } ->
        let key = k (Printf.sprintf "C%d" key) in
        if Hashtbl.mem model_pending (dst, key) then begin
          Hashtbl.remove model_pending (dst, key);
          Dqueue.remove (fst owners.(dst)) ~key;
          log dst (Wal.Shard_release { key })
        end
      | Checkpoint dst ->
        (* truncation followed by a fresh baseline, as the coordinator
           does after every checkpoint *)
        let q, d = owners.(dst) in
        let w = Strip_txn.Durable.wal d in
        Wal.truncate_to w ~lsn:(Wal.durable_end w);
        log dst
          (Wal.Shard_state
             {
               next_seq = [];
               seen = Dqueue.seen_state q;
               pending = Dqueue.pending_list q;
               unacked = [];
             })
      | Crash dst ->
        let q, d = owners.(dst) in
        let st = Strip_shard.Coordinator.scan_state d in
        Dqueue.restore q
          ~seen:(Dqueue.seen_state st.Strip_shard.Coordinator.queue)
          ~pending:(Dqueue.pending_list st.Strip_shard.Coordinator.queue));
      (* the compact state is exactly the model's set, and small *)
      for dst = 0 to n_dst - 1 do
        let seen = Dqueue.seen_state (fst owners.(dst)) in
        for src = 0 to n_src - 1 do
          let emitted = Array.length emitted.(src).(dst) in
          let rec gap i = if Hashtbl.mem merged (src, dst, i) then gap (i + 1) else i in
          let hwm = gap 0 in
          let ooo =
            List.filter
              (fun seq -> Hashtbl.mem merged (src, dst, seq))
              (List.init (max 0 (emitted - hwm)) (fun i -> hwm + i))
          in
          let got =
            match List.find_opt (fun (s, _, _) -> s = src) seen with
            | Some (_, h, o) -> (h, o)
            | None -> (0, [])
          in
          if got <> (hwm, ooo) then
            QCheck2.Test.fail_reportf "dedup state of stream %d->%d" src dst;
          if List.length (snd got) > emitted - hwm then
            QCheck2.Test.fail_reportf "out-of-order set of %d->%d too large"
              src dst
        done
      done)
    events;
  true

let prop_dqueue_matches_reference =
  QCheck2.Test.make ~name:"dqueue: verdicts match the keep-everything model"
    ~count:300
    ~print:(fun evs -> String.concat "; " (List.map print_dq_event evs))
    QCheck2.Gen.(list_size (int_range 1 200) dq_event_gen)
    run_dq_events

(* ------------------------------------------------------------------ *)
(* End-to-end sharded runs *)

let scale = 0.05

let sharded_cfg ?crash ~shards rule ~delay =
  let cfg = Experiment.quick (Experiment.default_config rule ~delay) scale in
  {
    cfg with
    Experiment.shard =
      Some
        {
          (Experiment.default_shard ~shards) with
          Experiment.shard_crash_at = crash;
        };
  }

let fingerprint (m : Experiment.metrics) =
  ( ( m.Experiment.n_updates,
      m.Experiment.n_recompute,
      m.Experiment.n_firings,
      m.Experiment.makespan_s ),
    (m.Experiment.verified, m.Experiment.max_abs_error),
    m.Experiment.shard )

let test_sharded_run_verified () =
  let cfg =
    sharded_cfg ~shards:3
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let m = Shard_exp.dispatch cfg in
  Alcotest.(check bool) "cross-shard audit verified" true
    (m.Experiment.verified = Some true);
  match m.Experiment.shard with
  | None -> Alcotest.fail "shard metrics missing"
  | Some s ->
    Alcotest.(check int) "three shards" 3 s.Experiment.n_shards;
    Alcotest.(check bool) "partials shipped cross-shard" true
      (s.Experiment.sh_partials > 0);
    Alcotest.(check bool) "acks flowed back" true (s.Experiment.sh_acks > 0);
    Alcotest.(check int) "no divergences" 0 s.Experiment.cross_divergences;
    Alcotest.(check bool) "every shard saw updates" true
      (List.for_all
         (fun r -> r.Experiment.sh_updates > 0)
         s.Experiment.sh_rows);
    let applied =
      List.fold_left
        (fun t r -> t + r.Experiment.sh_applied)
        0 s.Experiment.sh_rows
    in
    Alcotest.(check bool) "merged deltas were applied" true (applied > 0);
    (match m.Experiment.recovery with
    | Some r -> Alcotest.(check bool) "audit clean" true r.Experiment.audit_clean
    | None -> Alcotest.fail "sharded runs are always durable")

(* Same dataset for any shard count: the union of the shards' partitions
   must equal the unsharded population, table by table. *)
let test_partition_union () =
  let feed = Strip_market.Feed.scaled Strip_market.Feed.default_config scale in
  let sizes = Pta_tables.scaled_sizes Pta_tables.default_sizes scale in
  let db1 = Strip_core.Strip_db.create () in
  let h1 = Pta_tables.populate db1 ~feed sizes in
  let p = Partitioner.create ~shards:3 in
  let dbs = Array.init 3 (fun _ -> Strip_core.Strip_db.create ()) in
  let hs =
    Pta_tables.populate_sharded dbs
      ~owner_sym:(Partitioner.shard_of_symbol p)
      ~owner_comp:(Partitioner.shard_of_comp p)
      ~feed sizes
  in
  let rows table_of h =
    let t = table_of h in
    let arity = Schema.arity (Table.schema t) in
    let acc = ref [] in
    Table.iter t (fun r ->
        acc := List.init arity (fun i -> Record.value r i) :: !acc);
    !acc
  in
  let union table_of =
    Array.to_list hs |> List.concat_map (rows table_of) |> List.sort compare
  in
  let whole table_of = List.sort compare (rows table_of h1) in
  List.iter
    (fun (name, table_of) ->
      Alcotest.(check bool)
        (name ^ " union equals unsharded")
        true
        (union table_of = whole table_of))
    [
      ("stocks", fun (h : Pta_tables.handles) -> h.Pta_tables.stocks);
      ("stock_stdev", fun h -> h.Pta_tables.stock_stdev);
      ("comps_list", fun h -> h.Pta_tables.comps_list);
      ("options_list", fun h -> h.Pta_tables.options_list);
    ];
  (* seeded composite partitions agree with the unsharded view *)
  let worst =
    Experiment.max_error
      (Comp_rules.maintained h1)
      (Comp_rules.maintained_sharded hs)
  in
  Alcotest.(check bool) "comp seeds agree" true (worst < 1e-9)

(* Rate-driven crashes on 4 shards: restarts in place, retried when
   recovery itself is felled, until the shared crash budget runs out. *)
let crash_rate_cfg () =
  let cfg =
    sharded_cfg ~shards:4
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let fault =
    {
      Fault.default_config with
      Fault.seed = 7;
      rates = { Fault.default_config.Fault.rates with Fault.crash = 0.001 };
    }
  in
  { cfg with Experiment.fault = Some fault }

let test_sharded_determinism () =
  List.iter
    (fun (name, cfg, crashy) ->
      let a = Shard_exp.dispatch cfg and b = Shard_exp.dispatch cfg in
      Alcotest.(check bool)
        (name ^ ": re-run is identical in-process")
        true
        (fingerprint a = fingerprint b);
      Alcotest.(check string)
        (name ^ ": byte-identical metrics")
        (Strip_obs.Json.to_string (Report.metrics_json a))
        (Strip_obs.Json.to_string (Report.metrics_json b));
      match a.Experiment.recovery with
      | Some r ->
        Alcotest.(check bool) (name ^ ": audit clean") true
          r.Experiment.audit_clean;
        if crashy then
          Alcotest.(check bool) (name ^ ": crashed") true
            (r.Experiment.n_crashes > 0)
      | None -> Alcotest.fail (name ^ ": recovery metrics missing"))
    [
      ( "2 shards",
        sharded_cfg ~shards:2
          (Experiment.Comp_view Comp_rules.Unique_coarse)
          ~delay:2.0,
        false );
      ("4 shards, crash rate", crash_rate_cfg (), true);
    ]

(* The sharded driver has no replicas, chaos loop or scheduled
   single-primary crash: asking for one is an error naming the field,
   not a silent drop. *)
let test_sharded_rejects field edit () =
  let cfg =
    edit
      (sharded_cfg ~shards:4
         (Experiment.Comp_view Comp_rules.Unique_on_comp)
         ~delay:1.0)
  in
  match Shard_exp.dispatch cfg with
  | exception Invalid_argument msg ->
    let n = String.length field in
    let rec names i =
      i + n <= String.length msg
      && (String.sub msg i n = field || names (i + 1))
    in
    Alcotest.(check bool) (msg ^ " names " ^ field) true (names 0)
  | _ -> Alcotest.fail ("sharded run accepted " ^ field)

let rejected_fields =
  let with_repl f (c : Experiment.config) =
    { c with Experiment.repl = Some (f Experiment.default_repl) }
  in
  [
    ( "repl.replicas",
      with_repl (fun r ->
          { r with Experiment.replicas = 2; read_rate = 0.0 }) );
    ( "repl.read_rate",
      with_repl (fun r ->
          { r with Experiment.replicas = 0; read_rate = 50.0 }) );
    ( "chaos",
      fun c -> { c with Experiment.chaos = [ Experiment.Crash_at 1.0 ] } );
    ( "recovery.crash_at",
      fun c ->
        {
          c with
          Experiment.recovery =
            Some
              {
                Experiment.default_recovery with
                Experiment.crash_at = Some 1.0;
              };
        } );
  ]

let test_shard_crash_recovery () =
  let cfg =
    sharded_cfg ~shards:3
      ~crash:(1, Strip_market.Feed.(scaled default_config scale).duration /. 2.0)
      (Experiment.Comp_view Comp_rules.Unique_on_comp)
      ~delay:1.0
  in
  let m = Shard_exp.dispatch cfg in
  (match m.Experiment.shard with
  | None -> Alcotest.fail "shard metrics missing"
  | Some s ->
    let crashed = List.nth s.Experiment.sh_rows 1 in
    Alcotest.(check bool) "shard 1 crashed" true
      (crashed.Experiment.sh_crashes >= 1);
    Alcotest.(check int) "cross-shard audit clean after recovery" 0
      s.Experiment.cross_divergences);
  Alcotest.(check bool) "exactly-once composite effect" true
    (m.Experiment.verified = Some true);
  match m.Experiment.recovery with
  | Some r ->
    Alcotest.(check bool) "crash counted" true (r.Experiment.n_crashes >= 1);
    Alcotest.(check bool) "audit clean" true r.Experiment.audit_clean
  | None -> Alcotest.fail "recovery metrics missing"

(* The protocol state logged after every checkpoint is bounded by what
   is in flight, not by how long the feed has run: doubling the feed at
   the same seed (with drops, so resends and out-of-order arrivals
   happen) must not grow the largest Shard_state record. *)
let test_shard_state_constant_size () =
  let largest ~stretch =
    let base =
      sharded_cfg ~shards:3
        (Experiment.Comp_view Comp_rules.Unique_on_comp)
        ~delay:1.0
    in
    let feed = base.Experiment.feed in
    let feed =
      {
        feed with
        Strip_market.Feed.duration = stretch *. feed.Strip_market.Feed.duration;
        target_updates =
          int_of_float (stretch *. float_of_int feed.Strip_market.Feed.target_updates);
      }
    in
    let shard = Option.get base.Experiment.shard in
    let cfg =
      {
        base with
        Experiment.feed;
        shard =
          Some
            {
              shard with
              Experiment.shard_link =
                { shard.Experiment.shard_link with Strip_repl.Link.drop_rate = 0.05 };
              shard_crash_at = Some (1, feed.Strip_market.Feed.duration /. 2.0);
            };
      }
    in
    let m = Shard_exp.dispatch cfg in
    Alcotest.(check bool) "verified" true (m.Experiment.verified = Some true);
    let rows name =
      List.filter_map
        (fun (r : Strip_obs.Metrics.row) ->
          match r.Strip_obs.Metrics.datum with
          | Strip_obs.Metrics.Int v when r.Strip_obs.Metrics.name = name -> Some v
          | _ -> None)
        m.Experiment.registry
    in
    ( List.fold_left max 0 (rows "shard_state_bytes_max"),
      (Option.get m.Experiment.shard).Experiment.sh_reships )
  in
  let short, reships = largest ~stretch:1.0 in
  let long, _ = largest ~stretch:2.0 in
  Alcotest.(check bool) "drops forced resends" true (reships > 0);
  Alcotest.(check bool) "Shard_state was logged" true (short > 0);
  Alcotest.(check bool)
    (Printf.sprintf "largest Shard_state %d B -> %d B" short long)
    true (long <= short)

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "partitioner: stable, total, in range" `Quick
          test_partitioner;
        Alcotest.test_case "partial-delta codec round-trips" `Quick
          test_partial_codec;
        Alcotest.test_case "Shard_* WAL records round-trip" `Quick
          test_wal_shard_records;
        Alcotest.test_case "dqueue: duplicate + merge idempotence" `Quick
          test_dqueue_idempotence;
        Alcotest.test_case "dqueue: reorder-independent totals" `Quick
          test_dqueue_order_independence;
        Alcotest.test_case "dqueue: state snapshot restore" `Quick
          test_dqueue_restore;
        QCheck_alcotest.to_alcotest prop_dqueue_matches_reference;
        Alcotest.test_case "partitioned population unions to the whole" `Slow
          test_partition_union;
        Alcotest.test_case "sharded run: clean cross-shard audit" `Slow
          test_sharded_run_verified;
        Alcotest.test_case "sharded run: in-process determinism" `Slow
          test_sharded_determinism;
        Alcotest.test_case "crash during ship: exactly-once recovery" `Slow
          test_shard_crash_recovery;
        Alcotest.test_case "Shard_state size is constant in run length" `Slow
          test_shard_state_constant_size;
      ]
      @ List.map
          (fun (field, edit) ->
            Alcotest.test_case ("sharded config rejects " ^ field) `Quick
              (test_sharded_rejects field edit))
          rejected_fields );
  ]
