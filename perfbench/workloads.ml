(* The four named workloads and the set-up sequence they share.

   A workload is a configuration template plus a number of distinct
   seeded inputs per run.  Input [k] of seed [s] is a quote feed whose seed
   is derived from [(s, k)] alone, over the paper's fixed table population,
   so the same seed always yields the same inputs and the program under
   test sees only the generated config. *)

open Strip_pta
module Feed = Strip_market.Feed

type t = {
  name : string;
  scale : float;  (** {!Experiment.quick} factor applied to the paper scenario *)
  inputs : int;  (** distinct seeded inputs per run *)
  template : Experiment.config;
}

let base rule ~delay scale =
  Experiment.quick (Experiment.default_config rule ~delay) scale

(* Why each workload exists is in BENCHMARK.json and README.md. *)

(* Fig. 9 baseline: one join and one recompute per quote. *)
let comp_fanin =
  let scale = 0.25 in
  {
    name = "comp-fanin";
    scale;
    inputs = 4;
    template = base (Experiment.Comp_view Comp_rules.Non_unique) ~delay:0.0 scale;
  }

(* Black-Scholes and unique-queue merges, little join work. *)
let option_fanout =
  let scale = 0.25 in
  {
    name = "option-fanout";
    scale;
    inputs = 3;
    template =
      base (Experiment.Option_view Option_rules.Unique_on_symbol) ~delay:1.0
        scale;
  }

(* The WAL and the replication shipper beside a read pump.  Scale 0.1:
   the call's cost grows faster than the feed (about 2 s here, 19 s at
   0.25). *)
let replicated_reads =
  let scale = 0.1 in
  let cfg =
    base (Experiment.Comp_view Comp_rules.Unique_on_symbol) ~delay:1.0 scale
  in
  {
    name = "replicated-reads";
    scale;
    inputs = 3;
    template =
      {
        cfg with
        Experiment.recovery =
          Some
            {
              Experiment.default_recovery with
              Experiment.checkpoint_every = Some 5.0;
            };
        repl =
          Some
            {
              Experiment.default_repl with
              Experiment.replicas = 2;
              read_policy = Strip_repl.Cluster.Any;
              read_rate = 50.0;
            };
      };
  }

(* The only workload on the shard layer: partials, dedup, restart. *)
let sharded_crash =
  let scale = 0.1 in
  let cfg = base (Experiment.Comp_view Comp_rules.Non_unique) ~delay:0.0 scale in
  let mid = cfg.Experiment.feed.Feed.duration /. 2.0 in
  {
    name = "sharded-crash";
    scale;
    inputs = 3;
    template =
      {
        cfg with
        Experiment.shard =
          Some
            {
              (Experiment.default_shard ~shards:4) with
              Experiment.shard_crash_at = Some (1, mid);
            };
      };
  }

let all = [ comp_fanin; option_fanout; replicated_reads; sharded_crash ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Input [k] of seed [s]: a feed seed that depends on nothing else.  The
   population keeps the paper scenario's seed: drawing the composite
   memberships afresh per input moved the p99 recompute length by 10-15%
   between seeds, which would drown the changes the benchmark is for. *)
let input w ~seed k =
  let c = w.template in
  {
    c with
    Experiment.feed =
      { c.Experiment.feed with Feed.seed = (seed * 1_000_003) + (k * 7919) + 1 };
  }

let inputs w ~seed = List.init w.inputs (input w ~seed)

(* The workload without durability, replication or sharding: the config
   whose drive the traced run can replay call for call. *)
let plain (c : Experiment.config) =
  { c with Experiment.recovery = None; repl = None; shard = None }

let is_plain (c : Experiment.config) =
  c.Experiment.recovery = None && c.Experiment.repl = None
  && c.Experiment.shard = None

let view_table (c : Experiment.config) =
  match c.Experiment.rule with
  | Experiment.Comp_view _ -> "comp_prices"
  | Experiment.Option_view _ -> "option_prices"

(* Spans wrap each public set-up call; the untimed variant is the
   identity, so timed set-up and traced set-up run one code path. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

let install (c : Experiment.config) db h =
  match c.Experiment.rule with
  | Experiment.Comp_view v -> Comp_rules.install db h v ~delay:c.Experiment.delay
  | Experiment.Option_view v ->
    Option_rules.install db h v ~delay:c.Experiment.delay

let target (h : Pta_tables.handles) =
  {
    Strip_ingest.Import.stocks = h.Pta_tables.stocks;
    by_symbol = h.Pta_tables.stocks_by_symbol;
  }

(* The public set-up calls the entry point makes before its drive loop:
   create the db(s), populate, install the rules, generate the feed and
   submit it.  Returns the number of quotes submitted. *)
let setup { span } (c : Experiment.config) =
  let durable () = Strip_txn.Durable.create ~retain:1 () in
  match c.Experiment.shard with
  | Some s when s.Experiment.shards > 1 ->
    let n = s.Experiment.shards in
    let part = Strip_shard.Partitioner.create ~shards:n in
    let owner_sym = Strip_shard.Partitioner.shard_of_symbol part in
    let owner_comp = Strip_shard.Partitioner.shard_of_comp part in
    let dbs =
      span "pta.create_db" (fun () ->
          Array.init n (fun _ -> Experiment.mk_db ~durable:(durable ()) c))
    in
    let hs =
      span "pta.populate" (fun () ->
          Pta_tables.populate_sharded dbs ~owner_sym ~owner_comp
            ~feed:c.Experiment.feed c.Experiment.sizes)
    in
    span "pta.install" (fun () ->
        Array.iteri
          (fun sid db ->
            match c.Experiment.rule with
            | Experiment.Comp_view v ->
              Comp_rules.install_routed db hs.(sid) ~sid ~owner:owner_comp v
                ~delay:c.Experiment.delay
            | Experiment.Option_view _ -> install c db hs.(sid))
          dbs);
    let quotes = span "market.generate" (fun () -> Feed.generate c.Experiment.feed) in
    span "ingest.submit" (fun () ->
        Array.iteri
          (fun i db ->
            let mine =
              Array.of_seq
                (Seq.filter
                   (fun (q : Feed.quote) ->
                     owner_sym (Strip_market.Taq.symbol q.Feed.stock) = i)
                   (Array.to_seq quotes))
            in
            ignore (Strip_ingest.Import.replay db (target hs.(i)) mine))
          dbs);
    Array.length quotes
  | _ ->
    let db =
      span "pta.create_db" (fun () ->
          Experiment.mk_db
            ?durable:(Option.map (fun _ -> durable ()) c.Experiment.recovery)
            c)
    in
    let h =
      span "pta.populate" (fun () ->
          Pta_tables.populate db ~feed:c.Experiment.feed c.Experiment.sizes)
    in
    span "pta.install" (fun () -> install c db h);
    let quotes = span "market.generate" (fun () -> Feed.generate c.Experiment.feed) in
    span "ingest.submit" (fun () ->
        Strip_ingest.Import.replay db (target h) quotes)

(* What a workload's run sizes are, for the provenance record. *)
let describe (c : Experiment.config) =
  let f = c.Experiment.feed and s = c.Experiment.sizes in
  Printf.sprintf
    "%s delay=%gs stocks=%d duration=%gs target_updates=%d comps=%d \
     members=%d options=%d durable=%b replicas=%d shards=%d"
    (Experiment.label_of c.Experiment.rule)
    c.Experiment.delay f.Feed.n_stocks f.Feed.duration f.Feed.target_updates
    s.Pta_tables.n_comps s.Pta_tables.comp_members s.Pta_tables.n_options
    (c.Experiment.recovery <> None || c.Experiment.shard <> None)
    (match c.Experiment.repl with Some r -> r.Experiment.replicas | None -> 0)
    (match c.Experiment.shard with Some s -> s.Experiment.shards | None -> 1)
