(* The untraced run: end-to-end metrics through the public entry point.

   A run is a series of rounds.  Each round takes every seeded input
   through the reference job, the public set-up calls alone, and
   {!Strip_pta.Shard_exp.dispatch} (the entry point the CLI uses), each in
   a fresh process.  Rounds repeat until the time budget is spent, at
   least [min_rounds].

   Real time is rescaled to the reference host: a call's time is
   multiplied by [Measure.reference_s] over the mean of the reference
   times taken just before and just after its round slot.  An input's
   steady state is its median scaled entry-point time minus its median
   scaled set-up time; throughput is all inputs' quotes over all inputs'
   steady state.  Simulated metrics are deterministic per input, so they
   come from the first round, and every later round must reproduce them
   byte for byte. *)

open Strip_pta

let min_rounds = 3
let max_rounds = 200

(* One round slot of one input. *)
type pair = {
  setup : Measure.setup_sample;
  entry : Measure.entry_sample;
  ref_index : int;  (** reference time taken just before this slot *)
}

type input = {
  cfg : Experiment.config;
  mutable pairs : pair list;  (** newest first *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let run (w : Workloads.t) ~seed ~seconds =
  let inputs =
    List.map (fun cfg -> { cfg; pairs = [] }) (Workloads.inputs w ~seed)
  in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let refs = ref [] and n_refs = ref 0 in
  let take_reference () =
    refs := Measure.reference () :: !refs;
    incr n_refs
  in
  let start = Measure.now () in
  let rounds = ref 0 in
  let continue_ () =
    let elapsed = Measure.now () -. start in
    let per_round = elapsed /. float_of_int (max 1 !rounds) in
    !rounds < min_rounds
    || (!rounds < max_rounds && elapsed +. per_round <= seconds)
  in
  while !errors = [] && continue_ () do
    List.iteri
      (fun k inp ->
        let ref_index = !n_refs in
        take_reference ();
        let setup = Measure.setup_once inp.cfg in
        let entry = Measure.entry_once inp.cfg in
        (match inp.pairs with
        | [] -> (
          match Ledger.unmapped entry.Measure.ticks with
          | [] -> ()
          | names ->
            error "input %d: counters with no layer: %s" k
              (String.concat ", " names))
        | prev :: _ ->
          if Measure.signature prev.entry <> Measure.signature entry then
            error
              "input %d: simulated metrics or counters differ between rounds \
               (determinism self-check)"
              k);
        inp.pairs <- { setup; entry; ref_index } :: inp.pairs)
      inputs;
    incr rounds
  done;
  take_reference ();
  let ref_at = Array.of_list (List.rev !refs) in
  let scale p =
    Measure.reference_s
    /. ((ref_at.(p.ref_index) +. ref_at.(p.ref_index + 1)) /. 2.0)
  in
  let quotes inp = (List.hd inp.pairs).setup.Measure.quotes in
  let first inp = (List.hd (List.rev inp.pairs)).entry.Measure.m in
  (* correctness: every call of every input *)
  let attempted, failed =
    List.fold_left
      (fun acc inp ->
        List.fold_left
          (fun (a, f) p ->
            let m = p.entry.Measure.m in
            (a + Measure.attempted m, f + Measure.failures ~quotes:(quotes inp) m))
          acc inp.pairs)
      (0, 0) inputs
  in
  if failed > 0 then error "%d failed operations (see failed_ops_frac)" failed;
  let n_inputs = float_of_int (List.length inputs) in
  let sum f = List.fold_left (fun a inp -> a +. f inp) 0.0 inputs in
  let med f inp = Measure.median (List.map f inp.pairs) in
  let total_quotes = sum (fun inp -> float_of_int (quotes inp)) in
  let setup_s p = p.setup.Measure.setup_s and entry_s p = p.entry.Measure.entry_s in
  let scaled f p = f p *. scale p in
  let steady f g = sum (fun inp -> med f inp -. med g inp) in
  let words =
    steady
      (fun p -> p.entry.Measure.entry_words)
      (fun p -> p.setup.Measure.setup_words)
    /. total_quotes
  in
  let heap_mb =
    List.fold_left
      (fun a inp ->
        Float.max a (med (fun p -> float_of_int p.entry.Measure.top_heap_words) inp))
      0.0 inputs
    *. float_of_int (Sys.word_size / 8)
    /. 1e6
  in
  let ms = List.map first inputs in
  let sim f = Measure.mean (List.map f ms) in
  let metrics =
    [
      ("quotes_per_s", total_quotes /. steady (scaled entry_s) (scaled setup_s), "1/s");
      ("setup_s", sum (med (scaled setup_s)) /. n_inputs, "s");
      ("minor_words_per_quote", words, "words");
      ("peak_heap_mb", heap_mb, "MB");
      ("sim_cpu_util", sim (fun m -> 100.0 *. m.Experiment.utilization), "%");
      ( "staleness_p99_s",
        Measure.pooled_p99 ms ~name:"staleness_s"
          ~label:("table", Workloads.view_table w.Workloads.template),
        "s" );
      ( "recompute_p99_us",
        Measure.pooled_p99 ms ~name:"service_us" ~label:("class", "recompute"),
        "us" );
    ]
  in
  (* human-readable detail *)
  let times l = String.concat " " (List.rev_map (Printf.sprintf "%.4f") l) in
  Printf.printf "rounds: %d over %d input(s), %.1f s\n" !rounds
    (List.length inputs) (Measure.now () -. start);
  Printf.printf "  reference job s: %s\n" (times !refs);
  Printf.printf "  unscaled: quotes_per_s %.1f, setup_s %.4f\n"
    (total_quotes /. steady entry_s setup_s)
    (sum (med setup_s) /. n_inputs);
  List.iteri
    (fun k inp ->
      let m = first inp in
      Printf.printf
        "  input %d: %d quotes, %d recomputes, E[fanout] %.2f\n\
        \    set-up s: %s\n\
        \    entry s:  %s\n"
        k (quotes inp) m.Experiment.n_recompute m.Experiment.expected_fanout
        (times (List.map setup_s inp.pairs))
        (times (List.map entry_s inp.pairs)))
    inputs;
  if w.Workloads.template.Experiment.repl <> None then
    Printf.printf "  read_p99_ms = %.6g ms (simulated)\n"
      (sim (fun m ->
           match m.Experiment.repl with
           | Some { Experiment.read_latency = Some s; _ } ->
             1e3 *. s.Strip_obs.Histogram.p99
           | _ -> nan));
  Printf.printf "  failed_ops_frac = %.6g ratio (%d / %d)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  List.iter (fun e -> Printf.printf "ERROR: %s\n" e) (List.rev !errors);
  { correct = !errors = []; attempted; failed; metrics }
