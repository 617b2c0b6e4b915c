(* Shared measurement helpers: the clock, order statistics, one timed call
   of the public entry point, and the correctness verdict of its result. *)

open Strip_pta

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an unsorted array. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Run [f] in a forked child and return its result.  Every sample starts
   from the state a fresh CLI process has (empty heap, ids at their origin,
   no caches warmed by earlier samples) and leaves nothing behind in the
   parent.  [f]'s result must be plain data (it crosses a pipe). *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let code =
      match f () with
      | r ->
        Marshal.to_channel oc (Ok r : ('a, string) result) [];
        0
      | exception e ->
        Marshal.to_channel oc (Error (Printexc.to_string e) : ('a, string) result) [];
        1
    in
    close_out oc;
    flush_all ();
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "no result"
    in
    close_in ic;
    let rec wait () =
      match Unix.waitpid [] pid with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | _, Unix.WEXITED _ -> ()
      | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        failwith (Printf.sprintf "sample process killed by signal %d" n)
    in
    wait ();
    (match r with Ok v -> v | Error msg -> failwith ("sample failed: " ^ msg))

(* A fixed job on the OCaml standard library alone (hashing, allocation,
   pointer chasing, a sort, then copies through two 16 MiB buffers so
   memory-bandwidth contention shows as well), timed in a fresh process.
   Its time tracks the host's current speed and nothing in the program
   under test, so dividing a call's time by the reference time next to it
   cancels the host's drift (see README.md). *)
let reference () =
  in_child (fun () ->
      let t0 = now () in
      let n = 40_000 in
      let tbl = Hashtbl.create 1024 in
      for i = 0 to n - 1 do
        Hashtbl.replace tbl (string_of_int (i * 7919 mod 1_000_003)) (ref (float_of_int i))
      done;
      let acc = ref 0.0 in
      for r = 0 to 4 do
        for i = 0 to n - 1 do
          match Hashtbl.find_opt tbl (string_of_int (((i * 7919) + r) mod 1_000_003)) with
          | Some x ->
            x := !x +. 1.0;
            acc := !acc +. !x
          | None -> ()
        done
      done;
      let l = List.init n (fun i -> float_of_int (i * 7919 mod n)) in
      ignore (Sys.opaque_identity (List.sort compare l, !acc));
      let size = 16 lsl 20 in
      let a = Bytes.make size 'a' and b = Bytes.create size in
      for _ = 1 to 4 do
        Bytes.blit a 0 b 0 size;
        Bytes.blit b 0 a 0 size
      done;
      ignore (Sys.opaque_identity (a, b));
      now () -. t0)

(* Real seconds on a host where {!reference} takes this long. *)
let reference_s = 0.09

type setup_sample = { quotes : int; setup_s : float; setup_words : float }

let setup_once (c : Experiment.config) =
  in_child (fun () ->
      let w0 = Gc.minor_words () in
      let quotes, setup_s =
        time (fun () -> Workloads.setup Workloads.no_span c)
      in
      { quotes; setup_s; setup_words = Gc.minor_words () -. w0 })

type entry_sample = {
  m : Experiment.metrics;
  entry_s : float;
  entry_words : float;
  majors : int;  (** major collections during the call *)
  top_heap_words : int;  (** the process's heap high-water mark after it *)
  ticks : (string * int) list;  (** meter counters after the call *)
}

(* One call of the entry point the CLI uses, in a fresh process. *)
let entry_once (c : Experiment.config) =
  in_child (fun () ->
      let g0 = Gc.quick_stat () in
      let w0 = Gc.minor_words () in
      let m, entry_s = time (fun () -> Shard_exp.dispatch c) in
      let entry_words = Gc.minor_words () -. w0 in
      let g1 = Gc.quick_stat () in
      {
        m;
        entry_s;
        entry_words;
        majors = g1.Gc.major_collections - g0.Gc.major_collections;
        top_heap_words = g1.Gc.top_heap_words;
        ticks = Ledger.counters ();
      })

(* Everything simulated a run reports, as one string: the determinism
   self-check compares it byte for byte across calls on one input. *)
let signature e =
  let open Strip_obs in
  String.concat "\n"
    [
      Json.to_string (Report.metrics_json e.m);
      Json.to_string (Metrics.json_of_rows ~buckets:true e.m.Experiment.registry);
      String.concat ","
        (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) e.ticks);
    ]

(* Failed operations of one call: dead-lettered and shed tasks, recovery
   and cross-shard audit divergences, a failed or skipped verification,
   and quotes that never ran. *)
let failures ~quotes (m : Experiment.metrics) =
  let audit =
    match m.Experiment.recovery with
    | Some r ->
      r.Experiment.audit_divergences
      + if r.Experiment.audit_clean || r.Experiment.audit_divergences > 0 then 0
        else 1
    | None -> 0
  in
  let cross =
    match m.Experiment.shard with
    | Some s -> s.Experiment.cross_divergences
    | None -> 0
  in
  let verify = match m.Experiment.verified with Some true -> 0 | _ -> 1 in
  m.Experiment.n_dead_letters + m.Experiment.n_sheds + audit + cross + verify
  + abs (quotes - m.Experiment.n_updates)

let attempted (m : Experiment.metrics) =
  m.Experiment.n_updates + m.Experiment.n_recompute

(* p99 of one registry histogram pooled over several calls (and over the
   shards of a sharded call): bucket counts are summed, and the rank is
   interpolated geometrically inside its log bucket.  The program's own
   p99 is the bucket midpoint, which moves in 19% steps; the interpolated
   value moves smoothly, so it stays steady across seeds.  [nan] when no
   row matches, which fails the run. *)
let pooled_p99 ms ~name ~label =
  let open Strip_obs in
  let counts = Hashtbl.create 64 and top = ref 0.0 in
  List.iter
    (fun (m : Experiment.metrics) ->
      List.iter
        (fun (r : Metrics.row) ->
          match r.Metrics.datum with
          | Metrics.Histo (s, buckets)
            when r.Metrics.name = name && List.mem label r.Metrics.labels ->
            top := Float.max !top s.Histogram.max;
            List.iter
              (fun (lo, hi, n) ->
                let k = (lo, hi) in
                Hashtbl.replace counts k
                  (n + Option.value (Hashtbl.find_opt counts k) ~default:0))
              buckets
          | _ -> ())
        m.Experiment.registry)
    ms;
  let buckets =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 buckets in
  let rank = float_of_int total *. 0.99 in
  let rec walk seen = function
    | [] -> nan
    | ((lo, hi), n) :: rest ->
      let upto = seen +. float_of_int n in
      if upto < rank then walk upto rest
      else if lo <= 0.0 then 0.0
      else
        Float.min !top (lo *. ((hi /. lo) ** ((rank -. seen) /. float_of_int n)))
  in
  if total = 0 then nan else walk 0.0 buckets
