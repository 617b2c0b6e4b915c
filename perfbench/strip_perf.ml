(* strip_perf: one workload of the repository benchmark.

     strip_perf.exe --workload NAME --seed N --seconds S --trace 0|1
     strip_perf.exe --list

   Prints a provenance line, human-readable detail and every metric by
   name and unit, then, as its last line, one JSON object with the keys
   correct / attempted / failed / metrics.  [--trace 0] reports the
   end-to-end metrics, [--trace 1] the per-layer ones (see README.md).
   Exits 1 if any correctness check fails, 2 on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: strip_perf.exe --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let provenance (w : Workloads.t) ~seed ~seconds ~trace =
  let g = Gc.get () in
  let fields =
    [
      ("workload", json_string w.Workloads.name);
      ("seed", string_of_int seed);
      ("seconds", json_float seconds);
      ("trace", string_of_int trace);
      ("argv", json_string (String.concat " " (Array.to_list Sys.argv)));
      ("ocaml", json_string Sys.ocaml_version);
      ( "gc",
        json_string
          (Printf.sprintf "minor_heap_size=%d space_overhead=%d" g.Gc.minor_heap_size
             g.Gc.space_overhead) );
      ("scale", Printf.sprintf "%g" w.Workloads.scale);
      ( "inputs",
        "["
        ^ String.concat ", "
            (List.map
               (fun c ->
                 json_string
                   (Printf.sprintf "%s feed_seed=%d sizes_seed=%d"
                      (Workloads.describe c)
                      c.Strip_pta.Experiment.feed.Strip_market.Feed.seed
                      c.Strip_pta.Experiment.sizes.Strip_pta.Pta_tables.seed))
               (Workloads.inputs w ~seed))
        ^ "]" );
    ]
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | [ "--list" ] ->
      List.iter (fun w -> print_endline w.Workloads.name) Workloads.all;
      exit 0
    | "--workload" :: v :: rest -> workload := Workloads.find v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0.0 ->
    Printf.printf "# provenance %s\n%!" (provenance w ~seed ~seconds ~trace);
    let r =
      if trace = 0 then Timed.run w ~seed ~seconds else Traced.run w ~seed ~seconds
    in
    let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) r.Timed.metrics in
    List.iter
      (fun (name, v, unit) -> Printf.printf "%-36s %18.6f %s\n" name v unit)
      r.Timed.metrics;
    if not finite then print_endline "ERROR: a metric is not a finite number";
    let correct = r.Timed.correct && finite in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      correct (max 1 r.Timed.attempted) r.Timed.failed
      (String.concat ", "
         (List.map
            (fun (name, v, unit) ->
              Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
                (json_float v) (json_string unit))
            r.Timed.metrics));
    exit (if correct then 0 else 1)
  | _ -> usage ()
