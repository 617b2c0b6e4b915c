type entry = { mutable delta : float; created_at : float }

(* One source's stream of merged receipts: every [seq < hwm] has been
   merged, and [ooo] holds the merged ones above it (arrivals that
   overtook a dropped or delayed predecessor). *)
type stream = { mutable hwm : int; ooo : (int, unit) Hashtbl.t }

type t = {
  streams : (int, stream) Hashtbl.t;  (* by source shard *)
  pending : (Strip_relational.Value.t list, entry) Hashtbl.t;
  mutable order : Strip_relational.Value.t list list;
      (* first-arrival order, reversed *)
  mutable ooo_max : int;
  mutable offered : int;
  mutable dups : int;
  mutable merged : int;
  mutable fresh : int;
  mutable applied : int;
}

type verdict = Duplicate | Merged | Fresh

let create () =
  {
    streams = Hashtbl.create 8;
    pending = Hashtbl.create 16;
    order = [];
    ooo_max = 0;
    offered = 0;
    dups = 0;
    merged = 0;
    fresh = 0;
    applied = 0;
  }

let stream t src =
  match Hashtbl.find_opt t.streams src with
  | Some s -> s
  | None ->
    let s = { hwm = 0; ooo = Hashtbl.create 8 } in
    Hashtbl.replace t.streams src s;
    s

(* Record [seq] as merged; false if it already was. *)
let admit t s seq =
  if seq < s.hwm || Hashtbl.mem s.ooo seq then false
  else begin
    if seq = s.hwm then begin
      s.hwm <- seq + 1;
      while Hashtbl.mem s.ooo s.hwm do
        Hashtbl.remove s.ooo s.hwm;
        s.hwm <- s.hwm + 1
      done
    end
    else begin
      Hashtbl.replace s.ooo seq ();
      t.ooo_max <- max t.ooo_max (Hashtbl.length s.ooo)
    end;
    true
  end

let offer t ~src ~seq ~key ~delta ~created_at =
  t.offered <- t.offered + 1;
  if not (admit t (stream t src) seq) then begin
    t.dups <- t.dups + 1;
    Duplicate
  end
  else
    match Hashtbl.find_opt t.pending key with
    | Some e ->
      e.delta <- e.delta +. delta;
      t.merged <- t.merged + 1;
      Merged
    | None ->
      Hashtbl.replace t.pending key { delta; created_at };
      t.order <- key :: t.order;
      t.fresh <- t.fresh + 1;
      Fresh

let peek t ~key =
  match Hashtbl.find_opt t.pending key with
  | None -> None
  | Some e -> Some (e.delta, e.created_at)

let remove t ~key =
  if Hashtbl.mem t.pending key then begin
    Hashtbl.remove t.pending key;
    t.order <- List.filter (fun k -> k <> key) t.order;
    t.applied <- t.applied + 1
  end

let pending_keys t = List.rev t.order
let n_pending t = Hashtbl.length t.pending

let seen_state t =
  Hashtbl.fold
    (fun src s acc ->
      let ooo = Hashtbl.fold (fun seq () acc -> seq :: acc) s.ooo [] in
      (src, s.hwm, List.sort Int.compare ooo) :: acc)
    t.streams []
  |> List.sort compare

let max_out_of_order t = t.ooo_max

let pending_list t =
  List.map
    (fun key ->
      let e = Hashtbl.find t.pending key in
      (key, e.delta, e.created_at))
    (pending_keys t)

let restore t ~seen ~pending =
  Hashtbl.reset t.streams;
  Hashtbl.reset t.pending;
  t.order <- [];
  List.iter
    (fun (src, hwm, ooo) ->
      let s = stream t src in
      s.hwm <- hwm;
      List.iter (fun seq -> ignore (admit t s seq)) ooo)
    seen;
  List.iter
    (fun (key, delta, created_at) ->
      Hashtbl.replace t.pending key { delta; created_at };
      t.order <- key :: t.order)
    pending

let n_offered t = t.offered
let n_duplicates t = t.dups
let n_merged t = t.merged
let n_fresh t = t.fresh
let n_applied t = t.applied
