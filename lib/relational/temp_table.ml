let c_bound_append = Meter.counter "bound_append"

type provenance =
  | From_record of int * int
  | Computed of int

type row = int

(* A validated static map.  Tables built from one layout share it
   physically, so a prepared query checks a temporary table's shape with
   one pointer comparison. *)
type layout = {
  lschema : Schema.t;
  lnslots : int;
  lnmats : int;
  lprov : provenance array;
}

(* Columnar arena backing: tuple [i]'s source pointers live at
   [srcs.(i * nslots + s)] and its materialized cells at
   [mats.(i * nmats + m)].  Both arenas are allocated at the first append
   and grow geometrically, so building a transition or bound table
   allocates no per-row list cells and an empty table allocates no arena;
   a row handle is just the tuple's index. *)
type t = {
  tname : string;
  lay : layout;
  tschema : Schema.t;
  nslots : int;
  nmats : int;
  prov : provenance array;
  mutable srcs : Record.t array;  (* nrows * nslots slots in use *)
  mutable mats : Value.t array;  (* nrows * nmats cells in use *)
  mutable cap : int;  (* rows the arenas can hold *)
  mutable nrows : int;
  mutable is_retired : bool;
}

let initial_cap = 8

let layout ~schema ~nslots ~prov =
  if Array.length prov <> Schema.arity schema then
    invalid_arg "Temp_table.create: static map arity mismatch";
  let nmats =
    Array.fold_left
      (fun acc p -> match p with Computed _ -> acc + 1 | From_record _ -> acc)
      0 prov
  in
  let seen = Array.make (max nmats 1) false in
  Array.iter
    (fun p ->
      match p with
      | Computed i ->
        if i < 0 || i >= nmats || seen.(i) then
          invalid_arg "Temp_table.create: materialized cells not dense";
        seen.(i) <- true
      | From_record (s, _) ->
        if s < 0 || s >= nslots then
          invalid_arg "Temp_table.create: pointer slot out of range")
    prov;
  { lschema = schema; lnslots = nslots; lnmats = nmats; lprov = prov }

let of_layout ~name lay =
  {
    tname = name;
    lay;
    tschema = lay.lschema;
    nslots = lay.lnslots;
    nmats = lay.lnmats;
    prov = lay.lprov;
    srcs = [||];
    mats = [||];
    cap = 0;
    nrows = 0;
    is_retired = false;
  }

let create ~name ~schema ~nslots ~prov =
  of_layout ~name (layout ~schema ~nslots ~prov)

let create_materialized ~name ~schema =
  let prov = Array.init (Schema.arity schema) (fun i -> Computed i) in
  create ~name ~schema ~nslots:0 ~prov

let name t = t.tname
let schema t = t.tschema
let cardinal t = t.nrows
let slots t = t.nslots
let static_map t = Array.copy t.prov
let layout_of t = t.lay

let resize t cap =
  if t.nslots > 0 then begin
    let srcs = Array.make (cap * t.nslots) Record.dummy in
    Array.blit t.srcs 0 srcs 0 (t.nrows * t.nslots);
    t.srcs <- srcs
  end;
  if t.nmats > 0 then begin
    let mats = Array.make (cap * t.nmats) Value.Null in
    Array.blit t.mats 0 mats 0 (t.nrows * t.nmats);
    t.mats <- mats
  end;
  t.cap <- cap

let reserve t extra =
  let need = t.nrows + extra in
  if need > t.cap then resize t (max need (2 * t.cap))

(* Room for one more tuple, growing geometrically. *)
let grow_for_one t =
  if t.is_retired then invalid_arg "Temp_table.append: table is retired";
  if t.nrows = t.cap then resize t (max initial_cap (2 * t.cap))

let append t ~srcs ~mats =
  if Array.length srcs <> t.nslots || Array.length mats <> t.nmats then
    invalid_arg "Temp_table.append: slot/materialized arity mismatch";
  Meter.tick_c c_bound_append;
  grow_for_one t;
  let sb = t.nrows * t.nslots and mb = t.nrows * t.nmats in
  for s = 0 to t.nslots - 1 do
    let r = srcs.(s) in
    Record.pin r;
    t.srcs.(sb + s) <- r
  done;
  for m = 0 to t.nmats - 1 do
    t.mats.(mb + m) <- mats.(m)
  done;
  t.nrows <- t.nrows + 1

let append_mapped t ~srcs ~slot_of ~vals ~mat_of ~stamps =
  grow_for_one t;
  let sb = t.nrows * t.nslots and mb = t.nrows * t.nmats in
  for s = 0 to t.nslots - 1 do
    let r = srcs.(slot_of.(s)) in
    Record.pin r;
    t.srcs.(sb + s) <- r
  done;
  for m = 0 to t.nmats - 1 do
    let c = mat_of.(m) in
    t.mats.(mb + m) <- (if c >= 0 then vals.(c) else stamps.(-1 - c))
  done;
  t.nrows <- t.nrows + 1

let charge_bind t = Meter.tick_cn c_bound_append t.nrows

let append_values t values =
  if t.nslots <> 0 then
    invalid_arg "Temp_table.append_values: table has pointer slots";
  if Array.length values <> Array.length t.prov then
    invalid_arg "Temp_table.append: slot/materialized arity mismatch";
  Meter.tick_c c_bound_append;
  grow_for_one t;
  (* Write the values directly into the arena in materialized-cell order. *)
  let base = t.nrows * t.nmats in
  Array.iteri
    (fun col p ->
      match p with
      | Computed m -> t.mats.(base + m) <- values.(col)
      | From_record _ -> assert false)
    t.prov;
  t.nrows <- t.nrows + 1

let get t row col =
  match t.prov.(col) with
  | From_record (slot, off) ->
    Record.value t.srcs.((row * t.nslots) + slot) off
  | Computed m -> t.mats.((row * t.nmats) + m)

let fill_values t row buf =
  let sb = row * t.nslots and mb = row * t.nmats in
  for c = 0 to Array.length t.prov - 1 do
    buf.(c) <-
      (match t.prov.(c) with
      | From_record (slot, off) -> t.srcs.(sb + slot).Record.values.(off)
      | Computed m -> t.mats.(mb + m))
  done

let row_values t row =
  let buf = Array.make (Array.length t.prov) Value.Null in
  fill_values t row buf;
  buf

let fill_sources t row buf = Array.blit t.srcs (row * t.nslots) buf 0 t.nslots

let iter t f =
  for i = 0 to t.nrows - 1 do
    f i
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.nrows - 1 do
    acc := f !acc i
  done;
  !acc

let same_layout a b =
  a.lay == b.lay
  || Schema.equal_layout a.tschema b.tschema
     && a.nslots = b.nslots && a.prov = b.prov

let clear_arena t =
  if t.nslots > 0 then Array.fill t.srcs 0 (t.nrows * t.nslots) Record.dummy;
  t.nrows <- 0

let absorb dst src =
  if dst.is_retired then invalid_arg "Temp_table.absorb: destination retired";
  if same_layout dst src then begin
    (* Move rows by arena blit (pins move with them, so no repin/unpin). *)
    Meter.tick_cn c_bound_append src.nrows;
    reserve dst src.nrows;
    if dst.nslots > 0 then
      Array.blit src.srcs 0 dst.srcs (dst.nrows * dst.nslots)
        (src.nrows * src.nslots);
    if dst.nmats > 0 then
      Array.blit src.mats 0 dst.mats (dst.nrows * dst.nmats)
        (src.nrows * src.nmats);
    dst.nrows <- dst.nrows + src.nrows;
    clear_arena src
  end
  else if dst.nslots = 0 && Schema.equal_layout dst.tschema src.tschema then begin
    (* Fully-materialized destination (a recovered TCB rebuilt from the
       checkpoint/log, which carries no record pointers): copy the source
       rows by value.  append_values ticks "bound_append" per row, matching
       the fast path's metering. *)
    for i = 0 to src.nrows - 1 do
      append_values dst (row_values src i)
    done;
    Array.iter Record.unpin (Array.sub src.srcs 0 (src.nrows * src.nslots));
    clear_arena src
  end
  else
    invalid_arg
      (Printf.sprintf "Temp_table.absorb: layout mismatch between %s and %s"
         dst.tname src.tname)

let split t dest =
  for i = 0 to t.nrows - 1 do
    let d = dest i in
    if d == t || d.lay != t.lay then
      invalid_arg "Temp_table.split: destination is the source or of another layout";
    grow_for_one d;
    Array.blit t.srcs (i * t.nslots) d.srcs (d.nrows * d.nslots) t.nslots;
    Array.blit t.mats (i * t.nmats) d.mats (d.nrows * d.nmats) t.nmats;
    d.nrows <- d.nrows + 1
  done;
  clear_arena t

let copy t =
  let c = of_layout ~name:t.tname t.lay in
  reserve c t.nrows;
  for i = 0 to (t.nrows * t.nslots) - 1 do
    Record.pin t.srcs.(i)
  done;
  Array.blit t.srcs 0 c.srcs 0 (t.nrows * t.nslots);
  Array.blit t.mats 0 c.mats 0 (t.nrows * t.nmats);
  c.nrows <- t.nrows;
  c

let retire t =
  if not t.is_retired then begin
    t.is_retired <- true;
    for i = 0 to (t.nrows * t.nslots) - 1 do
      Record.unpin t.srcs.(i)
    done;
    clear_arena t
  end

let retired t = t.is_retired

let to_rows t =
  List.init t.nrows (fun i -> row_values t i)
