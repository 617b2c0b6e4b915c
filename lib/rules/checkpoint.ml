open Strip_relational
open Strip_txn

type table_snap = {
  tname : string;
  cols : (string * Value.ty) list;
  indexes : (string * Index.kind * string list) list;
  rows : Value.t array list;
}

type queue_entry = {
  qfunc : string;
  qkey : Value.t list;
  qrelease_time : float;
  qcreated_at : float;
  qbound : Wal.bound_rows;
}

type t = {
  taken_at : float;
  wal_lsn : int;
  tables : table_snap list;  (* catalog creation order *)
  views : (string * string) list;  (* (name, sql), declaration order *)
  queue : queue_entry list;  (* task-id order *)
}

let snap_cols tb =
  List.map (fun (c : Schema.column) -> (c.Schema.cname, c.Schema.cty))
    (Schema.columns (Table.schema tb))

let snap_indexes tb =
  let schema = Table.schema tb in
  List.map
    (fun ix ->
      let names =
        Array.to_list
          (Array.map
             (fun pos -> (Schema.col schema pos).Schema.cname)
             (Index.key_cols ix))
      in
      (Index.name ix, Index.kind ix, names))
    (Table.indexes tb)

let snap_table tb =
  {
    tname = Table.name tb;
    cols = snap_cols tb;
    indexes = snap_indexes tb;
    rows = Table.to_rows tb;
  }

let snap_queue reg =
  List.map
    (fun ((func, key), (task : Task.t)) ->
      {
        qfunc = func;
        qkey = key;
        qrelease_time = task.Task.release_time;
        qcreated_at = task.Task.created_at;
        qbound =
          List.map
            (fun (name, tmp) -> (name, Temp_table.to_rows tmp))
            task.Task.bound;
      })
    (Unique.entries reg)

let capture ~cat ~views ~reg ~now ~wal_lsn =
  {
    taken_at = now;
    wal_lsn;
    tables = List.map snap_table (Catalog.tables cat);
    views;
    queue = snap_queue reg;
  }

let queue_rows queue =
  List.fold_left
    (fun acc q ->
      List.fold_left (fun acc (_, rows) -> acc + List.length rows) acc q.qbound)
    0 queue

let total_rows t =
  List.fold_left (fun acc ts -> acc + List.length ts.rows) 0 t.tables
  + queue_rows t.queue

(* Rebuild tables into a fresh catalog: raw inserts (no locking or
   logging — recovery runs outside any transaction), indexes built after
   the rows so each is populated in one pass. *)
let restore_tables t cat =
  List.iter
    (fun ts ->
      let tb =
        Catalog.create_table cat ~name:ts.tname ~schema:(Schema.of_list ts.cols)
      in
      List.iter (fun row -> ignore (Table.insert tb row)) ts.rows;
      List.iter
        (fun (name, kind, cols) -> ignore (Table.create_index tb ~name ~kind ~cols))
        ts.indexes)
    t.tables

(* ------------------------------------------------------------------ *)
(* Serialization.                                                       *)

let put_kind b = function
  | Index.Hash -> Codec.put_u8 b 0
  | Index.Ordered -> Codec.put_u8 b 1

let get_kind r =
  match Codec.get_u8 r with
  | 0 -> Index.Hash
  | 1 -> Index.Ordered
  | tag -> raise (Codec.Decode_error (Printf.sprintf "index kind %d" tag))

let put_table_head b ~tname ~cols ~indexes =
  Codec.put_string b tname;
  Codec.put_list b
    (fun b (name, ty) ->
      Codec.put_string b name;
      Codec.put_ty b ty)
    cols;
  Codec.put_list b
    (fun b (name, kind, cols) ->
      Codec.put_string b name;
      put_kind b kind;
      Codec.put_list b Codec.put_string cols)
    indexes

let put_table_snap b ts =
  put_table_head b ~tname:ts.tname ~cols:ts.cols ~indexes:ts.indexes;
  Codec.put_list b Codec.put_values ts.rows

(* [put_table_snap (snap_table tb)] straight off the live table, without
   materializing the row copies. *)
let put_table b tb =
  put_table_head b ~tname:(Table.name tb) ~cols:(snap_cols tb)
    ~indexes:(snap_indexes tb);
  Codec.put_u32 b (Table.cardinal tb);
  Table.iter tb (fun r -> Codec.put_values b r.Record.values)

let get_table_snap r =
  let tname = Codec.get_string r in
  let cols =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let ty = Codec.get_ty r in
        (name, ty))
  in
  let indexes =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let kind = get_kind r in
        let cols = Codec.get_list r Codec.get_string in
        (name, kind, cols))
  in
  let rows = Codec.get_list r Codec.get_values in
  { tname; cols; indexes; rows }

let put_queue_entry b q =
  Codec.put_string b q.qfunc;
  Codec.put_list b Codec.put_value q.qkey;
  Codec.put_float b q.qrelease_time;
  Codec.put_float b q.qcreated_at;
  Codec.put_list b
    (fun b (name, rows) ->
      Codec.put_string b name;
      Codec.put_list b Codec.put_values rows)
    q.qbound

let get_queue_entry r =
  let qfunc = Codec.get_string r in
  let qkey = Codec.get_list r Codec.get_value in
  let qrelease_time = Codec.get_float r in
  let qcreated_at = Codec.get_float r in
  let qbound =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let rows = Codec.get_list r Codec.get_values in
        (name, rows))
  in
  { qfunc; qkey; qrelease_time; qcreated_at; qbound }

let put_views b views =
  Codec.put_list b
    (fun b (name, sql) ->
      Codec.put_string b name;
      Codec.put_string b sql)
    views

let encode t =
  let b = Buffer.create 65536 in
  Codec.put_float b t.taken_at;
  Codec.put_int b t.wal_lsn;
  Codec.put_list b put_table_snap t.tables;
  put_views b t.views;
  Codec.put_list b put_queue_entry t.queue;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Incremental images.                                                  *)

(* One table's segment of the previous image.  A table is reused only
   if it is the very same table (a dropped and re-created namesake is a
   different value) at the same mutation generation. *)
type slice = { tb : Table.t; gen : int; seg : Durable.segment }

type cache = {
  mutable slices : slice list;
  scratch : Buffer.t;  (* reused by every segment encoded *)
}

let create_cache () = { slices = []; scratch = Buffer.create 65536 }
let cached_tables c = List.length c.slices

let encode_segment c put =
  Buffer.clear c.scratch;
  put c.scratch;
  Durable.segment (Buffer.contents c.scratch)

let encode_catalog c ~cat ~views ~reg ~now ~wal_lsn =
  let tables = Catalog.tables cat in
  let header =
    encode_segment c (fun b ->
        Codec.put_float b now;
        Codec.put_int b wal_lsn;
        Codec.put_u32 b (List.length tables))
  in
  let slices =
    List.map
      (fun tb ->
        let gen = Table.generation tb in
        let seg =
          match List.find_opt (fun s -> s.tb == tb) c.slices with
          | Some s when s.gen = gen -> s.seg
          | _ -> encode_segment c (fun b -> put_table b tb)
        in
        { tb; gen; seg })
      tables
  in
  let queue = snap_queue reg in
  let trailer =
    encode_segment c (fun b ->
        put_views b views;
        Codec.put_list b put_queue_entry queue)
  in
  c.slices <- slices;
  let rows =
    List.fold_left (fun acc tb -> acc + Table.cardinal tb) 0 tables
    + queue_rows queue
  in
  ((header :: List.map (fun s -> s.seg) slices) @ [ trailer ], rows)

let decode s =
  let r = Codec.reader s in
  let taken_at = Codec.get_float r in
  let wal_lsn = Codec.get_int r in
  let tables = Codec.get_list r get_table_snap in
  let views =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let sql = Codec.get_string r in
        (name, sql))
  in
  let queue = Codec.get_list r get_queue_entry in
  if Codec.remaining r > 0 then
    raise (Codec.Decode_error "trailing bytes in checkpoint image");
  { taken_at; wal_lsn; tables; views; queue }
