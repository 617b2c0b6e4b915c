let c_index_probe = Meter.counter "index_probe"
let c_index_update = Meter.counter "index_update"

type kind = Hash | Ordered

module Key = struct
  type t = Value.t list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: a', y :: b' -> Value.equal x y && equal a' b'
    | _ -> false

  (* Fold the per-value hashes instead of materializing a list of them;
     keys equal under [equal] hash equal because [Value.hash] already
     identifies numerically-equal Int/Float. *)
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 5381 k

  let compare a b =
    let rec loop a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: a', y :: b' ->
        let c = Value.compare x y in
        if c <> 0 then c else loop a' b'
    in
    loop a b
end

module KeyTbl = Hashtbl.Make (Key)

type store =
  | SHash of Record.t list ref KeyTbl.t
  | STree of (Key.t, Record.t list) Rbtree.t ref

type t = {
  iname : string;
  icols : int array;
  store : store;
  mutable count : int;
}

let create ?(size_hint = 256) ~name ~kind ~cols () =
  let store =
    match kind with
    | Hash -> SHash (KeyTbl.create (max 256 size_hint))
    | Ordered -> STree (ref Rbtree.empty)
  in
  { iname = name; icols = cols; store; count = 0 }

let name t = t.iname

let kind t = match t.store with SHash _ -> Hash | STree _ -> Ordered

let key_cols t = t.icols

let key_of_record t (r : Record.t) =
  match t.icols with
  | [| i |] -> [ Record.value r i ]
  | icols ->
    let n = Array.length icols in
    let rec build j =
      if j >= n then [] else Record.value r icols.(j) :: build (j + 1)
    in
    build 0

let cmp = Key.compare

let add t r =
  Meter.tick_c c_index_update;
  let key = key_of_record t r in
  (match t.store with
  | SHash h -> (
    (* posting lists live in mutable cells, so the steady-state add is a
       single probe with no rebinding *)
    match KeyTbl.find_opt h key with
    | Some cell -> cell := r :: !cell
    | None -> KeyTbl.add h key (ref [ r ]))
  | STree tr ->
    let cur = match Rbtree.find ~cmp key !tr with Some l -> l | None -> [] in
    tr := Rbtree.insert ~cmp key (r :: cur) !tr);
  t.count <- t.count + 1

(* [l] without the first posting of record [rid], order kept.
   @raise Not_found if no posting has that rid. *)
let rec drop_rid rid = function
  | [] -> raise Not_found
  | (x : Record.t) :: rest -> if x.rid = rid then rest else x :: drop_rid rid rest

let remove t r =
  Meter.tick_c c_index_update;
  let key = key_of_record t r in
  match t.store with
  | SHash h -> (
    match KeyTbl.find_opt h key with
    | None -> ()
    | Some cell -> (
      match drop_rid r.rid !cell with
      | exception Not_found -> ()
      | l' -> (
        t.count <- t.count - 1;
        match l' with [] -> KeyTbl.remove h key | _ -> cell := l')))
  | STree tr -> (
    match Rbtree.find ~cmp key !tr with
    | None -> ()
    | Some l -> (
      match drop_rid r.rid l with
      | exception Not_found -> ()
      | l' ->
        t.count <- t.count - 1;
        tr :=
          (match l' with
          | [] -> Rbtree.remove ~cmp key !tr
          | _ -> Rbtree.insert ~cmp key l' !tr)))

let same_key t (a : Record.t) (b : Record.t) =
  let n = Array.length t.icols in
  let rec loop j =
    j >= n
    || Value.equal (Record.value a t.icols.(j)) (Record.value b t.icols.(j))
       && loop (j + 1)
  in
  loop 0

(* When the key is unchanged this is [remove old_rec; add new_rec] fused
   into one probe: the old posting is dropped and the new version consed
   at the head, the order the pair produces, with the same two ticks. *)
let replace t ~old_rec ~new_rec =
  if not (same_key t old_rec new_rec) then begin
    remove t old_rec;
    add t new_rec
  end
  else begin
    Meter.tick_c c_index_update;
    Meter.tick_c c_index_update;
    let key = key_of_record t new_rec in
    let without l =
      match drop_rid old_rec.rid l with
      | l' -> l'
      | exception Not_found ->
        t.count <- t.count + 1;
        l
    in
    match t.store with
    | SHash h -> (
      match KeyTbl.find_opt h key with
      | Some cell -> cell := new_rec :: without !cell
      | None ->
        t.count <- t.count + 1;
        KeyTbl.add h key (ref [ new_rec ]))
    | STree tr ->
      let cur =
        match Rbtree.find ~cmp key !tr with
        | Some l -> without l
        | None ->
          t.count <- t.count + 1;
          []
      in
      tr := Rbtree.insert ~cmp key (new_rec :: cur) !tr
  end

let lookup t key =
  Meter.tick_c c_index_probe;
  match t.store with
  | SHash h -> (
    match KeyTbl.find_opt h key with Some cell -> !cell | None -> [])
  | STree tr -> (
    match Rbtree.find ~cmp key !tr with Some l -> l | None -> [])

let range t ?lo ?hi f =
  match t.store with
  | SHash _ -> invalid_arg "Index.range: not an ordered index"
  | STree tr ->
    Meter.tick_c c_index_probe;
    Rbtree.range ~cmp ?lo ?hi (fun _ l -> List.iter f (List.rev l)) !tr

let ordered_entries t =
  match t.store with
  | SHash _ -> invalid_arg "Index.ordered_entries: not an ordered index"
  | STree tr ->
    Meter.tick_c c_index_probe;
    let acc = ref [] in
    Rbtree.range ~cmp (fun k l -> acc := (k, List.rev l) :: !acc) !tr;
    List.rev !acc

let compare_keys = Key.compare

let cardinal t = t.count

let distinct_keys t =
  match t.store with
  | SHash h -> KeyTbl.length h
  | STree tr -> Rbtree.cardinal !tr
