open Strip_relational

let mk () =
  Table.create ~name:"t"
    ~schema:(Schema.of_list [ ("k", Value.TStr); ("v", Value.TInt) ])

let row k v = [| Value.Str k; Value.Int v |]

let contents tb =
  List.map
    (fun r -> (Value.to_string r.(0), Value.to_int r.(1)))
    (Table.to_rows tb)

let test_insert_iterate () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  Alcotest.(check int) "cardinal" 2 (Table.cardinal tb);
  Alcotest.(check (list (pair string int))) "order" [ ("a", 1); ("b", 2) ]
    (contents tb)

let test_insert_validates () =
  let tb = mk () in
  match Table.insert tb [| Value.Int 1; Value.Int 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "schema violation accepted"

let test_update_versioning () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  Record.reset_reclaimed ();
  let r' = Table.update tb r (row "a" 2) in
  Alcotest.(check bool) "old retired" false r.Record.live;
  Alcotest.(check bool) "new live" true r'.Record.live;
  Alcotest.(check bool) "fresh rid" true (r'.Record.rid <> r.Record.rid);
  Alcotest.(check int) "old value immutable" 1 (Value.to_int (Record.value r 1));
  Alcotest.(check int) "unpinned old reclaimed immediately" 1
    (Record.reclaimed_count ());
  Alcotest.(check (list (pair string int))) "table sees new" [ ("a", 2) ]
    (contents tb)

let test_update_keeps_position () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let b = Table.insert tb (row "b" 2) in
  ignore (Table.insert tb (row "c" 3));
  ignore (Table.update tb b (row "b" 20));
  Alcotest.(check (list (pair string int)))
    "in place" [ ("a", 1); ("b", 20); ("c", 3) ] (contents tb)

let test_pinned_old_version_survives () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  Record.pin r;
  Record.reset_reclaimed ();
  ignore (Table.update tb r (row "a" 2));
  Alcotest.(check int) "not reclaimed while pinned" 0 (Record.reclaimed_count ());
  Alcotest.(check int) "pre-image readable" 1 (Value.to_int (Record.value r 1));
  Record.unpin r;
  Alcotest.(check int) "reclaimed on last unpin" 1 (Record.reclaimed_count ())

let test_update_nonresident_rejected () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  Table.delete tb r;
  match Table.update tb r (row "a" 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "update of deleted record accepted"

let test_delete () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  ignore (Table.insert tb (row "b" 2));
  Table.delete tb r;
  Alcotest.(check (list (pair string int))) "gone" [ ("b", 2) ] (contents tb);
  Alcotest.(check bool) "retired" false r.Record.live

let test_index_maintenance () =
  let tb = mk () in
  let idx = Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "k" ] in
  let r = Table.insert tb (row "a" 1) in
  ignore (Table.insert tb (row "a" 2));
  Alcotest.(check int) "two under a" 2
    (List.length (Index.lookup idx [ Value.Str "a" ]));
  let r' = Table.update tb r (row "z" 1) in
  Alcotest.(check int) "moved out of a" 1
    (List.length (Index.lookup idx [ Value.Str "a" ]));
  Alcotest.(check int) "into z" 1 (List.length (Index.lookup idx [ Value.Str "z" ]));
  Table.delete tb r';
  Alcotest.(check int) "delete removes posting" 0
    (List.length (Index.lookup idx [ Value.Str "z" ]))

let test_index_backfill_and_lookup_by_cols () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let idx = Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "k" ] in
  Alcotest.(check int) "existing rows indexed" 1
    (List.length (Index.lookup idx [ Value.Str "a" ]));
  Alcotest.(check bool) "index_on finds it" true
    (Table.index_on tb [ "k" ] <> None);
  Alcotest.(check bool) "wrong cols" true (Table.index_on tb [ "v" ] = None);
  match Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "v" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate index name accepted"

let test_full_cursor () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  let c = Table.open_cursor tb in
  let fetched = ref [] in
  let rec loop () =
    match Table.fetch c with
    | Some r ->
      fetched := Value.to_string (Record.value r 0) :: !fetched;
      loop ()
    | None -> ()
  in
  loop ();
  Table.close_cursor c;
  Alcotest.(check (list string)) "scan order" [ "a"; "b" ] (List.rev !fetched);
  match Table.fetch c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fetch on closed cursor accepted"

let test_cursor_update_delete () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  ignore (Table.insert tb (row "c" 3));
  let c = Table.open_cursor tb in
  (* bump every row through the cursor, delete "b" *)
  let rec loop () =
    match Table.fetch c with
    | None -> ()
    | Some r ->
      if Value.to_string (Record.value r 0) = "b" then Table.cursor_delete c
      else
        ignore
          (Table.cursor_update c
             [| Record.value r 0; Value.add (Record.value r 1) (Value.Int 10) |]);
      loop ()
  in
  loop ();
  Table.close_cursor c;
  Alcotest.(check (list (pair string int)))
    "updated through cursor" [ ("a", 11); ("c", 13) ] (contents tb)

let test_index_cursor () =
  let tb = mk () in
  let idx = Table.create_index tb ~name:"by_k" ~kind:Index.Hash ~cols:[ "k" ] in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  ignore (Table.insert tb (row "a" 3));
  let c = Table.open_index_cursor tb idx [ Value.Str "a" ] in
  let n = ref 0 in
  let rec loop () =
    match Table.fetch c with
    | Some _ ->
      incr n;
      loop ()
    | None -> ()
  in
  loop ();
  Table.close_cursor c;
  Alcotest.(check int) "matches" 2 !n

let test_cursor_update_without_fetch () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let c = Table.open_cursor tb in
  match Table.cursor_update c (row "a" 9) with
  | exception Invalid_argument _ -> Table.close_cursor c
  | _ -> Alcotest.fail "update without current record accepted"

let test_clear () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  ignore (Table.insert tb (row "b" 2));
  Table.clear tb;
  Alcotest.(check int) "empty" 0 (Table.cardinal tb);
  ignore (Table.insert tb (row "c" 3));
  Alcotest.(check (list (pair string int))) "usable after clear" [ ("c", 3) ]
    (contents tb)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_superseded_version_rejected () =
  let tb = mk () in
  let r = Table.insert tb (row "a" 1) in
  let r' = Table.update tb r (row "a" 2) in
  (match Table.update tb r (row "a" 3) with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "update says not live" true
      (contains msg "not live here")
  | _ -> Alcotest.fail "update of superseded version accepted");
  (match Table.delete tb r with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "delete says not live" true
      (contains msg "not live here")
  | () -> Alcotest.fail "delete of superseded version accepted");
  Alcotest.(check bool) "live version untouched" true r'.Record.live;
  Alcotest.(check (list (pair string int))) "table unchanged" [ ("a", 2) ]
    (contents tb)

let test_scan_order_after_updates () =
  let tb = mk () in
  let rs = List.map (fun (k, v) -> Table.insert tb (row k v))
      [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ] in
  let c' = Table.update tb (List.nth rs 2) (row "c" 30) in
  ignore (Table.update tb (List.nth rs 0) (row "a" 10));
  ignore (Table.update tb c' (row "c" 300));
  Table.delete tb (List.nth rs 1);
  ignore (Table.insert tb (row "e" 5));
  Alcotest.(check (list (pair string int)))
    "versions keep their row's place"
    [ ("a", 10); ("c", 300); ("d", 4); ("e", 5) ]
    (contents tb)

(* A row keeps its list node across versions: a scan positioned just
   before a row that another call updates fetches the new version and
   still reaches the end of the table. *)
let test_cursor_survives_update_of_next_row () =
  let tb = mk () in
  ignore (Table.insert tb (row "a" 1));
  let b = Table.insert tb (row "b" 2) in
  ignore (Table.insert tb (row "c" 3));
  let c = Table.open_cursor tb in
  ignore (Table.fetch c);
  ignore (Table.update tb b (row "b" 20));
  let rec rest acc =
    match Table.fetch c with
    | Some r ->
      rest ((Value.to_string (Record.value r 0), Value.to_int (Record.value r 1)) :: acc)
    | None -> List.rev acc
  in
  let fetched = rest [] in
  Table.close_cursor c;
  Alcotest.(check (list (pair string int))) "rest of the scan"
    [ ("b", 20); ("c", 3) ] fetched

(* Random DML on a table with one hash and one ordered index: after every
   step each index matches a shadow index fed by [remove] + [add], posting
   order included, and an update ticks ["index_update"] twice per index. *)
type dml =
  | Ins of int * int
  | Upd of int * int option * int option
      (* row pick, new k, new v; None keeps that index's key *)
  | Del of int

let dml_gen =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (3, map2 (fun k v -> Ins (k, v)) (int_bound 3) (int_bound 3));
           ( 5,
             map3
               (fun p k v -> Upd (p, k, v))
               (int_bound 50)
               (option (int_bound 3))
               (option (int_bound 3)) );
           (2, map (fun p -> Del p) (int_bound 50));
         ]))

let prop_index_replace_matches_remove_add =
  QCheck2.Test.make ~name:"index replace = remove + add, in order" ~count:300
    dml_gen (fun ops ->
      let schema =
        Schema.of_list [ ("k", Value.TStr); ("v", Value.TInt); ("w", Value.TInt) ]
      in
      let tb = Table.create ~name:"t" ~schema in
      let hidx = Table.create_index tb ~name:"h" ~kind:Index.Hash ~cols:[ "k" ] in
      let oidx = Table.create_index tb ~name:"o" ~kind:Index.Ordered ~cols:[ "v" ] in
      let shadow_h = Index.create ~name:"h" ~kind:Index.Hash ~cols:[| 0 |] () in
      let shadow_o = Index.create ~name:"o" ~kind:Index.Ordered ~cols:[| 1 |] () in
      let shadows = [ shadow_h; shadow_o ] in
      let key k = Value.Str (string_of_int k) in
      let live = ref [||] in  (* current versions, scan order *)
      let w = ref 0 in
      let rids l = List.map (fun (r : Record.t) -> r.rid) l in
      let check () =
        List.iter
          (fun (ix, sh) ->
            if Index.cardinal ix <> Index.cardinal sh then
              QCheck2.Test.fail_report "cardinal differs";
            if Index.distinct_keys ix <> Index.distinct_keys sh then
              QCheck2.Test.fail_report "distinct_keys differs")
          [ (hidx, shadow_h); (oidx, shadow_o) ];
        for k = 0 to 3 do
          if rids (Index.lookup hidx [ key k ]) <> rids (Index.lookup shadow_h [ key k ])
          then QCheck2.Test.fail_reportf "hash postings differ at key %d" k;
          if rids (Index.lookup oidx [ Value.Int k ])
             <> rids (Index.lookup shadow_o [ Value.Int k ])
          then QCheck2.Test.fail_reportf "ordered postings differ at key %d" k
        done;
        let entries ix =
          List.map (fun (k, l) -> (k, rids l)) (Index.ordered_entries ix)
        in
        if entries oidx <> entries shadow_o then
          QCheck2.Test.fail_report "ordered entries differ";
        let scan = ref [] in
        Table.iter tb (fun r -> scan := r :: !scan);
        if rids (List.rev !scan) <> rids (Array.to_list !live) then
          QCheck2.Test.fail_report "scan order differs"
      in
      List.iter
        (fun op ->
          (match op with
          | Ins (k, v) ->
            incr w;
            let r = Table.insert tb [| key k; Value.Int v; Value.Int !w |] in
            List.iter (fun sh -> Index.add sh r) shadows;
            live := Array.append !live [| r |]
          | Upd (p, k, v) when Array.length !live > 0 ->
            let i = p mod Array.length !live in
            let old = !live.(i) in
            incr w;
            let k = match k with Some k -> key k | None -> Record.value old 0 in
            let v = match v with Some v -> Value.Int v | None -> Record.value old 1 in
            let before = Meter.get "index_update" in
            let r = Table.update tb old [| k; v; Value.Int !w |] in
            if Meter.get "index_update" - before <> 4 then
              QCheck2.Test.fail_report "update did not tick index_update twice per index";
            List.iter
              (fun sh ->
                Index.remove sh old;
                Index.add sh r)
              shadows;
            !live.(i) <- r
          | Del p when Array.length !live > 0 ->
            let i = p mod Array.length !live in
            let r = !live.(i) in
            Table.delete tb r;
            List.iter (fun sh -> Index.remove sh r) shadows;
            live :=
              Array.of_list
                (List.filteri (fun j _ -> j <> i) (Array.to_list !live))
          | Upd _ | Del _ -> ());
          if Table.cardinal tb <> Array.length !live then
            QCheck2.Test.fail_report "cardinal differs from live rows";
          check ())
        ops;
      true)

let suite =
  [
    ( "table",
      [
        Alcotest.test_case "insert and iterate" `Quick test_insert_iterate;
        Alcotest.test_case "insert validates schema" `Quick test_insert_validates;
        Alcotest.test_case "update creates a version" `Quick test_update_versioning;
        Alcotest.test_case "update keeps list position" `Quick test_update_keeps_position;
        Alcotest.test_case "pinned pre-image survives" `Quick test_pinned_old_version_survives;
        Alcotest.test_case "update of retired record rejected" `Quick test_update_nonresident_rejected;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "index maintenance on DML" `Quick test_index_maintenance;
        Alcotest.test_case "index backfill / lookup" `Quick test_index_backfill_and_lookup_by_cols;
        Alcotest.test_case "full-scan cursor" `Quick test_full_cursor;
        Alcotest.test_case "cursor update/delete" `Quick test_cursor_update_delete;
        Alcotest.test_case "index cursor" `Quick test_index_cursor;
        Alcotest.test_case "cursor update needs a fetch" `Quick test_cursor_update_without_fetch;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "superseded version rejected" `Quick
          test_superseded_version_rejected;
        Alcotest.test_case "scan order after updates" `Quick
          test_scan_order_after_updates;
        Alcotest.test_case "cursor survives update of next row" `Quick
          test_cursor_survives_update_of_next_row;
        QCheck_alcotest.to_alcotest prop_index_replace_matches_remove_add;
      ] );
  ]
