module Db = Lsm_core.Db
module Write_batch = Lsm_core.Write_batch
module Codec = Lsm_util.Codec

type index_spec = {
  index_name : string;
  extract : key:string -> value:string -> string list;
}

type t = { store : Db.t; indexes : index_spec list }

(* Namespace: records under 'd', composite index entries under 'i'.
   Composite key: 'i' | lp(name) | lp(term) | primary-key — all entries of
   one (index, term) share an exact byte prefix, so term lookup is one
   prefix scan; the primary key is recovered by decoding the prefix off. *)

let record_key k = "d" ^ k

let composite ~name ~term pkey =
  let b = Buffer.create (String.length name + String.length term + String.length pkey + 6) in
  Buffer.add_char b 'i';
  Codec.put_lp_string b name;
  Codec.put_lp_string b term;
  Buffer.add_string b pkey;
  Buffer.contents b

let term_prefix ~name ~term = composite ~name ~term ""

let pkey_of_composite composite_key =
  let r = Codec.reader composite_key in
  let tag = Codec.get_u8 r in
  if tag <> Char.code 'i' then raise (Codec.Corrupt "not an index entry");
  let (_ : string) = Codec.get_lp_string r in
  let (_ : string) = Codec.get_lp_string r in
  Codec.get_raw r (Codec.remaining r)

(* Smallest string strictly greater than every string with this prefix,
   if one exists. *)
let prefix_successor p =
  let b = Bytes.of_string p in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let create ~db ~indexes =
  let names = List.map (fun s -> s.index_name) indexes in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Indexed_db.create: duplicate index names";
  { store = db; indexes }

let get t key = Db.get t.store (record_key key)

let sorted_terms spec ~key ~value =
  List.sort_uniq String.compare (spec.extract ~key ~value)

(* Record write = record op + index deltas, in one atomic batch. *)
let write_record t ~key new_value =
  let old_value = get t key in
  let batch = Write_batch.create () in
  (match new_value with
  | Some v -> Write_batch.put batch ~key:(record_key key) v
  | None -> Write_batch.delete batch (record_key key));
  List.iter
    (fun spec ->
      let old_terms =
        match old_value with
        | Some v -> sorted_terms spec ~key ~value:v
        | None -> []
      in
      let new_terms =
        match new_value with
        | Some v -> sorted_terms spec ~key ~value:v
        | None -> []
      in
      List.iter
        (fun term ->
          if not (List.mem term new_terms) then
            Write_batch.delete batch (composite ~name:spec.index_name ~term key))
        old_terms;
      List.iter
        (fun term ->
          if not (List.mem term old_terms) then
            Write_batch.put batch ~key:(composite ~name:spec.index_name ~term key) "")
        new_terms)
    t.indexes;
  Db.apply_batch t.store batch

let put t ~key value = write_record t ~key (Some value)
let delete t key = write_record t ~key None

let scan t ?limit ~lo ~hi () =
  let hi =
    match hi with
    | Some h -> Some (record_key h)
    | None -> Some "e" (* first byte after 'd': end of the record space *)
  in
  Db.scan t.store ?limit ~lo:(record_key lo) ~hi ()
  |> List.map (fun (k, v) -> (String.sub k 1 (String.length k - 1), v))

let find_spec t name =
  match List.find_opt (fun s -> String.equal s.index_name name) t.indexes with
  | Some s -> s
  | None -> raise Not_found

let lookup_keys t ~index ~term =
  let (_ : index_spec) = find_spec t index in
  let prefix = term_prefix ~name:index ~term in
  let hi = prefix_successor prefix in
  Db.fold t.store ~lo:prefix ~hi ~init:[]
    ~f:(fun acc k _ ->
      if String.length k >= String.length prefix && String.sub k 0 (String.length prefix) = prefix
      then pkey_of_composite k :: acc
      else acc)
    ()
  |> List.rev

let lookup t ~index ~term =
  lookup_keys t ~index ~term
  |> List.filter_map (fun pkey -> Option.map (fun v -> (pkey, v)) (get t pkey))

let index_entry_count t ~index =
  let (_ : index_spec) = find_spec t index in
  let prefix =
    let b = Buffer.create 16 in
    Buffer.add_char b 'i';
    Codec.put_lp_string b index;
    Buffer.contents b
  in
  let hi = prefix_successor prefix in
  Db.fold t.store ~lo:prefix ~hi ~init:0 ~f:(fun acc _ _ -> acc + 1) ()
