module Codec = Lsm_util.Codec
module Comparator = Lsm_util.Comparator
module Crc32c = Lsm_util.Crc32c
module Lsm_error = Lsm_util.Lsm_error
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
module Point_filter = Lsm_filter.Point_filter
module Range_filter = Lsm_filter.Range_filter

module Rs = Lsm_util.Rs

let magic = 0x4c534d54 (* "LSMT" *)

(* Magic of the optional ECC tail appended after the legacy footer
   (DESIGN.md §14). *)
let ecc_magic = 0x4c534d45 (* "LSME" *)
let ecc_locator_size = 16
let ecc_tail_size = 2 * ecc_locator_size

(* Bounded retry for transient device faults: a read raising a retriable
   [Lsm_error.Io_error] is retried with linear backoff; anything else
   (including a non-retriable fault on the last attempt) propagates. *)
let max_read_attempts = 4

let backoff attempt = Unix.sleepf (0.00005 *. float_of_int attempt)

let rec read_view_with_retry ?(attempt = 1) dev ~cls name ~off ~len dst v =
  try Device.read_view dev ~cls name ~off ~len dst v with
  | Lsm_error.Error (Lsm_error.Io_error { retriable = true; _ }) when attempt < max_read_attempts
    ->
    backoff attempt;
    read_view_with_retry ~attempt:(attempt + 1) dev ~cls name ~off ~len dst v

(* {!Device.read}, retried. *)
let read_with_retry dev ~cls name ~off ~len =
  let v = Device.view () in
  if read_view_with_retry dev ~cls name ~off ~len Bytes.empty v then String.sub v.base v.pos len
  else v.base

module Props = struct
  type t = {
    entries : int;
    point_tombstones : int;
    range_tombstones : Entry.t list;
    min_key : string;
    max_key : string;
    min_seqno : int;
    max_seqno : int;
    created_at : int;
    data_bytes : int;
    ecc : (int * int * int) option;
        (** [(k, m, page)] parity-stripe geometry for tables written with
            ECC on; [None] for legacy tables. Trailing optional fields, so
            an ECC-off table's props bytes are unchanged. *)
  }

  let encode t =
    let b = Buffer.create 256 in
    Codec.put_varint b t.entries;
    Codec.put_varint b t.point_tombstones;
    Codec.put_varint b (List.length t.range_tombstones);
    List.iter (Entry.encode b) t.range_tombstones;
    Codec.put_lp_string b t.min_key;
    Codec.put_lp_string b t.max_key;
    Codec.put_varint b t.min_seqno;
    Codec.put_varint b t.max_seqno;
    Codec.put_varint b t.created_at;
    Codec.put_varint b t.data_bytes;
    (match t.ecc with
    | Some (k, m, page) ->
      Codec.put_varint b k;
      Codec.put_varint b m;
      Codec.put_varint b page
    | None -> ());
    Buffer.contents b

  let decode s =
    let r = Codec.reader s in
    let entries = Codec.get_varint r in
    let point_tombstones = Codec.get_varint r in
    let nrd = Codec.get_varint r in
    let range_tombstones = List.init nrd (fun _ -> Entry.decode r) in
    let min_key = Codec.get_lp_string r in
    let max_key = Codec.get_lp_string r in
    let min_seqno = Codec.get_varint r in
    let max_seqno = Codec.get_varint r in
    let created_at = Codec.get_varint r in
    let data_bytes = Codec.get_varint r in
    (* The props block is cut to its exact length, so trailing bytes can
       only be the optional ECC geometry. *)
    let ecc =
      if Codec.remaining r > 0 then begin
        let k = Codec.get_varint r in
        let m = Codec.get_varint r in
        let page = Codec.get_varint r in
        Some (k, m, page)
      end
      else None
    in
    {
      entries;
      point_tombstones;
      range_tombstones;
      min_key;
      max_key;
      min_seqno;
      max_seqno;
      created_at;
      data_bytes;
      ecc;
    }
end

type compression = C_none | C_lz

type build_config = {
  block_size : int;
  restart_interval : int;
  filter : Point_filter.policy;
  filter_bits_override : float option;
  range_filter : Range_filter.policy;
  compression : compression;
  ecc : (int * int) option;
      (** [(k, m)]: write a trailing Reed–Solomon parity section with
          stripes of [k] data pages + [m] parity pages. [None] (the
          default) writes the legacy format byte-identically. *)
}

let default_build_config =
  {
    block_size = 4096;
    restart_interval = 16;
    filter = Point_filter.default;
    filter_bits_override = None;
    range_filter = Range_filter.No_range_filter;
    compression = C_none;
    ecc = None;
  }

(* Per-block frame: [u8 tag | payload] with tag 0 = raw block, or
   [u8 1 | varint raw_len | lz payload]. [Block.Builder.finish_into]
   already lays the block out behind a tag byte set to 0, so a raw block
   is appended from the builder's window as it lies, and [C_lz]
   compresses it from offset 1 into the table's one frame buffer. *)

(* Largest plausible decompressed block. Blocks are cut around
   [block_size] (a few KiB); a corrupt varint must not drive a
   gigabyte-sized allocation before the CRC check can reject the block. *)
let max_raw_block = 1 lsl 26

(* Reused read buffers for an iterator that bypasses the block cache:
   [raw] receives each framed block the device cannot show in place,
   [unz] each decompressed one. A block parsed from them is valid until
   the next read into the same buffer. *)
type scratch = { mutable raw : Bytes.t; mutable unz : Bytes.t }

let new_scratch () = { raw = Bytes.empty; unz = Bytes.empty }

let grown b n = if Bytes.length b >= n then b else Bytes.create (max n (2 * Bytes.length b))

(* Parse the framed block [framed.[pos, pos + len)] without copying
   where possible: a raw (tag 0) block is parsed where it lies, records
   starting one byte past the tag, so on the in-memory device that path
   copies nothing at all. A compressed block decompresses into a fresh
   buffer, or into [scratch.unz] when the reader reuses one. *)
let parse_framed ?scratch framed ~pos:start ~len =
  if len < 1 then raise (Codec.Corrupt "empty block frame");
  let stop = start + len in
  match Char.code (String.unsafe_get framed start) with
  | 0 -> Block.parse framed ~start ~base:(start + 1) ~stop
  | 1 ->
    let r = Codec.reader ~pos:(start + 1) framed in
    let raw_len = Codec.get_varint r in
    let pos = r.Codec.pos in
    if pos > stop then raise (Codec.Corrupt "truncated block frame");
    if raw_len > max_raw_block then
      raise (Codec.Corrupt (Printf.sprintf "implausible block length %d" raw_len));
    let dst =
      match scratch with
      | None -> Bytes.create raw_len
      | Some s ->
        s.unz <- grown s.unz raw_len;
        s.unz
    in
    Lsm_util.Lz.decompress_into framed ~pos ~len:(stop - pos) dst ~expected_len:raw_len;
    Block.parse (Bytes.unsafe_to_string dst) ~start:0 ~base:0 ~stop:raw_len
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown block frame tag %d" n))

type index_entry = { fence : string; off : int; len : int; first_key : string }

let encode_index entries =
  let b = Buffer.create 1024 in
  Codec.put_varint b (List.length entries);
  List.iter
    (fun e ->
      Codec.put_lp_string b e.fence;
      Codec.put_varint b e.off;
      Codec.put_varint b e.len;
      Codec.put_lp_string b e.first_key)
    entries;
  Buffer.contents b

let decode_index s =
  let r = Codec.reader s in
  let n = Codec.get_varint r in
  Array.init n (fun _ ->
      let fence = Codec.get_lp_string r in
      let off = Codec.get_varint r in
      let len = Codec.get_varint r in
      let first_key = Codec.get_lp_string r in
      { fence; off; len; first_key })

(* ---------------- ECC parity section (DESIGN.md §14) ---------------- *)

(* On-disk layout of an ECC table:

     [ legacy table: data blocks ^ meta blocks ^ 40-byte footer ]  (covered)
     [ section header: varint k | m | page | cov_len,
       then one u32 CRC per covered page, one per parity page ]
     [ u32 header CRC ]
     [ parity bytes: ceil(ncov/k) stripes x m pages ]
     [ 16-byte locator, twice: u32 ecc_off | u32 ecc_len
                             | u32 crc of those 8 bytes | u32 ecc magic ]

   The covered range is the whole legacy file [0, cov_len = ecc_off) —
   data blocks, meta blocks and footer alike — so single-page rot
   anywhere that matters is repairable, and an ECC-off reader opening
   the prefix would see a byte-identical legacy table. Stripe [s] covers
   pages [s*k .. s*k+k-1]; pages past the end act as virtual all-zero
   shards. The per-page CRCs are what turns "this block failed its CRC"
   into "page p of stripe s is the erasure" (and they catch rot in the
   parity pages themselves). The locator is duplicated because it is the
   one thing parity cannot protect; under the one-flip-per-page rot
   model at most one copy is damaged, and [scrub_ecc] rewrites the bad
   twin. A legacy table simply has no tail: misdetection would need 64
   arbitrary trailing bits to pass the locator CRC + magic. *)

let crc_sub s ~pos ~len = Crc32c.mask (Crc32c.sub s ~pos ~len)
let crc_int s = crc_sub s ~pos:0 ~len:(String.length s)

let ecc_locator ~ecc_off ~ecc_len =
  let b = Buffer.create ecc_locator_size in
  Codec.put_u32 b ecc_off;
  Codec.put_u32 b ecc_len;
  Codec.put_u32 b (crc_int (Buffer.sub b 0 8));
  Codec.put_u32 b ecc_magic;
  Buffer.contents b

(* Covered page [p] as a full-[page] shard, zero-padded at the covered
   range's tail and all-zero beyond it. [read] abstracts the source: the
   builder's in-memory mirror or the device. *)
let ecc_cov_shard ~read ~page ~cov_len p =
  let off = p * page in
  if off >= cov_len then String.make page '\000'
  else begin
    let len = min page (cov_len - off) in
    let s = read ~off ~len in
    if len = page then s else s ^ String.make (page - len) '\000'
  end

let build_ecc_section ~k ~m ~page ~cov_len ~read =
  let ncov = ((cov_len - 1) / page) + 1 in
  let nstripes = ((ncov - 1) / k) + 1 in
  let rs = Rs.create ~k ~m in
  let cov_crcs = Array.make ncov 0 in
  let parity = Array.make (nstripes * m) "" in
  for s = 0 to nstripes - 1 do
    let data = Array.init k (fun i -> ecc_cov_shard ~read ~page ~cov_len ((s * k) + i)) in
    Array.iteri
      (fun i sh ->
        let p = (s * k) + i in
        if p < ncov then cov_crcs.(p) <- crc_int sh)
      data;
    Array.blit (Rs.encode rs data) 0 parity (s * m) m
  done;
  let header = Buffer.create (32 + (4 * (ncov + Array.length parity))) in
  Codec.put_varint header k;
  Codec.put_varint header m;
  Codec.put_varint header page;
  Codec.put_varint header cov_len;
  Array.iter (Codec.put_u32 header) cov_crcs;
  Array.iter (fun sh -> Codec.put_u32 header (crc_int sh)) parity;
  let hb = Buffer.contents header in
  let out = Buffer.create (String.length hb + 4 + (Array.length parity * page)) in
  Buffer.add_string out hb;
  Codec.put_u32 out (crc_int hb);
  Array.iter (Buffer.add_string out) parity;
  Buffer.contents out

let effective_filter_policy config =
  match (config.filter, config.filter_bits_override) with
  | Point_filter.Bloom _, Some bits -> Point_filter.Bloom { bits_per_key = bits }
  | Point_filter.Blocked_bloom _, Some bits -> Point_filter.Blocked_bloom { bits_per_key = bits }
  | policy, _ -> policy

(* The "no record" sentinel, compared by [==]: the table iterator's
   unmaterialized head. *)
let no_entry = { Entry.key = ""; seqno = 0; kind = Entry.Put; value = "" }

(* Distinct user keys in arrival order, in an array grown by doubling
   rather than one list cell per key. *)
type keys = { mutable karr : string array; mutable klen : int }

let push_key ks k =
  if ks.klen = Array.length ks.karr then begin
    let grown = Array.make (max 64 (2 * ks.klen)) "" in
    Array.blit ks.karr 0 grown 0 ks.klen;
    ks.karr <- grown
  end;
  ks.karr.(ks.klen) <- k;
  ks.klen <- ks.klen + 1

(* The record loop moves each record from the source's view into the
   block builder: key, seqno, kind and the bytes of the value window. No
   entry is built; only a range tombstone, which the props keep whole,
   is materialized. *)
let build_from ?(config = default_build_config) ?(limit = max_int) ?cut ~cmp ~dev ~cls ~name
    ~created_at (it : Iter.t) =
  if not (it.Iter.valid ()) then invalid_arg "Sstable.build: empty iterator";
  let w = Device.open_writer dev ~cls name in
  (* With ECC on, mirror every covered byte so the parity section can be
     computed at the end without re-reading the file. *)
  let mirror =
    match config.ecc with Some _ -> Some (Buffer.create 65536) | None -> None
  in
  let emit s =
    Device.append w s;
    match mirror with Some b -> Buffer.add_string b s | None -> ()
  in
  let emit_window s n =
    Device.append_sub w s ~off:0 ~len:n;
    match mirror with Some b -> Buffer.add_substring b s 0 n | None -> ()
  in
  let emit_buffer f =
    Device.append_buffer w f;
    match mirror with Some b -> Buffer.add_buffer b f | None -> ()
  in
  let block = Block.Builder.create ~restart_interval:config.restart_interval () in
  let frame = Buffer.create (match config.compression with C_lz -> 4096 | C_none -> 0) in
  let index = ref [] in
  (* Fence for a finished block is decided lazily, once the next block's
     first key is known (shortest separator keeps fences small): the
     pending block's last key, offset, length and first key. *)
  let pending = ref false in
  let p_last = ref "" and p_off = ref 0 and p_len = ref 0 and p_first = ref "" in
  let block_first = ref "" in
  let block_off = ref 0 in
  let entries = ref 0 in
  let point_tombstones = ref 0 in
  let range_tombstones = ref [] in
  let min_seqno = ref max_int and max_seqno = ref 0 in
  let data_bytes = ref 0 in
  let distinct = { karr = [||]; klen = 0 } in
  let min_key = ref "" and max_key = ref "" in
  let flush_pending fence =
    if !pending then begin
      index := { fence; off = !p_off; len = !p_len; first_key = !p_first } :: !index;
      pending := false
    end
  in
  let finish_block last_key_of_block =
    if not (Block.Builder.is_empty block) then begin
      let n = Block.Builder.finish_into block in
      let win = Block.Builder.window block in
      let len =
        match config.compression with
        | C_none ->
          emit_window win n;
          n
        | C_lz ->
          let raw_len = n - 1 in
          Buffer.clear frame;
          Codec.put_u8 frame 1;
          Codec.put_varint frame raw_len;
          let header = Buffer.length frame in
          Lsm_util.Lz.compress_into frame win ~pos:1 ~len:raw_len;
          if Buffer.length frame - header + 8 >= raw_len then begin
            emit_window win n;
            n
          end
          else begin
            emit_buffer frame;
            Buffer.length frame
          end
      in
      pending := true;
      p_last := last_key_of_block;
      p_off := !block_off;
      p_len := len;
      p_first := !block_first;
      block_off := !block_off + len
    end
  in
  (* The previous record's key, seqno and kind, for the order check and
     the block cut; [first] until one is added. *)
  let first = ref true in
  let prev_key = ref "" and prev_seqno = ref 0 and prev_kind = ref 0 in
  (* Record bytes so far, as [Entry.encoded_size] counts them: the
     measure [limit] caps. *)
  let emitted = ref 0 in
  let stop = ref false in
  while (not !stop) && it.Iter.valid () do
    let v = it.Iter.view () in
    let key = v.Iter.key and seqno = v.Iter.seqno and kind = Entry.kind_to_int v.Iter.kind in
    let new_key = !first || not (String.equal !prev_key key) in
    if not !first then begin
      let c = cmp.Comparator.compare !prev_key key in
      if c > 0 || (c = 0 && (seqno > !prev_seqno || (seqno = !prev_seqno && kind < !prev_kind)))
      then invalid_arg "Sstable.build: iterator out of order"
    end;
    (* Cut blocks only between distinct user keys so all versions of a key
       share a block ([get] stops at block end). *)
    if (not !first) && new_key && Block.Builder.size_estimate block >= config.block_size then
      finish_block !prev_key;
    if Block.Builder.is_empty block then begin
      if !pending then flush_pending (Comparator.shortest_separator cmp !p_last key);
      block_first := key
    end;
    Block.Builder.add_view block v;
    incr entries;
    (match v.Iter.kind with
    | Entry.Delete | Entry.Single_delete -> incr point_tombstones
    | Entry.Range_delete -> range_tombstones := Iter.view_entry v :: !range_tombstones
    | Entry.Put | Entry.Merge -> ());
    if seqno < !min_seqno then min_seqno := seqno;
    if seqno > !max_seqno then max_seqno := seqno;
    data_bytes := !data_bytes + String.length key + v.Iter.vlen;
    if new_key then push_key distinct key;
    if !entries = 1 then min_key := key;
    max_key := key;
    emitted :=
      !emitted + Entry.encoded_size_of ~seqno ~key_len:(String.length key) ~value_len:v.Iter.vlen;
    first := false;
    prev_key := key;
    prev_seqno := seqno;
    prev_kind := kind;
    it.Iter.next ();
    (* End the table only between distinct user keys: once [limit]
       record bytes have gone in, or before a key [cut] accepts. *)
    if it.Iter.valid () then begin
      let next_key = (it.Iter.view ()).Iter.key in
      if
        (not (String.equal key next_key))
        && (!emitted >= limit
           || match cut with Some cut -> cut ~prev:key next_key | None -> false)
      then stop := true
    end
  done;
  finish_block !prev_key;
  flush_pending (Comparator.short_successor cmp !p_last);
  (* Filters over all distinct user keys, newest first. *)
  let pf = Point_filter.create (effective_filter_policy config) ~expected:distinct.klen in
  for i = distinct.klen - 1 downto 0 do
    Point_filter.add pf distinct.karr.(i)
  done;
  let filter_block = Point_filter.encode pf in
  let keys =
    match config.range_filter with
    | Range_filter.No_range_filter -> []
    | _ -> List.rev (Array.to_list (Array.sub distinct.karr 0 distinct.klen))
  in
  let rf = Range_filter.build config.range_filter ~keys in
  let rfilter_block = Range_filter.encode rf in
  let props =
    {
      Props.entries = !entries;
      point_tombstones = !point_tombstones;
      range_tombstones = List.rev !range_tombstones;
      min_key = !min_key;
      max_key = !max_key;
      min_seqno = !min_seqno;
      max_seqno = !max_seqno;
      created_at;
      data_bytes = !data_bytes;
      ecc = (match config.ecc with Some (k, m) -> Some (k, m, Device.page_size dev) | None -> None);
    }
  in
  let props_block = Props.encode props in
  let index_block = encode_index (List.rev !index) in
  let filter_off = Device.written w in
  emit filter_block;
  let rfilter_off = Device.written w in
  emit rfilter_block;
  let index_off = Device.written w in
  emit index_block;
  let props_off = Device.written w in
  emit props_block;
  let footer = Buffer.create 48 in
  Codec.put_u32 footer filter_off;
  Codec.put_u32 footer (String.length filter_block);
  Codec.put_u32 footer rfilter_off;
  Codec.put_u32 footer (String.length rfilter_block);
  Codec.put_u32 footer index_off;
  Codec.put_u32 footer (String.length index_block);
  Codec.put_u32 footer props_off;
  Codec.put_u32 footer (String.length props_block);
  (* One CRC covers every meta block and the offset table itself: data
     blocks carry per-block checksums, but a flipped bit in the index,
     filters, or props would otherwise silently mis-route or mis-skip
     reads (e.g. [may_contain_key] consulting rotted min/max keys). *)
  let meta_crc =
    Crc32c.mask
      (List.fold_left
         (fun init s -> Crc32c.string ~init s)
         0
         [ filter_block; rfilter_block; index_block; props_block; Buffer.contents footer ])
  in
  Codec.put_u32 footer meta_crc;
  Codec.put_u32 footer magic;
  emit (Buffer.contents footer);
  (* ECC tail, after (and excluded from) the covered range. *)
  (match (config.ecc, mirror) with
  | Some (k, m), Some cov ->
    let cov = Buffer.contents cov in
    let cov_len = String.length cov in
    let page = Device.page_size dev in
    let section =
      build_ecc_section ~k ~m ~page ~cov_len
        ~read:(fun ~off ~len -> String.sub cov off len)
    in
    let loc = ecc_locator ~ecc_off:cov_len ~ecc_len:(String.length section) in
    Device.append w (section ^ loc ^ loc)
  | _ -> ());
  Device.close w;
  props

let build ?config ~cmp ~dev ~cls ~name ~created_at (it : Iter.t) =
  it.Iter.seek_to_first ();
  build_from ?config ~cmp ~dev ~cls ~name ~created_at it

let footer_size = 40

type cached_block = Block.parsed

(* What a repair attempt came to — surfaced through [open_reader]'s
   [on_ecc] callback and counted into [Stats]. *)
type ecc_event =
  | Ecc_repaired of { pages : int; ns : int }
  | Ecc_unrecoverable

(* A parsed ECC section: everything needed to locate, check and rebuild
   pages without touching the section bytes again. *)
type ecc_state = {
  ecc_rs : Rs.t;
  ecc_page : int;
  ecc_cov_len : int;  (** covered prefix [0, cov_len) = the legacy table *)
  ecc_parity_off : int;  (** absolute offset of the parity pages *)
  ecc_cov_crcs : int array;
  ecc_par_crcs : int array;
}

type reader = {
  cmp : Comparator.t;
  dev : Device.t;
  cache : cached_block Block_cache.t;
  rname : string;
  size : int;
      (** size of the legacy table image (data + meta + footer) — the
          covered prefix for an ECC table, the whole file otherwise *)
  index : index_entry array;
  filter : Point_filter.t;
  rfilter : Range_filter.t;
  rprops : Props.t;
  ecc_layout : (int * int) option;  (** [(ecc_off, ecc_len)] from the locator *)
  mutable ecc : ecc_state option;
      (** [None] with a layout present means the section itself is rotted;
          reads still verify against block CRCs, and [scrub_ecc] rebuilds
          the section from the verified content *)
  on_ecc : ecc_event -> unit;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Detect the ECC tail: an ECC table ends with two redundant locator
   copies; accept either (one flip per page can damage at most one). *)
let detect_ecc_layout dev ~name ~fsize =
  if fsize < footer_size + ecc_tail_size then None
  else begin
    let tail =
      read_with_retry dev ~cls:Io_stats.C_misc name ~off:(fsize - ecc_tail_size)
        ~len:ecc_tail_size
    in
    let copy pos =
      let r = Codec.reader ~pos tail in
      let off = Codec.get_u32 r in
      let len = Codec.get_u32 r in
      let crc = Codec.get_u32 r in
      let mg = Codec.get_u32 r in
      if
        mg = ecc_magic
        && crc = crc_sub tail ~pos ~len:8
        && off >= footer_size && len > 0
        && off + len + ecc_tail_size = fsize
      then Some (off, len)
      else None
    in
    match copy 0 with Some v -> Some v | None -> copy ecc_locator_size
  end

exception Ecc_section_bad

(* Parse (and internally verify) the section; [None] means the section
   itself is rotted — never fatal, the covered table is still readable. *)
let parse_ecc_section dev ~name (ecc_off, ecc_len) =
  match
    let sec = read_with_retry dev ~cls:Io_stats.C_misc name ~off:ecc_off ~len:ecc_len in
    let r = Codec.reader sec in
    let k = Codec.get_varint r in
    let m = Codec.get_varint r in
    let page = Codec.get_varint r in
    let cov_len = Codec.get_varint r in
    if k < 1 || m < 1 || k + m > 255 || page < 1 || cov_len <> ecc_off then
      raise Ecc_section_bad;
    let ncov = ((cov_len - 1) / page) + 1 in
    let nstripes = ((ncov - 1) / k) + 1 in
    let cov_crcs = Array.init ncov (fun _ -> Codec.get_u32 r) in
    let par_crcs = Array.init (nstripes * m) (fun _ -> Codec.get_u32 r) in
    let header_len = r.Codec.pos in
    let stored = Codec.get_u32 r in
    if stored <> crc_sub sec ~pos:0 ~len:header_len then raise Ecc_section_bad;
    if ecc_len <> header_len + 4 + (nstripes * m * page) then raise Ecc_section_bad;
    {
      ecc_rs = Rs.create ~k ~m;
      ecc_page = page;
      ecc_cov_len = cov_len;
      ecc_parity_off = ecc_off + header_len + 4;
      ecc_cov_crcs = cov_crcs;
      ecc_par_crcs = par_crcs;
    }
  with
  | st -> Some st
  | exception (Ecc_section_bad | Codec.Corrupt _ | Invalid_argument _) -> None

(* Reconstruct every rotted page of the stripes overlapping the covered
   byte range [off, off+len), patching repaired data pages — and
   recomputed parity pages — back in place. The per-page CRC table names
   the erasures; [Rs.decode] interpolates them back from the survivors.
   Returns pages rewritten: 0 means the range was clean or some stripe
   had more than m erasures (the caller falls back to the quarantine
   path). Patches are idempotent — concurrent repairs of one stripe
   write identical bytes — and a reconstruction whose CRC disagrees with
   the stored page CRC is discarded, never written. *)
let ecc_repair_range dev ~cls ~name st ~off ~len =
  let page = st.ecc_page in
  let k = Rs.k st.ecc_rs and m = Rs.m st.ecc_rs in
  let ncov = Array.length st.ecc_cov_crcs in
  let nstripes = ((ncov - 1) / k) + 1 in
  let read ~off ~len = read_with_retry dev ~cls name ~off ~len in
  let lo = max 0 (off / page / k) in
  let hi = min (nstripes - 1) ((off + len - 1) / page / k) in
  let repaired = ref 0 in
  for s = lo to hi do
    let slots = Array.make (k + m) None in
    let missing_data = ref [] and missing_par = ref [] in
    for i = 0 to k - 1 do
      let p = (s * k) + i in
      if p >= ncov then slots.(i) <- Some (String.make page '\000')
      else begin
        let sh = ecc_cov_shard ~read ~page ~cov_len:st.ecc_cov_len p in
        if crc_int sh = st.ecc_cov_crcs.(p) then slots.(i) <- Some sh
        else missing_data := (i, p) :: !missing_data
      end
    done;
    for j = 0 to m - 1 do
      let q = (s * m) + j in
      let sh = read ~off:(st.ecc_parity_off + (q * page)) ~len:page in
      if crc_int sh = st.ecc_par_crcs.(q) then slots.(k + j) <- Some sh
      else missing_par := (j, q) :: !missing_par
    done;
    if !missing_data <> [] || !missing_par <> [] then begin
      match Rs.decode st.ecc_rs slots with
      | None -> () (* beyond m erasures in this stripe *)
      | Some data ->
        if List.for_all (fun (i, p) -> crc_int data.(i) = st.ecc_cov_crcs.(p)) !missing_data
        then begin
          List.iter
            (fun (i, p) ->
              let poff = p * page in
              let real = min page (st.ecc_cov_len - poff) in
              Device.patch dev ~cls name ~off:poff (String.sub data.(i) 0 real);
              incr repaired)
            !missing_data;
          if !missing_par <> [] then begin
            let par = Rs.encode st.ecc_rs data in
            List.iter
              (fun (j, q) ->
                if crc_int par.(j) = st.ecc_par_crcs.(q) then begin
                  Device.patch dev ~cls name ~off:(st.ecc_parity_off + (q * page)) par.(j);
                  incr repaired
                end)
              !missing_par
          end
        end
    end
  done;
  !repaired

let open_reader ~cmp ~dev ~cache ?(on_ecc = fun (_ : ecc_event) -> ()) name =
  let corrupt ?offset detail = raise (Lsm_error.corruption ?offset ~file:name detail) in
  let fsize = Device.size dev name in
  let ecc_layout = detect_ecc_layout dev ~name ~fsize in
  let ecc = Option.bind ecc_layout (parse_ecc_section dev ~name) in
  (* Size of the legacy table image this reader addresses: everything
     before the ECC section for an ECC table, the whole file otherwise. *)
  let size = match ecc_layout with Some (off, _) -> off | None -> fsize in
  let parse_inner () =
    if size < footer_size then corrupt "file too small for footer";
    let footer =
      read_with_retry dev ~cls:Io_stats.C_misc name ~off:(size - footer_size)
        ~len:footer_size
    in
    let r = Codec.reader footer in
    let filter_off = Codec.get_u32 r in
    let filter_len = Codec.get_u32 r in
    let rfilter_off = Codec.get_u32 r in
    let rfilter_len = Codec.get_u32 r in
    let index_off = Codec.get_u32 r in
    let index_len = Codec.get_u32 r in
    let props_off = Codec.get_u32 r in
    let props_len = Codec.get_u32 r in
    let stored_crc = Codec.get_u32 r in
    if Codec.get_u32 r <> magic then
      corrupt ~offset:(size - footer_size) ("bad magic in " ^ name);
    (* The four meta blocks are laid out back to back just before the
       footer; verify their shared CRC before trusting a single offset. *)
    if
      filter_off < 0 || filter_off > size - footer_size
      || props_off + props_len <> size - footer_size
      || rfilter_off <> filter_off + filter_len
      || index_off <> rfilter_off + rfilter_len
      || props_off <> index_off + index_len
    then corrupt ~offset:(size - footer_size) "meta-block offsets inconsistent";
    let meta =
      read_with_retry dev ~cls:Io_stats.C_misc name ~off:filter_off
        ~len:(size - footer_size - filter_off)
    in
    if Crc32c.mask (Crc32c.sub ~init:(Crc32c.string meta) footer ~pos:0 ~len:32) <> stored_crc
    then
      corrupt ~offset:filter_off "meta-block checksum mismatch";
    let cut off len = String.sub meta (off - filter_off) len in
    try
      {
        cmp;
        dev;
        cache;
        rname = name;
        size;
        index = decode_index (cut index_off index_len);
        filter = Point_filter.decode (cut filter_off filter_len);
        rfilter = Range_filter.decode (cut rfilter_off rfilter_len);
        rprops = Props.decode (cut props_off props_len);
        ecc_layout;
        ecc;
        on_ecc;
      }
    with Codec.Corrupt d -> corrupt ("undecodable meta block: " ^ d)
  in
  match parse_inner () with
  | r -> r
  | exception (Lsm_error.Error (Lsm_error.Corruption _) as e) -> (
    (* Rot in the meta region or footer of an ECC table: heal the whole
       covered range from parity, then retry the open once. *)
    match ecc with
    | None -> raise e
    | Some st -> (
      let t0 = now_ns () in
      match ecc_repair_range dev ~cls:Io_stats.C_misc ~name st ~off:0 ~len:st.ecc_cov_len with
      | 0 ->
        on_ecc Ecc_unrecoverable;
        raise e
      | n -> (
        match parse_inner () with
        | r ->
          on_ecc (Ecc_repaired { pages = n; ns = now_ns () - t0 });
          r
        | exception e2 ->
          on_ecc Ecc_unrecoverable;
          raise e2)))

let props t = t.rprops
let file_size t = t.size

let may_contain_key t key =
  t.cmp.Comparator.compare key t.rprops.Props.min_key >= 0
  && t.cmp.Comparator.compare key t.rprops.Props.max_key <= 0
  && Point_filter.mem t.filter key

let may_overlap_range t ~lo ~hi =
  let below_max =
    match hi with
    | None -> true
    | Some hi -> t.cmp.Comparator.compare t.rprops.Props.min_key hi < 0
  in
  below_max
  && t.cmp.Comparator.compare lo t.rprops.Props.max_key <= 0
  && Range_filter.may_overlap t.rfilter ~lo ~hi

(* Decode a framed data block, converting every failure class to a typed
   corruption pinned to the block's offset. [Lz.decompress_into] on
   garbage can raise more than [Codec.Corrupt] (e.g. [Invalid_argument]),
   and none of them may escape as anything but [Corruption]. *)
let decode_block ?scratch t (ie : index_entry) framed ~pos =
  try parse_framed ?scratch framed ~pos ~len:ie.len with
  | Codec.Corrupt d ->
    raise (Lsm_error.corruption ~file:t.rname ~offset:ie.off ("data block: " ^ d))
  | Invalid_argument d | Failure d ->
    raise
      (Lsm_error.corruption ~file:t.rname ~offset:ie.off ("undecodable data block: " ^ d))

(* Record-level decode happens lazily, after the block-level CRC has
   passed; a [Codec.Corrupt] escaping a cursor at that point still has
   to surface as a typed corruption pinned to this block. *)
let record_corruption t (ie : index_entry) d =
  Lsm_error.corruption ~file:t.rname ~offset:ie.off ("data block: " ^ d)

let run_typed t ie f x = try f x with Codec.Corrupt d -> raise (record_corruption t ie d)

let cache_insert t (ie : index_entry) p =
  Block_cache.insert t.cache ~file:t.rname ~off:ie.off ~bytes:(Block.parsed_cost p) p

(* Data block access, through the cache. The cache stores *decoded*
   blocks ([Block.parsed]): CRC and decompression are paid exactly once
   per miss, and a hit hands [f] the parsed view directly. A block
   enters the cache only after validation, so a cached copy that stops
   decoding (memory rot) is exceptional: it is removed alone — the
   file's other blocks stay hot — and the read retried once against the
   device. *)
(* Device fetch + decode with the ECC fallback: a CRC/decode failure on
   an ECC table first reconstructs the rotted page(s) of the overlapping
   stripe(s) in place from parity, then refetches — the read is served
   and the file is healed. Only when the stripe has lost more pages than
   it carries parity does the original corruption propagate (and the
   caller quarantines as before). *)
(* The block is parsed where the device shows it: in place in a chunk
   of the in-memory device, whether it then enters the cache or only
   [scratch]'s reader sees it. Only a block the device has to copy (on
   disk, or under a fault's overlay) lands in a buffer: [scratch.raw],
   or a fresh one when that is too short, which [scratch] then keeps;
   without [scratch], a fresh one that the cache then owns. The view
   that carries the window is the domain's own, so a fetch allocates no
   page and no view; it lets go of the chunk once the block is parsed. *)
let views = Domain.DLS.new_key Device.view

let fetch_block ?scratch t ~cls (ie : index_entry) =
  let dst = match scratch with Some s -> s.raw | None -> Bytes.empty in
  let v = Domain.DLS.get views in
  let in_place = read_view_with_retry t.dev ~cls t.rname ~off:ie.off ~len:ie.len dst v in
  (match scratch with
  | Some s when not in_place -> s.raw <- Bytes.unsafe_of_string v.base
  | _ -> ());
  let p = decode_block ?scratch t ie v.base ~pos:v.pos in
  v.base <- "";
  p

let read_block_repairing ?scratch t ~cls (ie : index_entry) =
  try fetch_block ?scratch t ~cls ie
  with Lsm_error.Error (Lsm_error.Corruption _) as e -> (
    match t.ecc with
    | None -> raise e
    | Some st -> (
      let t0 = now_ns () in
      match ecc_repair_range t.dev ~cls ~name:t.rname st ~off:ie.off ~len:ie.len with
      | 0 ->
        t.on_ecc Ecc_unrecoverable;
        raise e
      | n -> (
        match fetch_block ?scratch t ~cls ie with
        | p ->
          t.on_ecc (Ecc_repaired { pages = n; ns = now_ns () - t0 });
          p
        | exception e2 ->
          t.on_ecc Ecc_unrecoverable;
          raise e2)))

(* A block read into [scratch] lives in a buffer the next read
   overwrites, so it never enters the cache: a reader passes [scratch]
   only with [use_cache = false]. *)
let with_fresh_block ?scratch t ~cls ~use_cache ie f x =
  let p = read_block_repairing ?scratch t ~cls ie in
  if use_cache then cache_insert t ie p;
  try f p x with Codec.Corrupt d -> raise (record_corruption t ie d)

(* [f p x] rather than a closure over [x]: the point lookup passes a
   top-level [f] and its scratch, so a cache hit allocates nothing here. *)
let with_block ?scratch t ~cls ~use_cache (ie : index_entry) f x =
  match Block_cache.find t.cache ~file:t.rname ~off:ie.off with
  | Some p -> (
    try try f p x with Codec.Corrupt d -> raise (record_corruption t ie d)
    with Lsm_error.Error (Lsm_error.Corruption _) ->
      Block_cache.remove t.cache ~file:t.rname ~off:ie.off;
      with_fresh_block ?scratch t ~cls ~use_cache ie f x)
  | None -> with_fresh_block ?scratch t ~cls ~use_cache ie f x

(* First index slot whose fence key is >= target: the only block that can
   contain [target]. *)
let index_seek t target =
  let n = Array.length t.index in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cmp.Comparator.compare t.index.(mid).fence target < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Point lookup on the zero-copy path: a cursor positioned by
   [Block.Cursor.seek] (no iterator), a version walk over borrowed views,
   and [Cursor.entry] materializing only the one record the read returns.

   The cursor and the lookup's arguments live in per-domain scratch,
   reused by every lookup on the domain: the cursor never escapes (the
   result is materialized before return), and a lookup that finds the
   scratch [busy] — re-entered on the same domain — takes a fresh one. *)
type lookup = {
  cur : Block.Cursor.t;
  mutable lcmp : Comparator.t;
  mutable lkey : string;
  mutable lmax : int;  (** max_seqno *)
  mutable busy : bool;
}

let fresh_lookup () =
  { cur = Block.Cursor.create (); lcmp = Comparator.bytewise; lkey = ""; lmax = 0; busy = false }

let lookup_scratch = Domain.DLS.new_key fresh_lookup

let rec walk_versions cur key max_seqno =
  if not (Block.Cursor.valid cur) || Block.Cursor.key_compare cur key <> 0 then None
  else if Block.Cursor.seqno cur <= max_seqno && Block.Cursor.kind cur <> Entry.Range_delete then
    Some (Block.Cursor.entry cur)
  else begin
    Block.Cursor.next cur;
    walk_versions cur key max_seqno
  end

let lookup_block p l =
  Block.Cursor.reset l.cur l.lcmp p;
  Block.Cursor.seek l.cur l.lkey;
  walk_versions l.cur l.lkey l.lmax

let get_unfiltered t ~cls ~max_seqno key =
  let slot = index_seek t key in
  if slot >= Array.length t.index then None
  else begin
    let l = Domain.DLS.get lookup_scratch in
    let l = if l.busy then fresh_lookup () else l in
    l.busy <- true;
    l.lcmp <- t.cmp;
    l.lkey <- key;
    l.lmax <- max_seqno;
    match with_block t ~cls ~use_cache:true t.index.(slot) lookup_block l with
    | r ->
      l.busy <- false;
      r
    | exception e ->
      l.busy <- false;
      raise e
  end

(* Table iteration through one reused block cursor: [Block.Cursor.reset]
   re-aims it at each block in turn, inside [with_block], so a cached
   block that stops decoding is dropped and re-read like on the point
   path. The current record's view materializes its key at most once,
   on the first [view] or [entry]; [entry] adds the value. A step past
   the first record runs under [run_typed], the one site where a
   record-level [Codec.Corrupt] becomes a corruption pinned to the
   block. Without the cache, every block is read into the iterator's
   one [scratch]. *)
let aim_first p (cur, cmp) =
  Block.Cursor.reset cur cmp p;
  Block.Cursor.seek_to_first cur

let aim_at p (cur, cmp, target) =
  Block.Cursor.reset cur cmp p;
  Block.Cursor.seek cur target

let iterator t ~cls ?(use_cache = true) () =
  let nblocks = Array.length t.index in
  let cur = Block.Cursor.create () in
  let aim = (cur, t.cmp) in
  let scratch = if use_cache then None else Some (new_scratch ()) in
  let slot = ref nblocks in
  let v = Iter.new_view () in
  let viewed = ref false in
  let head = ref no_entry in
  let view () =
    if not !viewed then begin
      Block.Cursor.fill_view cur v;
      viewed := true
    end;
    v
  in
  (* Move off exhausted blocks onto the next record, if any. *)
  let rec settle () =
    if (not (Block.Cursor.valid cur)) && !slot < nblocks then begin
      incr slot;
      if !slot < nblocks then with_block ?scratch t ~cls ~use_cache t.index.(!slot) aim_first aim;
      settle ()
    end
  in
  let seek_slot i target =
    viewed := false;
    head := no_entry;
    slot := i;
    if i < nblocks then begin
      (match target with
      | None -> with_block ?scratch t ~cls ~use_cache t.index.(i) aim_first aim
      | Some target ->
        with_block ?scratch t ~cls ~use_cache t.index.(i) aim_at (cur, t.cmp, target));
      settle ()
    end
  in
  {
    Iter.valid = (fun () -> !slot < nblocks && Block.Cursor.valid cur);
    entry =
      (fun () ->
        if !head == no_entry then head := Iter.view_entry (view ());
        !head);
    view;
    next =
      (fun () ->
        if !slot < nblocks then begin
          viewed := false;
          head := no_entry;
          run_typed t t.index.(!slot) Block.Cursor.next cur;
          settle ()
        end);
    seek = (fun target -> seek_slot (index_seek t target) (Some target));
    seek_to_first = (fun () -> seek_slot 0 None);
  }

let prefetch_into_cache t ~cls =
  Array.iter
    (fun ie ->
      (* Same rule as [with_block]: nothing unvalidated enters the cache. *)
      cache_insert t ie (read_block_repairing t ~cls ie))
    t.index;
  Array.length t.index

(* ---------------- integrity verification + salvage hooks ---------------- *)

let index_entries t = t.index

let block_entries t ~cls (ie : index_entry) =
  let cur = Block.Cursor.make t.cmp (read_block_repairing t ~cls ie) in
  run_typed t ie Block.Cursor.seek_to_first cur;
  let rec walk acc =
    if not (Block.Cursor.valid cur) then List.rev acc
    else begin
      let e = Block.Cursor.entry cur in
      run_typed t ie Block.Cursor.next cur;
      walk (e :: acc)
    end
  in
  walk []

(* Full-table scrub: every data block re-read from the device (bypassing
   the cache) and checksum-verified, fence ordering and block/first-key
   agreement checked. Raises the first [Lsm_error.Corruption] found.
   [open_reader] already verified the meta blocks' shared CRC. *)
let verify t ~cls =
  Array.iteri
    (fun i ie ->
      if i > 0 && t.cmp.Comparator.compare t.index.(i - 1).fence ie.fence >= 0 then
        raise
          (Lsm_error.corruption ~file:t.rname ~offset:ie.off
             (Printf.sprintf "fence pointers out of order at slot %d" i));
      if ie.off < 0 || ie.len < 8 || ie.off + ie.len > t.size then
        raise
          (Lsm_error.corruption ~file:t.rname ~offset:ie.off
             (Printf.sprintf "index slot %d outside the file" i));
      match block_entries t ~cls ie with
      | [] ->
        raise
          (Lsm_error.corruption ~file:t.rname ~offset:ie.off
             (Printf.sprintf "data block %d is empty" i))
      | first :: _ ->
        if not (String.equal first.Entry.key ie.first_key) then
          raise
            (Lsm_error.corruption ~file:t.rname ~offset:ie.off
               (Printf.sprintf "data block %d does not start at its indexed key" i)))
    t.index

(* Proactive ECC pass over one table, meant to run right after [verify]
   proved the covered content sound: repair every silently rotted page
   (covered or parity) from the stripes; rebuild the whole parity
   section from the verified content when the section itself rotted; and
   heal a damaged locator copy from its twin. Returns pages rewritten. *)
let scrub_ecc t ~cls =
  match t.ecc_layout with
  | None -> 0
  | Some (ecc_off, ecc_len) ->
    let t0 = now_ns () in
    let fixed = ref 0 in
    (match t.ecc with
    | Some st ->
      fixed := ecc_repair_range t.dev ~cls ~name:t.rname st ~off:0 ~len:st.ecc_cov_len
    | None -> (
      (* The section itself is rotted. The covered table just verified
         clean, so the parity is recomputable from scratch; Props carries
         the (k, m, page) geometry for exactly this. *)
      match t.rprops.Props.ecc with
      | Some (k, m, page) ->
        let read ~off ~len = read_with_retry t.dev ~cls t.rname ~off ~len in
        let sec = build_ecc_section ~k ~m ~page ~cov_len:ecc_off ~read in
        if String.length sec = ecc_len then begin
          Device.patch t.dev ~cls t.rname ~off:ecc_off sec;
          t.ecc <- parse_ecc_section t.dev ~name:t.rname (ecc_off, ecc_len);
          fixed := !fixed + (((ecc_len - 1) / page) + 1)
        end
      | None -> ()));
    (* Heal a rotted locator copy from the layout we already trusted. *)
    let loc = ecc_locator ~ecc_off ~ecc_len in
    let tail_off = ecc_off + ecc_len in
    let tail = read_with_retry t.dev ~cls t.rname ~off:tail_off ~len:ecc_tail_size in
    if not (String.equal (String.sub tail 0 ecc_locator_size) loc) then begin
      Device.patch t.dev ~cls t.rname ~off:tail_off loc;
      incr fixed
    end;
    if not (String.equal (String.sub tail ecc_locator_size ecc_locator_size) loc) then begin
      Device.patch t.dev ~cls t.rname ~off:(tail_off + ecc_locator_size) loc;
      incr fixed
    end;
    if !fixed > 0 then t.on_ecc (Ecc_repaired { pages = !fixed; ns = now_ns () - t0 });
    !fixed
