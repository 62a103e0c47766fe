module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c
module Comparator = Lsm_util.Comparator
module Entry = Lsm_record.Entry
module Slice = Lsm_record.Slice
module Iter = Lsm_record.Iter

module Builder = struct
  type t = {
    restart_interval : int;
    mutable buf : Buffer.t;
    mutable restarts : int list;  (** reversed offsets *)
    mutable nrestarts : int;
        (** [List.length restarts], kept incrementally — [size_estimate]
            runs once per entry, and walking the list each call made
            block building quadratic in entries per block *)
    mutable since_restart : int;
    mutable last_key : string;
    mutable count : int;
  }

  let create ?(restart_interval = 16) () =
    {
      restart_interval;
      buf = Buffer.create 4096;
      restarts = [];
      nrestarts = 0;
      since_restart = 0;
      last_key = "";
      count = 0;
    }

  let common_prefix_len a b =
    let n = min (String.length a) (String.length b) in
    let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
    loop 0

  let add t (e : Entry.t) =
    let shared =
      if t.since_restart >= t.restart_interval || t.count = 0 then begin
        t.restarts <- Buffer.length t.buf :: t.restarts;
        t.nrestarts <- t.nrestarts + 1;
        t.since_restart <- 0;
        0
      end
      else common_prefix_len t.last_key e.key
    in
    let unshared = String.length e.key - shared in
    Codec.put_varint t.buf shared;
    Codec.put_varint t.buf unshared;
    Buffer.add_substring t.buf e.key shared unshared;
    Codec.put_varint t.buf e.seqno;
    Codec.put_u8 t.buf (Entry.kind_to_int e.kind);
    Codec.put_lp_string t.buf e.value;
    t.last_key <- e.key;
    t.since_restart <- t.since_restart + 1;
    t.count <- t.count + 1

  let size_estimate t = Buffer.length t.buf + (4 * (t.nrestarts + 2))
  let count t = t.count
  let is_empty t = t.count = 0

  (* The block is laid out once, in its final buffer: records, restart
     trailer, then the CRC of everything before it, hashed in place. *)
  let finish t =
    let data_len = Buffer.length t.buf in
    let n = data_len + (4 * (t.nrestarts + 2)) in
    let out = Bytes.create n in
    Buffer.blit t.buf 0 out 0 data_len;
    let set_u32 off v = Bytes.set_int32_le out off (Int32.of_int v) in
    List.iteri (fun i off -> set_u32 (n - 12 - (4 * i)) off) t.restarts;
    set_u32 (n - 8) t.nrestarts;
    let crc = Crc32c.mask (Crc32c.sub (Bytes.unsafe_to_string out) ~pos:0 ~len:(n - 4)) in
    Bytes.set_int32_le out (n - 4) crc;
    Buffer.clear t.buf;
    t.restarts <- [];
    t.nrestarts <- 0;
    t.since_restart <- 0;
    t.last_key <- "";
    t.count <- 0;
    Bytes.unsafe_to_string out
end

(* A verified block, decoded once: the backing buffer is retained whole
   (records live at [pbase, pdata_end)), restart offsets are absolute
   positions in [pbody]. This is what the block cache stores, so a cache
   hit pays neither CRC nor trailer parsing. *)
type parsed = { pbody : string; pbase : int; pdata_end : int; prestarts : int array }

let parsed_cost p = String.length p.pbody + (8 * Array.length p.prestarts)

let parse_checked ?(base = 0) block =
  let n = String.length block in
  if base < 0 || base > n then invalid_arg "Block.parse_checked: bad base";
  if n - base < 8 then raise (Codec.Corrupt "block too small");
  let stored = Int32.of_int (Codec.get_u32 (Codec.reader ~pos:(n - 4) block)) in
  if Crc32c.mask (Crc32c.sub block ~pos:base ~len:(n - 4 - base)) <> stored then
    raise (Codec.Corrupt "block checksum mismatch");
  let count = Codec.get_u32 (Codec.reader ~pos:(n - 8) block) in
  let data_end = n - 8 - (4 * count) in
  if data_end < base then raise (Codec.Corrupt "bad restart count");
  let restarts =
    Array.init count (fun i -> base + Codec.get_u32 (Codec.reader ~pos:(data_end + (4 * i)) block))
  in
  { pbody = block; pbase = base; pdata_end = data_end; prestarts = restarts }

module Cursor = struct
  (* An arena cursor over one parsed block. The current key lives in
     [kbuf] (one reusable buffer, extended in place when the shared
     prefix grows); the current value is an [(off, len)] window into the
     block body. Nothing per-record is allocated until the caller
     materializes via [entry]/[key]/[value]. [cmp] and [p] are mutable so
     one cursor can be re-aimed at another block ({!reset}) and reused
     across point lookups. *)
  type t = {
    mutable cmp : Comparator.t;
    mutable bytewise : bool;  (** [cmp] is the bytewise order: {!seek} may track prefixes *)
    mutable p : parsed;
    mutable pos : int;  (** read position of the next record *)
    mutable kbuf : Bytes.t;
    mutable klen : int;
    mutable cseqno : int;
    mutable ckind : Entry.kind;
    mutable voff : int;
    mutable vlen : int;
    mutable cvalid : bool;
  }

  let is_bytewise (cmp : Comparator.t) = String.equal cmp.name Comparator.bytewise.name

  let make cmp p =
    {
      cmp;
      bytewise = is_bytewise cmp;
      p;
      pos = p.pdata_end;
      kbuf = Bytes.create 64;
      klen = 0;
      cseqno = 0;
      ckind = Entry.Put;
      voff = 0;
      vlen = 0;
      cvalid = false;
    }

  let empty_block = { pbody = ""; pbase = 0; pdata_end = 0; prestarts = [||] }
  let create () = make Comparator.bytewise empty_block

  let reset c cmp p =
    if c.cmp != cmp then begin
      c.cmp <- cmp;
      c.bytewise <- is_bytewise cmp
    end;
    c.p <- p;
    c.pos <- p.pdata_end;
    c.klen <- 0;
    c.cvalid <- false

  (* Manual byte readers over [p.pbody] bounded by [pdata_end]: the hot
     loop must not allocate a Codec.reader per record. *)
  let u8 c =
    if c.pos >= c.p.pdata_end then raise (Codec.Corrupt "truncated record");
    let v = Char.code (String.unsafe_get c.p.pbody c.pos) in
    c.pos <- c.pos + 1;
    v

  (* Top-level recursion, not a nested [let rec]: a local loop would
     capture [c] and allocate a closure on every call — tens of minor
     words per seek on the hottest path in the engine. *)
  let rec varint_loop c shift acc =
    if shift > 63 then raise (Codec.Corrupt "varint too long");
    let b = u8 c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_loop c (shift + 7) acc

  let varint c = varint_loop c 0 0

  let grow_kbuf c need =
    let cap = max need (2 * Bytes.length c.kbuf) in
    let nb = Bytes.create cap in
    (* Only the live prefix of the old arena carries over. *)
    Bytes.blit c.kbuf 0 nb 0 c.klen;
    c.kbuf <- nb

  (* Decode the record at [c.pos] with a bound check per byte — the
     reference decoder, and the path for the last few records of a
     block. Sets the cursor on it and returns its [shared] count, or -1
     (cursor invalid) at the end of the block. A record is [shared |
     unshared | key bytes | seqno | kind | vlen | value]. *)
  let advance_checked c =
    if c.pos >= c.p.pdata_end then begin
      c.cvalid <- false;
      -1
    end
    else begin
      let shared = varint c in
      let unshared = varint c in
      if shared > c.klen then raise (Codec.Corrupt "bad shared prefix");
      if c.pos + unshared > c.p.pdata_end then raise (Codec.Corrupt "truncated key");
      if Bytes.length c.kbuf < shared + unshared then grow_kbuf c (shared + unshared);
      Bytes.blit_string c.p.pbody c.pos c.kbuf shared unshared;
      c.pos <- c.pos + unshared;
      c.klen <- shared + unshared;
      c.cseqno <- varint c;
      c.ckind <- Entry.kind_of_int (u8 c);
      let vlen = varint c in
      if c.pos + vlen > c.p.pdata_end then raise (Codec.Corrupt "truncated value");
      c.voff <- c.pos;
      c.vlen <- vlen;
      c.pos <- c.pos + vlen;
      c.cvalid <- true;
      shared
    end

  (* Fast-path varint read at [pos] with no bound check (the caller has
     checked [max_varint] bytes fit): [(value lsl 4) lor length] for an
     encoding of at most 8 bytes, else -1, and the caller redoes the
     record on the checked path, which owns the over-long-varint error. *)
  let max_varint = 10

  let rec packed_loop s pos i acc =
    if i >= 8 then -1
    else
      let b = Char.code (String.unsafe_get s (pos + i)) in
      let acc = acc lor ((b land 0x7f) lsl (7 * i)) in
      if b < 0x80 then (acc lsl 4) lor (i + 1) else packed_loop s pos (i + 1) acc

  let[@inline] packed_varint s pos =
    let b = Char.code (String.unsafe_get s pos) in
    if b < 0x80 then (b lsl 4) lor 1 else packed_loop s pos 0 0

  (* [advance_checked] with one bound check for the two varints ahead of
     the key and one for the three fields after it, instead of one per
     byte. The record is decoded into locals and committed at the end,
     so falling back to the checked path (a varint over 8 bytes, or the
     worst case not fitting before [pdata_end]) redoes it from its
     start. Corruption raises [Codec.Corrupt] as on the checked path. *)
  let advance c =
    let body = c.p.pbody and data_end = c.p.pdata_end and pos = c.pos in
    if pos + (2 * max_varint) > data_end then advance_checked c
    else
      let a = packed_varint body pos in
      let b = if a < 0 then -1 else packed_varint body (pos + (a land 15)) in
      if b < 0 then advance_checked c
      else begin
        let shared = a lsr 4 and unshared = b lsr 4 in
        let kpos = pos + (a land 15) + (b land 15) in
        if shared > c.klen then raise (Codec.Corrupt "bad shared prefix");
        if kpos + unshared > data_end then raise (Codec.Corrupt "truncated key");
        let q = kpos + unshared in
        if q + (2 * max_varint) + 1 > data_end then advance_checked c
        else
          let sq = packed_varint body q in
          let q = q + (sq land 15) in
          let v = if sq < 0 then -1 else packed_varint body (q + 1) in
          if v < 0 then advance_checked c
          else begin
            let kind = Entry.kind_of_int (Char.code (String.unsafe_get body q)) in
            let voff = q + 1 + (v land 15) and vlen = v lsr 4 in
            if voff + vlen > data_end then raise (Codec.Corrupt "truncated value");
            let klen = shared + unshared in
            if Bytes.length c.kbuf < klen then grow_kbuf c klen;
            Bytes.blit_string body kpos c.kbuf shared unshared;
            c.klen <- klen;
            c.cseqno <- sq lsr 4;
            c.ckind <- kind;
            c.voff <- voff;
            c.vlen <- vlen;
            c.pos <- voff + vlen;
            c.cvalid <- true;
            shared
          end
      end

  let reset_to c off =
    c.pos <- off;
    c.klen <- 0;
    c.cvalid <- false;
    ignore (advance c)

  let seek_to_first c =
    if Array.length c.p.prestarts = 0 then c.cvalid <- false
    else reset_to c c.p.prestarts.(0)

  (* Compare the full key stored at restart [i] against [target] without
     materializing it: restart records carry shared = 0, so the key is a
     contiguous window of the body. Leaves [c.pos] untouched. *)
  let restart_cmp c i target =
    let saved = c.pos in
    c.pos <- c.p.prestarts.(i);
    let shared = varint c in
    if shared <> 0 then raise (Codec.Corrupt "bad shared prefix");
    let unshared = varint c in
    if c.pos + unshared > c.p.pdata_end then raise (Codec.Corrupt "truncated key");
    let r = Comparator.compare_sub c.cmp c.p.pbody ~pos:c.pos ~len:unshared target in
    c.pos <- saved;
    r

  (* Prefix-tracking forward scan, bytewise order only.

     Invariant relied on: inside a restart interval the builder writes
     each record's [shared] as the {e maximal} common prefix with the
     previous key ([Builder.add]); a restart record writes 0. Let [m] be
     the common prefix of the current key (known < target) and the
     target. For the next record:
     - [shared > m]: it agrees with the current key past byte [m], so it
       is still < target with the same [m]; skip the compare;
     - [shared < m]: it first differs from the current key at byte
       [shared], upward (keys ascend), where the current key agrees with
       the target; so it is > target: the first key >= target; stop;
     - [shared = m]: compare from byte [m] onward only.
     A restart record (shared = 0 < m) is stopped at by the second case,
     which is right because the restart binary search in {!seek} already
     placed the target at or before that restart's key. Other orders
     give no such prefix/order link and keep the full-compare loop. *)
  let rec lcp_from kbuf target i n =
    if i < n && Bytes.unsafe_get kbuf i = String.unsafe_get target i then
      lcp_from kbuf target (i + 1) n
    else i

  let rec scan_prefix c target m =
    let shared = advance c in
    if shared > m then scan_prefix c target m
    else if shared = m then compare_from c target m

  (* The current key agrees with [target] on [0, m): finish the compare
     from byte [m], and keep scanning while the key is below target. *)
  and compare_from c target m =
    let tlen = String.length target in
    let n = min c.klen tlen in
    let j = lcp_from c.kbuf target m n in
    if j < n then begin
      if Bytes.unsafe_get c.kbuf j < String.unsafe_get target j then scan_prefix c target j
    end
    else if c.klen < tlen then scan_prefix c target j

  let seek c target =
    if Array.length c.p.prestarts = 0 then c.cvalid <- false
    else begin
      (* Rightmost restart whose key is < target (so the target, if
         present, lies at or after it). *)
      let lo = ref 0 and hi = ref (Array.length c.p.prestarts - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if restart_cmp c mid target < 0 then lo := mid else hi := mid - 1
      done;
      reset_to c c.p.prestarts.(!lo);
      if c.bytewise then begin
        if c.cvalid then compare_from c target 0
      end
      else
        while c.cvalid && Comparator.compare_bytes c.cmp c.kbuf ~len:c.klen target < 0 do
          ignore (advance c)
        done
    end

  let valid c = c.cvalid
  let next c = if c.cvalid then ignore (advance c)

  let require c who = if not c.cvalid then invalid_arg ("Block.Cursor." ^ who ^ ": not valid")

  let key c =
    require c "key";
    Bytes.sub_string c.kbuf 0 c.klen

  let key_compare c target =
    require c "key_compare";
    Comparator.compare_bytes c.cmp c.kbuf ~len:c.klen target

  let seqno c =
    require c "seqno";
    c.cseqno

  let kind c =
    require c "kind";
    c.ckind

  let value_slice c =
    require c "value_slice";
    Slice.v c.p.pbody ~off:c.voff ~len:c.vlen

  let value c =
    require c "value";
    String.sub c.p.pbody c.voff c.vlen

  let entry c =
    require c "entry";
    {
      Entry.key = Bytes.sub_string c.kbuf 0 c.klen;
      seqno = c.cseqno;
      kind = c.ckind;
      value = String.sub c.p.pbody c.voff c.vlen;
    }
end

let iterator (cmp : Comparator.t) p =
  let c = Cursor.make cmp p in
  (* Merging iterators call [entry] several times per record; memoize
     the materialization so each record is built at most once. *)
  let memo = ref None in
  let entry () =
    match !memo with
    | Some e -> e
    | None ->
      let e = Cursor.entry c in
      memo := Some e;
      e
  in
  {
    Iter.valid = (fun () -> Cursor.valid c);
    entry;
    next =
      (fun () ->
        memo := None;
        Cursor.next c);
    seek =
      (fun target ->
        memo := None;
        Cursor.seek c target);
    seek_to_first =
      (fun () ->
        memo := None;
        Cursor.seek_to_first c);
  }
