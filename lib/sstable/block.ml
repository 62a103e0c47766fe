module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c
module Comparator = Lsm_util.Comparator
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter

module Builder = struct
  (* Records are encoded straight into [out], the buffer the block is
     laid out in, behind one reserved byte for the table's frame tag:
     [finish_into] only appends the restart trailer and the CRC. *)
  type t = {
    restart_interval : int;
    mutable out : Bytes.t;  (** [0] is the frame tag, records from 1; reused *)
    mutable len : int;  (** bytes of [out] in use: the tag and the records *)
    mutable restarts : int array;  (** record offsets; [nrestarts] are live *)
    mutable nrestarts : int;
    mutable since_restart : int;
    mutable last_key : string;
    mutable count : int;
  }

  let create ?(restart_interval = 16) () =
    {
      restart_interval;
      out = Bytes.make 4096 '\x00';
      len = 1;
      restarts = Array.make 16 0;
      nrestarts = 0;
      since_restart = 0;
      last_key = "";
      count = 0;
    }

  (* Top-level recursion, as in [Cursor]: a nested [let rec] would
     capture [a], [b] and [n] and allocate a closure per record. *)
  let rec common_prefix_from a b n i =
    if i < n && String.unsafe_get a i = String.unsafe_get b i then common_prefix_from a b n (i + 1)
    else i

  let common_prefix_len a b = common_prefix_from a b (min (String.length a) (String.length b)) 0

  (* Room for [n] more bytes in [out]. *)
  let reserve t n =
    if t.len + n > Bytes.length t.out then begin
      let grown = Bytes.create (max (t.len + n) (2 * Bytes.length t.out)) in
      Bytes.blit t.out 0 grown 0 t.len;
      t.out <- grown
    end

  (* A varint written in place at [pos]; returns the position after it.
     The caller reserved room for it. *)
  let rec varint_at b pos v =
    if v < 0x80 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr v);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
      varint_at b (pos + 1) (v lsr 7)
    end

  let max_varint = 10

  let push_restart t =
    if t.nrestarts = Array.length t.restarts then begin
      let grown = Array.make (2 * t.nrestarts) 0 in
      Array.blit t.restarts 0 grown 0 t.nrestarts;
      t.restarts <- grown
    end;
    t.restarts.(t.nrestarts) <- t.len - 1;
    t.nrestarts <- t.nrestarts + 1

  (* The one way a record enters a block: its key, seqno and kind, and
     its value as the window [vbase.[voff .. voff + vlen)], whose bytes
     are copied into the block here. *)
  let add_record t key seqno kind vbase voff vlen =
    if seqno < 0 then invalid_arg "Block.Builder: negative seqno";
    let shared =
      if t.since_restart >= t.restart_interval || t.count = 0 then begin
        push_restart t;
        t.since_restart <- 0;
        0
      end
      else common_prefix_len t.last_key key
    in
    let unshared = String.length key - shared in
    reserve t ((4 * max_varint) + 1 + unshared + vlen);
    let b = t.out in
    let pos = varint_at b t.len shared in
    let pos = varint_at b pos unshared in
    Bytes.blit_string key shared b pos unshared;
    let pos = varint_at b (pos + unshared) seqno in
    Bytes.unsafe_set b pos (Char.unsafe_chr (Entry.kind_to_int kind));
    let pos = varint_at b (pos + 1) vlen in
    Bytes.blit_string vbase voff b pos vlen;
    t.len <- pos + vlen;
    t.last_key <- key;
    t.since_restart <- t.since_restart + 1;
    t.count <- t.count + 1

  let add_view t (v : Iter.view) = add_record t v.key v.seqno v.kind v.vbase v.voff v.vlen

  let size_estimate t = t.len - 1 + (4 * (t.nrestarts + 2))
  let is_empty t = t.count = 0

  (* Seal the block where its records lie: restart trailer, then the CRC
     of everything from offset 1, hashed in place. *)
  let finish_into t =
    let n = t.len + (4 * (t.nrestarts + 2)) in
    reserve t (n - t.len);
    let out = t.out in
    Bytes.set out 0 '\x00';
    for j = 0 to t.nrestarts - 1 do
      Bytes.set_int32_le out (t.len + (4 * j)) (Int32.of_int t.restarts.(j))
    done;
    Bytes.set_int32_le out (n - 8) (Int32.of_int t.nrestarts);
    let crc = Crc32c.mask (Crc32c.sub (Bytes.unsafe_to_string out) ~pos:1 ~len:(n - 5)) in
    Bytes.set_int32_le out (n - 4) (Int32.of_int crc);
    t.len <- 1;
    t.nrestarts <- 0;
    t.since_restart <- 0;
    t.last_key <- "";
    t.count <- 0;
    n

  let window t = Bytes.unsafe_to_string t.out
end

(* A verified block, decoded once: the backing buffer is retained whole
   (records live at [pbase, pdata_end)), restart offsets are absolute
   positions in [pbody]. This is what the block cache stores, so a cache
   hit pays neither CRC nor trailer parsing. [pbody] may be a device
   chunk that holds other blocks too, so the charge is the block's own
   bytes, [pbytes], not the buffer's length. *)
type parsed = {
  pbody : string;
  pbase : int;
  pdata_end : int;
  prestarts : int array;
  pbytes : int;
}

let parsed_cost p = p.pbytes + (8 * Array.length p.prestarts)

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffffffff

let parse block ~start ~base ~stop:n =
  if n < 0 || n > String.length block then invalid_arg "Block.parse: bad stop";
  if start < 0 || base < start || base > n then invalid_arg "Block.parse: bad base";
  if n - base < 8 then raise (Codec.Corrupt "block too small");
  let stored = u32_at block (n - 4) in
  if not (Int.equal (Crc32c.mask (Crc32c.sub block ~pos:base ~len:(n - 4 - base))) stored) then
    raise (Codec.Corrupt "block checksum mismatch");
  (* Trailer words read in place, with no reader or closure: a block
     parse runs once per block a scan or compaction reads. *)
  let count = u32_at block (n - 8) in
  let data_end = n - 8 - (4 * count) in
  if data_end < base then raise (Codec.Corrupt "bad restart count");
  let restarts = Array.make count 0 in
  for i = 0 to count - 1 do
    restarts.(i) <- base + u32_at block (data_end + (4 * i))
  done;
  {
    pbody = block;
    pbase = base;
    pdata_end = data_end;
    prestarts = restarts;
    pbytes = n - start;
  }

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

  let empty_block = { pbody = ""; pbase = 0; pdata_end = 0; prestarts = [||]; pbytes = 0 }
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

  let key_compare c target =
    require c "key_compare";
    Comparator.compare_bytes c.cmp c.kbuf ~len:c.klen target

  let seqno c =
    require c "seqno";
    c.cseqno

  let kind c =
    require c "kind";
    c.ckind

  let fill_view c (v : Iter.view) =
    require c "fill_view";
    v.key <- Bytes.sub_string c.kbuf 0 c.klen;
    v.seqno <- c.cseqno;
    v.kind <- c.ckind;
    v.vbase <- c.p.pbody;
    v.voff <- c.voff;
    v.vlen <- c.vlen

  let entry c =
    require c "entry";
    {
      Entry.key = Bytes.sub_string c.kbuf 0 c.klen;
      seqno = c.cseqno;
      kind = c.ckind;
      value = String.sub c.p.pbody c.voff c.vlen;
    }
end
