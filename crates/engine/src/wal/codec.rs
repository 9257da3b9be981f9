//! The log's binary format: file header, checksummed frames, and the
//! value codec that writes a commit's values straight from the
//! transaction (no intermediate tree, nothing printed).
//!
//! ```text
//! file    := header frame*
//! header  := "UDBMSWAL" version:u32                      12 bytes
//! frame   := len:u32 crc:u32 payload[len]
//!            crc = CRC-32 (IEEE) over len's four bytes, then the payload
//! payload := commit_ts:u64 txn:u64 n:varint entry{n}
//! entry   := collection:str key:value (0 | 1 value)      0 = tombstone
//! value   := tag, then per tag:
//!              NULL FALSE TRUE    nothing
//!              INT                i64
//!              FLOAT              the f64's bits, u64
//!              STR BYTES          varint length, bytes (STR is UTF-8)
//!              ARRAY              varint count, value*
//!              OBJECT             varint count, (str value)* in stored order
//! str     := varint length, UTF-8 bytes
//! ```
//!
//! Numbers are little-endian; a varint is unsigned LEB128 (at most ten
//! bytes). An object's fields are written in the sorted order it stores
//! them in, so decoding one is a forward walk with no sort. Containers
//! nest at most [`MAX_DEPTH`] deep, on both sides: a value the decoder
//! would refuse is refused at commit instead, before anything installs.
//!
//! Decoding trusts nothing: every length is checked against the bytes
//! that remain before anything is allocated, strings must be UTF-8, keys
//! must be valid keys, and a frame must be consumed exactly.

use udbms_core::{Error, Key, Result, Symbol, Ts, TxnId, Value};

/// The file header: magic, then the format version (`u32`, 1).
pub(crate) const HEADER: [u8; 12] = *b"UDBMSWAL\x01\x00\x00\x00";
/// Length and checksum in front of every payload.
const FRAME_HEADER: usize = 8;
/// How deep containers may nest inside one logged value (the JSON
/// parser's default bound, so anything the JSON codec reads can be
/// logged).
pub(crate) const MAX_DEPTH: usize = 128;
/// The smallest unit of page writeback: a zero-filled, aligned block of
/// this size inside a damaged region is a page the kernel never wrote.
const PAGE: usize = 4096;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const INT: u8 = 3;
const FLOAT: u8 = 4;
const STR: u8 = 5;
const BYTES: u8 = 6;
const ARRAY: u8 = 7;
const OBJECT: u8 = 8;

/// One logged write: collection, key, new value or tombstone.
pub(crate) type Entry<'a> = (&'a str, &'a Key, Option<&'a Value>);

// ---------------------------------------------------------------- CRC-32

/// Slice-by-8 tables for the reflected IEEE polynomial, built at compile
/// time: `TABLES[0]` is the classic byte table, `TABLES[k]` advances a
/// byte that sits `k` positions further back.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Continue a CRC-32 over `bytes`: `crc32(crc32(0, a), b)` is the
/// checksum of `a` followed by `b`.
fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for b in words.remainder() {
        c = t[0][((c ^ u32::from(*b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// -------------------------------------------------------------- encoding

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn too_deep() -> Error {
    Error::Invalid(format!(
        "value nests deeper than {MAX_DEPTH} levels and cannot be logged"
    ))
}

fn put_value(out: &mut Vec<u8>, v: &Value, depth: usize) -> Result<()> {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::Int(i) => {
            out.push(INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(BYTES);
            put_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Array(_) | Value::Object(_) if depth >= MAX_DEPTH => return Err(too_deep()),
        Value::Array(items) => {
            out.push(ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                put_value(out, item, depth + 1)?;
            }
        }
        Value::Object(fields) => {
            out.push(OBJECT);
            put_varint(out, fields.len() as u64);
            for (name, field) in fields {
                put_str(out, name);
                put_value(out, field, depth + 1)?;
            }
        }
    }
    Ok(())
}

/// Append a frame of `entries` to `out` with its commit timestamp left
/// blank for [`seal`] — the commit path encodes before it knows the
/// timestamp. Fails on a value nested deeper than [`MAX_DEPTH`] or a
/// payload past the `u32` length field.
pub(crate) fn encode<'a>(
    out: &mut Vec<u8>,
    txn: TxnId,
    entries: impl ExactSizeIterator<Item = Entry<'a>>,
) -> Result<()> {
    let start = out.len();
    // len, crc and commit_ts are stamped by `seal`
    out.extend_from_slice(&[0; FRAME_HEADER + 8]);
    out.extend_from_slice(&txn.0.to_le_bytes());
    put_varint(out, entries.len() as u64);
    for (collection, key, value) in entries {
        put_str(out, collection);
        put_value(out, key.value(), 0)?;
        match value {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                put_value(out, v, 0)?;
            }
        }
    }
    if out.len() - start - FRAME_HEADER > u32::MAX as usize {
        return Err(Error::Invalid("a commit's log record exceeds 4 GiB".into()));
    }
    Ok(())
}

/// Stamp `commit_ts` into a frame [`encode`] wrote, then its length and
/// checksum (the checksum covers the length, so a damaged length fails
/// it like damaged data).
pub(crate) fn seal(frame: &mut [u8], commit_ts: Ts) {
    frame[FRAME_HEADER..FRAME_HEADER + 8].copy_from_slice(&commit_ts.0.to_le_bytes());
    let len = (frame.len() - FRAME_HEADER) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(crc32(0, &frame[..4]), &frame[FRAME_HEADER..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// [`encode`] then [`seal`]: one finished frame appended to `out`.
pub(crate) fn push_frame<'a>(
    out: &mut Vec<u8>,
    commit_ts: Ts,
    txn: TxnId,
    entries: impl ExactSizeIterator<Item = Entry<'a>>,
) -> Result<()> {
    let start = out.len();
    encode(out, txn, entries)?;
    seal(&mut out[start..], commit_ts);
    Ok(())
}

// -------------------------------------------------------------- decoding

fn malformed(what: &str) -> Error {
    Error::Invalid(format!("malformed wal frame: {what}"))
}

/// A cursor over one payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(malformed("truncated payload"));
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        let mut word = [0; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(malformed("varint overflows 64 bits"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(malformed("varint longer than ten bytes"))
    }

    /// A length or count of items that take at least `min_item` bytes
    /// each, checked against what remains — before anything allocates.
    fn count(&mut self, min_item: usize) -> Result<usize> {
        let n = self.varint()?;
        if n > (self.remaining() / min_item) as u64 {
            return Err(malformed("length exceeds the frame"));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| malformed("string is not UTF-8"))
    }

    /// A field name, interned from the frame's bytes: a name this
    /// thread's cache holds is not validated again.
    fn name(&mut self) -> Result<Symbol> {
        let n = self.count(1)?;
        Symbol::from_utf8(self.take(n)?).map_err(|_| malformed("string is not UTF-8"))
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        Ok(match self.byte()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            INT => Value::Int(self.u64()? as i64),
            FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            STR => Value::Str(self.str()?.to_owned()),
            BYTES => {
                let n = self.count(1)?;
                Value::Bytes(self.take(n)?.to_vec())
            }
            ARRAY | OBJECT if depth >= MAX_DEPTH => return Err(too_deep()),
            ARRAY => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Array(items)
            }
            OBJECT => {
                // a field is at least a one-byte name length and a tag
                let n = self.count(2)?;
                let fields = (0..n).map(|_| Ok((self.name()?, self.value(depth + 1)?)));
                // already sorted when this log wrote it: a check, no sort
                Value::Object(fields.collect::<Result<_>>()?)
            }
            tag => return Err(malformed(&format!("unknown value tag {tag}"))),
        })
    }
}

/// The commit timestamp and transaction of a checksummed frame, read at
/// their fixed offsets without decoding the rest.
pub(crate) fn frame_stamp(frame: &[u8]) -> Result<(Ts, TxnId)> {
    let mut r = Reader {
        bytes: frame,
        pos: FRAME_HEADER,
    };
    Ok((Ts(r.u64()?), TxnId(r.u64()?)))
}

/// Decode a checksummed frame back into the record it was encoded from.
pub(crate) fn decode(frame: &[u8]) -> Result<super::WalRecord> {
    let mut r = Reader {
        bytes: frame,
        pos: FRAME_HEADER,
    };
    let commit_ts = Ts(r.u64()?);
    let txn = TxnId(r.u64()?);
    // an entry is at least a name length, a key tag and a flag
    let n = r.count(3)?;
    let mut writes = Vec::with_capacity(n);
    for _ in 0..n {
        let collection = r.str()?.to_owned();
        let key = Key::new(r.value(0)?).map_err(|e| malformed(&e.to_string()))?;
        let value = match r.byte()? {
            0 => None,
            1 => Some(r.value(0)?),
            flag => return Err(malformed(&format!("unknown write flag {flag}"))),
        };
        writes.push((collection, key, value));
    }
    if r.remaining() > 0 {
        return Err(malformed("bytes after the last write"));
    }
    Ok(super::WalRecord {
        commit_ts,
        txn,
        writes,
    })
}

// ----------------------------------------------------------- frame walk

/// Where the intact frame at `pos` ends, if one starts there: a nonzero
/// length whose payload fits in `bytes` and a matching checksum.
fn frame_end(bytes: &[u8], pos: usize) -> Option<usize> {
    let header = bytes.get(pos..pos + FRAME_HEADER)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let end = (pos + FRAME_HEADER).checked_add(len as usize)?;
    let payload = bytes.get(pos + FRAME_HEADER..end)?;
    (len > 0 && crc32(crc32(0, &header[..4]), payload) == crc).then_some(end)
}

/// Whether an aligned, all-zero page overlaps `bytes[from..to]`.
fn zero_page_in(bytes: &[u8], from: usize, to: usize) -> bool {
    let mut page = from / PAGE * PAGE;
    while page < to && page + PAGE <= bytes.len() {
        if bytes[page..page + PAGE].iter().all(|b| *b == 0) {
            return true;
        }
        page += PAGE;
    }
    false
}

/// Walk a log's bytes frame by frame, handing each intact frame (header
/// included) and its commit timestamp to `each` in order; returns the
/// length of the valid prefix.
///
/// * **Header.** A prefix of [`HEADER`] followed by nothing or by zeros
///   (a header torn mid-write, a first page never written back) is a
///   log that holds nothing yet: the valid prefix is empty. Anything
///   else without the magic, or with another version, is an error.
/// * **Torn tail.** The walk stops, without error, at fewer than eight
///   bytes, at a zero length with a zero checksum (a file size that
///   reached the disk before its data), and at a frame that is short or
///   fails its checksum when no intact frame follows it.
/// * **Interior damage.** A frame that is short or fails its checksum
///   with an intact frame somewhere after it is an error naming its
///   record index and byte offset — unless an aligned zero page lies
///   between the two: a page-writeback hole, past which nothing was ever
///   covered by a completed sync, so the walk stops there instead.
/// * **Commit order.** Each intact frame's commit timestamp must exceed
///   its predecessor's; only a checkpoint's synthetic run (transaction
///   0 on both sides) repeats one. A frame that goes back or repeats is
///   an error with the same location: replaying it would install
///   versions out of order. So is a commit timestamp of `u64::MAX`,
///   after which the next commit's timestamp would overflow.
/// * Errors from `each` come back with the same location.
pub(crate) fn walk(bytes: &[u8], mut each: impl FnMut(&[u8], Ts) -> Result<()>) -> Result<usize> {
    let head = &bytes[..bytes.len().min(HEADER.len())];
    let matched = head.iter().zip(&HEADER).take_while(|(a, b)| a == b).count();
    if matched < HEADER.len() {
        if head[matched..].iter().all(|b| *b == 0) {
            // the header was torn, or its page never written back
            return Ok(0);
        }
        if matched >= 8 {
            return Err(Error::Invalid(format!(
                "unsupported wal format version (header bytes {:?}; this build reads version 1)",
                &head[8..]
            )));
        }
        return Err(Error::Invalid(
            "not a write-ahead log of this engine (no UDBMSWAL header); left untouched".into(),
        ));
    }
    let located = |index: usize, pos: usize, what: String| {
        Error::Invalid(format!(
            "wal corruption at record index {index}, byte offset {pos}: {what}"
        ))
    };
    let mut pos = HEADER.len();
    let mut index = 0;
    let mut prev: Option<(Ts, TxnId)> = None;
    while pos < bytes.len() {
        if let Some(end) = frame_end(bytes, pos) {
            let frame = &bytes[pos..end];
            let at = |e: Error| located(index, pos, e.to_string());
            let (ts, txn) = frame_stamp(frame).map_err(at)?;
            if ts == Ts(u64::MAX) {
                let what = format!("commit timestamp {ts} leaves no room for another commit");
                return Err(located(index, pos, what));
            }
            if let Some((prev_ts, prev_txn)) = prev {
                let synthetic_run = ts == prev_ts && txn == TxnId(0) && prev_txn == TxnId(0);
                if ts <= prev_ts && !synthetic_run {
                    let what = format!("commit timestamp {ts} does not follow {prev_ts}");
                    return Err(located(index, pos, what));
                }
            }
            prev = Some((ts, txn));
            each(frame, ts).map_err(at)?;
            pos = end;
            index += 1;
            continue;
        }
        let padding = bytes.len() - pos < FRAME_HEADER
            || bytes[pos..pos + FRAME_HEADER].iter().all(|b| *b == 0);
        if !padding {
            let next = (pos + 1..bytes.len()).find(|q| frame_end(bytes, *q).is_some());
            if let Some(next) = next.filter(|next| !zero_page_in(bytes, pos, *next)) {
                return Err(located(
                    index,
                    pos,
                    format!(
                        "a damaged frame with an intact one at byte offset {next} after it; \
                         the records after it would be lost"
                    ),
                ));
            }
        }
        break;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // chained over any split, and across the slice-by-8 boundary
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32(0, &data);
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            assert_eq!(crc32(crc32(0, &data[..split]), &data[split..]), whole);
        }
    }

    #[test]
    fn varints_roundtrip_and_reject_overflow() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader {
                bytes: &out,
                pos: 0,
            };
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
        let mut r = Reader {
            bytes: &[0xFF; 10],
            pos: 0,
        };
        assert!(r.varint().is_err());
    }

    #[test]
    fn frames_roundtrip_through_the_walk() {
        let doc = obj! {"b" => 2.5, "a" => Value::Bytes(vec![0, 1]), "c" => Value::Null};
        let key = Key::str("k");
        let mut log = HEADER.to_vec();
        push_frame(
            &mut log,
            Ts(7),
            TxnId(3),
            [("c", &key, Some(&doc)), ("c", &key, None)].into_iter(),
        )
        .unwrap();
        let mut frames = Vec::new();
        let valid = walk(&log, |f, ts| {
            frames.push((ts, decode(f).unwrap()));
            Ok(())
        })
        .unwrap();
        assert_eq!(valid, log.len());
        let (ts, rec) = &frames[0];
        assert_eq!(*ts, Ts(7));
        assert_eq!(rec.txn, TxnId(3));
        assert_eq!(
            rec.writes,
            vec![
                ("c".into(), key.clone(), Some(doc)),
                ("c".into(), key, None)
            ]
        );
    }

    /// A write whose document has shared names, a name too long to
    /// share and non-ASCII names, as the log wrote it before names were
    /// interned.
    const FIXED_FRAME: &str = concat!(
        "b70000000ab8e1dc0700000000000000030000000000000001066f7264657273",
        "05036f2d3101080408637573746f6d6572030700000000000000076772c3b6c3",
        "9f650802046d61c39f020673746174757305046f70656e506e6e6e6e6e6e6e6e",
        "6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e",
        "6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e",
        "6e6e6e6e6e6e6e6e0506696e6c696e6505746f74616c040000000000002340",
    );

    #[test]
    fn interned_names_leave_the_log_format_unchanged() {
        let long = "n".repeat(80);
        let doc = obj! {
            "customer" => 7,
            "total" => 9.5,
            long.as_str() => "inline",
            "größe" => obj! {"maß" => true, "status" => "open"},
        };
        let key = Key::str("o-1");
        let mut frame = Vec::new();
        push_frame(
            &mut frame,
            Ts(7),
            TxnId(3),
            [("orders", &key, Some(&doc))].into_iter(),
        )
        .unwrap();
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, FIXED_FRAME);
        let back = decode(&frame).unwrap().writes.remove(0).2.unwrap();
        assert_eq!(back, doc);
        // a decoded short name is the very copy the document holds; the
        // long one is the decoded object's own
        fn names(v: &Value) -> Vec<&String> {
            let o = v.as_object().unwrap();
            let inner = o.get("größe").unwrap().as_object().unwrap();
            o.keys().chain(inner.keys()).collect()
        }
        for (a, b) in names(&back).into_iter().zip(names(&doc)) {
            assert_eq!(std::ptr::eq(a, b), *a != long, "{a}");
        }
    }

    #[test]
    fn a_name_that_is_not_utf8_is_refused_even_beside_a_cached_one() {
        let decoded = |name: &[u8]| {
            let mut bytes = Vec::new();
            put_value(&mut bytes, &obj! {"customer" => 1}, 0).unwrap();
            // the name's bytes follow the tag, the count and the length
            bytes[3..3 + name.len()].copy_from_slice(name);
            Reader {
                bytes: &bytes,
                pos: 0,
            }
            .value(0)
        };
        // caches "customer" in this thread, by its bytes
        let cached = decoded(b"customer").unwrap();
        assert_eq!(cached, obj! {"customer" => 1});
        // invalid bytes of the cached name's length, and the name itself
        // with a byte flipped into a lone continuation byte
        for name in [b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8", b"custom\x80r"] {
            let err = decoded(name).unwrap_err();
            assert!(err.to_string().contains("string is not UTF-8"), "{err}");
        }
        assert_eq!(decoded(b"customer").unwrap(), cached);
    }

    #[test]
    fn nesting_is_bounded_on_both_sides() {
        let mut deep = Value::Null;
        for _ in 0..MAX_DEPTH {
            deep = Value::Array(vec![deep]);
        }
        let key = Key::int(1);
        let mut out = Vec::new();
        push_frame(
            &mut out,
            Ts(1),
            TxnId(1),
            [("c", &key, Some(&deep))].into_iter(),
        )
        .unwrap();
        assert_eq!(decode(&out).unwrap().writes[0].2.as_ref(), Some(&deep));
        let deeper = Value::Array(vec![deep]);
        let err = encode(
            &mut Vec::new(),
            TxnId(1),
            [("c", &key, Some(&deeper))].into_iter(),
        );
        assert!(err.is_err(), "the encoder refuses what the decoder would");
    }
}
