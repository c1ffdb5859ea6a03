//! Durable paged binary trace store — the compact, seekable one of the
//! tracer's two file sinks.
//!
//! The JSONL sink ([`crate::trace`]) renders one self-contained JSON
//! object per event: ideal for eyeballs and `grep`, but the rendered text
//! is ~5x the information content and can only be read front to back.
//! This module stores the same events in a form a long run can afford and
//! a replay can seek in:
//!
//! * **Fixed-size pages.** A `.ptr` file is a header page followed by
//!   append-only data pages of the same fixed size. Every page is
//!   self-describing (magic, payload length, event count, CRC-32, the
//!   ordinal and timestamp of its first event), so any page can be decoded
//!   without reading any other page — the property that makes replay
//!   seekable and crash recovery page-granular.
//! * **Varint/delta encoding.** Event timestamps are zigzag-varint deltas
//!   against the previous event in the same page; event names and field
//!   keys go through a per-page string dictionary, so the hot categories
//!   (`kernel`, `llc`, `dram`) cost a handful of bytes per event instead
//!   of a rendered line.
//! * **A small buffer manager with ordered flush.** The writer encodes
//!   into an in-memory page frame; sealed pages queue in a bounded pool
//!   and are written strictly in page order (WAL-style: page *n* is never
//!   deferred behind page *n+1*), so a crash leaves a valid page prefix
//!   plus at most one torn tail that [`TraceReader`] detects by CRC and
//!   reports instead of misparsing.
//! * **Seekable, bounded-memory replay.** [`TraceReader`] streams one
//!   page frame at a time regardless of trace length, and
//!   [`TraceReader::seek_event`] / [`TraceReader::seek_time`] binary-search
//!   the page headers — O(log pages) header reads, never a full scan.
//!
//! The store is format-only: it knows nothing about trace categories or
//! filtering. [`crate::trace`] selects it when `PARD_TRACE` names a
//! `.ptr` path, always with the default [`StoreConfig`] (the config is
//! this module's own seam, which its tests use to cross page boundaries
//! with small pages), and re-renders decoded events into byte-identical
//! JSONL lines for the tools (see `trace::render_stored`).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: first eight bytes of every trace store.
pub const MAGIC: [u8; 8] = *b"PARDTRC1";

/// Format version recorded in the file header.
pub const VERSION: u32 = 1;

/// Per-data-page magic (little-endian `u32` of `b"PTpg"`).
pub const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"PTpg");

/// Bytes of every data page consumed by the page header.
pub const PAGE_HEADER_LEN: usize = 32;

/// Default page size in bytes (a few hundred encoded events per page).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Smallest / largest accepted page size.
pub const MIN_PAGE_SIZE: usize = 512;
/// Largest accepted page size.
pub const MAX_PAGE_SIZE: usize = 1 << 20;

/// Default buffer-pool capacity, in sealed pages buffered before a write.
pub const DEFAULT_POOL_PAGES: usize = 8;

/// Writer configuration: page geometry and buffer-pool depth.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Page size in bytes (`MIN_PAGE_SIZE..=MAX_PAGE_SIZE`).
    pub page_size: usize,
    /// Sealed pages buffered before the pool writes them out in order.
    pub pool_pages: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            page_size: DEFAULT_PAGE_SIZE,
            pool_pages: DEFAULT_POOL_PAGES,
        }
    }
}

impl StoreConfig {
    /// Validates the configuration, returning a message naming the bad
    /// field.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size < MIN_PAGE_SIZE || self.page_size > MAX_PAGE_SIZE {
            return Err(format!(
                "page_size {} out of range ({MIN_PAGE_SIZE}..={MAX_PAGE_SIZE})",
                self.page_size
            ));
        }
        if self.pool_pages == 0 {
            return Err("pool_pages must be >= 1".to_string());
        }
        Ok(())
    }
}

/// An owned field value of a decoded (or staged) trace event.
///
/// [`ValRef`] with the string owned, so decoded events are
/// self-contained.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// An unsigned counter / identifier.
    U(u64),
    /// A floating-point measurement (bit-exact through the store).
    F(f64),
    /// A string label.
    S(String),
    /// A boolean flag.
    B(bool),
}

impl Val {
    /// A borrowed view, as the writer consumes.
    pub fn as_ref(&self) -> ValRef<'_> {
        match self {
            Val::U(u) => ValRef::U(*u),
            Val::F(f) => ValRef::F(*f),
            Val::S(s) => ValRef::S(s),
            Val::B(b) => ValRef::B(*b),
        }
    }
}

/// A borrowed field value, as accepted by [`TraceWriter::append`]. With a
/// `'static` label it is the tracer's field type, `trace::TraceVal`.
#[derive(Debug, Clone, Copy)]
pub enum ValRef<'a> {
    /// An unsigned counter / identifier.
    U(u64),
    /// A floating-point measurement.
    F(f64),
    /// A string label.
    S(&'a str),
    /// A boolean flag.
    B(bool),
}

/// One decoded trace event.
///
/// `cat` is the raw category byte (`trace::TraceCat as u8`); the store
/// does not interpret it — `trace::render_stored` validates it when
/// re-rendering JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Raw category byte.
    pub cat: u8,
    /// Timestamp in simulation time units.
    pub time: u64,
    /// DS-id the event is attributed to.
    pub ds: u16,
    /// Event name.
    pub event: String,
    /// Key/value fields, in emission order.
    pub fields: Vec<(String, Val)>,
}

impl Event {
    /// Borrowed `(key, value)` views of the fields, for re-encoding.
    pub fn field_refs(&self) -> impl ExactSizeIterator<Item = (&str, ValRef<'_>)> + Clone {
        self.fields.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }
}

/// Reader-side failure classification.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file header is not a valid trace store.
    BadHeader(String),
    /// A page in the middle of the file fails validation while later
    /// pages are valid — real corruption, not a torn append tail.
    CorruptPage {
        /// Zero-based data-page index.
        page: u64,
        /// What failed.
        detail: String,
    },
    /// A record inside a CRC-valid page does not decode.
    BadRecord {
        /// Zero-based data-page index.
        page: u64,
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadHeader(d) => write!(f, "bad store header: {d}"),
            StoreError::CorruptPage { page, detail } => {
                write!(f, "corrupt page {page}: {detail}")
            }
            StoreError::BadRecord { page, detail } => {
                write!(f, "bad record in page {page}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Description of a torn append tail found (and skipped) by the reader.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// Zero-based index of the first unreadable data page.
    pub page: u64,
    /// Events successfully decoded before the tear.
    pub events_recovered: u64,
    /// Bytes from the tear to end-of-file.
    pub trailing_bytes: u64,
    /// Why the tail page was rejected.
    pub detail: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn tail at page {}: {} ({} events recovered, {} trailing bytes discarded)",
            self.page, self.detail, self.events_recovered, self.trailing_bytes
        )
    }
}

// ---------------------------------------------------------------------------
// varint / zigzag / crc32 primitives
// ---------------------------------------------------------------------------

/// Appends `v` as a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `buf[*pos..]`.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err("varint runs past page payload".to_string());
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err("varint overflows u64".to_string());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag maps a wrapping u64 delta so small magnitudes (either sign)
/// encode short.
fn zigzag(v: u64) -> u64 {
    let s = v as i64;
    ((s << 1) ^ (s >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> u64 {
    ((v >> 1) ^ (v & 1).wrapping_neg()) as u64
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) over `data`, the per-page payload checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// record encoding
// ---------------------------------------------------------------------------

const TAG_U: u8 = 0;
const TAG_F: u8 = 1;
const TAG_S: u8 = 2;
const TAG_B_TRUE: u8 = 3;
const TAG_B_FALSE: u8 = 4;

/// Encodes a string reference: `0` + len + bytes defines a new dictionary
/// entry, `n >= 1` references entry `n-1`.
fn put_str(buf: &mut Vec<u8>, dict: &mut Vec<String>, s: &str) {
    if let Some(i) = dict.iter().position(|d| d == s) {
        put_varint(buf, i as u64 + 1);
    } else {
        put_varint(buf, 0);
        put_varint(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
        dict.push(s.to_string());
    }
}

fn get_str(buf: &[u8], pos: &mut usize, dict: &mut Vec<String>) -> Result<String, String> {
    let id = get_varint(buf, pos)?;
    if id == 0 {
        let len = get_varint(buf, pos)? as usize;
        let Some(bytes) = buf.get(*pos..*pos + len) else {
            return Err("string runs past page payload".to_string());
        };
        *pos += len;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| "string is not UTF-8".to_string())?
            .to_string();
        dict.push(s.clone());
        Ok(s)
    } else {
        dict.get(id as usize - 1)
            .cloned()
            .ok_or_else(|| format!("string ref {id} beyond dictionary"))
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// Append-only writer: encodes events into fixed-size pages through a
/// small ordered-flush buffer pool.
///
/// Dropping the writer flushes best-effort; call [`TraceWriter::finish`]
/// to observe flush errors.
#[derive(Debug)]
pub struct TraceWriter {
    file: File,
    page_size: usize,
    pool_pages: usize,
    /// The page being encoded. `cur[..PAGE_HEADER_LEN]` is reserved for
    /// the header, filled at seal time.
    cur: Vec<u8>,
    /// Sealed pages awaiting their ordered write (bounded by
    /// `pool_pages`).
    sealed: VecDeque<Vec<u8>>,
    /// Recycled page frames.
    free: Vec<Vec<u8>>,
    /// Per-page string dictionary (reset at each seal).
    dict: Vec<String>,
    scratch: Vec<u8>,
    /// Events encoded into the current page.
    cur_events: u32,
    /// Ordinal of the current page's first event.
    cur_first_event: u64,
    /// Timestamp of the current page's first event.
    cur_first_time: u64,
    /// Delta base for the next record.
    prev_time: u64,
    events_total: u64,
    bytes_written: u64,
}

impl TraceWriter {
    /// Creates `path`, writes the file header page, and returns a writer.
    ///
    /// # Errors
    ///
    /// Fails if `config` is invalid (`InvalidInput`) or the file cannot be
    /// created/written.
    pub fn create(path: impl AsRef<Path>, config: StoreConfig) -> io::Result<TraceWriter> {
        config
            .validate()
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidInput, m))?;
        let mut file = File::create(path)?;
        let mut header = vec![0u8; config.page_size];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&(config.page_size as u32).to_le_bytes());
        header[12..16].copy_from_slice(&VERSION.to_le_bytes());
        file.write_all(&header)?;
        Ok(TraceWriter {
            file,
            page_size: config.page_size,
            pool_pages: config.pool_pages,
            cur: vec![0u8; PAGE_HEADER_LEN],
            sealed: VecDeque::new(),
            free: Vec::new(),
            dict: Vec::new(),
            scratch: Vec::new(),
            cur_events: 0,
            cur_first_event: 0,
            cur_first_time: 0,
            prev_time: 0,
            events_total: 0,
            bytes_written: config.page_size as u64,
        })
    }

    /// Events appended so far.
    pub fn events_written(&self) -> u64 {
        self.events_total
    }

    /// File bytes written **and buffered**: header page plus one full page
    /// per sealed-or-current non-empty page (the on-disk size after
    /// [`TraceWriter::finish`]).
    pub fn bytes_total(&self) -> u64 {
        let pending = self.sealed.len() as u64 + u64::from(self.cur_events > 0);
        self.bytes_written + pending * self.page_size as u64
    }

    /// Appends one event.
    ///
    /// `fields` may be consumed twice (the record is re-encoded when it
    /// does not fit the current page), hence `Clone`.
    ///
    /// # Errors
    ///
    /// Propagates pool write failures; rejects an event whose encoding
    /// exceeds a whole page payload (`InvalidInput`).
    pub fn append<'a, I>(
        &mut self,
        cat: u8,
        time: u64,
        ds: u16,
        event: &str,
        fields: I,
    ) -> io::Result<()>
    where
        I: IntoIterator<Item = (&'a str, ValRef<'a>)> + Clone,
        I::IntoIter: ExactSizeIterator,
    {
        if !self.try_encode(cat, time, ds, event, fields.clone()) {
            // Record does not fit the current page: seal it and re-encode
            // against the fresh page (empty dictionary, delta base reset).
            self.seal_page()?;
            if !self.try_encode(cat, time, ds, event, fields) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "trace event {event:?} exceeds one page ({} B)",
                        self.page_size
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Encodes one record into the current page; returns `false` (leaving
    /// page state untouched) if it does not fit.
    fn try_encode<'a, I>(&mut self, cat: u8, time: u64, ds: u16, event: &str, fields: I) -> bool
    where
        I: IntoIterator<Item = (&'a str, ValRef<'a>)>,
        I::IntoIter: ExactSizeIterator,
    {
        let dict_mark = self.dict.len();
        let (first_time, prev) = if self.cur_events == 0 {
            (time, time)
        } else {
            (self.cur_first_time, self.prev_time)
        };
        self.scratch.clear();
        put_varint(&mut self.scratch, zigzag(time.wrapping_sub(prev)));
        self.scratch.push(cat);
        put_varint(&mut self.scratch, u64::from(ds));
        // Temporarily move the scratch/dict out to appease the borrow
        // checker (put_str needs both mutably).
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut dict = std::mem::take(&mut self.dict);
        put_str(&mut scratch, &mut dict, event);
        let fields = fields.into_iter();
        put_varint(&mut scratch, fields.len() as u64);
        for (key, val) in fields {
            put_str(&mut scratch, &mut dict, key);
            match val {
                ValRef::U(u) => {
                    scratch.push(TAG_U);
                    put_varint(&mut scratch, u);
                }
                ValRef::F(f) => {
                    scratch.push(TAG_F);
                    scratch.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                ValRef::S(s) => {
                    scratch.push(TAG_S);
                    put_str(&mut scratch, &mut dict, s);
                }
                ValRef::B(b) => scratch.push(if b { TAG_B_TRUE } else { TAG_B_FALSE }),
            }
        }
        self.scratch = scratch;
        self.dict = dict;

        if self.cur.len() + self.scratch.len() > self.page_size {
            self.dict.truncate(dict_mark);
            return false;
        }
        self.cur.extend_from_slice(&self.scratch);
        if self.cur_events == 0 {
            self.cur_first_time = first_time;
            self.cur_first_event = self.events_total;
        }
        self.prev_time = time;
        self.cur_events += 1;
        self.events_total += 1;
        true
    }

    /// Seals the current page (header + CRC + zero padding), queues it in
    /// the pool, and writes pending pages in order once the pool is full.
    fn seal_page(&mut self) -> io::Result<()> {
        if self.cur_events == 0 {
            return Ok(());
        }
        let payload_len = (self.cur.len() - PAGE_HEADER_LEN) as u32;
        let crc = crc32(&self.cur[PAGE_HEADER_LEN..]);
        self.cur[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        self.cur[4..8].copy_from_slice(&payload_len.to_le_bytes());
        self.cur[8..12].copy_from_slice(&self.cur_events.to_le_bytes());
        self.cur[12..16].copy_from_slice(&crc.to_le_bytes());
        self.cur[16..24].copy_from_slice(&self.cur_first_event.to_le_bytes());
        self.cur[24..32].copy_from_slice(&self.cur_first_time.to_le_bytes());
        self.cur.resize(self.page_size, 0);

        let mut fresh = self.free.pop().unwrap_or_default();
        fresh.clear();
        fresh.resize(PAGE_HEADER_LEN, 0);
        let sealed = std::mem::replace(&mut self.cur, fresh);
        self.sealed.push_back(sealed);
        self.cur_events = 0;
        self.dict.clear();
        if self.sealed.len() >= self.pool_pages {
            self.write_sealed()?;
        }
        Ok(())
    }

    /// Writes every sealed page to the file, strictly in seal order.
    fn write_sealed(&mut self) -> io::Result<()> {
        while let Some(page) = self.sealed.pop_front() {
            self.file.write_all(&page)?;
            self.bytes_written += page.len() as u64;
            self.free.push(page);
        }
        Ok(())
    }

    /// Seals the partial page (if any) and writes everything out, so the
    /// file contains every event appended so far. Appending may continue
    /// afterwards on a fresh page.
    pub fn flush(&mut self) -> io::Result<()> {
        self.seal_page()?;
        self.write_sealed()?;
        self.file.flush()
    }

    /// Flushes and syncs the file. The writer is unusable afterwards only
    /// in the sense that further appends start a new page; callers
    /// normally drop it.
    pub fn finish(&mut self) -> io::Result<()> {
        self.flush()?;
        // Durability point: page data reaches the device before the
        // process claims the trace is complete.
        self.file.sync_all()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// Parsed per-page header.
#[derive(Debug, Clone, Copy)]
struct PageHeader {
    payload_len: u32,
    n_events: u32,
    crc: u32,
    first_event: u64,
    first_time: u64,
}

/// Seekable, bounded-memory reader over a trace store file.
///
/// Memory use is one page frame regardless of trace length; seeks
/// binary-search page headers.
#[derive(Debug)]
pub struct TraceReader {
    file: File,
    page_size: u64,
    /// Whole data-page slots present in the file (a trailing partial
    /// slot, if any, is a torn-tail candidate surfaced during reads).
    pages: u64,
    file_len: u64,
}

impl TraceReader {
    /// Opens and validates `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadHeader`] when the file is not a trace store.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceReader, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = [0u8; 16];
        if file_len < 16 {
            return Err(StoreError::BadHeader("file shorter than header".into()));
        }
        file.read_exact(&mut head)?;
        if head[..8] != MAGIC {
            return Err(StoreError::BadHeader("magic mismatch".into()));
        }
        let page_size = u32::from_le_bytes(head[8..12].try_into().unwrap()) as u64;
        let version = u32::from_le_bytes(head[12..16].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        if !(MIN_PAGE_SIZE as u64..=MAX_PAGE_SIZE as u64).contains(&page_size) {
            return Err(StoreError::BadHeader(format!(
                "implausible page size {page_size}"
            )));
        }
        if file_len < page_size {
            return Err(StoreError::BadHeader("truncated header page".into()));
        }
        let pages = (file_len - page_size) / page_size;
        Ok(TraceReader {
            file,
            page_size,
            pages,
            file_len,
        })
    }

    /// The store's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size as usize
    }

    /// Whole data-page slots in the file (including a torn final page, if
    /// present).
    pub fn data_pages(&self) -> u64 {
        self.pages
    }

    /// Reads data page `idx` into `buf` and validates it.
    fn load_page(&mut self, idx: u64, buf: &mut Vec<u8>) -> Result<PageHeader, String> {
        buf.resize(self.page_size as usize, 0);
        self.file
            .seek(SeekFrom::Start((idx + 1) * self.page_size))
            .map_err(|e| format!("seek: {e}"))?;
        self.file
            .read_exact(buf)
            .map_err(|e| format!("read: {e}"))?;
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != PAGE_MAGIC {
            return Err("page magic mismatch".to_string());
        }
        let h = PageHeader {
            payload_len: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            n_events: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            crc: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            first_event: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            first_time: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        };
        let max_payload = self.page_size as usize - PAGE_HEADER_LEN;
        if h.payload_len as usize > max_payload {
            return Err(format!("payload length {} exceeds page", h.payload_len));
        }
        let payload = &buf[PAGE_HEADER_LEN..PAGE_HEADER_LEN + h.payload_len as usize];
        let crc = crc32(payload);
        if crc != h.crc {
            return Err(format!(
                "CRC mismatch (stored {:08x}, computed {crc:08x})",
                h.crc
            ));
        }
        Ok(h)
    }

    /// Whether any page at or after `idx` validates — distinguishes a torn
    /// append tail (nothing valid follows) from mid-file corruption.
    fn any_valid_page_from(&mut self, idx: u64) -> bool {
        let mut buf = Vec::new();
        (idx..self.pages).any(|i| self.load_page(i, &mut buf).is_ok())
    }

    /// Streams every event from the first page. See [`Events`].
    pub fn events(&mut self) -> Events<'_> {
        Events::new(self, 0, 0, None)
    }

    /// Positions a cursor at the event with global ordinal `ordinal`
    /// (0-based), binary-searching page headers. An ordinal beyond the
    /// recoverable events yields an empty cursor.
    ///
    /// # Errors
    ///
    /// Fails on corrupt (non-tail) pages.
    pub fn seek_event(&mut self, ordinal: u64) -> Result<Events<'_>, StoreError> {
        let page = self.find_page(|h| h.first_event, ordinal)?;
        Ok(Events::new(self, page, ordinal, None))
    }

    /// Positions a cursor at the first event whose time is `>= units`.
    ///
    /// Page-level search assumes time moves forward across pages — true
    /// for any single-run trace (the kernel clock is monotonic; the audit
    /// layer checks it). Multi-run traces in one file are found
    /// best-effort from the page the search lands on.
    ///
    /// # Errors
    ///
    /// Fails on corrupt pages.
    pub fn seek_time(&mut self, units: u64) -> Result<Events<'_>, StoreError> {
        let page = self.find_page(|h| h.first_time, units)?;
        Ok(Events::new(self, page, 0, Some(units)))
    }

    /// Binary search for the last readable page whose `key(header)` is
    /// `<= target` (clamped to the first page).
    fn find_page(
        &mut self,
        key: impl Fn(&PageHeader) -> u64,
        target: u64,
    ) -> Result<u64, StoreError> {
        let mut buf = Vec::new();
        let (mut lo, mut hi) = (0u64, self.pages); // [lo, hi)
                                                   // Shrink `hi` past any torn tail so the search only sees valid
                                                   // headers. The tail is at most pool+1 pages in practice, so this
                                                   // loop is short.
        while hi > lo {
            match self.load_page(hi - 1, &mut buf) {
                Ok(_) => break,
                Err(detail) => {
                    if self.any_valid_page_from(hi) {
                        return Err(StoreError::CorruptPage {
                            page: hi - 1,
                            detail,
                        });
                    }
                    hi -= 1;
                }
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let h = self
                .load_page(mid, &mut buf)
                .map_err(|detail| StoreError::CorruptPage { page: mid, detail })?;
            if key(&h) <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

/// A streaming event cursor holding exactly one page frame.
///
/// Yields `Result<Event, StoreError>`; after `None`, check
/// [`Events::torn_tail`] for a detected (and skipped) torn append tail.
#[derive(Debug)]
pub struct Events<'r> {
    reader: &'r mut TraceReader,
    page: u64,
    buf: Vec<u8>,
    pos: usize,
    payload_end: usize,
    page_events_left: u32,
    dict: Vec<String>,
    prev_time: u64,
    /// Global ordinal of the next event to decode.
    next_ordinal: u64,
    /// Events to silently skip (intra-page part of `seek_event`).
    skip_to: u64,
    /// Events before this time are silently skipped (`seek_time`).
    time_floor: Option<u64>,
    tail: Option<TornTail>,
    decoded: u64,
    failed: bool,
}

impl<'r> Events<'r> {
    fn new(reader: &'r mut TraceReader, page: u64, skip_to: u64, floor: Option<u64>) -> Self {
        Events {
            reader,
            page,
            buf: Vec::new(),
            pos: 0,
            payload_end: 0,
            page_events_left: 0,
            dict: Vec::new(),
            prev_time: 0,
            next_ordinal: 0,
            skip_to,
            time_floor: floor,
            tail: None,
            decoded: 0,
            failed: false,
        }
    }

    /// The torn tail detected at end of iteration, if any.
    pub fn torn_tail(&self) -> Option<&TornTail> {
        self.tail.as_ref()
    }

    /// Events yielded so far (post-skip).
    pub fn events_yielded(&self) -> u64 {
        self.decoded
    }

    /// Loads the next page; returns `false` at end-of-data (setting
    /// `tail` when the end is a torn page rather than the file end).
    fn advance_page(&mut self) -> Result<bool, StoreError> {
        while self.page < self.reader.pages {
            let idx = self.page;
            match self.reader.load_page(idx, &mut self.buf) {
                Ok(h) => {
                    self.page += 1;
                    if h.n_events == 0 {
                        continue;
                    }
                    self.pos = PAGE_HEADER_LEN;
                    self.payload_end = PAGE_HEADER_LEN + h.payload_len as usize;
                    self.page_events_left = h.n_events;
                    self.dict.clear();
                    self.prev_time = h.first_time;
                    self.next_ordinal = h.first_event;
                    return Ok(true);
                }
                Err(detail) => {
                    if self.reader.any_valid_page_from(idx + 1) {
                        return Err(StoreError::CorruptPage { page: idx, detail });
                    }
                    self.tail = Some(TornTail {
                        page: idx,
                        events_recovered: self.next_ordinal,
                        trailing_bytes: self.reader.file_len - (idx + 1) * self.reader.page_size,
                        detail,
                    });
                    return Ok(false);
                }
            }
        }
        // Partial trailing bytes beyond the last whole page slot are a
        // torn tail too (the crash happened mid-write of the next page).
        let tail_bytes = self.reader.file_len - (self.reader.pages + 1) * self.reader.page_size;
        if tail_bytes > 0 && self.tail.is_none() {
            self.tail = Some(TornTail {
                page: self.reader.pages,
                events_recovered: self.next_ordinal,
                trailing_bytes: tail_bytes,
                detail: "partial page at end of file".to_string(),
            });
        }
        Ok(false)
    }
}

impl Iterator for Events<'_> {
    type Item = Result<Event, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if self.page_events_left == 0 {
                match self.advance_page() {
                    Ok(true) => {}
                    Ok(false) => return None,
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                }
            }
            let page_idx = self.page - 1;
            let res = decode_record(
                &self.buf[..self.payload_end],
                &mut self.pos,
                &mut self.dict,
                &mut self.prev_time,
            );
            let ev = match res {
                Ok(ev) => ev,
                Err(detail) => {
                    self.failed = true;
                    return Some(Err(StoreError::BadRecord {
                        page: page_idx,
                        detail,
                    }));
                }
            };
            self.page_events_left -= 1;
            let ordinal = self.next_ordinal;
            self.next_ordinal += 1;
            if ordinal < self.skip_to {
                continue;
            }
            if let Some(floor) = self.time_floor {
                if ev.time < floor {
                    continue;
                }
                self.time_floor = None;
            }
            self.decoded += 1;
            return Some(Ok(ev));
        }
    }
}

/// Decodes one record from `payload[*pos..]`, advancing the delta base.
fn decode_record(
    payload: &[u8],
    pos: &mut usize,
    dict: &mut Vec<String>,
    prev_time: &mut u64,
) -> Result<Event, String> {
    let delta = unzigzag(get_varint(payload, pos)?);
    let time = prev_time.wrapping_add(delta);
    *prev_time = time;
    let Some(&cat) = payload.get(*pos) else {
        return Err("record truncated at category".to_string());
    };
    *pos += 1;
    let ds = get_varint(payload, pos)?;
    let ds = u16::try_from(ds).map_err(|_| format!("ds {ds} exceeds u16"))?;
    let event = get_str(payload, pos, dict)?;
    let n_fields = get_varint(payload, pos)? as usize;
    if n_fields > 256 {
        return Err(format!("implausible field count {n_fields}"));
    }
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let key = get_str(payload, pos, dict)?;
        let Some(&tag) = payload.get(*pos) else {
            return Err("record truncated at field tag".to_string());
        };
        *pos += 1;
        let val = match tag {
            TAG_U => Val::U(get_varint(payload, pos)?),
            TAG_F => {
                let Some(bytes) = payload.get(*pos..*pos + 8) else {
                    return Err("record truncated at f64".to_string());
                };
                *pos += 8;
                Val::F(f64::from_bits(u64::from_le_bytes(
                    bytes.try_into().unwrap(),
                )))
            }
            TAG_S => Val::S(get_str(payload, pos, dict)?),
            TAG_B_TRUE => Val::B(true),
            TAG_B_FALSE => Val::B(false),
            other => return Err(format!("unknown field tag {other}")),
        };
        fields.push((key, val));
    }
    Ok(Event {
        cat,
        time,
        ds,
        event,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file path in a directory of its own, removed with everything in
    /// it when the guard drops, also when the test fails.
    struct TmpPath {
        dir: std::path::PathBuf,
        path: std::path::PathBuf,
    }

    impl std::ops::Deref for TmpPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl AsRef<Path> for TmpPath {
        fn as_ref(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TmpPath {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    /// `name` in a fresh directory named for this process and file, so
    /// tests running in parallel never share one.
    fn tmp(name: &str) -> TmpPath {
        let dir = std::env::temp_dir().join(format!("pard-store-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TmpPath {
            path: dir.join(name),
            dir,
        }
    }

    fn sample_events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event {
                cat: (i % 7) as u8,
                time: 1000 + i * 17,
                ds: (i % 5) as u16,
                event: if i % 3 == 0 {
                    "issue".into()
                } else {
                    "retire".into()
                },
                fields: vec![
                    ("bank".to_string(), Val::U(i % 16)),
                    ("lat".to_string(), Val::F(0.25 * i as f64)),
                    (
                        "kind".to_string(),
                        Val::S(if i % 2 == 0 { "rd" } else { "wr" }.into()),
                    ),
                    ("hot".to_string(), Val::B(i % 4 == 0)),
                ],
            })
            .collect()
    }

    fn write_all(path: &std::path::Path, config: StoreConfig, events: &[Event]) {
        let mut w = TraceWriter::create(path, config).unwrap();
        for ev in events {
            w.append(ev.cat, ev.time, ev.ds, &ev.event, ev.field_refs())
                .unwrap();
        }
        w.finish().unwrap();
    }

    fn read_all(path: &std::path::Path) -> (Vec<Event>, Option<TornTail>) {
        let mut r = TraceReader::open(path).unwrap();
        let mut cursor = r.events();
        let mut out = Vec::new();
        for ev in &mut cursor {
            out.push(ev.unwrap());
        }
        let tail = cursor.torn_tail().cloned();
        (out, tail)
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        let mut buf = Vec::new();
        let samples = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX];
        for &v in &samples {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Wrapping deltas survive sign and magnitude extremes.
        for (a, b) in [(5u64, 3u64), (3, 5), (0, u64::MAX), (u64::MAX, 0)] {
            let delta = b.wrapping_sub(a);
            assert_eq!(a.wrapping_add(unzigzag(zigzag(delta))), b);
        }
        assert!(
            get_varint(&[0x80], &mut 0).is_err(),
            "truncated varint must fail"
        );
    }

    #[test]
    fn roundtrip_across_many_pages_preserves_every_event() {
        let path = tmp("roundtrip.ptr");
        // Small pages force hundreds of page boundaries and dict resets.
        let config = StoreConfig {
            page_size: MIN_PAGE_SIZE,
            pool_pages: 3,
        };
        let events = sample_events(5000);
        write_all(&path, config, &events);
        let (decoded, tail) = read_all(&path);
        assert!(
            tail.is_none(),
            "clean file must have no torn tail: {tail:?}"
        );
        assert_eq!(decoded.len(), events.len());
        assert_eq!(decoded, events);
        // The store must actually be compact: well under the rendered size.
        let bytes = std::fs::metadata(&path).unwrap().len();
        assert!(
            (bytes as usize) < events.len() * 40,
            "{bytes} bytes for {} events is not a compact encoding",
            events.len()
        );
    }

    #[test]
    fn flush_makes_all_events_visible_midstream() {
        let path = tmp("flush.ptr");
        let mut w = TraceWriter::create(&path, StoreConfig::default()).unwrap();
        let events = sample_events(10);
        for ev in &events[..7] {
            w.append(ev.cat, ev.time, ev.ds, &ev.event, ev.field_refs())
                .unwrap();
        }
        w.flush().unwrap();
        let (decoded, _) = read_all(&path);
        assert_eq!(decoded.len(), 7, "flush must publish the partial page");
        // Appends continue on a fresh page; the final file has all 10.
        for ev in &events[7..] {
            w.append(ev.cat, ev.time, ev.ds, &ev.event, ev.field_refs())
                .unwrap();
        }
        w.finish().unwrap();
        drop(w);
        let (decoded, _) = read_all(&path);
        assert_eq!(decoded, events);
    }

    #[test]
    fn torn_final_page_recovers_prefix_and_reports_tail() {
        let path = tmp("torn.ptr");
        let config = StoreConfig {
            page_size: MIN_PAGE_SIZE,
            pool_pages: 2,
        };
        let events = sample_events(1200);
        write_all(&path, config, &events);
        let full = read_all(&path).0;
        assert_eq!(full.len(), events.len());

        // Truncate mid-way through the final page: the reader must yield
        // every event of the complete pages and describe the tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let torn_len = len - MIN_PAGE_SIZE as u64 / 2;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn_len).unwrap();
        drop(f);

        let (decoded, tail) = read_all(&path);
        let tail = tail.expect("truncation mid-page must be reported");
        assert!(decoded.len() < events.len());
        assert_eq!(
            decoded.as_slice(),
            &events[..decoded.len()],
            "recovered prefix must be exact"
        );
        assert_eq!(tail.events_recovered, decoded.len() as u64);
        assert!(tail.trailing_bytes > 0);

        // Corrupting a page in the *middle* is not a torn tail: hard error.
        write_all(&path, config, &events);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid_page_payload = 2 * MIN_PAGE_SIZE + PAGE_HEADER_LEN + 4;
        bytes[mid_page_payload] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let err = r
            .events()
            .find_map(|res| res.err())
            .expect("mid-file corruption must surface an error");
        assert!(
            matches!(err, StoreError::CorruptPage { page: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn seek_by_ordinal_and_time_match_full_scan_suffix() {
        let path = tmp("seek.ptr");
        let config = StoreConfig {
            page_size: MIN_PAGE_SIZE,
            pool_pages: 4,
        };
        let events = sample_events(3000);
        write_all(&path, config, &events);
        let mut r = TraceReader::open(&path).unwrap();

        for &ord in &[0u64, 1, 17, 1499, 2999] {
            let suffix: Vec<Event> = r.seek_event(ord).unwrap().map(Result::unwrap).collect();
            assert_eq!(suffix.as_slice(), &events[ord as usize..], "ordinal {ord}");
        }
        assert_eq!(
            r.seek_event(3000).unwrap().count(),
            0,
            "past-the-end seek is empty"
        );

        // Time seek: first event with time >= t.
        let t = events[1234].time;
        let suffix: Vec<Event> = r.seek_time(t).unwrap().map(Result::unwrap).collect();
        assert_eq!(suffix.as_slice(), &events[1234..]);
        let suffix: Vec<Event> = r.seek_time(t + 1).unwrap().map(Result::unwrap).collect();
        assert_eq!(suffix.as_slice(), &events[1235..]);
        assert_eq!(
            r.seek_time(0).unwrap().map(Result::unwrap).count(),
            events.len(),
            "seek before the first event replays everything"
        );
    }

    #[test]
    fn writer_rejects_bad_configs_and_oversized_events() {
        assert!(TraceWriter::create(
            tmp("bad.ptr"),
            StoreConfig {
                page_size: 16,
                pool_pages: 1
            }
        )
        .is_err());
        assert!(TraceWriter::create(
            tmp("bad.ptr"),
            StoreConfig {
                page_size: DEFAULT_PAGE_SIZE,
                pool_pages: 0
            }
        )
        .is_err());

        let path = tmp("oversize.ptr");
        let mut w = TraceWriter::create(
            &path,
            StoreConfig {
                page_size: MIN_PAGE_SIZE,
                pool_pages: 1,
            },
        )
        .unwrap();
        let huge = "x".repeat(2 * MIN_PAGE_SIZE);
        let err = w
            .append(0, 0, 0, &huge, std::iter::empty())
            .expect_err("an event bigger than a page must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn reader_rejects_non_store_files() {
        let path = tmp("not-a-store");
        std::fs::write(&path, b"{\"time\":1}\n").unwrap();
        assert!(matches!(
            TraceReader::open(&path),
            Err(StoreError::BadHeader(_))
        ));
    }
}
