//! Versioned on-disk persistence for the hub-label index.
//!
//! The paper's query engine is only fast because the 2-hop cover is
//! already built — yet every process start used to pay a full PLL
//! construction. The CSR [`LabelSet`] is three flat arrays, so a built
//! index serializes to a straightforward little-endian dump that loads
//! orders of magnitude faster than a rebuild
//! (`O(index bytes)` instead of `O(graph rebuild)` — see
//! `BENCH_pr5.json` and the cold-start section of the README).
//!
//! The format is defensive because a loaded file is the **first untrusted
//! byte stream** the label scans ever see. The header carries a magic,
//! the format version, the storage tag, a snapshot fingerprint (node
//! count, entry count, and a hash of the graph's edge/weight stream) so
//! stale indexes are rejected, and a checksum over the payload. Loading
//! validates every structural invariant the hot-path scans rely on —
//! offsets monotone and in range, ranks strictly ascending within each
//! node — and returns [`PersistError`], **never panics**, on any
//! malformed input. See `crates/distance/src/README.md` for the
//! byte-level format specification.
//!
//! The only format is **v2** with storage tag `0` (flat CSR planes,
//! 8-byte-aligned, behind a `max_rank` word). Files of format v1, and
//! files carrying the tags of the retired compressed and dictionary
//! layouts, fail with [`PersistError::UnsupportedVersion`] /
//! [`PersistError::BadStorageTag`].
//!
//! Typical use is a save followed, in a later process, by a load
//! (`Discovery::save_pll_index` and `DiscoveryOptions::pll_index_path`
//! in `atd-core` wire this up end-to-end):
//!
//! ```
//! use atd_distance::{PrunedLandmarkLabeling, VertexOrder};
//! use atd_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let u = b.add_node(1.0);
//! let v = b.add_node(2.0);
//! b.add_edge(u, v, 0.5).unwrap();
//! let g = b.build().unwrap();
//!
//! let built = PrunedLandmarkLabeling::build(&g);
//! let path = std::env::temp_dir().join("atd-doctest-index.atdl");
//! built.save_to(&path, &g).unwrap();
//! let loaded = PrunedLandmarkLabeling::load_from(&path, &g).unwrap();
//! // Bit-identical labels, hence bit-identical queries.
//! for n in 0..g.num_nodes() {
//!     assert!(built
//!         .labels()
//!         .entries(n)
//!         .eq(loaded.labels().entries(n)));
//! }
//! std::fs::remove_file(&path).unwrap();
//! ```

use std::fmt;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

use atd_graph::ExpertGraph;

use crate::label::LabelSet;
use crate::pll::PrunedLandmarkLabeling;

/// File magic, the first four bytes of every index dump.
pub const MAGIC: [u8; 4] = *b"ATDL";

/// The on-disk format version this build writes and reads: 8-byte-aligned
/// planes behind a `max_rank` word, sealed by a word-lane checksum.
pub const FORMAT_VERSION: u16 = 2;

/// The header's storage tag for the flat CSR planes — the only layout
/// there is. Tags 1–3 belonged to retired layouts and are rejected.
pub const CSR_STORAGE_TAG: u8 = 0;

/// Fixed header length in bytes (see the format spec in
/// `crates/distance/src/README.md`). A multiple of 8, so payload
/// offsets are file offsets modulo alignment.
pub const HEADER_LEN: usize = 48;

/// Why a save or load failed.
///
/// Every decode-side failure mode is a variant here: loading **returns**
/// these — it never panics, whatever the bytes are (enforced by
/// `tests/proptest_persist.rs`, which flips and truncates files
/// exhaustively).
#[derive(Debug)]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not an index dump.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`] — this build
    /// reads version 2 only.
    UnsupportedVersion(u16),
    /// The header's storage tag is not [`CSR_STORAGE_TAG`].
    BadStorageTag(u8),
    /// The snapshot fingerprint does not match the graph the caller
    /// supplied — the index was built from a different (stale) snapshot.
    StaleIndex {
        /// Which fingerprint component mismatched (`"nodes"` or
        /// `"graph hash"`).
        what: &'static str,
        /// The value derived from the caller's graph.
        expected: u64,
        /// The value stored in the file.
        found: u64,
    },
    /// The payload checksum does not match the header — bit rot or a
    /// partial write.
    ChecksumMismatch,
    /// The file ended before the structure it promised was complete.
    Truncated,
    /// A structural invariant of the label encoding does not hold; the
    /// message names the violated invariant.
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index file I/O failed: {e}"),
            PersistError::BadMagic => write!(f, "not an ATDL index file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported index format version {v} (this build reads \
                     version {FORMAT_VERSION} only)"
                )
            }
            PersistError::BadStorageTag(t) => write!(
                f,
                "unsupported label storage tag {t} (this build reads tag \
                 {CSR_STORAGE_TAG}, flat CSR, only)"
            ),
            PersistError::StaleIndex {
                what,
                expected,
                found,
            } => write!(
                f,
                "stale index: {what} mismatch (graph has {expected:#x}, file has {found:#x})"
            ),
            PersistError::ChecksumMismatch => write!(f, "index payload checksum mismatch"),
            PersistError::Truncated => write!(f, "index file truncated"),
            PersistError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The identity of the snapshot an index was built from, stored in the
/// header so a loaded index is provably the index **of this graph**:
/// node count, label entry count, and a hash of the graph's edge/weight
/// stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotFingerprint {
    /// Indexed node count.
    pub nodes: u64,
    /// Total label entries across all nodes.
    pub entries: u64,
    /// [`graph_fingerprint`] of the edge/weight stream.
    pub graph_hash: u64,
}

impl SnapshotFingerprint {
    /// The fingerprint [`LabelSet::save_to`] writes for `store` built
    /// from `graph`.
    pub fn of(graph: &ExpertGraph, store: &LabelSet) -> SnapshotFingerprint {
        SnapshotFingerprint {
            nodes: store.num_nodes() as u64,
            entries: store.stats().total_entries as u64,
            graph_hash: graph_fingerprint(graph),
        }
    }

    /// Reads the fingerprint out of a dump's header without parsing (or
    /// even reading) the payload — identifies which snapshot a file
    /// belongs to without needing the graph, e.g. for ops tooling
    /// deciding which of several cached indexes to load.
    pub fn read_from_bytes(bytes: &[u8]) -> Result<SnapshotFingerprint, PersistError> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        Ok(SnapshotFingerprint {
            nodes: u64_at(8),
            entries: u64_at(16),
            graph_hash: u64_at(24),
        })
    }

    /// [`SnapshotFingerprint::read_from_bytes`] over a file's first
    /// [`HEADER_LEN`] bytes.
    pub fn read_from(path: &Path) -> Result<SnapshotFingerprint, PersistError> {
        let mut header = [0u8; HEADER_LEN];
        let mut f = std::fs::File::open(path)?;
        f.read_exact(&mut header)
            .map_err(|_| PersistError::Truncated)?;
        SnapshotFingerprint::read_from_bytes(&header)
    }
}

/// FNV-1a 64-bit accumulator — the format's hash for both the graph
/// fingerprint and the payload checksum. Not cryptographic; it guards
/// against stale snapshots and bit rot, not adversarial collisions.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Word-at-a-time absorption: one xor + multiply per `u64` instead
    /// of eight. Distinct from (and incompatible with) the byte-wise
    /// [`write`](Self::write) — used where the hash is only ever
    /// compared against values computed by this same code (the graph
    /// fingerprint, the checksum fold), never against a byte stream.
    #[inline]
    fn absorb_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }
}

/// Hash of a graph's edge/weight stream (node count, edge count, then
/// every undirected edge as `(u, v, weight bits)` in canonical order) —
/// the staleness check of the on-disk header. Any change to topology or
/// weights changes this value.
///
/// Memoized per graph instance (the graph is immutable after
/// construction): the first call hashes the CSR arrays, later calls on
/// the same instance are a load. The hash sits on every index load and
/// on every durable journal append, so both the first computation and
/// the repeat lookups matter.
pub fn graph_fingerprint(g: &ExpertGraph) -> u64 {
    g.fingerprint_or_init(compute_graph_fingerprint)
}

fn compute_graph_fingerprint(g: &ExpertGraph) -> u64 {
    // Word-at-a-time FNV lanes straight over the canonical CSR arrays
    // (offsets, targets, weights each hashed separately), folded at
    // the end. The arrays fully determine topology and weights, and the
    // builder's layout is canonical, so two equal graphs always hash
    // equal. The fingerprint sits on every load and on every durable
    // append, so branch-free bulk absorption matters. The value is always
    // recomputed by this same code before comparison, never parsed from
    // foreign bytes.
    // Each array is absorbed through four interleaved lanes (element i
    // goes to lane i mod 4) so the xor-multiply recurrences of adjacent
    // elements are independent and pipeline past the multiplier's
    // latency; a single lane per array is latency-bound at ~3 cycles
    // per element.
    #[inline]
    fn striped<T: Copy>(vals: &[T], to: impl Fn(T) -> u64) -> u64 {
        let mut lanes = [Fnv64::new(), Fnv64::new(), Fnv64::new(), Fnv64::new()];
        let mut chunks = vals.chunks_exact(4);
        for c in &mut chunks {
            lanes[0].absorb_u64(to(c[0]));
            lanes[1].absorb_u64(to(c[1]));
            lanes[2].absorb_u64(to(c[2]));
            lanes[3].absorb_u64(to(c[3]));
        }
        for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
            lane.absorb_u64(to(v));
        }
        let mut h = Fnv64::new();
        for lane in lanes {
            h.absorb_u64(lane.0);
        }
        h.0
    }
    let (offsets, targets, weights) = g.csr_parts();
    let ho = striped(offsets, |o| o as u64);
    let ht = striped(targets, |t| t.index() as u64);
    let hw = striped(weights, |w| w.to_bits());
    let mut h = Fnv64::new();
    h.absorb_u64(g.num_nodes() as u64);
    h.absorb_u64(g.num_edges() as u64);
    h.absorb_u64(ho);
    h.absorb_u64(ht);
    h.absorb_u64(hw);
    h.0
}

/// The checksum the header stores over the payload bytes: eight
/// interleaved lanes over 512-byte blocks, each lane absorbing eight
/// little-endian `u64` words — one through the FNV xor-multiply step,
/// seven through xor at distinct rotations — folded together with the
/// tail bytes and the payload length through the FNV step. One multiply
/// per 64 bytes per lane keeps the full-payload pass memory-bandwidth
/// bound rather than multiply-throughput bound. Every
/// absorption is bijective in the lane state, so corrupting any single
/// byte (or truncating anywhere) changes the final value
/// deterministically — the property the corruption suite drives
/// byte-by-byte; multi-byte bit rot is caught with high probability
/// (this is an integrity code, not a cryptographic hash). Public so
/// external tooling — and the corruption tests — can re-seal a patched
/// payload and exercise the structural validation behind it.
pub fn checksum(payload: &[u8]) -> u64 {
    #[inline(always)]
    fn word(block: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(block[at..at + 8].try_into().expect("8-byte word"))
    }
    let mut lanes = [Fnv64::OFFSET; 8];
    let mut blocks = payload.chunks_exact(512);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let base = i * 64;
            *lane = (*lane ^ word(block, base)).wrapping_mul(Fnv64::PRIME)
                ^ word(block, base + 8).rotate_left(5)
                ^ word(block, base + 16).rotate_left(13)
                ^ word(block, base + 24).rotate_left(21)
                ^ word(block, base + 32).rotate_left(29)
                ^ word(block, base + 40).rotate_left(37)
                ^ word(block, base + 48).rotate_left(45)
                ^ word(block, base + 56).rotate_left(53);
        }
    }
    let mut tail = Fnv64::new();
    tail.write(blocks.remainder());
    let mut h = Fnv64::new();
    for lane in lanes {
        h.absorb_u64(lane);
    }
    h.absorb_u64(tail.0);
    h.absorb_u64(payload.len() as u64);
    h.0
}

// ---------------------------------------------------------------------
// Atomic file publication + orphaned-temp sweep
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data first lands in a
/// uniquely-named sibling temp file (`<name>.tmp.<pid>.<seq>` — pid plus
/// a process-wide sequence counter, so concurrent savers never share a
/// temp path), is fsynced, and is then renamed over `path`. A crash or
/// racing writer never leaves a half-written file at `path`; at worst it
/// orphans a temp file, which [`sweep_orphaned_tmp_dir`] reclaims on the
/// next startup.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Returns `Some(pid)` when `name` is an orphaned-temp name for any final
/// file (`<base>.tmp.<pid>.<seq>` with all-digit pid and seq), i.e. the
/// naming scheme used by [`atomic_write`] and [`LabelSet::save_to`].
fn parse_tmp_pid(name: &str) -> Option<u32> {
    let (rest, seq) = name.rsplit_once('.')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let (rest, pid) = rest.rsplit_once('.')?;
    if !rest.ends_with(".tmp") || pid.is_empty() {
        return None;
    }
    pid.parse().ok()
}

/// True when the writer process that owns a temp file can be ruled dead.
/// Our own pid is always considered live (another thread may be mid-save);
/// other pids are probed via `/proc` on Linux. On platforms without
/// `/proc` the check is conservative: foreign temp files are left alone.
fn tmp_owner_is_dead(pid: u32) -> bool {
    if pid == std::process::id() {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        !Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Removes every provably orphaned `*.tmp.<pid>.<seq>` file directly
/// inside `dir` (the siblings [`atomic_write`] leaves between temp-write
/// and rename when its writer crashes), whichever final file it was
/// destined for. A file is removed only when its owning pid is provably
/// dead, so live writers in this or another process are never raced.
/// Returns how many files were removed; IO errors while scanning are
/// swallowed (the sweep is best-effort hygiene, never a reason to fail
/// an open).
pub fn sweep_orphaned_tmp_dir(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(parse_tmp_pid) else {
            continue;
        };
        if tmp_owner_is_dead(pid) && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------
// Payload writer
// ---------------------------------------------------------------------

/// Serializes planes as `[len: u64][data]`, zero-padding each plane's
/// data to the next 8-byte boundary. The padding is part of the v2
/// layout that stored indexes already use, so it stays even though no
/// loader borrows the aligned planes any more (the exact bytes are
/// pinned by `tests/proptest_persist.rs`).
#[derive(Default)]
struct PayloadWriter {
    out: Vec<u8>,
}

impl PayloadWriter {
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn pad(&mut self) {
        while !self.out.len().is_multiple_of(8) {
            self.out.push(0);
        }
    }

    fn u32_slice(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.out.extend_from_slice(&x.to_le_bytes());
        }
        self.pad();
    }

    fn f64_slice(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------
// Payload reader (bounds-checked cursor over untrusted bytes)
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Consumes the zero padding the writer emitted after a plane; a
    /// nonzero pad byte means the file was not produced by our writer.
    fn skip_pad(&mut self) -> Result<(), PersistError> {
        if !self.pos.is_multiple_of(8) {
            let pad = self.bytes(8 - self.pos % 8)?;
            if pad.iter().any(|&b| b != 0) {
                return Err(PersistError::Corrupt("nonzero plane padding byte"));
            }
        }
        Ok(())
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a length prefix, refusing counts the remaining bytes cannot
    /// possibly hold — a malicious length field must fail *before* any
    /// allocation, not OOM on it.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_size as u64)
            .ok_or(PersistError::Truncated)?
            > remaining
        {
            return Err(PersistError::Truncated);
        }
        Ok(n as usize)
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.len_prefix(4)?;
        let raw = self.bytes(n * 4)?;
        let v = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        self.skip_pad()?;
        Ok(v)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.len_prefix(8)?;
        let raw = self.bytes(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect())
    }

    fn finish(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------

/// Entry-offset invariants: `nodes + 1` values, starting at 0, monotone
/// nondecreasing, ending at `entries`.
fn validate_offsets(offsets: &[u32], nodes: usize, entries: usize) -> Result<(), PersistError> {
    if offsets.len() != nodes + 1 {
        return Err(PersistError::Corrupt("offset array length != nodes + 1"));
    }
    if offsets[0] != 0 {
        return Err(PersistError::Corrupt("offset array does not start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Corrupt("entry offsets not monotone"));
    }
    if offsets[offsets.len() - 1] as usize != entries {
        return Err(PersistError::Corrupt("offset array end != entry count"));
    }
    Ok(())
}

/// Rank invariants: strictly ascending hub ranks within every node's
/// slice (what the merge-join and scatter scans rely on), the header's
/// `max_rank` word equal to the largest rank actually stored (`0` when
/// there are no entries), and — when the caller supplies `rank_bound` —
/// every rank below it. Ascent means only each slice's last rank
/// competes for the maximum.
fn validate_ranks(
    offsets: &[u32],
    ranks: &[u32],
    stored_max_rank: u64,
    rank_bound: Option<u32>,
) -> Result<(), PersistError> {
    let mut max: Option<u32> = None;
    for w in offsets.windows(2) {
        let slice = &ranks[w[0] as usize..w[1] as usize];
        if slice.windows(2).any(|p| p[0] >= p[1]) {
            return Err(PersistError::Corrupt(
                "hub ranks not strictly ascending within a node",
            ));
        }
        if let Some(&last) = slice.last() {
            max = Some(max.map_or(last, |m| m.max(last)));
        }
    }
    if stored_max_rank != max.map_or(0, u64::from) {
        return Err(PersistError::Corrupt(
            "max-rank field does not match label planes",
        ));
    }
    if let (Some(bound), Some(max)) = (rank_bound, max) {
        if max >= bound {
            return Err(PersistError::Corrupt("hub rank exceeds node count"));
        }
    }
    Ok(())
}

/// The fixed header, parsed and cross-checked against the caller's
/// snapshot before a single payload byte is touched.
struct Header {
    fp: SnapshotFingerprint,
    stored_checksum: u64,
}

impl Header {
    fn read(
        bytes: &[u8],
        expected_nodes: usize,
        expected_graph_hash: u64,
    ) -> Result<Header, PersistError> {
        // Checks length >= HEADER_LEN, magic, and version.
        let fp = SnapshotFingerprint::read_from_bytes(bytes)?;
        if bytes[6] != CSR_STORAGE_TAG {
            return Err(PersistError::BadStorageTag(bytes[6]));
        }
        if bytes[7] != 0 {
            return Err(PersistError::Corrupt("reserved header byte not zero"));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let payload_len = u64_at(32);
        let stored_checksum = u64_at(40);
        if fp.nodes != expected_nodes as u64 {
            return Err(PersistError::StaleIndex {
                what: "nodes",
                expected: expected_nodes as u64,
                found: fp.nodes,
            });
        }
        if fp.graph_hash != expected_graph_hash {
            return Err(PersistError::StaleIndex {
                what: "graph hash",
                expected: expected_graph_hash,
                found: fp.graph_hash,
            });
        }
        // Offsets are u32, so both counts must fit.
        if fp.nodes >= u32::MAX as u64 || fp.entries > u32::MAX as u64 {
            return Err(PersistError::Corrupt("node or entry count exceeds u32"));
        }
        let actual = (bytes.len() - HEADER_LEN) as u64;
        if payload_len != actual {
            return Err(if payload_len > actual {
                PersistError::Truncated
            } else {
                PersistError::Corrupt("trailing bytes after payload")
            });
        }
        Ok(Header {
            fp,
            stored_checksum,
        })
    }
}

// ---------------------------------------------------------------------
// LabelSet serialization
// ---------------------------------------------------------------------

impl LabelSet {
    /// Serializes this label set into the on-disk byte format —
    /// `max_rank` word first, then the three 8-byte-aligned planes —
    /// stamping `graph_hash` (see [`graph_fingerprint`]) into the header
    /// fingerprint. The inverse of [`LabelSet::from_bytes`].
    pub fn to_bytes(&self, graph_hash: u64) -> Vec<u8> {
        // Ranks ascend within a node, so each list's last entry competes.
        let max_rank = (0..self.num_nodes())
            .filter_map(|v| self.of(v).hub_ranks.last().copied())
            .max();
        let mut w = PayloadWriter::default();
        w.u64(max_rank.map_or(0, u64::from));
        w.u32_slice(&self.offsets);
        w.u32_slice(&self.hub_ranks);
        w.f64_slice(&self.dists);
        let payload = w.out;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(CSR_STORAGE_TAG);
        out.push(0); // reserved
        out.extend_from_slice(&(self.num_nodes() as u64).to_le_bytes());
        out.extend_from_slice(&(self.hub_ranks.len() as u64).to_le_bytes());
        out.extend_from_slice(&graph_hash.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a label set from untrusted bytes, validating the header
    /// against the caller's snapshot (`expected_nodes`,
    /// `expected_graph_hash`) and every structural invariant of the CSR
    /// planes before any query scan touches the data.
    ///
    /// Returns `Err` — never panics — on any malformed, truncated,
    /// corrupt, or stale input.
    pub fn from_bytes(
        bytes: &[u8],
        expected_nodes: usize,
        expected_graph_hash: u64,
    ) -> Result<LabelSet, PersistError> {
        Self::from_bytes_impl(bytes, expected_nodes, expected_graph_hash, false)
    }

    /// [`LabelSet::from_bytes`] plus, when `ranks_are_vertex_ranks`,
    /// the PLL-level invariant that every hub rank is `< nodes` —
    /// checked inside the single validation pass over the rank plane.
    fn from_bytes_impl(
        bytes: &[u8],
        expected_nodes: usize,
        expected_graph_hash: u64,
        ranks_are_vertex_ranks: bool,
    ) -> Result<LabelSet, PersistError> {
        let header = Header::read(bytes, expected_nodes, expected_graph_hash)?;
        let payload = &bytes[HEADER_LEN..];
        if checksum(payload) != header.stored_checksum {
            return Err(PersistError::ChecksumMismatch);
        }
        let nodes = header.fp.nodes as usize;
        let entries = header.fp.entries as usize;
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        let stored_max_rank = cur.u64()?;
        let offsets = cur.u32_vec()?;
        let hub_ranks = cur.u32_vec()?;
        let dists = cur.f64_vec()?;
        cur.finish()?;
        if hub_ranks.len() != entries || dists.len() != entries {
            return Err(PersistError::Corrupt("plane length != entry count"));
        }
        validate_offsets(&offsets, nodes, entries)?;
        let rank_bound = ranks_are_vertex_ranks.then_some(header.fp.nodes as u32);
        validate_ranks(&offsets, &hub_ranks, stored_max_rank, rank_bound)?;
        Ok(LabelSet {
            offsets,
            hub_ranks,
            dists,
        })
    }

    /// Saves this label set to `path` as a versioned dump fingerprinted
    /// with `graph` (the graph the index was built from). The write goes
    /// through [`atomic_write`]: a uniquely-named sibling temp file
    /// (extension appended, pid + sequence suffixed — concurrent savers
    /// never share a temp path) and an atomic rename, so a crashed or
    /// racing save never leaves a half-written index at `path`.
    pub fn save_to(&self, path: &Path, graph: &ExpertGraph) -> Result<(), PersistError> {
        let bytes = self.to_bytes(graph_fingerprint(graph));
        atomic_write(path, &bytes).map_err(PersistError::Io)
    }

    /// Loads a label set from `path`, rejecting files whose fingerprint
    /// does not match `graph` (see [`LabelSet::from_bytes`] for the
    /// validation guarantees).
    pub fn load_from(path: &Path, graph: &ExpertGraph) -> Result<LabelSet, PersistError> {
        let bytes = std::fs::read(path)?;
        LabelSet::from_bytes(&bytes, graph.num_nodes(), graph_fingerprint(graph))
    }
}

impl PrunedLandmarkLabeling {
    /// Persists this index to `path`; see [`LabelSet::save_to`].
    pub fn save_to(&self, path: &Path, graph: &ExpertGraph) -> Result<(), PersistError> {
        self.labels().save_to(path, graph)
    }

    /// Loads a previously saved index for `graph` from `path`, in
    /// `O(index bytes)` instead of a build. On top of the label-set
    /// validation this requires every hub rank to be a valid vertex rank
    /// (`< num_nodes`), which is what lets [`SourceScatter`] scratch
    /// arrays stay direct-indexed.
    ///
    /// The loaded index answers every query bit-identically to the build
    /// that produced the file; its `build_time` reports the load wall
    /// time.
    ///
    /// [`SourceScatter`]: crate::scatter::SourceScatter
    pub fn load_from(
        path: &Path,
        graph: &ExpertGraph,
    ) -> Result<PrunedLandmarkLabeling, PersistError> {
        let start = Instant::now();
        let bytes = std::fs::read(path)?;
        // The rank bound rides inside the one structural validation pass
        // — the load path never scans the labels a second time.
        let labels =
            LabelSet::from_bytes_impl(&bytes, graph.num_nodes(), graph_fingerprint(graph), true)?;
        Ok(PrunedLandmarkLabeling::from_loaded_store(
            labels,
            start.elapsed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelEntry;

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
    }

    fn lists() -> Vec<Vec<LabelEntry>> {
        vec![
            vec![e(0, 0.25), e(1, 1.5), e(3, 2.0)],
            vec![],
            vec![e(2, 0.25), e(3, 1.5)],
        ]
    }

    const HASH: u64 = 0xfeed_f00d;

    /// Round-trips the one label backend, flat CSR, bit-identically.
    #[test]
    fn roundtrips_every_backend_bit_identically() {
        let store = LabelSet::from_lists(&lists());
        let bytes = store.to_bytes(HASH);
        let loaded = LabelSet::from_bytes(&bytes, store.num_nodes(), HASH).unwrap();
        assert_eq!(loaded.stats(), store.stats());
        for v in 0..store.num_nodes() {
            let a: Vec<LabelEntry> = store.entries(v).collect();
            let b: Vec<LabelEntry> = loaded.entries(v).collect();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.hub_rank, y.hub_rank);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
        }
    }

    #[test]
    fn stale_fingerprints_are_rejected() {
        let store = LabelSet::from_lists(&lists());
        let bytes = store.to_bytes(HASH);
        assert!(matches!(
            LabelSet::from_bytes(&bytes, store.num_nodes(), HASH + 1),
            Err(PersistError::StaleIndex {
                what: "graph hash",
                ..
            })
        ));
        assert!(matches!(
            LabelSet::from_bytes(&bytes, store.num_nodes() + 1, HASH),
            Err(PersistError::StaleIndex { what: "nodes", .. })
        ));
    }

    #[test]
    fn graph_fingerprint_tracks_edges_and_weights() {
        use atd_graph::GraphBuilder;
        let build = |w: f64, extra: bool| {
            let mut b = GraphBuilder::new();
            let u = b.add_node(1.0);
            let v = b.add_node(2.0);
            let x = b.add_node(3.0);
            b.add_edge(u, v, w).unwrap();
            if extra {
                b.add_edge(v, x, 1.0).unwrap();
            }
            b.build().unwrap()
        };
        let base = graph_fingerprint(&build(0.5, false));
        assert_eq!(base, graph_fingerprint(&build(0.5, false)), "deterministic");
        assert_ne!(base, graph_fingerprint(&build(0.75, false)), "weight");
        assert_ne!(base, graph_fingerprint(&build(0.5, true)), "topology");
    }

    #[test]
    fn header_fingerprint_matches_snapshot_fingerprint_of() {
        use atd_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let u = b.add_node(1.0);
        let v = b.add_node(2.0);
        b.add_edge(u, v, 0.5).unwrap();
        let g = b.build().unwrap();
        let store = LabelSet::from_lists(&[vec![e(0, 0.0)], vec![e(0, 0.5)]]);
        let bytes = store.to_bytes(graph_fingerprint(&g));
        let read = SnapshotFingerprint::read_from_bytes(&bytes).unwrap();
        assert_eq!(read, SnapshotFingerprint::of(&g, &store));
        assert_eq!(read.nodes, 2);
        assert_eq!(read.entries, 2);
        assert!(matches!(
            SnapshotFingerprint::read_from_bytes(&bytes[..HEADER_LEN - 1]),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn empty_stores_roundtrip() {
        for store in [LabelSet::new(0), LabelSet::new(3)] {
            let bytes = store.to_bytes(0);
            let loaded = LabelSet::from_bytes(&bytes, store.num_nodes(), 0).expect("roundtrip");
            assert_eq!(loaded.stats(), store.stats());
        }
    }
}
