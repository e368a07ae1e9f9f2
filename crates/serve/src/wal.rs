//! Durable write-ahead log for the serving layer.
//!
//! Every applied write verb (`UPDATE`, `LOAD`, `REMOVE`) appends one
//! [`WalRecord`] to an append-only file *before* the reply is sent, so a
//! restarted server can rebuild exactly the document state (and, by
//! re-running maintenance, exactly the view state) it had when it died.
//!
//! ## On-disk format
//!
//! The log is a flat sequence of frames:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len B)  │
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. The payload starts with a
//! one-byte record tag, then a length-prefixed document name, then the
//! record body (see [`WalRecord::encode`]). There is no header or
//! footer: an empty file is a valid (empty) log, and replay stops
//! cleanly at the first torn or corrupt frame — a crash mid-append
//! loses at most the record being written, never an earlier one.
//!
//! ## Durability level
//!
//! [`Wal::append`] writes each frame straight to the file — one
//! contiguous write per record, no userspace buffer — but does not
//! `fsync`: a crash of the *server process* loses nothing, a crash of
//! the *machine* may lose the last few records. [`Wal::sync`] is
//! available for callers that want the stronger guarantee at a
//! checkpoint.
//!
//! ## Failed appends
//!
//! An append that fails is rolled back: the file is truncated to its
//! length before the append, so a torn frame never sits in front of
//! later, acknowledged records, and the failed record — whose write the
//! caller does not install — never reaches a replay. If the truncation
//! fails too, the log is *poisoned*: every later append fails instead
//! of acknowledging a record no replay could reach.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// IEEE CRC-32 lookup table, generated at compile time (reflected
/// polynomial 0xEDB88320 — the same CRC as zip/png/ethernet).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (hand-rolled; the container has no crc crate).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One logged write. Replaying the sequence of records in order rebuilds
/// the server's document state deterministically (parse∘serialize is an
/// identity for the trees we store, so `Load`/`Update` replay is exact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A document loaded (or reloaded) from in-memory XML. The XML is
    /// the *serialized* form of what was installed, so the log is
    /// self-contained — the original source file may vanish.
    Load {
        /// Document name.
        doc: String,
        /// Serialized XML of the installed tree.
        xml: String,
    },
    /// A file-backed document registration. Replay re-registers the
    /// path; if the file changed since, the replayed state follows the
    /// file (documented limitation of file-backed docs).
    LoadFile {
        /// Document name.
        doc: String,
        /// Server-side path the document streams from.
        path: String,
    },
    /// A document removal.
    Remove {
        /// Document name.
        doc: String,
    },
    /// An applied `UPDATE` — the full transform text, replayed through
    /// the normal update path (including cache maintenance).
    Update {
        /// Document name.
        doc: String,
        /// The update transform text as received.
        text: String,
    },
}

const TAG_LOAD: u8 = 1;
const TAG_LOAD_FILE: u8 = 2;
const TAG_REMOVE: u8 = 3;
const TAG_UPDATE: u8 = 4;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &[u8], at: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?) as usize;
    *at += 4;
    let bytes = buf.get(*at..*at + len)?;
    *at += len;
    let s = std::str::from_utf8(bytes).ok()?.to_string();
    Some(s)
}

impl WalRecord {
    /// The document this record writes.
    pub fn doc(&self) -> &str {
        match self {
            WalRecord::Load { doc, .. }
            | WalRecord::LoadFile { doc, .. }
            | WalRecord::Remove { doc }
            | WalRecord::Update { doc, .. } => doc,
        }
    }

    /// Serializes the record payload: tag byte, then length-prefixed
    /// strings (doc name first).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Load { doc, xml } => {
                out.push(TAG_LOAD);
                put_str(&mut out, doc);
                put_str(&mut out, xml);
            }
            WalRecord::LoadFile { doc, path } => {
                out.push(TAG_LOAD_FILE);
                put_str(&mut out, doc);
                put_str(&mut out, path);
            }
            WalRecord::Remove { doc } => {
                out.push(TAG_REMOVE);
                put_str(&mut out, doc);
            }
            WalRecord::Update { doc, text } => {
                out.push(TAG_UPDATE);
                put_str(&mut out, doc);
                put_str(&mut out, text);
            }
        }
        out
    }

    /// Decodes one payload; `None` on any malformed byte (unknown tag,
    /// truncated string, invalid UTF-8, trailing garbage).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let mut at = 0usize;
        let record = match tag {
            TAG_LOAD => WalRecord::Load {
                doc: take_str(rest, &mut at)?,
                xml: take_str(rest, &mut at)?,
            },
            TAG_LOAD_FILE => WalRecord::LoadFile {
                doc: take_str(rest, &mut at)?,
                path: take_str(rest, &mut at)?,
            },
            TAG_REMOVE => WalRecord::Remove {
                doc: take_str(rest, &mut at)?,
            },
            TAG_UPDATE => WalRecord::Update {
                doc: take_str(rest, &mut at)?,
                text: take_str(rest, &mut at)?,
            },
            _ => return None,
        };
        if at != rest.len() {
            return None;
        }
        Some(record)
    }
}

/// An open, append-only write-ahead log.
///
/// `append` is called with the owning store's shard write lock held (so
/// log order equals install order); the internal mutex only serializes
/// appends from *different* shards. Lock order is therefore always
/// shard lock → WAL mutex, never the reverse — `replay` is a free
/// function over a path and takes no locks at all.
pub struct Wal {
    path: PathBuf,
    // lock-order: Wal.tail is the innermost lock in the serve crate; it
    // is taken under a DocStore shard write lock and never the reverse.
    tail: Mutex<Tail>,
}

/// What the log needs of its backing file: appends, truncation back to
/// an earlier length, and `fsync`. [`File`] is the implementation the
/// server uses.
trait LogFile: Write + Send {
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    fn sync(&mut self) -> io::Result<()>;
}

impl LogFile for File {
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// The append end of the log, behind [`Wal`]'s mutex.
struct Tail {
    file: Box<dyn LogFile>,
    /// Length of the intact frames — where the next frame starts — or
    /// `None` once a failed append could not be rolled back (poisoned).
    len: Option<u64>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish()
    }
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = Some(file.metadata()?.len());
        let file = Box::new(file);
        Ok(Wal {
            path,
            tail: Mutex::new(Tail { file, len }),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, written to the OS as one frame. On error the
    /// log is rolled back to its length before the append (see the
    /// module docs), and the caller must not install the write it was
    /// logging.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut tail = self.tail.lock().expect("wal mutex poisoned");
        let Some(len) = tail.len else {
            return Err(io::Error::other(
                "wal poisoned: an earlier failed append could not be rolled back",
            ));
        };
        let written = tail.file.write_all(&frame);
        tail.len = match written {
            Ok(()) => Some(len + frame.len() as u64),
            Err(_) => tail.file.truncate(len).ok().map(|()| len),
        };
        written
    }

    /// Forces everything appended so far to stable storage (`fsync`).
    pub fn sync(&self) -> io::Result<()> {
        self.tail.lock().expect("wal mutex poisoned").file.sync()
    }

    /// Reads every intact record from the log at `path`, in append
    /// order. A torn or corrupt tail frame (what a crash mid-append
    /// produces) sets [`WalReplay::truncated`]; the tail is dropped,
    /// everything before it is intact. A missing file is an empty log.
    pub fn replay(path: impl AsRef<Path>) -> io::Result<WalReplay> {
        let mut bytes = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(WalReplay {
                    records: Vec::new(),
                    truncated: false,
                    valid_len: 0,
                })
            }
            Err(e) => return Err(e),
        }
        Ok(parse(&bytes))
    }

    /// Drops a torn tail: truncates the file to `valid_len` bytes (the
    /// intact prefix [`Wal::replay`] found). Recovery must do this
    /// before reopening the log for appending — appends landing *after*
    /// leftover garbage would be unreachable to every later replay,
    /// which stops at the first bad frame.
    pub fn truncate_to(path: impl AsRef<Path>, valid_len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)
    }
}

/// Reads every intact frame of a log's bytes, stopping at the first
/// torn or corrupt one.
fn parse(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut at = 0usize;
    let truncated = loop {
        if at == bytes.len() {
            break false;
        }
        let Some(header) = bytes.get(at..at + 8) else {
            break true;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            break true;
        };
        if crc32(payload) != crc {
            break true;
        }
        let Some(record) = WalRecord::decode(payload) else {
            break true;
        };
        records.push(record);
        at += 8 + len;
    };
    WalReplay {
        records,
        truncated,
        valid_len: at as u64,
    }
}

/// What [`Wal::replay`] read from a log file.
#[derive(Debug)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Whether the file ended in a torn or corrupt frame.
    pub truncated: bool,
    /// Byte length of the intact prefix — where appending must resume
    /// after a torn tail (see [`Wal::truncate_to`]).
    pub valid_len: u64,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("xust_wal_{name}_{}.log", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Classic check values for IEEE CRC-32.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn records_roundtrip_through_the_file() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let records = vec![
            WalRecord::Load {
                doc: "db".into(),
                xml: "<db><part/></db>".into(),
            },
            WalRecord::Update {
                doc: "db".into(),
                text: r#"transform copy $a := doc("db") modify do delete $a//part return $a"#
                    .into(),
            },
            WalRecord::LoadFile {
                doc: "disk".into(),
                path: "/tmp/x.xml".into(),
            },
            WalRecord::Remove { doc: "db".into() },
        ];
        {
            let wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let replay = Wal::replay(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records, records);
        assert_eq!(
            replay.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "a clean log's intact prefix is the whole file"
        );
        // Reopening appends after the existing tail.
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Remove { doc: "disk".into() })
                .unwrap();
            wal.sync().unwrap();
        }
        let replay = Wal::replay(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records.len(), records.len() + 1);
        assert_eq!(replay.records.last().unwrap().doc(), "disk");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_stops_cleanly_at_a_torn_tail() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Remove { doc: "a".into() }).unwrap();
        wal.append(&WalRecord::Remove { doc: "b".into() }).unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the last frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records, vec![WalRecord::Remove { doc: "a".into() }]);
        // A lone torn header (fewer than 8 bytes) is also tolerated.
        std::fs::write(&path, [1u8, 2, 3]).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.truncated);
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncating_a_torn_tail_keeps_later_appends_reachable() {
        let path = temp_path("truncate");
        std::fs::remove_file(&path).ok();
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Remove { doc: "a".into() }).unwrap();
        wal.append(&WalRecord::Remove { doc: "b".into() }).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // Recovery's sequence: replay, drop the torn tail, append on.
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.truncated);
        Wal::truncate_to(&path, replay.valid_len).unwrap();
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Remove { doc: "c".into() }).unwrap();
        drop(wal);
        // Without the truncation the "c" record would sit behind the
        // garbage and every later replay would stop short of it.
        let replay = Wal::replay(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(
            replay.records,
            vec![
                WalRecord::Remove { doc: "a".into() },
                WalRecord::Remove { doc: "c".into() },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_stops_at_a_corrupt_crc() {
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Remove { doc: "a".into() }).unwrap();
        wal.append(&WalRecord::Remove { doc: "b".into() }).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the *second* frame.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records, vec![WalRecord::Remove { doc: "a".into() }]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_path("missing");
        std::fs::remove_file(&path).ok();
        let replay = Wal::replay(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.truncated);
        assert_eq!(replay.valid_len, 0);
    }

    /// An in-memory log file whose `fail_on`-th write lands half its
    /// bytes and then errors, and whose truncation fails when asked to.
    struct Flaky {
        bytes: Arc<Mutex<Vec<u8>>>,
        writes: usize,
        fail_on: usize,
        truncate_fails: bool,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            let mut bytes = self.bytes.lock().unwrap();
            if self.writes == self.fail_on {
                bytes.extend_from_slice(&buf[..buf.len() / 2]);
                return Err(io::Error::other("disk full"));
            }
            bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl LogFile for Flaky {
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            if self.truncate_fails {
                return Err(io::Error::other("truncate failed"));
            }
            self.bytes.lock().unwrap().truncate(len as usize);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn flaky_wal(truncate_fails: bool) -> (Wal, Arc<Mutex<Vec<u8>>>) {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let file = Flaky {
            bytes: Arc::clone(&bytes),
            writes: 0,
            fail_on: 2,
            truncate_fails,
        };
        let tail = Tail {
            file: Box::new(file),
            len: Some(0),
        };
        let wal = Wal {
            path: temp_path("flaky"),
            tail: Mutex::new(tail),
        };
        (wal, bytes)
    }

    fn update(text: &str) -> WalRecord {
        WalRecord::Update {
            doc: "db".into(),
            text: text.into(),
        }
    }

    /// A failed append is rolled back: the record after it replays, and
    /// the failed one — answered with an error, never installed — does
    /// not.
    #[test]
    fn a_failed_append_is_rolled_back() {
        let (wal, bytes) = flaky_wal(false);
        wal.append(&update("AAAA")).unwrap();
        assert!(wal.append(&update("BBBB")).is_err());
        wal.append(&update("CCCC")).unwrap();
        let replay = parse(&bytes.lock().unwrap());
        assert!(!replay.truncated);
        assert_eq!(replay.records, vec![update("AAAA"), update("CCCC")]);
    }

    /// When the rollback fails too, the log refuses every later append
    /// rather than acknowledge a record stuck behind a torn frame.
    #[test]
    fn an_unrolled_failure_poisons_the_log() {
        let (wal, bytes) = flaky_wal(true);
        wal.append(&update("AAAA")).unwrap();
        assert!(wal.append(&update("BBBB")).is_err());
        let err = wal.append(&update("CCCC")).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        let replay = parse(&bytes.lock().unwrap());
        assert!(replay.truncated, "the torn frame is still there");
        assert_eq!(replay.records, vec![update("AAAA")]);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(WalRecord::decode(&[]).is_none());
        assert!(WalRecord::decode(&[99]).is_none()); // unknown tag
        assert!(WalRecord::decode(&[TAG_REMOVE, 4, 0, 0, 0, b'a']).is_none()); // short str
        let mut ok = WalRecord::Remove { doc: "a".into() }.encode();
        ok.push(0); // trailing garbage
        assert!(WalRecord::decode(&ok).is_none());
        // Invalid UTF-8 in the name.
        assert!(WalRecord::decode(&[TAG_REMOVE, 1, 0, 0, 0, 0xFF]).is_none());
    }
}
