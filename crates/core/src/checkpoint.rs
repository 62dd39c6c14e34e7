//! Durable checkpoints of the online diagnosis state.
//!
//! FlowDiff is meant to run continuously; a panic or process kill must
//! not throw away the streaming state (in-flight episodes, the
//! incremental model, the epoch grid) and force a cold rebuild. This
//! module provides:
//!
//! * a **guarded container** format shared by every persisted artifact
//!   — magic, version, payload length, CRC-32 — so a stale, foreign,
//!   torn, or bit-flipped file is a typed [`PersistError`], never
//!   silently-wrong state,
//! * an **atomic write** helper (tmp + fsync + rename) so a crash
//!   mid-write can never leave a torn file at the destination path,
//! * [`Checkpoint`]: the complete [`OnlineDiffer`] streaming state plus
//!   the number of input events consumed and a fingerprint of the
//!   [`FlowDiffConfig`] it ran under — resuming under a different
//!   config is a typed error, not silent corruption,
//! * [`BaselineBundle`]: a precomputed baseline model + stability
//!   report, so watchers can skip the baseline build on restart.
//!
//! The recovery contract: kill the process at any epoch, restore the
//! last checkpoint, replay the input from the checkpoint's event
//! offset, and every subsequent [`EpochSnapshot`](crate::diff::EpochSnapshot)
//! is byte-identical to the uninterrupted run (the round-trip property
//! test in `tests/streaming_equivalence.rs` and the `flowdiff-bench
//! crashdrill` drill both enforce this).

use std::fmt;
use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::diff::OnlineDiffer;
use crate::model::BehaviorModel;
use crate::stability::StabilityReport;

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"FDIFFCKP";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Magic prefix of a baseline-bundle file.
pub const BASELINE_MAGIC: [u8; 8] = *b"FDIFFBAS";
/// Current baseline-bundle format version.
pub const BASELINE_VERSION: u32 = 1;

/// Why a persisted artifact could not be written or trusted.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with the expected magic (foreign or
    /// garbage file offered where a checkpoint/baseline was expected).
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
        /// The first bytes actually found (zero-padded when shorter).
        found: [u8; 8],
    },
    /// The magic matched but the version is one this build cannot read.
    UnsupportedVersion {
        /// The newest version this build understands.
        supported: u32,
        /// The version stamped in the file.
        found: u32,
    },
    /// The file ends before the length its header promises (torn
    /// write, truncated copy).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload bytes do not hash to the stored CRC-32 (bit rot or
    /// in-place corruption).
    CrcMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The container was intact but the payload failed to decode.
    Decode(serde::Error),
    /// The checkpoint was written under a different [`FlowDiffConfig`]
    /// than the one offered at resume.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: u64,
        /// Fingerprint of the config offered at resume.
        offered: u64,
    },
    /// Filesystem-level failure while reading or writing.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            PersistError::UnsupportedVersion { supported, found } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            PersistError::Truncated { expected, found } => write!(
                f,
                "truncated: header promises {expected} payload bytes, file holds {found}"
            ),
            PersistError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Decode(e) => write!(f, "payload decode failed: {e}"),
            PersistError::ConfigMismatch { stored, offered } => write!(
                f,
                "config mismatch: checkpoint written under fingerprint {stored:#018x}, \
                 resume offered {offered:#018x}"
            ),
            PersistError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde::Error> for PersistError {
    fn from(e: serde::Error) -> Self {
        PersistError::Decode(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
/// same checksum zlib/PNG use. Implemented in-tree because the build
/// is offline; a 256-entry table is computed on first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frames `payload` in the guarded container: `magic (8) | version
/// (u32 LE) | payload length (u64 LE) | CRC-32 of payload (u32 LE) |
/// payload`.
pub fn seal(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a guarded container and returns its payload: the magic
/// must match, the version must be readable (`<= supported`), the
/// length must be exactly what remains, and the CRC must agree.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`UnsupportedVersion`](PersistError::UnsupportedVersion),
/// [`Truncated`](PersistError::Truncated) (also for trailing garbage),
/// or [`CrcMismatch`](PersistError::CrcMismatch).
pub fn unseal(magic: [u8; 8], supported: u32, bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < 8 || bytes[..8] != magic {
        let mut found = [0u8; 8];
        let n = bytes.len().min(8);
        found[..n].copy_from_slice(&bytes[..n]);
        return Err(PersistError::BadMagic {
            expected: magic,
            found,
        });
    }
    if bytes.len() < 24 {
        return Err(PersistError::Truncated {
            expected: 24,
            found: bytes.len(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version == 0 || version > supported {
        return Err(PersistError::UnsupportedVersion {
            supported,
            found: version,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let payload = &bytes[24..];
    if payload.len() != len {
        return Err(PersistError::Truncated {
            expected: len,
            found: payload.len(),
        });
    }
    let computed = crc32(payload);
    if computed != stored {
        return Err(PersistError::CrcMismatch { stored, computed });
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically: the content lands in a sibling
/// temporary file first, is fsynced, and only then renamed over the
/// destination — a crash at any instant leaves either the old file or
/// the new one, never a torn mixture. The parent directory is synced
/// after the rename so the new directory entry itself is durable.
///
/// # Errors
///
/// Any underlying filesystem error, wrapped in [`PersistError::Io`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(dir) = dir {
        // Directory fsync makes the rename itself durable; best-effort
        // on filesystems that refuse to sync directories.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A stable 64-bit fingerprint of a [`FlowDiffConfig`] (FNV-1a over
/// its serialized bytes). Two configs fingerprint equal iff every
/// field agrees, so a checkpoint can refuse to resume under thresholds
/// it was not built with.
pub fn config_fingerprint(config: &FlowDiffConfig) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in serde::to_vec(config) {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The complete durable state of one online diagnosis run: the
/// [`OnlineDiffer`] (reference model, stability gates, assembler,
/// incremental builder, epoch grid, warm-up state), how many input
/// events it has consumed, and the fingerprint of the config it runs
/// under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Fingerprint of the [`FlowDiffConfig`] the differ was built with.
    pub config_fingerprint: u64,
    /// Input events consumed when the checkpoint was taken — the
    /// replay offset: feed events `[events_consumed..]` to the
    /// restored differ to catch up losslessly.
    pub events_consumed: u64,
    /// The streaming state itself.
    pub differ: OnlineDiffer,
}

impl Checkpoint {
    /// Captures the differ's current state (cloned; the live differ
    /// keeps running) with the given replay offset.
    pub fn capture(differ: &OnlineDiffer, events_consumed: u64, config: &FlowDiffConfig) -> Self {
        Checkpoint {
            config_fingerprint: config_fingerprint(config),
            events_consumed,
            differ: differ.clone(),
        }
    }

    /// Serializes into the guarded container (format version
    /// [`CHECKPOINT_VERSION`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &serde::to_vec(self))
    }

    /// Parses a guarded container produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Every container-level [`PersistError`] plus
    /// [`PersistError::Decode`] for a payload that fails to parse.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
        let payload = unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;
        Ok(serde::from_slice(payload)?)
    }

    /// Atomically writes the checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] plus everything [`Checkpoint::from_bytes`]
    /// rejects.
    pub fn load(path: &Path) -> Result<Checkpoint, PersistError> {
        Checkpoint::from_bytes(&std::fs::read(path)?)
    }

    /// Consumes the checkpoint into a running differ and its replay
    /// offset, verifying that `config` is the one the checkpoint was
    /// written under.
    ///
    /// # Errors
    ///
    /// [`PersistError::ConfigMismatch`] when the fingerprints disagree
    /// — resuming a stream of state built under different thresholds
    /// would diff apples against oranges without any visible symptom.
    pub fn resume(self, config: &FlowDiffConfig) -> Result<(OnlineDiffer, u64), PersistError> {
        let offered = config_fingerprint(config);
        if offered != self.config_fingerprint {
            return Err(PersistError::ConfigMismatch {
                stored: self.config_fingerprint,
                offered,
            });
        }
        Ok((self.differ, self.events_consumed))
    }
}

/// A precomputed baseline: the reference [`BehaviorModel`] and its
/// [`StabilityReport`], persisted in the guarded container so a watch
/// loop can validate (magic, version, CRC) and load it instead of
/// trusting an arbitrary file and rebuilding the model on every start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineBundle {
    /// The reference model diffs are taken against.
    pub model: BehaviorModel,
    /// Its stability gates.
    pub stability: StabilityReport,
}

impl BaselineBundle {
    /// Serializes into the guarded container.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(BASELINE_MAGIC, BASELINE_VERSION, &serde::to_vec(self))
    }

    /// Parses a guarded container produced by
    /// [`BaselineBundle::to_bytes`].
    ///
    /// # Errors
    ///
    /// Every container-level [`PersistError`] plus
    /// [`PersistError::Decode`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BaselineBundle, PersistError> {
        let payload = unseal(BASELINE_MAGIC, BASELINE_VERSION, bytes)?;
        Ok(serde::from_slice(payload)?)
    }

    /// Atomically writes the bundle to `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Reads and validates a bundle from `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] plus everything
    /// [`BaselineBundle::from_bytes`] rejects.
    pub fn load(path: &Path) -> Result<BaselineBundle, PersistError> {
        BaselineBundle::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::StabilityReport;
    use netsim::log::ControllerLog;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flowdiff-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_differ(config: &FlowDiffConfig) -> OnlineDiffer {
        let log = ControllerLog::new();
        let reference = BehaviorModel::build(&log, config);
        let stability = StabilityReport::all_stable(&reference);
        OnlineDiffer::try_new(reference, stability, config).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"hello flowdiff".to_vec();
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &payload);
        let back = unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed).unwrap();
        assert_eq!(back, &payload[..]);
    }

    #[test]
    fn unseal_rejects_foreign_magic() {
        let sealed = seal(BASELINE_MAGIC, BASELINE_VERSION, b"x");
        match unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed) {
            Err(PersistError::BadMagic { expected, found }) => {
                assert_eq!(expected, CHECKPOINT_MAGIC);
                assert_eq!(found, BASELINE_MAGIC);
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unseal_rejects_garbage_and_short_input() {
        assert!(matches!(
            unseal(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                b"not a checkpoint file"
            ),
            Err(PersistError::BadMagic { .. })
        ));
        assert!(matches!(
            unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &CHECKPOINT_MAGIC[..5]),
            Err(PersistError::BadMagic { .. })
        ));
        // Magic intact but header cut off.
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"payload");
        assert!(matches!(
            unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed[..12]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn unseal_rejects_future_version() {
        let mut sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"payload");
        sealed[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        match unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed) {
            Err(PersistError::UnsupportedVersion { supported, found }) => {
                assert_eq!(supported, CHECKPOINT_VERSION);
                assert_eq!(found, CHECKPOINT_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn unseal_rejects_truncated_payload_at_every_cut() {
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"0123456789abcdef");
        for cut in 24..sealed.len() {
            assert!(
                matches!(
                    unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &sealed[..cut]),
                    Err(PersistError::Truncated { .. })
                ),
                "cut at {cut} must be rejected as truncated"
            );
        }
        // Trailing garbage is a length mismatch too, not silently read.
        let mut long = sealed.clone();
        long.push(0xAA);
        assert!(matches!(
            unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &long),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn unseal_rejects_every_single_bit_flip_in_payload() {
        let sealed = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, b"guarded payload");
        for byte in 24..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        unseal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &bad),
                        Err(PersistError::CrcMismatch { .. })
                    ),
                    "flip of byte {byte} bit {bit} must fail the CRC"
                );
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = FlowDiffConfig::default();
        let b = FlowDiffConfig {
            online_epoch_us: 7_000_000,
            ..FlowDiffConfig::default()
        };
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn checkpoint_roundtrips_and_rejects_mismatched_config() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let ckpt = Checkpoint::capture(&differ, 17, &config);
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        let (resumed, offset) = back.resume(&config).unwrap();
        assert_eq!(offset, 17);
        assert_eq!(resumed, differ);

        let other = FlowDiffConfig {
            fs_rel_change: 0.75,
            ..FlowDiffConfig::default()
        };
        let again = Checkpoint::from_bytes(&bytes).unwrap();
        assert!(matches!(
            again.resume(&other),
            Err(PersistError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_save_load_through_disk() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let path = tmp_path("roundtrip.ckpt");
        Checkpoint::capture(&differ, 3, &config)
            .save(&path)
            .unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.events_consumed, 3);
        let (resumed, _) = loaded.resume(&config).unwrap();
        assert_eq!(resumed, differ);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let path = tmp_path("atomic.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "temporary must be gone after the rename"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_checkpoints_stay_readable() {
        // The payload layout is unchanged since version 1: the header
        // stamps 1 and the bytes read back into the same differ.
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let bytes = Checkpoint::capture(&differ, 11, &config).to_bytes();
        assert_eq!(&bytes[..8], &CHECKPOINT_MAGIC);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        let c = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(c.events_consumed, 11);
        let (resumed, _) = c.resume(&config).unwrap();
        assert_eq!(resumed, differ);
    }

    #[test]
    fn checkpoint_rejects_future_versions_and_foreign_files() {
        let config = FlowDiffConfig::default();
        let differ = small_differ(&config);
        let mut bytes = Checkpoint::capture(&differ, 0, &config).to_bytes();
        bytes[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                supported: CHECKPOINT_VERSION,
                ..
            })
        ));
        // A version-2 header (the retired segmented layout) is refused
        // before its payload is looked at.
        let v2 = seal(CHECKPOINT_MAGIC, 2, b"manifest and segments");
        assert!(matches!(
            Checkpoint::from_bytes(&v2),
            Err(PersistError::UnsupportedVersion {
                supported: 1,
                found: 2
            })
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"FDIFFBASnot a checkpoint"),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn baseline_bundle_roundtrips_and_guards() {
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&model);
        let bundle = BaselineBundle { model, stability };
        let bytes = bundle.to_bytes();
        assert_eq!(BaselineBundle::from_bytes(&bytes).unwrap(), bundle);
        // A checkpoint offered as a baseline is a foreign file.
        let differ = small_differ(&config);
        let ckpt_bytes = Checkpoint::capture(&differ, 0, &config).to_bytes();
        assert!(matches!(
            BaselineBundle::from_bytes(&ckpt_bytes),
            Err(PersistError::BadMagic { .. })
        ));
        // A corrupted payload byte fails the CRC, not the decoder.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            BaselineBundle::from_bytes(&bad),
            Err(PersistError::CrcMismatch { .. })
        ));
    }
}
