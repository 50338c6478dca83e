//! The crash flight recorder: postmortem bundles written with the
//! vs-guard journal discipline.
//!
//! When a run dies interestingly — a sentinel invariant fires, a worker
//! panics past its retries, the watchdog cancels a hung attempt — the
//! last events of the affected chip plus the run's identity are dumped
//! as a *postmortem bundle*: a line-oriented file in which every line is
//! CRC32-framed ([`vs_guard::frame`]) and the whole file is written
//! temp-then-rename with fsync, so a bundle either exists intact or not
//! at all, and bit rot is detected rather than mis-parsed.
//!
//! Bundle contents are a pure function of (config, fault plan, chip):
//! event lines come from the chip's deterministic stream, violations are
//! sorted upstream, and file names are derived from the config
//! fingerprint — so two runs of the same job produce byte-identical
//! bundles under any worker count, which CI checks.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use vs_guard::{frame, unframe, FrameError};
use vs_telemetry::TelemetryEvent;
use vs_types::json::{parse_object, ObjectWriter, Scalar};

/// Default flight-recorder ring capacity: the last N events per chip
/// kept for a postmortem. Small enough to dump instantly, large enough
/// to hold the whole causal neighborhood of a violation.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What dumped the bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostmortemTrigger {
    /// A sentinel safety invariant fired on the chip.
    Violation,
    /// The chip's worker panicked on every attempt (the chip was
    /// quarantined). Event lines are absent: the attempt's recorder
    /// died with it, and inventing a partial stream would break the
    /// bundle's determinism guarantee.
    Panic,
    /// The wall-clock watchdog cancelled at least one attempt.
    Watchdog,
}

impl PostmortemTrigger {
    /// Stable lowercase label (used in file names and the header line).
    pub fn label(self) -> &'static str {
        match self {
            PostmortemTrigger::Violation => "violation",
            PostmortemTrigger::Panic => "panic",
            PostmortemTrigger::Watchdog => "watchdog",
        }
    }

    /// Parses a label produced by [`PostmortemTrigger::label`].
    pub fn parse(s: &str) -> Option<PostmortemTrigger> {
        [
            PostmortemTrigger::Violation,
            PostmortemTrigger::Panic,
            PostmortemTrigger::Watchdog,
        ]
        .into_iter()
        .find(|t| t.label() == s)
    }
}

impl fmt::Display for PostmortemTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One postmortem flight-recorder bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemBundle {
    /// What dumped it.
    pub trigger: PostmortemTrigger,
    /// The chip the trigger concerned.
    pub chip: u64,
    /// The run's [`FleetConfig::fingerprint`] (which already folds in
    /// the fault-plan digest when a plan is armed).
    ///
    /// [`FleetConfig::fingerprint`]: ../vs_fleet/struct.FleetConfig.html
    pub fingerprint: u64,
    /// Human context: the violation summary, panic error, or watchdog
    /// note.
    pub detail: String,
    /// Events the flight ring overwrote before the dump (0 when the
    /// whole stream fit).
    pub dropped: u64,
    /// Violation descriptions, chip-sorted upstream.
    pub violations: Vec<String>,
    /// The retained event window, serialized — one
    /// [`TelemetryEvent::write_json`] object per entry, oldest first.
    pub events: Vec<String>,
}

impl PostmortemBundle {
    /// An empty bundle for `trigger` on `chip`.
    pub fn new(trigger: PostmortemTrigger, chip: u64, fingerprint: u64) -> PostmortemBundle {
        PostmortemBundle {
            trigger,
            chip,
            fingerprint,
            detail: String::new(),
            dropped: 0,
            violations: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Serializes and appends one event to the retained window.
    pub fn push_event(&mut self, event: &TelemetryEvent) {
        let mut line = String::new();
        event.write_json(&mut line);
        self.events.push(line);
    }

    /// The bundle's deterministic file name:
    /// `pm-<fingerprint>-chip<chip>-<trigger>.bundle`.
    pub fn file_name(&self) -> String {
        format!(
            "pm-{:016x}-chip{}-{}.bundle",
            self.fingerprint, self.chip, self.trigger
        )
    }

    /// The bundle's payload lines (pre-framing): one header object, one
    /// object per violation, one object per event.
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(1 + self.violations.len() + self.events.len());
        lines.push(
            ObjectWriter::new()
                .u64("postmortem", 1)
                .str("trigger", self.trigger.label())
                .u64("chip", self.chip)
                .str("fingerprint", &format!("{:016x}", self.fingerprint))
                .str("detail", &self.detail)
                .u64("dropped", self.dropped)
                .u64("violations", self.violations.len() as u64)
                .u64("events", self.events.len() as u64)
                .finish(),
        );
        for v in &self.violations {
            lines.push(ObjectWriter::new().str("violation", v).finish());
        }
        lines.extend(self.events.iter().cloned());
        lines
    }
}

/// Why a bundle failed to load.
#[derive(Debug)]
pub enum BundleError {
    /// The file could not be read.
    Io(io::Error),
    /// A line failed its CRC frame (`1-based` line number attached).
    Frame {
        /// 1-based line number of the bad frame.
        line: usize,
        /// The frame-level failure.
        error: FrameError,
    },
    /// The frames decoded but the content is not a bundle.
    Malformed(String),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle unreadable: {e}"),
            BundleError::Frame { line, error } => {
                write!(f, "bundle line {line} fails its frame: {error}")
            }
            BundleError::Malformed(msg) => write!(f, "malformed bundle: {msg}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> BundleError {
        BundleError::Io(e)
    }
}

/// Writes `bundle` into `dir` (created if needed) crash-safely: every
/// line CRC-framed, content flushed and fsynced to a unique temp file,
/// then renamed into place and the directory fsynced. Returns the final
/// path. An existing bundle of the same name is replaced atomically —
/// re-running the same job re-dumps the identical bytes.
pub fn write_bundle(dir: &Path, bundle: &PostmortemBundle) -> io::Result<PathBuf> {
    write_bundle_on(&vs_guard::vfs::std_fs(), dir, bundle)
}

/// [`write_bundle`] against an explicit filesystem backend — the seam
/// the crash-consistency checker records through.
pub fn write_bundle_on(
    vfs: &vs_guard::vfs::VfsHandle,
    dir: &Path,
    bundle: &PostmortemBundle,
) -> io::Result<PathBuf> {
    use vs_guard::vfs::OpenMode;
    vfs.create_dir_all(dir)?;
    let path = dir.join(bundle.file_name());
    let tag = vfs
        .temp_tag()
        .unwrap_or_else(|| std::process::id().to_string());
    let tmp = dir.join(format!(".{}.tmp.{}", bundle.file_name(), tag));
    let mut text = String::new();
    for line in bundle.to_lines() {
        text.push_str(&frame(&line));
        text.push('\n');
    }
    // FaultyFs consultation (keyed on the final path): a failed bundle
    // write degrades gracefully upstream — the runner records the loss
    // in the degradation report instead of failing the job.
    let permit = vfs.faults().write_permit(&path)?;
    let mut file = vfs.open_write(&tmp, OpenMode::Truncate)?;
    if let Err(e) = permit.write(&mut *file, text.as_bytes()) {
        drop(file);
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    vfs.faults().sync_fault(&path)?;
    file.flush()?;
    file.sync()?;
    drop(file);
    vfs.rename(&tmp, &path)?;
    // Make the rename itself durable.
    let _ = vfs.sync_dir(dir);
    Ok(path)
}

/// Reads a bundle back, verifying every line's CRC frame and the header
/// section counts.
pub fn read_bundle(path: &Path) -> Result<PostmortemBundle, BundleError> {
    let text = fs::read_to_string(path)?;
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let payload = unframe(raw).map_err(|error| BundleError::Frame { line: i + 1, error })?;
        lines.push(payload.to_owned());
    }
    let header = lines
        .first()
        .ok_or_else(|| BundleError::Malformed("empty bundle".into()))?;
    let header = parse_object(header)
        .ok()
        .filter(|h| h.get("postmortem").and_then(Scalar::as_u64) == Some(1))
        .ok_or_else(|| BundleError::Malformed("header is not a postmortem v1 object".into()))?;
    let field = |key: &str| header.get(key);
    let count = |key: &str| field(key).and_then(Scalar::as_u64).unwrap_or(0);
    let trigger = field("trigger")
        .and_then(Scalar::as_str)
        .and_then(PostmortemTrigger::parse)
        .ok_or_else(|| BundleError::Malformed("missing or unknown trigger".into()))?;
    let chip = field("chip")
        .and_then(Scalar::as_u64)
        .ok_or_else(|| BundleError::Malformed("missing chip".into()))?;
    let fingerprint = field("fingerprint")
        .and_then(Scalar::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| BundleError::Malformed("missing fingerprint".into()))?;
    let detail = field("detail")
        .and_then(Scalar::as_str)
        .unwrap_or_default()
        .to_string();
    let dropped = count("dropped");
    let n_violations = count("violations") as usize;
    let n_events = count("events") as usize;
    let body = &lines[1..];
    if body.len() != n_violations + n_events {
        return Err(BundleError::Malformed(format!(
            "header promises {n_violations}+{n_events} lines, found {}",
            body.len()
        )));
    }
    let violations = body[..n_violations]
        .iter()
        .map(|l| {
            parse_object(l)
                .ok()
                .and_then(|v| {
                    v.get("violation")
                        .and_then(Scalar::as_str)
                        .map(str::to_string)
                })
                .ok_or_else(|| BundleError::Malformed("violation line without text".into()))
        })
        .collect::<Result<Vec<String>, BundleError>>()?;
    Ok(PostmortemBundle {
        trigger,
        chip,
        fingerprint,
        detail,
        dropped,
        violations,
        events: body[n_violations..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::{ChipId, DomainId, SimTime};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-obs-flight-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bundle() -> PostmortemBundle {
        let mut b = PostmortemBundle::new(PostmortemTrigger::Violation, 3, 0x3b3f_2ca3_afa0_a1d2);
        b.detail = "rollback-raises chip3 d0 @1000us: \"quoted\"\nsecond line".into();
        b.dropped = 7;
        b.violations
            .push("rollback-raises chip3 d0 @1000us: requested 705 mV".into());
        b.push_event(&TelemetryEvent::DueConsumed {
            at: SimTime::from_millis(1),
            domain: DomainId(0),
            rollback_mv: 705,
            safe_mv: 710,
        });
        b.push_event(&TelemetryEvent::JobFinished {
            chip: ChipId(3),
            sim_time: SimTime::from_millis(500),
            correctable: 12,
            emergencies: 0,
            crashes: 0,
        });
        b
    }

    #[test]
    fn bundle_round_trips_byte_exactly() {
        let dir = scratch("round-trip");
        let bundle = sample_bundle();
        let path = write_bundle(&dir, &bundle).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "pm-3b3f2ca3afa0a1d2-chip3-violation.bundle"
        );
        let loaded = read_bundle(&path).unwrap();
        assert_eq!(loaded, bundle);

        // Re-writing the identical bundle leaves identical bytes.
        let before = fs::read(&path).unwrap();
        write_bundle(&dir, &bundle).unwrap();
        assert_eq!(fs::read(&path).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_text_round_trips_byte_exactly() {
        let dir = scratch("hostile");
        let mut b = PostmortemBundle::new(PostmortemTrigger::Violation, 9, 0xabc);
        b.detail = "say \"hi\" \\ tab\tbell\u{7}nul\u{0} déjà 電圧 ⚡".into();
        b.violations.push("cr\r\nlf \"q\" \u{1f} ünïcödé".into());
        b.violations.push(String::new());
        let lines = b.to_lines();
        assert_eq!(
            lines[0],
            "{\"postmortem\":1,\"trigger\":\"violation\",\"chip\":9,\
             \"fingerprint\":\"0000000000000abc\",\
             \"detail\":\"say \\\"hi\\\" \\\\ tab\\tbell\\u0007nul\\u0000 déjà 電圧 ⚡\",\
             \"dropped\":0,\"violations\":2,\"events\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"violation\":\"cr\\r\\nlf \\\"q\\\" \\u001f ünïcödé\"}"
        );
        assert_eq!(lines[2], "{\"violation\":\"\"}");
        let path = write_bundle(&dir, &b).unwrap();
        assert_eq!(read_bundle(&path).unwrap(), b);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_misparsed() {
        let dir = scratch("corrupt");
        let path = write_bundle(&dir, &sample_bundle()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match read_bundle(&path) {
            Err(BundleError::Frame { line, .. }) => assert!(line >= 1),
            other => panic!("corruption must surface as a frame error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected_by_section_counts() {
        let dir = scratch("truncated");
        let path = write_bundle(&dir, &sample_bundle()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(2).collect();
        fs::write(&path, kept.join("\n")).unwrap();
        assert!(matches!(read_bundle(&path), Err(BundleError::Malformed(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metadata_only_bundles_are_valid() {
        let dir = scratch("panic");
        let mut b = PostmortemBundle::new(PostmortemTrigger::Panic, 5, 0xdead_beef);
        b.detail = "worker panic on every attempt: injected panic (chip 5)".into();
        let path = write_bundle(&dir, &b).unwrap();
        let loaded = read_bundle(&path).unwrap();
        assert_eq!(loaded.trigger, PostmortemTrigger::Panic);
        assert!(loaded.events.is_empty());
        assert!(loaded.violations.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
