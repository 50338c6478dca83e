//! What one run reports: operation counts, the correctness verdict, the
//! human-readable lines and the named metrics, rendered as the final
//! JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (chips, daemon jobs or experiments).
    pub attempted: u64,
    /// Operations that failed: a failed check, a `Busy` shed, a
    /// failed or cancelled job, a transport error, a panic.
    pub failed: u64,
    /// Checks over the whole run that are not tied to one operation
    /// (population bands, digest stability) and failed.
    pub run_check_failures: Vec<String>,
    /// End-to-end metrics by name: (value, unit).
    pub e2e: BTreeMap<String, (f64, String)>,
    /// Per-layer metrics by name: (value, unit).
    pub layers: BTreeMap<String, (f64, String)>,
    /// Lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one operation, failed if `error` is set (and logs why).
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.failed <= 8 {
                self.lines.push(format!("FAILED: {e}"));
            }
        }
    }

    /// Records a run-level check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            self.lines.push(format!("CHECK FAILED: {what}"));
            self.run_check_failures.push(what);
        }
    }

    /// True when every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_check_failures.is_empty() && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names` (in that order) taken from `metrics`.
    pub fn json(
        &self,
        names: &[(String, String)],
        metrics: &BTreeMap<String, (f64, String)>,
    ) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = metrics.get(name).map_or(0.0, |(v, _)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Renders a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// FNV-1a over 64-bit words: the simulated-summary digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds a byte string in (length-prefixed).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.op(None);
        o.e2e("setup_s", 0.25, "s");
        let names = vec![("setup_s".to_owned(), "s".to_owned())];
        assert_eq!(
            o.json(&names, &o.e2e),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.op(Some("boom".into()));
        assert!(!o.correct());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.hex(), b.hex());
    }
}
