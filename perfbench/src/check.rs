//! Output and counter checks.
//!
//! An *operation* is one output table of one pass. It fails if the pass
//! panicked, if the run's first pass's CSV differs byte-for-byte from the
//! committed reference (at the reference seed), or if a later pass's
//! table differs from the first pass's. Exact counters must repeat across
//! passes, and across runs of one binary at one seed (via a small ledger
//! file).

use irs_metrics::Table;
use std::collections::BTreeMap;
use std::path::Path;

/// One output table, frozen as the bytes the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    pub csv: String,
    pub render: String,
}

impl Output {
    pub fn of(t: &Table) -> Self {
        Output {
            csv: t.to_csv(),
            render: t.render(),
        }
    }
}

/// Exact per-layer counts, keyed by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Why `got` is not the expected table, or `None` if it is.
pub fn table_mismatch(
    got: &Output,
    reference: Option<&str>,
    first: Option<&Output>,
) -> Option<String> {
    if let Some(r) = reference {
        if got.csv != r {
            return Some(format!(
                "differs from the reference at {}",
                first_diff(&got.csv, r)
            ));
        }
    }
    if let Some(f) = first {
        if got != f {
            return Some(format!(
                "differs from the first pass at {}",
                first_diff(&got.render, &f.render)
            ));
        }
    }
    None
}

fn first_diff(a: &str, b: &str) -> String {
    let line = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()));
    format!("line {}", line + 1)
}

/// Operation bookkeeping for one run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Reference CSV per table slot (present only at the reference seed).
    references: Vec<Option<String>>,
    /// The first pass's tables (the pass-to-pass baseline).
    baseline: Option<Vec<Output>>,
    /// The first counts seen per source (library pass, re-derived pass).
    first_counts: BTreeMap<&'static str, Counts>,
    pub attempted: u64,
    pub failed: u64,
    /// Counters that did not repeat exactly (reported, never averaged).
    pub unstable: Vec<String>,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn new(references: Vec<Option<String>>) -> Self {
        Checker {
            references,
            ..Checker::default()
        }
    }

    fn tables(&self) -> usize {
        self.references.len()
    }

    /// Checks one pass's tables (`Err` is a panic message): the first
    /// pass's against the references, every later pass's against the
    /// first's. A pass that panicked or produced the wrong number of
    /// tables fails every slot.
    pub fn pass(&mut self, label: &str, pass: Result<&[Output], &str>) {
        self.attempted += self.tables() as u64;
        let tables = match pass {
            Ok(t) if t.len() == self.tables() => t,
            Ok(t) => {
                let why = format!("produced {} tables, expected {}", t.len(), self.tables());
                return self.fail_all(label, why);
            }
            Err(msg) => return self.fail_all(label, format!("panicked: {msg}")),
        };
        let mismatches: Vec<String> = match &self.baseline {
            None => tables
                .iter()
                .zip(&self.references)
                .enumerate()
                .filter_map(|(i, (got, r))| {
                    Some(format!(
                        "table {i}: {}",
                        table_mismatch(got, r.as_deref(), None)?
                    ))
                })
                .collect(),
            Some(first) => tables
                .iter()
                .zip(first)
                .enumerate()
                .filter_map(|(i, (got, want))| {
                    Some(format!(
                        "table {i}: {}",
                        table_mismatch(got, None, Some(want))?
                    ))
                })
                .collect(),
        };
        self.failed += mismatches.len() as u64;
        self.notes
            .extend(mismatches.into_iter().map(|m| format!("{label} {m}")));
        if self.baseline.is_none() {
            self.baseline = Some(tables.to_vec());
        }
    }

    fn fail_all(&mut self, label: &str, why: String) {
        self.failed += self.tables() as u64;
        self.notes.push(format!("{label} {why}"));
    }

    /// Compares `counts` against the first counts from `source`.
    pub fn counts(&mut self, source: &'static str, counts: &Counts) {
        match self.first_counts.get(source) {
            None => {
                self.first_counts.insert(source, counts.clone());
            }
            Some(first) => {
                for name in diff_keys(first, counts) {
                    self.unstable
                        .push(format!("{source} {name} changed between passes"));
                }
            }
        }
    }

    /// Compares this run's counts with the ledger left by an earlier run
    /// of the same binary at the same seed, then (re)writes the ledger.
    /// `identity` names the binary build; a different build starts a new
    /// ledger.
    pub fn ledger(&mut self, path: &Path, identity: &str) {
        let all: BTreeMap<String, u64> = self
            .first_counts
            .iter()
            .flat_map(|(src, c)| c.iter().map(move |(k, v)| (format!("{src}/{k}"), *v)))
            .collect();
        let mut text = format!("{identity}\n");
        for (k, v) in &all {
            text.push_str(&format!("{k}={v}\n"));
        }
        if let Ok(prev) = std::fs::read_to_string(path) {
            let mut lines = prev.lines();
            if lines.next() == Some(identity) {
                let before: BTreeMap<&str, u64> = lines
                    .filter_map(|l| l.split_once('='))
                    .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
                    .collect();
                for (k, v) in &all {
                    if before.get(k.as_str()).is_some_and(|b| b != v) {
                        self.unstable
                            .push(format!("{k} differs from an earlier run at this seed"));
                    }
                }
            }
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, text) {
            self.notes.push(format!(
                "cannot write counter ledger {}: {e}",
                path.display()
            ));
        }
    }

    /// Settles the counter-exactness operation (one per run).
    pub fn finish_counts(&mut self) {
        self.attempted += 1;
        if !self.unstable.is_empty() {
            self.failed += 1;
        }
    }

    /// Negative self-test through [`Checker::pass`] itself: a fresh checker
    /// whose first reference is one digit away from this run's first table
    /// must count exactly that table as failed, and a later pass whose
    /// first table is one digit away must add exactly one more failure.
    pub fn self_test(&self) -> bool {
        let Some(tables) = self.baseline.clone() else {
            return false;
        };
        let mut references = vec![None; tables.len()];
        references[0] = Some(perturb(&tables[0].csv));
        let mut c = Checker::new(references);
        c.pass("self-test", Ok(&tables));
        let reference_caught = c.failed == 1;
        let mut bad = tables;
        bad[0] = Output {
            csv: perturb(&bad[0].csv),
            render: perturb(&bad[0].render),
        };
        c.pass("self-test", Ok(&bad));
        reference_caught && c.failed == 2
    }
}

fn diff_keys<'a>(a: &'a Counts, b: &'a Counts) -> Vec<&'a str> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Changes the last digit of the text (or appends one): the smallest
/// corruption a table can suffer.
fn perturb(s: &str) -> String {
    let mut bytes = s.as_bytes().to_vec();
    match bytes.iter().rposition(u8::is_ascii_digit) {
        Some(i) => bytes[i] = if bytes[i] == b'9' { b'0' } else { bytes[i] + 1 },
        None => bytes.push(b'0'),
    }
    String::from_utf8(bytes).expect("only an ASCII digit changed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(csv: &str) -> Output {
        Output {
            csv: csv.into(),
            render: csv.into(),
        }
    }

    #[test]
    fn first_pass_is_checked_against_the_reference() {
        let mut c = Checker::new(vec![Some("series,a\nx,1.25\n".into())]);
        c.pass("p", Ok(&[out("series,a\nx,1.25\n")]));
        assert_eq!((c.attempted, c.failed), (1, 0));
        assert!(c.self_test());
        let mut c = Checker::new(vec![Some("series,a\nx,1.25\n".into())]);
        c.pass("p", Ok(&[out("series,a\nx,1.26\n")]));
        assert_eq!((c.attempted, c.failed), (1, 1));
        // Still detects perturbation when the table is already one digit
        // off its reference.
        assert!(c.self_test());
    }

    #[test]
    fn self_test_fails_without_a_pass() {
        assert!(!Checker::new(vec![None]).self_test());
        let mut c = Checker::new(vec![None]);
        c.pass("p", Err("boom"));
        assert!(!c.self_test());
    }

    #[test]
    fn panics_fail_every_table_and_counts_must_repeat() {
        let mut c = Checker::new(vec![None, None]);
        c.pass("p", Err("boom"));
        assert_eq!((c.attempted, c.failed), (2, 2));
        let a: Counts = [("x", 1)].into_iter().collect();
        let b: Counts = [("x", 2)].into_iter().collect();
        c.counts("lib", &a);
        c.counts("lib", &a);
        assert!(c.unstable.is_empty());
        c.counts("lib", &b);
        c.finish_counts();
        assert_eq!(c.unstable.len(), 1);
        assert_eq!((c.attempted, c.failed), (3, 3));
    }

    #[test]
    fn later_passes_must_match_the_first() {
        let mut c = Checker::new(vec![None]);
        c.pass("p", Ok(&[out("t")]));
        c.pass("p", Ok(&[out("t")]));
        assert_eq!(c.failed, 0);
        c.pass("p", Ok(&[out("u")]));
        c.pass("p", Ok(&[out("t"), out("t")]));
        assert_eq!((c.attempted, c.failed), (4, 2));
    }

    #[test]
    fn perturb_changes_exactly_one_digit() {
        assert_eq!(perturb("a1b9"), "a1b0");
        assert_eq!(perturb("x"), "x0");
    }
}
