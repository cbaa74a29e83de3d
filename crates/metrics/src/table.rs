//! Fixed-width text rendering for the figure harness.

use std::fmt;

/// A labelled series of `(x label, value)` points — one line of a figure.
///
/// # Example
///
/// ```
/// use irs_metrics::Series;
///
/// let mut s = Series::new("1-inter. IRS");
/// s.point("streamcluster", 38.2);
/// s.point("raytrace", 1.4);
/// assert_eq!(s.values(), &[38.2, 1.4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<(String, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn point(&mut self, x: impl Into<String>, value: f64) -> &mut Self {
        self.points.push((x.into(), value));
        self
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// X labels in insertion order.
    pub fn labels(&self) -> Vec<&str> {
        self.points.iter().map(|(x, _)| x.as_str()).collect()
    }

    /// Values in insertion order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Value at a given x label, if present.
    pub fn value_at(&self, x: &str) -> Option<f64> {
        self.points.iter().find(|(l, _)| l == x).map(|&(_, v)| v)
    }
}

/// A fixed-width table assembled from several [`Series`] sharing x labels —
/// the text rendering of one figure panel.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    series: Vec<Series>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            series: Vec::new(),
        }
    }

    /// Adds one series (one row group / plotted line).
    pub fn add(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// The contained series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Renders the table: a header of x labels, one row per series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut labels: Vec<&str> = Vec::new();
        for s in &self.series {
            for l in s.labels() {
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
        }
        let name_w = self
            .series
            .iter()
            .map(|s| s.name().len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let col_w = labels
            .iter()
            .map(|l| l.len().max(8))
            .max()
            .unwrap_or(8)
            .min(14);

        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!("{:name_w$}", ""));
        for l in &labels {
            out.push_str(&format!(" {:>col_w$}", truncate(l, col_w)));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:name_w$}", s.name()));
            for l in &labels {
                match s.value_at(l) {
                    // An empty-sample statistic (NaN, e.g. a percentile of
                    // zero requests) renders as an em dash, never as a
                    // numeric value that could read as a perfect score.
                    Some(v) if v.is_nan() => out.push_str(&format!(" {:>col_w$}", "—")),
                    Some(v) => out.push_str(&format!(" {:>col_w$.2}", v)),
                    None => out.push_str(&format!(" {:>col_w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl Table {
    /// Renders the table as CSV: a header of x labels, one row per series.
    /// Labels containing commas or quotes are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut labels: Vec<&str> = Vec::new();
        for s in &self.series {
            for l in s.labels() {
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
        }
        let mut out = String::new();
        out.push_str("series");
        for l in &labels {
            out.push(',');
            out.push_str(&field(l));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&field(s.name()));
            for l in &labels {
                out.push(',');
                // NaN (empty-sample statistic) exports as an empty cell,
                // same as a missing one.
                if let Some(v) = s.value_at(l) {
                    if !v.is_nan() {
                        out.push_str(&format!("{v}"));
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn truncate(s: &str, w: usize) -> &str {
    if s.len() <= w {
        s
    } else {
        &s[..w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let mut s = Series::new("irs");
        s.point("a", 1.0).point("b", 2.0);
        assert_eq!(s.value_at("b"), Some(2.0));
        assert_eq!(s.value_at("c"), None);
        assert_eq!(s.labels(), vec!["a", "b"]);
        assert_eq!(s.values(), vec![1.0, 2.0]);
    }

    #[test]
    fn table_renders_all_series() {
        let mut t = Table::new("Fig 5(a)");
        let mut s1 = Series::new("1-inter. IRS");
        s1.point("streamcluster", 38.25).point("raytrace", 1.0);
        let mut s2 = Series::new("1-inter. PLE");
        s2.point("streamcluster", 10.0);
        t.add(s1);
        t.add(s2);
        let text = t.render();
        assert!(text.contains("Fig 5(a)"));
        assert!(text.contains("38.25"));
        assert!(text.contains("1-inter. PLE"));
        // Missing cell rendered as '-'.
        let last = text.lines().last().unwrap();
        assert!(last.trim_end().ends_with('-'));
    }

    #[test]
    fn csv_export() {
        let mut t = Table::new("x");
        let mut s1 = Series::new("a,b");
        s1.point("l1", 1.5).point("l2", 2.0);
        let mut s2 = Series::new("c");
        s2.point("l2", 3.0);
        t.add(s1);
        t.add(s2);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,l1,l2");
        assert_eq!(lines[1], "\"a,b\",1.5,2");
        assert_eq!(lines[2], "c,,3");
    }

    #[test]
    fn nan_cells_render_as_dash_and_empty_csv() {
        let mut t = Table::new("x");
        let mut s = Series::new("p99");
        s.point("ok", 12.5).point("empty", f64::NAN);
        t.add(s);
        let text = t.render();
        assert!(text.contains('—'), "NaN must render as an em dash:\n{text}");
        assert!(!text.contains("NaN"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1).unwrap(), "p99,12.5,");
    }

    #[test]
    fn long_labels_are_truncated() {
        let mut t = Table::new("x");
        let mut s = Series::new("s");
        s.point("averyveryverylonglabelindeed", 1.0);
        t.add(s);
        let text = t.render();
        assert!(text.contains("averyveryveryl"));
        assert!(!text.contains("longlabelindeed"));
    }
}
