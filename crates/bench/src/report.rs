//! Experiment output formats: text/TSV tables ([`Table`]) and the JSON
//! reports the `bench` binary commits as `BENCH_*.json` ([`Json`]).

use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::Path;

/// A rectangular results table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (figure/table id + description).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The table as TSV text — exactly the bytes [`write_tsv`](Self::write_tsv)
    /// puts on disk (the determinism tests compare this form across worker
    /// counts).
    pub fn to_tsv(&self) -> String {
        let mut s = format!("# {}\n{}\n", self.title, self.header.join("\t"));
        for r in &self.rows {
            s.push_str(&r.join("\t"));
            s.push('\n');
        }
        s
    }

    /// Writes the table as TSV.
    ///
    /// # Errors
    /// Propagates I/O errors from file creation and writing.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_tsv().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, cell) in widths.iter_mut().zip(r) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, "{cell:>w$}  ")?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        for r in &self.rows {
            line(f, r)?;
        }
        Ok(())
    }
}

/// Formats a float with sensible precision for tables.
pub fn fnum(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// A JSON report value, rendered in the layout of the committed
/// `BENCH_*.json` files: two-space indented objects, one-line row objects,
/// one-line number arrays, and numbers written exactly as formatted here.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number, already formatted with its field's decimals.
    Num(String),
    /// A string, written as UTF-8; only `"`, `\` and control characters are
    /// escaped.
    Str(String),
    /// An array: on one line if every element is a number, else one element
    /// per line.
    Arr(Vec<Json>),
    /// An object with one member per line.
    Obj(Vec<(String, Json)>),
    /// An object on one line (a table row). A member whose value is itself
    /// a row starts a new line, indented two past the row.
    Row(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`]: `obj! { "key" => value, ... }`, each value
/// converted with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($k.to_string(), $crate::Json::from($v))),*])
    };
}

/// Builds a [`Json::Row`], like [`obj!`].
#[macro_export]
macro_rules! row {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::Json::Row(vec![$(($k.to_string(), $crate::Json::from($v))),*])
    };
}

impl Json {
    /// A number in its `Display` form (integers; floats such as `0.25`).
    pub fn num(v: impl fmt::Display) -> Json {
        Json::Num(v.to_string())
    }

    /// A float with exactly `decimals` digits after the point.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// A float rounded to [`fnum`]'s precision tiers, then written in its
    /// shortest form with at least one decimal (`13.4`, `0.52`, `1.0`).
    pub fn short(v: f64) -> Json {
        let rounded: f64 = fnum(v).parse().expect("fnum writes a float");
        Json::Num(format!("{rounded:?}"))
    }

    /// An array of strings, one per line.
    pub fn strs(items: &[&str]) -> Json {
        Json::Arr(items.iter().map(|&s| s.into()).collect())
    }

    /// The document text, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.extend(std::iter::repeat_n(' ', n));
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Num(_))) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out, indent);
                }
                out.push(']');
            }
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, indent + 2);
                    v.write(out, indent + 2);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    pad(out, indent + 2);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 2);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
            Json::Row(members) => {
                out.push_str("{ ");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 && matches!(v, Json::Row(_)) {
                        out.push_str(",\n");
                        pad(out, indent + 2);
                    } else if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 2);
                }
                out.push_str(" }");
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::num(v)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.push(vec!["1".into(), "2".into()]);
        let s = format!("{t}");
        assert!(s.contains("== demo =="));
        assert!(s.contains("bbbb"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut t = Table::new("demo", &["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn tsv_roundtrip() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("aiacc_table_test");
        let path = dir.join("t.tsv");
        t.write_tsv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("x\ty"));
        assert!(content.contains("1\t2"));
    }

    #[test]
    fn json_layouts() {
        let doc = obj! {
            "s" => "a\"b\\c\n\u{1}—",
            "rows" => Json::Arr(vec![row! { "n" => 1u64, "x" => Json::fixed(0.5, 3) }]),
            "nums" => Json::Arr(vec![Json::num(1), Json::num(2.5)]),
            "nested" => obj! { "ok" => true, "gated_by" => Json::strs(&["t"]) },
            "wrap" => row! { "a" => Json::short(13.44), "t" => row! { "b" => Json::short(1.0) } },
        };
        let expect = r#"{
  "s": "a\"b\\c\n\u0001—",
  "rows": [
    { "n": 1, "x": 0.500 }
  ],
  "nums": [1, 2.5],
  "nested": {
    "ok": true,
    "gated_by": [
      "t"
    ]
  },
  "wrap": { "a": 13.4,
    "t": { "b": 1.0 } }
}
"#;
        assert_eq!(doc.render(), expect);
    }

    #[test]
    fn fnum_precision_tiers() {
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(99.94), "99.9");
        assert_eq!(fnum(1.2345), "1.234");
    }
}
