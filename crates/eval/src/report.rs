//! Report artifacts: figures (line charts), tables, ASCII rendering and
//! CSV export.

use std::fmt::Write as _;
use std::path::Path;

/// One line/series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"OO (N = 2)"`).
    pub label: String,
    /// X coordinates.
    pub x: Vec<f64>,
    /// Y coordinates, same length as `x`.
    pub y: Vec<f64>,
}

impl Series {
    /// Creates a series; truncates to the shorter of the two vectors.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        let n = x.len().min(y.len());
        let mut x = x;
        let mut y = y;
        x.truncate(n);
        y.truncate(n);
        Series {
            label: label.into(),
            x,
            y,
        }
    }

    /// Builds a series from y-values with x = 1, 2, 3, …
    pub fn from_values(label: impl Into<String>, y: Vec<f64>) -> Self {
        let x = (1..=y.len()).map(|v| v as f64).collect();
        Series::new(label, x, y)
    }

    /// The mean of the y values (0 for an empty series).
    pub fn y_mean(&self) -> f64 {
        if self.y.is_empty() {
            0.0
        } else {
            self.y.iter().sum::<f64>() / self.y.len() as f64
        }
    }
}

/// A reproduced figure: a set of series plus axis metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier matching the paper (e.g. `"fig5a"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// CSV export: header `x,<label1>,<label2>,…` aligned on the union of
    /// x values (missing points are blank).
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.x.iter().copied())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup();
        let mut out = String::new();
        out.push('x');
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        out.push('\n');
        for &x in &xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.x.iter().position(|&v| v == x) {
                    Some(i) => {
                        let _ = write!(out, ",{}", s.y[i]);
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV next to sibling figures in `dir` as `<id>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Renders an ASCII line chart (markers only, one glyph per series).
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        const MARKERS: [char; 9] = ['o', 'x', '+', '*', '#', '@', '%', '&', '='];
        let width = width.max(20);
        let height = height.max(5);
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for (&x, &y) in s.x.iter().zip(&s.y) {
                if x.is_finite() && y.is_finite() {
                    min_x = min_x.min(x);
                    max_x = max_x.max(x);
                    min_y = min_y.min(y);
                    max_y = max_y.max(y);
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        if !min_x.is_finite() {
            out.push_str("(no data)\n");
            return out;
        }
        if max_y == min_y {
            max_y = min_y + 1.0;
        }
        if max_x == min_x {
            max_x = min_x + 1.0;
        }
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let marker = MARKERS[si % MARKERS.len()];
            for (&x, &y) in s.x.iter().zip(&s.y) {
                if !x.is_finite() || !y.is_finite() {
                    continue;
                }
                let col = (((x - min_x) / (max_x - min_x)) * (width - 1) as f64).round() as usize;
                let row = (((max_y - y) / (max_y - min_y)) * (height - 1) as f64).round() as usize;
                grid[row.min(height - 1)][col.min(width - 1)] = marker;
            }
        }
        for (r, row) in grid.iter().enumerate() {
            let y_val = max_y - (max_y - min_y) * r as f64 / (height - 1) as f64;
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{y_val:>8.3} |{line}");
        }
        let _ = writeln!(out, "{:>8} +{}", "", "-".repeat(width));
        let _ = writeln!(
            out,
            "{:>8}  {:<w$.3}{:>w2$.3}",
            "",
            min_x,
            max_x,
            w = width / 2,
            w2 = width - width / 2
        );
        let _ = writeln!(out, "  x: {}, y: {}", self.x_label, self.y_label);
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {} {}  (mean {:.4})",
                MARKERS[si % MARKERS.len()],
                s.label,
                s.y_mean()
            );
        }
        out
    }
}

/// A reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier (e.g. `"table1"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// CSV export.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV into `dir` as `<id>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Renders a fixed-width ASCII table.
    pub fn render_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        let header = render_row(&self.columns, &widths);
        let rule = "-".repeat(header.len());
        let _ = writeln!(out, "{rule}\n{header}\n{rule}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        let _ = writeln!(out, "{rule}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut f = Figure::new("figX", "demo", "time", "accuracy");
        f.push(Series::from_values("A", vec![1.0, 0.5, 0.25]));
        f.push(Series::new("B", vec![1.0, 2.0], vec![0.1, 0.2]));
        f
    }

    #[test]
    fn series_constructors() {
        let s = Series::from_values("s", vec![5.0, 6.0]);
        assert_eq!(s.x, vec![1.0, 2.0]);
        assert!((s.y_mean() - 5.5).abs() < 1e-12);
        let t = Series::new("t", vec![1.0, 2.0, 3.0], vec![1.0]);
        assert_eq!(t.x.len(), 1);
    }

    #[test]
    fn csv_has_header_and_union_of_x() {
        let csv = sample_figure().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "x,A,B");
        // x values 1, 2, 3 all appear.
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), 3);
        assert!(body[0].starts_with("1,1,0.1"));
        assert!(body[2].starts_with("3,0.25,")); // B has no point at x=3
    }

    #[test]
    fn ascii_chart_contains_markers_and_legend() {
        let art = sample_figure().render_ascii(40, 10);
        assert!(art.contains('o'));
        assert!(art.contains('x'));
        assert!(art.contains("A"));
        assert!(art.contains("accuracy"));
    }

    #[test]
    fn empty_figure_renders_gracefully() {
        let f = Figure::new("empty", "no data", "x", "y");
        assert!(f.render_ascii(30, 8).contains("(no data)"));
        assert_eq!(f.to_csv(), "x\n");
    }

    #[test]
    fn table_rendering_and_csv() {
        let mut t = Table::new("t1", "demo", vec!["model".into(), "kl".into()]);
        t.push(vec!["a".into(), "0.44".into()]);
        t.push(vec!["c".into(), "8.18".into()]);
        let ascii = t.render_ascii();
        assert!(ascii.contains("| model |"));
        assert!(ascii.contains("8.18"));
        assert_eq!(t.to_csv().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_checks_arity() {
        let mut t = Table::new("t", "demo", vec!["a".into()]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn figures_write_to_disk() {
        let dir = chaff_temp::TempPath::new("report_test");
        let path = sample_figure().write_csv(&dir).unwrap();
        assert!(path.exists());
    }
}
