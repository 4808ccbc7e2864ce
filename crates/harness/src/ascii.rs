//! Minimal ASCII chart rendering for terminal/Markdown reports.

/// One plotted series: a label, a marker character and `(x, y)` points.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Legend label.
    pub label: String,
    /// Marker drawn at each point.
    pub marker: char,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(label: impl Into<String>, marker: char, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            marker,
            points,
        }
    }
}

/// Renders series into a `width × height` character grid with axis labels
/// and a legend. Y grows upward; overlapping markers keep the later
/// series' character.
pub fn render(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(6);
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = s.marker;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let yval = ymax - (ymax - ymin) * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{yval:9.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10}+{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>11}{:<width$.2}{:>8.2}\n",
        "",
        xmin,
        xmax,
        width = width - 6
    ));
    for s in series {
        out.push_str(&format!("  {} = {}\n", s.marker, s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_and_legend() {
        let s = vec![
            Series::new("up", '*', vec![(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
            Series::new("flat", 'o', vec![(1.0, 2.0), (3.0, 2.0)]),
        ];
        let out = render("demo", &s, 30, 10);
        assert!(out.contains("demo"));
        assert!(out.contains('*'));
        assert!(out.contains('o'));
        assert!(out.contains("* = up"));
        assert!(out.contains("o = flat"));
    }

    #[test]
    fn empty_series_graceful() {
        let out = render("none", &[], 30, 10);
        assert!(out.contains("(no data)"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = vec![Series::new("const", 'x', vec![(1.0, 5.0), (1.0, 5.0)])];
        let out = render("const", &s, 20, 8);
        assert!(out.contains('x'));
    }

    #[test]
    fn extremes_land_on_borders() {
        let s = vec![Series::new("d", '#', vec![(0.0, 0.0), (10.0, 10.0)])];
        let out = render("t", &s, 20, 8);
        let lines: Vec<&str> = out.lines().collect();
        // First grid row (max y) holds the top-right marker.
        assert!(lines[1].ends_with('#'), "top row: {:?}", lines[1]);
    }
}
