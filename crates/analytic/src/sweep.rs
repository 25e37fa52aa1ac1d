//! Parameter sweeps regenerating the paper's Figure 6.

use crate::model::ModelParams;

/// One plotted curve: a parameter label and `(c, speedup)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (e.g. `"p = 0.9"`).
    pub label: String,
    /// `(communication ratio, speedup)` samples.
    pub points: Vec<(f64, f64)>,
}

/// One panel of Figure 6: a title and its family of curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure6Panel {
    /// Panel title (the fixed parameters).
    pub title: String,
    /// The swept curves.
    pub series: Vec<Series>,
}

fn sweep_c(params: ModelParams, label: String, steps: usize) -> Series {
    let points = (0..=steps)
        .map(|i| {
            let c = i as f64 / steps as f64;
            (c, params.speedup(c))
        })
        .collect();
    Series { label, points }
}

/// Regenerates the four panels of the paper's Figure 6:
///
/// 1. speedup vs `c` for `p ∈ {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}` at
///    `n = 2, f = 1, rtl = 4`;
/// 2. speedup vs `c` for `n ∈ {1.5, 2, 4, 8}` at `p = 0.9`;
/// 3. speedup vs `c` for `f ∈ {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}` at
///    `p = 0.9`;
/// 4. speedup vs `c` for `rtl ∈ {2 (Origin), 4 (Mercury), 8 (NUMA-Q)}`
///    at `p = 0.9`.
#[must_use]
pub fn figure6(steps: usize) -> Vec<Figure6Panel> {
    let base = ModelParams::paper_base(0.9);
    let mut panels = Vec::with_capacity(4);

    panels.push(Figure6Panel {
        title: "n = 2, f = 1.0, rtl = 4 (varying prediction accuracy p)".into(),
        series: [1.0, 0.9, 0.7, 0.5, 0.3, 0.1]
            .iter()
            .map(|&p| sweep_c(ModelParams::paper_base(p), format!("p = {p}"), steps))
            .collect(),
    });

    panels.push(Figure6Panel {
        title: "p = 0.9, f = 1.0, rtl = 4 (varying misspeculation penalty n)".into(),
        series: [1.5, 2.0, 4.0, 8.0]
            .iter()
            .map(|&n| sweep_c(ModelParams { n, ..base }, format!("n = {n}"), steps))
            .collect(),
    });

    panels.push(Figure6Panel {
        title: "p = 0.9, n = 2, rtl = 4 (varying speculation fraction f)".into(),
        series: [1.0, 0.9, 0.7, 0.5, 0.3, 0.1]
            .iter()
            .map(|&f| sweep_c(ModelParams { f, ..base }, format!("f = {f}"), steps))
            .collect(),
    });

    panels.push(Figure6Panel {
        title: "p = 0.9, n = 2, f = 1.0 (varying remote-to-local ratio rtl)".into(),
        series: [
            (8.0, "rtl = 8 (NUMA-Q)"),
            (4.0, "rtl = 4 (Mercury)"),
            (2.0, "rtl = 2 (Origin)"),
        ]
        .iter()
        .map(|&(rtl, label)| sweep_c(ModelParams { rtl, ..base }, label.to_string(), steps))
        .collect(),
    });

    panels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_panels_with_expected_families() {
        let panels = figure6(10);
        assert_eq!(panels.len(), 4);
        assert_eq!(panels[0].series.len(), 6); // p sweep
        assert_eq!(panels[1].series.len(), 4); // n sweep
        assert_eq!(panels[2].series.len(), 6); // f sweep
        assert_eq!(panels[3].series.len(), 3); // rtl sweep
    }

    #[test]
    fn each_series_spans_c_zero_to_one() {
        for panel in figure6(20) {
            for s in &panel.series {
                assert_eq!(s.points.len(), 21);
                assert_eq!(s.points[0].0, 0.0);
                assert_eq!(s.points.last().unwrap().0, 1.0);
                // c = 0 always gives speedup 1.
                assert!((s.points[0].1 - 1.0).abs() < 1e-12, "{}", s.label);
            }
        }
    }

    #[test]
    fn p_panel_orders_curves() {
        // Higher accuracy curve dominates lower accuracy everywhere.
        let panels = figure6(10);
        let p_panel = &panels[0];
        let p10 = &p_panel.series[0]; // p = 1.0
        let p01 = &p_panel.series[5]; // p = 0.1
        for (hi, lo) in p10.points.iter().zip(&p01.points).skip(1) {
            assert!(hi.1 > lo.1);
        }
    }

    #[test]
    fn rtl_panel_shows_cluster_advantage() {
        let panels = figure6(10);
        let rtl_panel = &panels[3];
        let numa_q = rtl_panel.series[0].points.last().unwrap().1;
        let origin = rtl_panel.series[2].points.last().unwrap().1;
        assert!(numa_q > origin, "NUMA-Q gains more at c = 1");
    }
}
