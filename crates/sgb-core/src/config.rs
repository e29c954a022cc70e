//! The vocabulary of the operators' configuration: the SGB-All overlap
//! semantics and the algorithm selector. Thresholds, the metric and the
//! remaining knobs are set — and validated — on [`crate::SgbQuery`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]

/// The `ON-OVERLAP` arbitration clause of SGB-All (Section 4.1).
///
/// When a point satisfies the membership criterion of more than one group,
/// one of three actions is taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OverlapAction {
    /// `JOIN-ANY`: insert the point into one of the overlapping groups,
    /// chosen pseudo-randomly (seeded, for reproducibility).
    #[default]
    JoinAny,
    /// `ELIMINATE`: discard the point; also discard points of existing
    /// groups that fall within ε of it (the overlap set `Oset`).
    Eliminate,
    /// `FORM-NEW-GROUP`: defer the point (and the overlapped points of
    /// existing groups) to a set `S'`, regrouped recursively at the end.
    FormNewGroup,
}

impl OverlapAction {
    /// The SQL keyword used by the paper's grammar.
    pub fn sql_keyword(&self) -> &'static str {
        match self {
            OverlapAction::JoinAny => "JOIN-ANY",
            OverlapAction::Eliminate => "ELIMINATE",
            OverlapAction::FormNewGroup => "FORM-NEW-GROUP",
        }
    }

    /// Parses the SQL keyword (case-insensitive, `-`/`_` interchangeable).
    pub fn from_sql_keyword(word: &str) -> Option<Self> {
        match word.to_ascii_uppercase().replace('_', "-").as_str() {
            "JOIN-ANY" | "JOINANY" => Some(OverlapAction::JoinAny),
            "ELIMINATE" => Some(OverlapAction::Eliminate),
            "FORM-NEW-GROUP" | "FORM-NEW" | "FORMNEWGROUP" => Some(OverlapAction::FormNewGroup),
            _ => None,
        }
    }
}

/// The operator-independent algorithm selector of the
/// [`crate::SgbQuery`] surface.
///
/// The members of the SGB family share the *kinds* of execution path — a
/// plain scan, an ε-grid, and a cost-based default — and the ε-operators
/// add an R-tree, plus SGB-All's rectangle directory. This enum names
/// each kind once, for every operator; each operator's own list
/// ([`Algorithm::SGB_ALL`], [`Algorithm::SGB_ANY`],
/// [`Algorithm::SGB_AROUND`]) says which it runs. The query builder, the
/// SQL planner and the executor reject the combinations outside it
/// (`BoundsChecking` for SGB-Any, `BoundsChecking` and `Indexed` for
/// SGB-Around), the cost model in [`crate::cost`] resolves `Auto` to a
/// concrete variant, and `EXPLAIN`'s `path:` line and
/// [`crate::Grouping::resolved_algorithm`] report the resolved variant.
///
/// Selection never affects results: all concrete paths of an operator are
/// proven bit-identical, so the choice only moves *when* the answer
/// arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Cost-based selection among the concrete paths (the default; see
    /// [`crate::cost`]).
    #[default]
    Auto,
    /// Plain scan: all-pairs point comparison (SGB-All's Procedure 2,
    /// SGB-Any's scan of every previous point) or the brute center scan
    /// (SGB-Around). Wins at small cardinalities where nothing amortises
    /// index construction.
    AllPairs,
    /// SGB-All's dense rectangle directory (Procedure 4): constant-time
    /// ε-All rectangle tests per group, in creation order. Under ELIMINATE
    /// and FORM-NEW-GROUP a group's reach rectangle is tested before its
    /// allowed rectangle, which it contains, so a far group costs one
    /// test. Not applicable to SGB-Any / SGB-Around.
    BoundsChecking,
    /// R-tree-indexed search: an on-the-fly group tree for SGB-All
    /// (Procedure 5), an STR bulk-loaded point tree for SGB-Any
    /// (Procedure 8). Not applicable to SGB-Around.
    Indexed,
    /// ε-grid search: neighbour-cell probes, no tree descent. SGB-Around
    /// probes a grid over its centers instead, one candidate list per
    /// block of cells (see [`crate::around`]). For SGB-All, the grid
    /// labels the input's ε-components instead (the SGB-Any grid kernel's
    /// connectivity join), and each point searches only its own
    /// component's groups: the component's range of the group directory,
    /// with the Bounds-Checking tests, or the group R-tree for a component
    /// of more than [`crate::cost::ALL_BOUNDS_MAX_N`] points.
    Grid,
}

impl Algorithm {
    /// Every variant, for sweeps and tests.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Auto,
        Algorithm::AllPairs,
        Algorithm::BoundsChecking,
        Algorithm::Indexed,
        Algorithm::Grid,
    ];

    /// The paths SGB-All runs: every variant.
    pub const SGB_ALL: &'static [Algorithm] = &Algorithm::ALL;

    /// The paths SGB-Any (`DISTANCE-TO-ANY`) runs.
    pub const SGB_ANY: &'static [Algorithm] = &[
        Algorithm::Auto,
        Algorithm::AllPairs,
        Algorithm::Indexed,
        Algorithm::Grid,
    ];

    /// The paths SGB-Around runs: the center scan and the center grid.
    pub const SGB_AROUND: &'static [Algorithm] =
        &[Algorithm::Auto, Algorithm::AllPairs, Algorithm::Grid];

    /// `paths` as errors list them: `"Auto, AllPairs, Grid"`.
    pub fn names(paths: &[Algorithm]) -> String {
        let names: Vec<String> = paths.iter().map(Algorithm::to_string).collect();
        names.join(", ")
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The Debug names are the public vocabulary (EXPLAIN pins them).
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::panic
)]
mod tests {
    use super::*;
    use crate::query::OpSpec;
    use crate::SgbQuery;
    use sgb_geom::{Metric, Point};

    #[test]
    fn overlap_keywords_round_trip() {
        for action in [
            OverlapAction::JoinAny,
            OverlapAction::Eliminate,
            OverlapAction::FormNewGroup,
        ] {
            assert_eq!(
                OverlapAction::from_sql_keyword(action.sql_keyword()),
                Some(action)
            );
        }
        assert_eq!(
            OverlapAction::from_sql_keyword("form_new_group"),
            Some(OverlapAction::FormNewGroup)
        );
        assert_eq!(
            OverlapAction::from_sql_keyword("join-any"),
            Some(OverlapAction::JoinAny)
        );
        assert_eq!(OverlapAction::from_sql_keyword("drop"), None);
    }

    #[test]
    fn builders_set_fields() {
        let query = SgbQuery::<2>::all(0.5)
            .metric(Metric::LInf)
            .overlap(OverlapAction::Eliminate)
            .algorithm(Algorithm::BoundsChecking)
            .seed(7);
        assert_eq!(query.eps(), Some(0.5));
        assert_eq!(query.configured_metric(), Metric::LInf);
        assert_eq!(
            query.op,
            OpSpec::All {
                eps: 0.5,
                overlap: OverlapAction::Eliminate
            }
        );
        assert_eq!(query.configured_algorithm(), Algorithm::BoundsChecking);
        assert_eq!(query.seed, 7);

        let query = SgbQuery::<2>::any(1.0)
            .metric(Metric::LInf)
            .algorithm(Algorithm::AllPairs)
            .threads(3);
        assert_eq!(query.configured_metric(), Metric::LInf);
        assert_eq!(query.configured_algorithm(), Algorithm::AllPairs);
        assert_eq!(query.configured_threads(), 3);
        assert_eq!(
            SgbQuery::<2>::any(1.0).configured_threads(),
            0,
            "auto by default"
        );
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn all_config_rejects_nan_eps() {
        let _ = SgbQuery::<2>::all(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn any_config_rejects_negative_eps() {
        let _ = SgbQuery::<2>::any(-0.1);
    }

    #[test]
    fn around_builder_sets_fields() {
        let query = SgbQuery::around(vec![Point::new([0.0, 0.0]), Point::new([1.0, 1.0])])
            .metric(Metric::L1)
            .max_radius(0.5)
            .algorithm(Algorithm::AllPairs)
            .threads(2);
        assert_eq!(query.centers().map(<[_]>::len), Some(2));
        assert_eq!(query.configured_metric(), Metric::L1);
        assert_eq!(query.radius_bound(), Some(0.5));
        assert_eq!(query.configured_algorithm(), Algorithm::AllPairs);
        assert_eq!(query.configured_threads(), 2);
        let default = SgbQuery::around(vec![Point::new([0.0, 0.0])]);
        assert_eq!(default.configured_metric(), Metric::L2);
        assert_eq!(default.radius_bound(), None);
        assert_eq!(default.configured_algorithm(), Algorithm::Auto);
        assert_eq!(default.configured_threads(), 0, "auto by default");
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn around_config_rejects_empty_centers() {
        let _ = SgbQuery::<2>::around(Vec::new());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn around_config_rejects_non_finite_centers() {
        let _ = SgbQuery::around(vec![Point::new([f64::NAN, 0.0])]);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn around_config_rejects_negative_radius() {
        let _ = SgbQuery::around(vec![Point::new([0.0, 0.0])]).max_radius(-1.0);
    }
}
