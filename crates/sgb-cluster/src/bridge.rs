//! Bridge from the clustering baselines to the SGB-Around operator.
//!
//! The paper's experimental section contrasts standalone clustering with
//! in-engine similarity grouping; this module implements the hybrid
//! "derive centers, then regroup relationally" scenario: run k-means over a
//! sample (or the full relation), then feed the learned centroids into
//! SGB-Around as center seeds — optionally with a radius bound, which
//! k-means itself cannot express — so the final grouping runs as a single
//! order-independent pass inside the engine.

use sgb_core::query::Grouping;
use sgb_core::SgbQuery;
use sgb_geom::Point;

use crate::kmeans::{kmeans, KMeansConfig, KMeansResult};

/// Output of [`kmeans_around`]: the k-means model plus the SGB-Around
/// regrouping seeded with its centroids.
#[derive(Clone, Debug)]
pub struct KMeansAround<const D: usize> {
    /// The k-means run that derived the centers.
    pub kmeans: KMeansResult<D>,
    /// The SGB-Around grouping around those centroids, in the unified
    /// family-wide result shape (non-empty centroid groups in centroid
    /// order, radius-expelled records in the explicit outlier set).
    pub around: Grouping,
    /// The centroid index behind each answer group: `around.groups()[g]`
    /// collects the records whose nearest centroid is
    /// `kmeans.centroids[centroid_of_group[g]]` — the grouping's
    /// [`Grouping::group_centers`]. The grouping drops centroids that
    /// attracted nothing, so group indices and centroid indices diverge
    /// whenever a centroid group is empty (a radius bound,
    /// duplicate/degenerate centroids).
    pub centroid_of_group: Vec<usize>,
}

impl<const D: usize> KMeansAround<D> {
    /// Maps each record id in `0..n` to the index of its **centroid**
    /// (`None` for outliers) — the k-means-comparable view of
    /// [`Grouping::assignment`], immune to empty-centroid compaction.
    #[must_use]
    pub fn centroid_assignment(&self, n: usize) -> Vec<Option<usize>> {
        self.around
            .assignment(n)
            .into_iter()
            .map(|g| g.map(|g| self.centroid_of_group[g]))
            .collect()
    }
}

/// Builds an [`SgbQuery`] seeded with a k-means result's centroids,
/// carrying the clustering metric over to the relational operator.
///
/// Panics (like [`SgbQuery::around`]) when the result has no centroids
/// — i.e. k-means ran on empty input; use [`kmeans_around`] for a total
/// wrapper.
#[must_use]
pub fn around_seeds<const D: usize>(
    result: &KMeansResult<D>,
    metric_cfg: &KMeansConfig,
    max_radius: Option<f64>,
) -> SgbQuery<D> {
    let mut query = SgbQuery::around(result.centroids.clone()).metric(metric_cfg.metric);
    if let Some(r) = max_radius {
        query = query.max_radius(r);
    }
    query
}

/// Runs k-means over `points`, then regroups the same points with
/// SGB-Around seeded by the learned centroids.
///
/// Without a radius bound the regrouping reproduces the k-means assignment
/// exactly (both assign to the nearest centroid with lowest-index
/// tie-breaking); with one, points farther than `max_radius` from every
/// centroid move to the outlier group — the robust variant k-means cannot
/// express.
///
/// ```
/// use sgb_cluster::{kmeans_around, KMeansConfig};
/// use sgb_geom::Point;
///
/// let points = vec![
///     Point::new([0.0, 0.1]),
///     Point::new([0.1, 0.0]),
///     Point::new([10.0, 10.1]),
///     Point::new([10.1, 10.0]),
///     Point::new([5.0, 5.0]), // straggler between the clusters
/// ];
/// let out = kmeans_around(&points, &KMeansConfig::new(2).seed(1), Some(3.0));
/// // k-means absorbs the straggler (dragging one centroid to ≈(1.7, 1.7));
/// // the radius-bounded regroup expels it from that group again.
/// assert_eq!(out.around.outliers(), &[4]);
/// assert_eq!(out.around.grouped_records(), 4);
/// ```
pub fn kmeans_around<const D: usize>(
    points: &[Point<D>],
    cfg: &KMeansConfig,
    max_radius: Option<f64>,
) -> KMeansAround<D> {
    let km = kmeans(points, cfg);
    let around = if km.centroids.is_empty() {
        Grouping::empty()
    } else {
        around_seeds(&km, cfg, max_radius).run(points)
    };
    let centroid_of_group = around.group_centers().to_vec();
    KMeansAround {
        kmeans: km,
        around,
        centroid_of_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgb_geom::Metric;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn blob<const D: usize>(center: [f64; D], n: usize, spread: f64, seed: u64) -> Vec<Point<D>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = center;
                for v in c.iter_mut() {
                    *v += rng.gen_range(-spread..spread);
                }
                Point::new(c)
            })
            .collect()
    }

    #[test]
    fn unbounded_regroup_reproduces_kmeans_assignment() {
        let mut points = blob([0.0, 0.0], 60, 0.8, 1);
        points.extend(blob([7.0, 7.0], 60, 0.8, 2));
        points.extend(blob([0.0, 7.0], 60, 0.8, 3));
        for metric in Metric::ALL {
            let cfg = KMeansConfig::new(3).metric(metric).seed(9);
            let out = kmeans_around(&points, &cfg, None);
            // The centroid-indexed view is immune to empty-group
            // compaction, so the contract holds even if a centroid were
            // starved (here all three attract members).
            assert_eq!(out.around.num_groups(), 3, "{metric}");
            assert_eq!(out.centroid_of_group, vec![0, 1, 2], "{metric}");
            let assignment = out.centroid_assignment(points.len());
            for (i, a) in assignment.iter().enumerate() {
                assert_eq!(
                    *a,
                    Some(out.kmeans.assignment[i]),
                    "{metric}: record {i} regrouped differently"
                );
            }
            assert!(out.around.outliers().is_empty());
        }
    }

    #[test]
    fn radius_bound_expels_stragglers() {
        let mut points = blob([0.0, 0.0], 40, 0.3, 4);
        points.extend(blob([6.0, 6.0], 40, 0.3, 5));
        points.push(Point::new([3.0, 3.0])); // between the blobs
        let cfg = KMeansConfig::new(2).seed(11);
        let out = kmeans_around(&points, &cfg, Some(1.5));
        assert_eq!(out.around.outliers(), &[80]);
        out.around.check_partition(points.len());
        // The group -> centroid map stays in center order and agrees with
        // the k-means view of every surviving record.
        assert!(out.centroid_of_group.windows(2).all(|w| w[0] < w[1]));
        let by_centroid = out.centroid_assignment(points.len());
        for (i, c) in by_centroid.iter().enumerate() {
            if let Some(c) = c {
                assert_eq!(*c, out.kmeans.assignment[i], "record {i}");
            }
        }
        // Without the bound the straggler joins a centroid group.
        let free = kmeans_around(&points, &cfg, None);
        assert!(free.around.outliers().is_empty());
    }

    #[test]
    fn seeds_carry_the_metric_and_radius() {
        let points = blob([1.0, 1.0], 30, 0.5, 6);
        let cfg = KMeansConfig::new(2).metric(Metric::L1).seed(3);
        let km = kmeans(&points, &cfg);
        let seeds = around_seeds(&km, &cfg, Some(0.75));
        assert_eq!(seeds.operator(), "SGB-Around");
        assert_eq!(seeds.configured_metric(), Metric::L1);
        assert_eq!(seeds.radius_bound(), Some(0.75));
        assert_eq!(seeds.centers().unwrap(), km.centroids.as_slice());
    }

    #[test]
    fn empty_input_is_total() {
        let out = kmeans_around::<2>(&[], &KMeansConfig::new(3), Some(1.0));
        assert!(out.kmeans.centroids.is_empty());
        assert_eq!(out.around, Grouping::empty());
        assert!(out.centroid_of_group.is_empty());
    }
}
