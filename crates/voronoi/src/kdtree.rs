//! A 2-d kd-tree for nearest-neighbour and weighted nearest-dominator
//! queries.
//!
//! Used as the `O(log n)` proximity dispatch of the point-location data
//! structure (Theorem 3): given a query point, only the nearest station
//! can possibly be heard (Observation 2.2), and the kd-tree finds it
//! without the naive linear scan. For *non-uniform* power assignments
//! the analogous dispatch (Kantor–Lotker–Parter–Peleg) is a weighted
//! Voronoi — power-diagram — cell lookup: the only station that can be
//! heard at `p` is the one maximising `Pᵢ · att(d²(p, sᵢ))`.
//! [`KdTree::build_weighted`] + [`KdTree::strongest_mapped`] answer that
//! argmax exactly by best-first branch-and-bound over per-subtree
//! `(bbox, max weight)` aggregates.

use sinr_geometry::Point;

/// A static 2-d kd-tree over a set of sites.
///
/// Construction is `O(n log n)` by median splitting; nearest-neighbour
/// queries run in expected `O(log n)` for well-distributed sites (worst
/// case `O(n)`, as for all kd-trees).
///
/// # Examples
///
/// ```
/// use sinr_geometry::Point;
/// use sinr_voronoi::KdTree;
///
/// let tree = KdTree::build(vec![
///     Point::new(0.0, 0.0),
///     Point::new(5.0, 5.0),
///     Point::new(-3.0, 4.0),
/// ]);
/// let (idx, dist) = tree.nearest(Point::new(4.5, 4.5)).unwrap();
/// assert_eq!(idx, 1);
/// assert!(dist < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Site positions in original order.
    sites: Vec<Point>,
    /// Tree nodes; `nodes[0]` is the root (when non-empty).
    nodes: Vec<Node>,
    /// Per-site weights (transmit powers), parallel to `sites`. Empty
    /// for trees built with [`KdTree::build`]; populated by
    /// [`KdTree::build_weighted`].
    weights: Vec<f64>,
    /// Per-node subtree aggregates, parallel to `nodes` (weighted trees
    /// only): the bounding box of every site in the subtree plus the
    /// maximum weight found there — the branch-and-bound data of
    /// [`KdTree::strongest_mapped`]. Aggregates cover *all* slots,
    /// tombstoned or not, so mapped pruning stays conservative.
    agg: Vec<SubtreeAgg>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index into `sites`.
    site: usize,
    /// Split axis: 0 = x, 1 = y.
    axis: u8,
    /// Left child index in `nodes`, `usize::MAX` for none.
    left: usize,
    /// Right child index in `nodes`, `usize::MAX` for none.
    right: usize,
}

#[derive(Debug, Clone, Copy)]
struct SubtreeAgg {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    max_w: f64,
}

impl SubtreeAgg {
    /// Squared distance from `q` to this subtree's bounding box (zero
    /// when `q` lies inside it). For non-finite `q` the `max(0.0)`
    /// clamps turn NaN components into zero, so a NaN query is never
    /// pruned — the search degenerates to a full visit, as it must.
    fn min_dist_sq(&self, q: Point) -> f64 {
        let dx = (self.min_x - q.x).max(0.0).max(q.x - self.max_x);
        let dy = (self.min_y - q.y).max(0.0).max(q.y - self.max_y);
        dx * dx + dy * dy
    }
}

const NONE: usize = usize::MAX;

/// Relative slack on the branch-and-bound upper bound of
/// [`KdTree::strongest_mapped`]: `att` is only *mathematically*
/// monotone in `d²`; its floating-point realisation (e.g.
/// `powf(-α/2)`) may wobble by an ulp across nearby arguments. Widening
/// the bound by one part in 10¹² keeps pruning sound against that
/// wobble without costing measurable extra visits.
const STRONGEST_BOUND_SLACK: f64 = 1e-12;

impl KdTree {
    /// Builds a kd-tree over the given sites (kept in original index
    /// order for stable identification).
    pub fn build(sites: Vec<Point>) -> Self {
        let mut order: Vec<usize> = (0..sites.len()).collect();
        let mut nodes = Vec::with_capacity(sites.len());
        if !sites.is_empty() {
            build_rec(&sites, &mut order[..], 0, &mut nodes);
        }
        KdTree {
            sites,
            nodes,
            weights: Vec::new(),
            agg: Vec::new(),
        }
    }

    /// Builds a kd-tree with a positive weight (transmit power) per
    /// site, enabling [`KdTree::strongest_mapped`]. The tree shape is
    /// identical to [`KdTree::build`] over the same sites — weights
    /// only add per-subtree `(bbox, max weight)` aggregates, computed
    /// in one reverse pass (children are pushed after their parent, so
    /// child aggregates are always ready first).
    ///
    /// # Panics
    ///
    /// When `weights.len() != sites.len()`.
    pub fn build_weighted(sites: Vec<Point>, weights: Vec<f64>) -> Self {
        assert_eq!(
            sites.len(),
            weights.len(),
            "one weight per site ({} sites, {} weights)",
            sites.len(),
            weights.len()
        );
        let mut tree = KdTree::build(sites);
        tree.weights = weights;
        tree.agg = vec![
            SubtreeAgg {
                min_x: f64::INFINITY,
                min_y: f64::INFINITY,
                max_x: f64::NEG_INFINITY,
                max_y: f64::NEG_INFINITY,
                max_w: 0.0,
            };
            tree.nodes.len()
        ];
        for i in (0..tree.nodes.len()).rev() {
            let node = tree.nodes[i];
            let site = tree.sites[node.site];
            let mut a = SubtreeAgg {
                min_x: site.x,
                min_y: site.y,
                max_x: site.x,
                max_y: site.y,
                max_w: tree.weights[node.site],
            };
            for child in [node.left, node.right] {
                if child != NONE {
                    let c = tree.agg[child];
                    a.min_x = a.min_x.min(c.min_x);
                    a.min_y = a.min_y.min(c.min_y);
                    a.max_x = a.max_x.max(c.max_x);
                    a.max_y = a.max_y.max(c.max_y);
                    a.max_w = a.max_w.max(c.max_w);
                }
            }
            tree.agg[i] = a;
        }
        tree
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the tree holds no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site positions.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// The per-site weights, parallel to [`KdTree::sites`] — empty for
    /// trees built with [`KdTree::build`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The nearest site to `q`: returns `(site_index, distance)`, or
    /// `None` for an empty tree.
    pub fn nearest(&self, q: Point) -> Option<(usize, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best = (NONE, f64::INFINITY);
        self.search(0, q, &mut best);
        Some((best.0, best.1.sqrt()))
    }

    /// The site maximising `weight · att(d²(q, site))` under a
    /// relabelling — the power-diagram (weighted Voronoi) cell lookup.
    ///
    /// `att` is the path-loss attenuation, a non-negative and
    /// (mathematically) non-increasing function of squared distance,
    /// e.g. `1/d²` or `d^(-α)`. `map` sends each kd-tree site slot to
    /// its current label, or `None` for a tombstoned slot (skipped).
    /// Ties at equal strength break toward the smallest **label**, so a
    /// linear argmax with the first-index rule over the live sites
    /// reports the same site. Returns `(label, squared_distance,
    /// strength)`, or `None` when the tree was not
    /// [weighted](KdTree::build_weighted), is empty, or every slot is
    /// tombstoned.
    ///
    /// The search is exact best-first branch-and-bound: a subtree is
    /// visited unless `att(d²_min-to-bbox) · max_weight`, widened by
    /// `STRONGEST_BOUND_SLACK`, is *strictly* below the best strength
    /// so far — visiting on equality is what preserves the
    /// smallest-label tie rule.
    pub fn strongest_mapped<A, F>(&self, q: Point, att: A, map: F) -> Option<(usize, f64, f64)>
    where
        A: Fn(f64) -> f64,
        F: Fn(usize) -> Option<usize>,
    {
        if self.nodes.is_empty() || self.agg.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64, f64)> = None;
        self.search_strongest(0, q, &att, &map, &mut best);
        best
    }

    fn search_strongest<A, F>(
        &self,
        node_idx: usize,
        q: Point,
        att: &A,
        map: &F,
        best: &mut Option<(usize, f64, f64)>,
    ) where
        A: Fn(f64) -> f64,
        F: Fn(usize) -> Option<usize>,
    {
        let node = self.nodes[node_idx];
        if let Some(label) = map(node.site) {
            let d2 = self.sites[node.site].dist_sq(q);
            let strength = att(d2) * self.weights[node.site];
            let better = match *best {
                None => true,
                Some((bl, _, bs)) => strength > bs || (strength == bs && label < bl),
            };
            if better {
                *best = Some((label, d2, strength));
            }
        }
        // Best-first: descend the child with the larger upper bound
        // first, then re-check the other child against the improved
        // best. Prune only on *strict* inequality.
        let bound = |child: usize| -> f64 {
            if child == NONE {
                return f64::NEG_INFINITY;
            }
            let a = self.agg[child];
            att(a.min_dist_sq(q)) * a.max_w * (1.0 + STRONGEST_BOUND_SLACK)
        };
        let (mut first, mut second) = (node.left, node.right);
        let (mut first_ub, mut second_ub) = (bound(first), bound(second));
        if second_ub > first_ub {
            std::mem::swap(&mut first, &mut second);
            std::mem::swap(&mut first_ub, &mut second_ub);
        }
        // The negated comparison is load-bearing: `ub >= bs` would
        // prune on NaN bounds (NaN query), `!(ub < bs)` never does.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let not_pruned = |ub: f64, best: &Option<(usize, f64, f64)>| match *best {
            None => true,
            Some((_, _, bs)) => !(ub < bs),
        };
        if first != NONE && not_pruned(first_ub, best) {
            self.search_strongest(first, q, att, map, best);
        }
        if second != NONE && not_pruned(second_ub, best) {
            self.search_strongest(second, q, att, map, best);
        }
    }

    fn search(&self, node_idx: usize, q: Point, best: &mut (usize, f64)) {
        let node = self.nodes[node_idx];
        let site = self.sites[node.site];
        let d2 = site.dist_sq(q);
        if d2 < best.1 || (d2 == best.1 && node.site < best.0) {
            *best = (node.site, d2);
        }
        let diff = if node.axis == 0 {
            q.x - site.x
        } else {
            q.y - site.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.search(near, q, best);
        }
        if far != NONE && diff * diff <= best.1 {
            self.search(far, q, best);
        }
    }
}

fn build_rec(sites: &[Point], order: &mut [usize], axis: u8, nodes: &mut Vec<Node>) -> usize {
    debug_assert!(!order.is_empty());
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        let (ka, kb) = if axis == 0 {
            (sites[a].x, sites[b].x)
        } else {
            (sites[a].y, sites[b].y)
        };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    let site = order[mid];
    let this = nodes.len();
    nodes.push(Node {
        site,
        axis,
        left: NONE,
        right: NONE,
    });
    let next_axis = 1 - axis;
    // Split the order slice around the median without re-borrowing `this`.
    let (left_slice, rest) = order.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    if !left_slice.is_empty() {
        let l = build_rec(sites, left_slice, next_axis, nodes);
        nodes[this].left = l;
    }
    if !right_slice.is_empty() {
        let r = build_rec(sites, right_slice, next_axis, nodes);
        nodes[this].right = r;
    }
    this
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_nearest;

    fn pseudo_points(n: usize, seed: u64, scale: f64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * scale - scale / 2.0
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn empty_and_single() {
        assert!(KdTree::build(vec![]).nearest(Point::ORIGIN).is_none());
        let t = KdTree::build(vec![Point::new(1.0, 2.0)]);
        let (i, d) = t.nearest(Point::ORIGIN).unwrap();
        assert_eq!(i, 0);
        assert!((d - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_naive_on_random_sets() {
        for n in [2usize, 3, 10, 100, 500] {
            let sites = pseudo_points(n, 0xC0FFEE + n as u64, 20.0);
            let tree = KdTree::build(sites.clone());
            let queries = pseudo_points(200, 0xBEEF + n as u64, 30.0);
            for q in queries {
                let naive = naive_nearest(&sites, q).unwrap();
                let (found, dist) = tree.nearest(q).unwrap();
                // Equal distance is fine (ties); otherwise indexes must match.
                let dn = sites[naive].dist(q);
                assert!(
                    (dist - dn).abs() < 1e-9,
                    "n={n}: kd dist {dist} vs naive {dn} at {q}"
                );
                if (sites[found].dist(q) - dn).abs() > 1e-12 {
                    panic!("n={n}: kd-tree returned non-nearest site");
                }
            }
        }
    }

    /// Brute-force weighted argmax with the exact tie rule of
    /// `strongest_mapped`: strictly stronger wins, equal strength
    /// breaks toward the smaller label.
    fn naive_strongest(
        sites: &[Point],
        weights: &[f64],
        q: Point,
        att: impl Fn(f64) -> f64,
        map: impl Fn(usize) -> Option<usize>,
    ) -> Option<(usize, f64, f64)> {
        let mut want: Option<(usize, f64, f64)> = None;
        for (s, p) in sites.iter().enumerate() {
            let Some(label) = map(s) else { continue };
            let d2 = p.dist_sq(q);
            let strength = att(d2) * weights[s];
            let better = match want {
                None => true,
                Some((bl, _, bs)) => strength > bs || (strength == bs && label < bl),
            };
            if better {
                want = Some((label, d2, strength));
            }
        }
        want
    }

    fn pseudo_weights(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0.25 + ((state >> 33) as f64 / (1u64 << 32) as f64) * 4.0
            })
            .collect()
    }

    #[test]
    fn strongest_mapped_agrees_with_naive_argmax() {
        for n in [2usize, 3, 10, 100, 500] {
            let sites = pseudo_points(n, 0xC0FFEE + n as u64, 20.0);
            let weights = pseudo_weights(n, 0xF1E5 + n as u64);
            let tree = KdTree::build_weighted(sites.clone(), weights.clone());
            let queries = pseudo_points(200, 0xBEEF + n as u64, 30.0);
            // Both supported path-loss shapes: exact-op 1/d² and the
            // powf-based general α (where the bound slack matters).
            type Att = fn(f64) -> f64;
            let atts: [(&str, Att); 2] =
                [("inv_sq", |d2| 1.0 / d2), ("alpha3", |d2| d2.powf(-1.5))];
            for (name, att) in atts {
                for q in &queries {
                    let got = tree.strongest_mapped(*q, att, Some);
                    let want = naive_strongest(&sites, &weights, *q, att, Some);
                    assert_eq!(got, want, "{name} n={n}: strongest mismatch at {q}");
                }
                // Queries at site positions: infinite strength, ties by
                // label.
                for s in &sites {
                    let got = tree.strongest_mapped(*s, att, Some);
                    let want = naive_strongest(&sites, &weights, *s, att, Some);
                    assert_eq!(got, want, "{name} n={n}: site-query mismatch at {s}");
                }
            }
        }
    }

    #[test]
    fn strongest_mapped_skips_tombstones_and_relabels() {
        let sites = pseudo_points(300, 0xABBA, 20.0);
        let weights = pseudo_weights(300, 0x77E1);
        let tree = KdTree::build_weighted(sites.clone(), weights.clone());
        let map = |s: usize| (!s.is_multiple_of(3)).then_some(s + 1000);
        let att = |d2: f64| 1.0 / d2;
        for q in pseudo_points(150, 0x5EED, 25.0) {
            let got = tree.strongest_mapped(q, att, map);
            let want = naive_strongest(&sites, &weights, q, att, map);
            assert_eq!(got, want, "strongest_mapped mismatch at {q}");
        }
        // Everything tombstoned → no answer; unweighted trees have no
        // aggregates and decline rather than guessing.
        assert_eq!(tree.strongest_mapped(Point::ORIGIN, att, |_| None), None);
        let unweighted = KdTree::build(sites);
        assert_eq!(unweighted.strongest_mapped(Point::ORIGIN, att, Some), None);
    }

    #[test]
    fn strongest_mapped_handles_non_finite_queries() {
        let sites = pseudo_points(64, 0x404, 10.0);
        let weights = pseudo_weights(64, 0x405);
        let tree = KdTree::build_weighted(sites.clone(), weights.clone());
        let att = |d2: f64| 1.0 / d2;
        // Infinite queries: every strength is an exact 0.0, so the
        // label tie rule fully determines the answer.
        for q in [
            Point::new(f64::INFINITY, 1.0),
            Point::new(-2.0, f64::NEG_INFINITY),
        ] {
            let got = tree.strongest_mapped(q, att, Some);
            let want = naive_strongest(&sites, &weights, q, att, Some);
            assert_eq!(got, want, "infinite query {q}");
        }
        // NaN queries: all strengths are NaN and no order is defined, so
        // the contract is weaker — the search must still answer (NaN
        // bounds never prune into `None`) with a NaN strength the caller
        // resolves to Silent, and the label must be a live site.
        for q in [Point::new(f64::NAN, 0.0), Point::new(0.0, f64::NAN)] {
            let (label, d2, strength) = tree
                .strongest_mapped(q, att, Some)
                .expect("NaN query still answers");
            assert!(label < sites.len());
            assert!(d2.is_nan() && strength.is_nan(), "NaN query {q}");
        }
    }

    #[test]
    fn duplicate_sites_handled() {
        let sites = vec![Point::new(1.0, 1.0); 8];
        let tree = KdTree::build(sites);
        let (i, d) = tree.nearest(Point::new(1.0, 1.0)).unwrap();
        assert!(i < 8);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn collinear_sites() {
        let sites: Vec<Point> = (0..20).map(|k| Point::new(k as f64, 0.0)).collect();
        let tree = KdTree::build(sites.clone());
        for k in 0..20 {
            let q = Point::new(k as f64 + 0.3, 5.0);
            let (i, _) = tree.nearest(q).unwrap();
            assert_eq!(i, k, "query over site {k}");
        }
    }

    #[test]
    fn query_at_site_positions() {
        let sites = pseudo_points(50, 99, 10.0);
        let tree = KdTree::build(sites.clone());
        for (k, s) in sites.iter().enumerate() {
            let (i, d) = tree.nearest(*s).unwrap();
            assert!(d < 1e-12);
            // Another site could coincide; distances must agree regardless.
            assert!((sites[i].dist(*s)) < 1e-12, "site {k}");
        }
    }
}
