//! A first-hit ray caster over object bounding boxes or triangles.
//!
//! An in-memory BVH (median split on the longest centroid axis) answers
//! "which primitive does this ray see first?" in `O(log n)` — the core
//! primitive of the DoV estimator. A ground plane at `z = 0` terminates
//! downward rays so they cannot pass underneath the city.
//!
//! Both casters run one walk (`Bvh::nearest`) that differs only in its
//! primitive test: the slab test for [`Bvh`], Möller–Trumbore for
//! [`TriBvh`]. The walk takes `1 / dir` once per ray ([`SlabRay`]), keeps
//! its stack in a fixed array, visits the nearer child first and drops any
//! subtree whose entry `t` exceeds the best hit so far.
//!
//! **Tie rule.** Among primitives hit at the same `t`, the smallest *rank*
//! wins. A primitive at tree position `p`, in the leaf that covers
//! positions `start..end` of `n`, has rank `(n − start, p)`: leaves right
//! to left, positions within a leaf left to right. That is the order of the
//! right-first depth-first walk this caster replaced, which kept the first
//! primitive it met at the best `t`, so every tie resolves as before. The
//! ground wins a tie with any primitive.

use hdov_geom::{Aabb, Ray, SlabRay};

#[derive(Debug)]
enum BvhNode {
    Leaf {
        bounds: Aabb,
        /// Range into `order`.
        start: u32,
        end: u32,
    },
    Inner {
        bounds: Aabb,
        left: u32,
        right: u32,
    },
}

impl BvhNode {
    fn bounds(&self) -> &Aabb {
        match self {
            BvhNode::Leaf { bounds, .. } | BvhNode::Inner { bounds, .. } => bounds,
        }
    }
}

/// A static bounding-volume hierarchy over axis-aligned boxes.
#[derive(Debug)]
pub struct Bvh {
    nodes: Vec<BvhNode>,
    /// Primitive index at each tree position.
    order: Vec<u32>,
    /// The boxes in tree order: a leaf's boxes are contiguous.
    boxes: Vec<Aabb>,
    root: u32,
    ground_z: Option<f64>,
}

/// A first-hit result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hit {
    /// The ray first hits the primitive with this index, at parameter `t`.
    Object {
        /// Index into the box array passed at construction.
        index: u32,
        /// Hit distance along the (unit) ray.
        t: f64,
    },
    /// The ray hits the ground plane first.
    Ground {
        /// Hit distance.
        t: f64,
    },
    /// The ray escapes to the sky.
    Miss,
}

impl Hit {
    /// The object hit if any, else the ground hit if any, else a miss.
    fn new(object: Option<(u32, f64)>, ground_t: Option<f64>) -> Hit {
        match (object, ground_t) {
            (Some((index, t)), _) => Hit::Object { index, t },
            (None, Some(t)) => Hit::Ground { t },
            (None, None) => Hit::Miss,
        }
    }
}

const LEAF_SIZE: usize = 4;

/// Stack capacity of [`Bvh::nearest`]. The walk holds at most one entry per
/// tree level, and a median split over `n` boxes has at most
/// `⌈log₂(n / 4)⌉ + 1` levels — 31 for `n = 2³²`; `build` checks the bound.
const STACK: usize = 32;

impl Bvh {
    /// Builds a BVH over `boxes`. Pass `ground_z = Some(0.0)` to model the
    /// city ground plane.
    pub fn build(boxes: Vec<Aabb>, ground_z: Option<f64>) -> Self {
        assert!(u32::try_from(boxes.len()).is_ok(), "too many boxes");
        let mut order: Vec<u32> = (0..boxes.len() as u32).collect();
        let mut nodes = Vec::with_capacity(boxes.len().max(1) * 2);
        let (root, levels) = if boxes.is_empty() {
            nodes.push(BvhNode::Leaf {
                bounds: Aabb::EMPTY,
                start: 0,
                end: 0,
            });
            (0, 1)
        } else {
            build_rec(&boxes, &mut order, 0, boxes.len(), &mut nodes)
        };
        assert!(
            levels <= STACK,
            "{levels}-level BVH overflows the walk stack"
        );
        let boxes = order.iter().map(|&i| boxes[i as usize]).collect();
        Bvh {
            nodes,
            order,
            boxes,
            root,
            ground_z,
        }
    }

    /// Number of primitives.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True if the BVH indexes no primitives.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Where `ray` meets the ground plane, if it is modelled and the ray
    /// descends onto it from above.
    fn ground_t(&self, ray: &Ray) -> Option<f64> {
        let gz = self.ground_z?;
        (ray.dir.z < -1e-12 && ray.origin.z > gz).then(|| (gz - ray.origin.z) / ray.dir.z)
    }

    /// The nearest-hit walk under both casters: returns the tree position
    /// of the primitive with the smallest `(t, rank)` (module docs) among
    /// those `hit` reports at `t < limit`, and its `t`. `hit(p, best_t)`
    /// tests the primitive at tree position `p`; `best_t` is the best `t`
    /// so far, so a test may give up on anything beyond it.
    ///
    /// Each inner node tests both children's boxes, pushes the far one
    /// first and carries its entry `t` on the stack; a popped node whose
    /// entry `t` has since fallen behind the best hit is dropped. Entry `t`
    /// never exceeds the `t` of a box inside it, so a drop on *strictly*
    /// greater loses no primitive that could still win, ties included.
    fn nearest(
        &self,
        ray: &SlabRay,
        limit: f64,
        mut hit: impl FnMut(usize, f64) -> Option<f64>,
    ) -> Option<(usize, f64)> {
        let n = self.order.len() as u64;
        let mut best = None;
        let mut best_t = limit;
        // The limit (the ground) holds rank 0, below every primitive's.
        let mut best_rank = 0u64;
        let root_t = match self.nodes[self.root as usize].bounds().slab_hit(ray) {
            Some(t) if t <= best_t => t,
            _ => return None,
        };
        let mut stack = [(0u32, 0.0f64); STACK];
        stack[0] = (self.root, root_t);
        let mut len = 1;
        while len > 0 {
            len -= 1;
            let (ni, entry) = stack[len];
            if entry > best_t {
                continue;
            }
            match self.nodes[ni as usize] {
                BvhNode::Leaf { start, end, .. } => {
                    let lead = (n - start as u64) << 32;
                    for p in start as usize..end as usize {
                        if let Some(t) = hit(p, best_t) {
                            let rank = lead | p as u64;
                            if t < best_t || (t == best_t && rank < best_rank) {
                                (best, best_t, best_rank) = (Some(p), t, rank);
                            }
                        }
                    }
                }
                BvhNode::Inner { left, right, .. } => {
                    match (
                        self.reach(left, ray, best_t),
                        self.reach(right, ray, best_t),
                    ) {
                        (Some(l), Some(r)) => {
                            // On equal entry the right child is visited
                            // first, as the tie rule's order does.
                            let (far, near) = if l.1 < r.1 { (r, l) } else { (l, r) };
                            stack[len] = far;
                            stack[len + 1] = near;
                            len += 2;
                        }
                        (Some(c), None) | (None, Some(c)) => {
                            stack[len] = c;
                            len += 1;
                        }
                        (None, None) => {}
                    }
                }
            }
        }
        best.map(|p| (p, best_t))
    }

    /// Node `c` with its entry `t`, if the ray enters it no later than `best_t`.
    #[inline(always)]
    fn reach(&self, c: u32, ray: &SlabRay, best_t: f64) -> Option<(u32, f64)> {
        let t = self.nodes[c as usize].bounds().slab_hit(ray)?;
        (t <= best_t).then_some((c, t))
    }

    /// Casts `ray` (unit direction) and returns the first thing hit.
    ///
    /// A primitive hit at `t = 0` (ray origin inside a box) is reported like
    /// any other hit; an empty box is never hit.
    pub fn first_hit(&self, ray: &Ray) -> Hit {
        let slab = SlabRay::new(ray);
        let ground_t = self.ground_t(ray);
        let object = self.nearest(&slab, ground_t.unwrap_or(f64::INFINITY), |p, _| {
            self.boxes[p].slab_hit(&slab)
        });
        Hit::new(object.map(|(p, t)| (self.order[p], t)), ground_t)
    }
}

/// Builds the subtree over `order[start..end]`; returns its node index and
/// its number of levels.
fn build_rec(
    boxes: &[Aabb],
    order: &mut [u32],
    start: usize,
    end: usize,
    nodes: &mut Vec<BvhNode>,
) -> (u32, usize) {
    let bounds = order[start..end]
        .iter()
        .fold(Aabb::EMPTY, |a, &i| a.union(&boxes[i as usize]));
    if end - start <= LEAF_SIZE {
        nodes.push(BvhNode::Leaf {
            bounds,
            start: start as u32,
            end: end as u32,
        });
        return (nodes.len() as u32 - 1, 1);
    }
    // Longest axis of the centroid bounds.
    let cbounds = order[start..end].iter().fold(Aabb::EMPTY, |a, &i| {
        a.union_point(boxes[i as usize].center())
    });
    let e = cbounds.extent();
    let axis = if e.x >= e.y && e.x >= e.z {
        0
    } else if e.y >= e.z {
        1
    } else {
        2
    };
    let mid = (start + end) / 2;
    order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
        // total_cmp: degenerate boxes can have NaN centers, and a partial
        // comparator would break the partition invariant (or panic).
        boxes[a as usize].center()[axis].total_cmp(&boxes[b as usize].center()[axis])
    });
    let (left, left_levels) = build_rec(boxes, order, start, mid, nodes);
    let (right, right_levels) = build_rec(boxes, order, mid, end, nodes);
    nodes.push(BvhNode::Inner {
        bounds,
        left,
        right,
    });
    (nodes.len() as u32 - 1, 1 + left_levels.max(right_levels))
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, bits};
    use super::*;
    use hdov_geom::Vec3;

    fn row_of_boxes(n: usize) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = 10.0 + i as f64 * 10.0;
                Aabb::new(Vec3::new(x, -1.0, 0.0), Vec3::new(x + 2.0, 1.0, 5.0))
            })
            .collect()
    }

    #[test]
    fn hits_nearest_in_row() {
        let bvh = Bvh::build(row_of_boxes(10), None);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert!((t - 10.0).abs() < 1e-9);
            }
            other => panic!("expected object hit, got {other:?}"),
        }
    }

    #[test]
    fn occluded_boxes_not_reported() {
        let bvh = Bvh::build(row_of_boxes(10), None);
        // From between box 4 and 5, looking forward: must see box 5, not 6+.
        let ray = Ray::new(Vec3::new(55.0, 0.0, 1.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, .. } => assert_eq!(index, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn miss_and_ground() {
        let bvh = Bvh::build(row_of_boxes(3), Some(0.0));
        // Upward ray misses everything.
        assert_eq!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::Z)),
            Hit::Miss
        );
        // Downward ray hits the ground.
        match bvh.first_hit(&Ray::new(Vec3::new(0.0, 50.0, 2.0), -Vec3::Z)) {
            Hit::Ground { t } => assert!((t - 2.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_nan_box_does_not_poison_the_build() {
        // An empty box (a geometry-less object) has a NaN centre
        // (∞ + −∞), which makes every axis comparison unordered. The
        // median partition must stay total (total_cmp) so the build neither
        // panics nor misplaces the finite boxes around the pivot.
        let mut boxes = row_of_boxes(9);
        assert!(Aabb::EMPTY.center().x.is_nan());
        boxes.insert(4, Aabb::EMPTY);
        let bvh = Bvh::build(boxes, None);
        // Every finite box is still found first-hit from its own row slot.
        for (i, x) in (0..9).map(|i| (i, 10.0 + i as f64 * 10.0)) {
            let ray = Ray::new(Vec3::new(x - 1.0, 0.0, 1.0), Vec3::X);
            match bvh.first_hit(&ray) {
                Hit::Object { index, t } => {
                    let want = if i < 4 { i } else { i + 1 } as u32;
                    assert_eq!(index, want, "box at x = {x}");
                    assert!((t - 1.0).abs() < 1e-9);
                }
                other => panic!("box at x = {x}: {other:?}"),
            }
        }
    }

    #[test]
    fn ground_occludes_distant_box() {
        // A shallow downward ray towards a distant box must stop at ground.
        let bvh = Bvh::build(row_of_boxes(10), Some(0.0));
        let dir = Vec3::new(1.0, 0.0, -0.05).normalize_or_zero();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.2), dir);
        // Ground hit at x = 4 (before the first box at x = 10).
        assert!(matches!(bvh.first_hit(&ray), Hit::Ground { .. }));
    }

    #[test]
    fn without_ground_the_same_ray_hits_box() {
        let bvh = Bvh::build(row_of_boxes(10), None);
        let dir = Vec3::new(1.0, 0.0, -0.05).normalize_or_zero();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.2), dir);
        // No ground: the ray dips below z=0 but boxes start at z=0; it
        // misses all of them and escapes.
        assert_eq!(bvh.first_hit(&ray), Hit::Miss);
    }

    #[test]
    fn origin_inside_box_reports_that_box() {
        let bvh = Bvh::build(row_of_boxes(10), Some(0.0));
        let ray = Ray::new(Vec3::new(11.0, 0.0, 1.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert_eq!(t, 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_bvh_misses() {
        let bvh = Bvh::build(vec![], Some(0.0));
        assert!(bvh.is_empty());
        assert_eq!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 1.0), Vec3::X)),
            Hit::Miss
        );
    }

    /// Boxes with exact ties in `t`: overlaps, duplicates across leaves, a
    /// shared edge, and tops at and just above the ground.
    fn tie_scene() -> Vec<Aabb> {
        let mut boxes = row_of_boxes(12);
        let b = |lo: [f64; 3], hi: [f64; 3]| Aabb::new(Vec3::from(lo), Vec3::from(hi));
        boxes.push(b([11.0, -1.0, 0.0], [13.0, 1.0, 5.0])); // 12 overlaps 0
        boxes.push(boxes[4]); // 13 duplicates 4
        boxes.push(b([30.0, 1.0, 5.0], [32.0, 3.0, 8.0])); // 14 shares an edge with 2
        boxes.push(b([-1.0, 49.0, -3.0], [1.0, 51.0, 0.0])); // 15 top at the ground
        boxes.push(b([-1.0, 59.0, -3.0], [1.0, 61.0, 0.5])); // 16 top above it
        boxes.push(boxes[7]); // 17 duplicates 7
        boxes
    }

    #[test]
    fn ties_resolve_as_the_depth_first_walk_did() {
        let ray = |o: [f64; 3], d: Vec3| Ray::new(Vec3::from(o), d);
        let obj = |index, t| Hit::Object { index, t };
        // Answers of the right-first depth-first walk this caster replaced.
        // Neither the lower nor the higher index wins every tie (12 beats
        // 0, 4 beats 13), so a `(t, index)` rule would change answers.
        let cases = [
            (ray([11.5, 0.0, 1.0], Vec3::X), obj(12, 0.0)), // inside 0 and 12
            (ray([11.5, 0.0, 1.0], -Vec3::X), obj(12, 0.0)),
            (ray([11.5, 0.0, 1.0], Vec3::Z), obj(12, 0.0)),
            (
                ray([11.5, 0.0, 1.0], Vec3::new(0.6, 0.0, 0.8)),
                obj(12, 0.0),
            ),
            (ray([81.0, 0.0, 1.0], Vec3::Y), obj(17, 0.0)), // inside 7 and 17
            (ray([75.0, 0.0, 1.0], Vec3::X), obj(17, 5.0)), // faces of 7 and 17
            (ray([45.0, 0.0, 1.0], Vec3::X), obj(4, 5.0)),  // faces of 4 and 13
            (ray([51.0, 0.0, 1.0], Vec3::Z), obj(4, 0.0)),
            (ray([25.0, 1.0, 5.0], Vec3::X), obj(14, 5.0)), // along the 2/14 edge
            (ray([31.0, 1.0, 5.0], Vec3::X), obj(14, 0.0)),
            (ray([35.0, 0.0, 1.0], Vec3::X), obj(3, 5.0)),
            (ray([0.0, 60.0, 2.0], -Vec3::Z), obj(16, 1.5)),
        ];
        for ground in [None, Some(0.0)] {
            let bvh = Bvh::build(tie_scene(), ground);
            for (r, want) in cases {
                assert_eq!(bits(bvh.first_hit(&r)), bits(want), "{r:?}");
                assert_eq!(bits(bvh.first_hit(&r)), bits(oracle::box_hit(&bvh, &r)));
            }
            // A box whose top is hit at exactly the ground's `t`: the ground
            // keeps the tie.
            let r = ray([0.0, 50.0, 2.0], -Vec3::Z);
            let want = match ground {
                Some(_) => Hit::Ground { t: 2.0 },
                None => obj(15, 2.0),
            };
            assert_eq!(bits(bvh.first_hit(&r)), bits(want));
            assert_eq!(bits(oracle::box_hit(&bvh, &r)), bits(want));
        }
    }

    #[test]
    fn walk_stack_depth_is_bounded_by_the_median_split() {
        fn levels(bvh: &Bvh, ni: u32) -> usize {
            match bvh.nodes[ni as usize] {
                BvhNode::Leaf { .. } => 1,
                BvhNode::Inner { left, right, .. } => 1 + levels(bvh, left).max(levels(bvh, right)),
            }
        }
        for n in [1usize, 4, 5, 8, 9, 100, 1000, 4097] {
            let bvh = Bvh::build(row_of_boxes(n), None);
            let bound = (n as f64 / LEAF_SIZE as f64).log2().ceil().max(0.0) as usize + 1;
            assert!(levels(&bvh, bvh.root) <= bound, "n = {n}");
        }
    }

    /// Random scenes: half on an integer lattice, where overlapping boxes,
    /// coincident faces, shared edges, axis-parallel rays and tops at the
    /// ground make exact ties in `t` common.
    fn random_scene(seed: u64) -> (Vec<Aabb>, Vec<Ray>) {
        let mut rng = hdov_geom::sampling::SplitMix64::new(seed);
        let lattice = seed.is_multiple_of(2);
        let mut coord = |lo: f64, hi: f64| {
            let v = lo + rng.next_f64() * (hi - lo);
            if lattice {
                v.round()
            } else {
                v
            }
        };
        let n = 1 + (coord(0.0, 1.0) * 119.0) as usize;
        let mut boxes = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = Vec3::new(coord(0.0, 12.0), coord(0.0, 12.0), coord(-3.0, 6.0));
            let size = Vec3::new(coord(0.0, 4.0), coord(0.0, 4.0), coord(0.0, 4.0));
            boxes.push(Aabb::new(lo, lo + size));
        }
        let axes = [Vec3::X, -Vec3::X, Vec3::Y, -Vec3::Y, Vec3::Z, -Vec3::Z];
        let rays = (0..48)
            .map(|i| {
                let origin = Vec3::new(coord(-2.0, 14.0), coord(-2.0, 14.0), coord(0.0, 8.0));
                let dir = match i % 3 {
                    0 => axes[i / 3 % 6],
                    1 => Vec3::new(coord(-1.0, 1.0), coord(-1.0, 1.0), coord(-1.0, 1.0)),
                    _ => Vec3::new(coord(-1.0, 1.0), coord(-1.0, 1.0), 0.0),
                };
                Ray::new(origin, dir.try_normalize().unwrap_or(Vec3::X))
            })
            .collect();
        (boxes, rays)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn box_caster_equals_the_brute_force_spec(seed in 0u64..u64::MAX) {
            let (boxes, rays) = random_scene(seed);
            for ground in [None, Some(0.0)] {
                let bvh = Bvh::build(boxes.clone(), ground);
                for r in &rays {
                    let want = oracle::box_hit(&bvh, r);
                    proptest::prop_assert_eq!(bits(bvh.first_hit(r)), bits(want), "{:?}", r);
                }
            }
        }
    }
}

/// The caster's spec as a linear scan over every primitive, for tests.
#[cfg(test)]
mod oracle {
    use super::*;

    /// A [`Hit`] with `t` as its bit pattern, so `-0.0 != 0.0`.
    pub(super) fn bits(hit: Hit) -> (u8, u32, u64) {
        match hit {
            Hit::Object { index, t } => (0, index, t.to_bits()),
            Hit::Ground { t } => (1, 0, t.to_bits()),
            Hit::Miss => (2, 0, 0),
        }
    }

    /// Every tree position's rank under the tie rule.
    fn ranks(bvh: &Bvh) -> Vec<u64> {
        let n = bvh.order.len() as u64;
        let mut rank = vec![u64::MAX; bvh.order.len()];
        for node in &bvh.nodes {
            if let BvhNode::Leaf { start, end, .. } = *node {
                for p in start..end {
                    rank[p as usize] = (n - start as u64) << 32 | p as u64;
                }
            }
        }
        rank
    }

    /// The tree position with the smallest `(t, rank)` among those `hit`
    /// reports in front of the ground, and its `t`.
    fn scan(bvh: &Bvh, ray: &Ray, hit: impl Fn(usize, f64) -> Option<f64>) -> Option<(usize, f64)> {
        let ranks = ranks(bvh);
        let limit = bvh.ground_t(ray).unwrap_or(f64::INFINITY);
        (0..bvh.len())
            .filter_map(|p| Some((hit(p, limit).filter(|&t| t < limit)?, ranks[p], p)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
            .map(|(t, _, p)| (p, t))
    }

    /// [`Bvh::first_hit`] by linear scan.
    pub(super) fn box_hit(bvh: &Bvh, ray: &Ray) -> Hit {
        let best = scan(bvh, ray, |p, _| bvh.boxes[p].ray_hit(ray));
        Hit::new(best.map(|(p, t)| (bvh.order[p], t)), bvh.ground_t(ray))
    }

    /// [`TriBvh::first_hit`] by linear scan: a triangle counts where the ray
    /// enters its box before the ground.
    pub(super) fn tri_hit(tris: &TriBvh, ray: &Ray) -> Hit {
        let best = scan(&tris.bvh, ray, |p, limit| {
            tris.bvh.boxes[p].ray_hit(ray).filter(|&t| t < limit)?;
            tris.triangles[p].ray_hit(ray)
        });
        Hit::new(
            best.map(|(p, t)| (tris.owners[p], t)),
            tris.bvh.ground_t(ray),
        )
    }
}

/// A triangle-level BVH for mesh-accurate visibility: each primitive is a
/// triangle tagged with its owning object.
///
/// Bounding boxes overestimate occlusion (a box blocks rays its mesh lets
/// through) *and* overestimate visibility (a box face is hit where the mesh
/// has a gap); [`TriBvh`] resolves both at higher build and query cost.
#[derive(Debug)]
pub struct TriBvh {
    bvh: Bvh,
    /// Triangles and their owners in the BVH's tree order.
    triangles: Vec<hdov_geom::Triangle>,
    owners: Vec<u32>,
}

impl TriBvh {
    /// Builds a triangle BVH from `(triangle, owner)` pairs. Pass
    /// `ground_z = Some(0.0)` to model the city ground plane.
    pub fn build(prims: Vec<(hdov_geom::Triangle, u32)>, ground_z: Option<f64>) -> Self {
        let boxes: Vec<Aabb> = prims.iter().map(|(t, _)| t.aabb()).collect();
        let bvh = Bvh::build(boxes, ground_z);
        let (triangles, owners) = bvh.order.iter().map(|&i| prims[i as usize]).unzip();
        TriBvh {
            bvh,
            triangles,
            owners,
        }
    }

    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.triangles.len()
    }

    /// True if no triangles are indexed.
    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// Casts `ray`, returning the owner of the first triangle hit.
    ///
    /// A triangle counts only where the ray enters its box strictly before
    /// the ground. For a triangle lying in the ground plane, its box entry,
    /// its own `t` and the ground's `t` agree up to rounding, and this rule
    /// (the one the depth-first walk applied) decides which is seen. The
    /// box test runs first and also culls the triangle like a node whose
    /// entry `t` is beyond the best hit.
    pub fn first_hit(&self, ray: &Ray) -> Hit {
        let slab = SlabRay::new(ray);
        let ground_t = self.bvh.ground_t(ray);
        let limit = ground_t.unwrap_or(f64::INFINITY);
        let object = self.bvh.nearest(&slab, limit, |p, best_t| {
            let box_t = self.bvh.boxes[p].slab_hit(&slab)?;
            if box_t >= limit || box_t > best_t {
                return None;
            }
            self.triangles[p].ray_hit(ray)
        });
        Hit::new(object.map(|(p, t)| (self.owners[p], t)), ground_t)
    }
}

#[cfg(test)]
mod tribvh_tests {
    use super::oracle::{self, bits};
    use super::*;
    use hdov_geom::{Triangle, Vec3};

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random triangles, a quarter of them exact copies of an earlier
        /// one under another owner, so rays meet exact ties in `t`.
        #[test]
        fn triangle_caster_equals_the_brute_force_spec(seed in 0u64..u64::MAX) {
            let mut rng = hdov_geom::sampling::SplitMix64::new(seed);
            let mut point = |lo: f64| {
                Vec3::new(rng.next_f64() * 12.0, rng.next_f64() * 12.0, lo + rng.next_f64() * 8.0)
            };
            let n = 1 + (seed % 150) as usize;
            let mut prims: Vec<(Triangle, u32)> = Vec::with_capacity(n);
            for i in 0..n {
                let tri = if i % 4 == 3 {
                    prims[i / 2].0
                } else {
                    let a = point(-2.0);
                    Triangle::new(a, a + point(0.0) * 0.3, a + point(0.0) * 0.3)
                };
                prims.push((tri, i as u32));
            }
            let rays: Vec<Ray> = (0..64)
                .map(|_| {
                    let o = point(0.0) * 1.2 - Vec3::splat(1.0);
                    let d = point(0.0) - point(0.0);
                    Ray::new(o, d.try_normalize().unwrap_or(Vec3::Z))
                })
                .collect();
            for ground in [None, Some(0.0)] {
                let bvh = TriBvh::build(prims.clone(), ground);
                for r in &rays {
                    let want = oracle::tri_hit(&bvh, r);
                    proptest::prop_assert_eq!(bits(bvh.first_hit(r)), bits(want), "{:?}", r);
                }
            }
        }
    }

    fn wall(x: f64, owner: u32) -> Vec<(Triangle, u32)> {
        // A 10x10 wall in the yz-plane at the given x, two triangles.
        let a = Vec3::new(x, -5.0, 0.0);
        let b = Vec3::new(x, 5.0, 0.0);
        let c = Vec3::new(x, 5.0, 10.0);
        let d = Vec3::new(x, -5.0, 10.0);
        vec![
            (Triangle::new(a, b, c), owner),
            (Triangle::new(a, c, d), owner),
        ]
    }

    #[test]
    fn nearest_wall_occludes_farther() {
        let mut prims = wall(10.0, 0);
        prims.extend(wall(20.0, 1));
        let bvh = TriBvh::build(prims, None);
        assert_eq!(bvh.len(), 4);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, t } => {
                assert_eq!(index, 0);
                assert!((t - 10.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ray_through_gap_hits_far_wall() {
        // Near wall with a gap: only the lower half is present.
        let a = Vec3::new(10.0, -5.0, 0.0);
        let b = Vec3::new(10.0, 5.0, 0.0);
        let c = Vec3::new(10.0, 5.0, 4.0);
        let d = Vec3::new(10.0, -5.0, 4.0);
        let mut prims = vec![(Triangle::new(a, b, c), 0), (Triangle::new(a, c, d), 0)];
        prims.extend(wall(20.0, 1));
        let bvh = TriBvh::build(prims, None);
        // A ray above the half wall passes the gap and hits wall 1 — a box
        // caster would have credited wall 0.
        let ray = Ray::new(Vec3::new(0.0, 0.0, 8.0), Vec3::X);
        match bvh.first_hit(&ray) {
            Hit::Object { index, .. } => assert_eq!(index, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ground_and_miss() {
        let bvh = TriBvh::build(wall(10.0, 0), Some(0.0));
        assert!(matches!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::Z)),
            Hit::Miss
        ));
        assert!(matches!(
            bvh.first_hit(&Ray::new(Vec3::new(0.0, 50.0, 5.0), -Vec3::Z)),
            Hit::Ground { .. }
        ));
        assert!(!bvh.is_empty());
        let empty = TriBvh::build(vec![], None);
        assert!(empty.is_empty());
        assert!(matches!(
            empty.first_hit(&Ray::new(Vec3::ZERO, Vec3::X)),
            Hit::Miss
        ));
    }
}
