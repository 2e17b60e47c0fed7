//! Incremental DoV maintenance: recomputing only the affected cells must
//! produce exactly the same table as a full recompute on the edited scene.

use hdov_geom::Vec3;
use hdov_mesh::{generate, TriMesh};
use hdov_scene::Scene;
use hdov_visibility::{CellGrid, CellGridConfig, CellId, DovConfig, DovTable};

/// A row of separated boxes plus one big occluder in the middle.
fn meshes(with_occluder: bool) -> Vec<TriMesh> {
    let mut out = Vec::new();
    for i in 0..8 {
        let mut m = generate::box_mesh(Vec3::ZERO, Vec3::new(6.0, 6.0, 12.0));
        m.translate(Vec3::new(40.0 + i as f64 * 25.0, 40.0, 0.0));
        out.push(m);
    }
    if with_occluder {
        // A wall that hides the back half of the row from the south.
        let mut m = generate::box_mesh(Vec3::ZERO, Vec3::new(120.0, 4.0, 30.0));
        m.translate(Vec3::new(60.0, 20.0, 0.0));
        out.push(m);
    }
    out
}

fn grid(scene: &Scene) -> CellGrid {
    CellGridConfig::for_scene(scene)
        .with_resolution(4, 4)
        .build()
}

fn cfg() -> DovConfig {
    DovConfig {
        rays_per_viewpoint: 1024,
        viewpoints_per_cell: 2,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn removing_the_occluder_incrementally_matches_full_recompute() {
    // Before: with the occluder (the last object, so other ids are stable).
    let scene_before = Scene::from_meshes(meshes(true), 2, 0.5).unwrap();
    let g = grid(&scene_before);
    let mut table = DovTable::compute(&scene_before, &g, &cfg(), 2);

    // After: occluder removed.
    let scene_after = Scene::from_meshes(meshes(false), 2, 0.5).unwrap();
    let occluder_id = (scene_before.len() - 1) as u32;
    let occluder_mbr = scene_before.object(occluder_id as u64).mbr;

    let dirty = table.affected_cells(&g, &cfg(), &[occluder_id], &[occluder_mbr]);
    assert!(!dirty.is_empty(), "removing a wall must affect some cells");
    table.recompute_cells(&scene_after, &g, &cfg(), &dirty);

    let full = DovTable::compute(&scene_after, &g, &cfg(), 2);
    for c in 0..g.cell_count() as CellId {
        assert_eq!(
            table.cell(c),
            full.cell(c),
            "cell {c} diverged (dirty set: {dirty:?})"
        );
    }
    // The wall's removal must actually reveal something somewhere.
    let revealed =
        (0..g.cell_count() as CellId).any(|c| full.visible_count(c) > 0 && full.total_dov(c) > 0.0);
    assert!(revealed);
}

#[test]
fn adding_an_object_incrementally_matches_full_recompute() {
    let scene_before = Scene::from_meshes(meshes(false), 2, 0.5).unwrap();
    let g = grid(&scene_before);
    let mut table = DovTable::compute(&scene_before, &g, &cfg(), 2);

    // Add the occluder (appended: existing ids unchanged).
    let scene_after = Scene::from_meshes(meshes(true), 2, 0.5).unwrap();
    let new_id = (scene_after.len() - 1) as u64;
    let new_mbr = scene_after.object(new_id).mbr;

    let dirty = table.affected_cells(&g, &cfg(), &[], &[new_mbr]);
    table.recompute_cells(&scene_after, &g, &cfg(), &dirty);

    // Note: the *grids* differ in region only if scene bounds changed; the
    // wall is inside the row's footprint so the viewpoint region is stable.
    let full = DovTable::compute(&scene_after, &g, &cfg(), 2);
    for c in 0..g.cell_count() as CellId {
        assert_eq!(table.cell(c), full.cell(c), "cell {c} diverged");
    }
}

#[test]
fn distant_edit_leaves_far_cells_untouched() {
    let scene = Scene::from_meshes(meshes(false), 2, 0.5).unwrap();
    let g = grid(&scene);
    let table = DovTable::compute(&scene, &g, &cfg(), 2);
    // A tiny pebble 100 km away: none of the sampled rays passes through
    // it from any cell.
    let far = hdov_geom::Aabb::new(
        Vec3::new(1e5, 1e5, 0.0),
        Vec3::new(1e5 + 0.1, 1e5 + 0.1, 0.1),
    );
    let dirty = table.affected_cells(&g, &cfg(), &[], &[far]);
    assert!(dirty.is_empty(), "a distant pebble affected {dirty:?}");
}

#[test]
fn recompute_rejects_mismatched_ray_count() {
    let scene = Scene::from_meshes(meshes(false), 2, 0.5).unwrap();
    let g = grid(&scene);
    let mut table = DovTable::compute(&scene, &g, &cfg(), 1);
    let wrong = DovConfig {
        rays_per_viewpoint: 2048,
        ..cfg()
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        table.recompute_cells(&scene, &g, &wrong, &[0]);
    }));
    assert!(result.is_err(), "mismatched ray count must be rejected");
}

#[test]
fn one_pass_repatch_equals_dirty_test_then_recompute() {
    let before = Scene::from_meshes(meshes(true), 2, 0.5).unwrap();
    let after = Scene::from_meshes(meshes(false), 2, 0.5).unwrap();
    let g = grid(&before);
    let table = DovTable::compute(&before, &g, &cfg(), 1);
    let occluder = (before.len() - 1) as u32;
    let regions = [before.object(occluder as u64).mbr];
    for objects in [vec![], vec![occluder]] {
        let mut two_step = table.clone();
        let dirty = two_step.affected_cells(&g, &cfg(), &objects, &regions);
        two_step.recompute_cells(&after, &g, &cfg(), &dirty);

        let mut one_pass = table.clone();
        let seen = table.affected_cells(&g, &cfg(), &objects, &[]);
        assert_eq!(one_pass.repatch(&after, &g, &cfg(), &seen, &regions), dirty);
        assert_eq!(one_pass.encode(), two_step.encode());
    }
    // Nothing seen and no region: nothing is dirty and nothing changes.
    let mut untouched = table.clone();
    assert!(untouched.repatch(&after, &g, &cfg(), &[], &[]).is_empty());
    assert_eq!(untouched.encode(), table.encode());
}
