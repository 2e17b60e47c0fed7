//! DoV tables pinned by digest: the first-hit caster may get faster, but
//! every table it estimates must stay byte-identical. The digests are
//! FNV-1a 64 of `DovTable::encode()`, recorded with the depth-first box
//! caster the near-first walk replaced.
//!
//! The framebench-scale table is `#[ignore]`d (seconds in release, minutes
//! in debug); run it with `cargo test --release -p hdov-visibility --
//! --ignored`.

use hdov_scene::{CityConfig, DatasetPreset, Scene};
use hdov_visibility::{CellGrid, CellGridConfig, CellId, DovConfig, DovGeometry, DovTable};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn small_city(cells: usize) -> (Scene, CellGrid) {
    let scene = CityConfig::small().seed(7).generate();
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(cells, cells)
        .build();
    (scene, grid)
}

fn assert_pinned(table: &DovTable, digest: u64, len: usize) {
    let bytes = table.encode();
    assert_eq!(
        (format!("{:016x}", fnv1a(&bytes)), bytes.len()),
        (format!("{digest:016x}"), len)
    );
}

#[test]
fn bounding_box_table_is_pinned() {
    let (scene, grid) = small_city(8);
    let cfg = DovConfig {
        rays_per_viewpoint: 512,
        viewpoints_per_cell: 3,
        seed: 11,
        geometry: DovGeometry::BoundingBoxes,
    };
    let mut table = DovTable::compute(&scene, &grid, &cfg, 2);
    assert_pinned(&table, 0xdaa7_af55_b0f4_2b77, 14_320);
    // The incremental path estimates cells exactly as the full one does.
    let all: Vec<CellId> = (0..grid.cell_count() as CellId).collect();
    table.recompute_cells(&scene, &grid, &cfg, &all);
    assert_pinned(&table, 0xdaa7_af55_b0f4_2b77, 14_320);
}

#[test]
fn mesh_table_is_pinned() {
    let (scene, grid) = small_city(4);
    let cfg = DovConfig {
        rays_per_viewpoint: 256,
        viewpoints_per_cell: 2,
        seed: 11,
        geometry: DovGeometry::Meshes { lod_level: 1 },
    };
    let table = DovTable::compute(&scene, &grid, &cfg, 2);
    assert_pinned(&table, 0x9d4c_232e_4212_5c41, 1_304);
}

/// framebench's city and DoV configuration (`Nominal400MB`, seed 2003,
/// 16 × 16 cells, 2048 rays × 5 viewpoints).
#[test]
#[ignore = "release-scale: run with --release -- --ignored"]
fn framebench_table_is_pinned() {
    let scene = DatasetPreset::Nominal400MB.config().seed(2003).generate();
    let grid = CellGridConfig::for_scene(&scene)
        .with_resolution(16, 16)
        .build();
    let cfg = DovConfig {
        rays_per_viewpoint: 2048,
        viewpoints_per_cell: 5,
        seed: 2003,
        ..Default::default()
    };
    let table = DovTable::compute(&scene, &grid, &cfg, 0);
    assert_pinned(&table, 0x635a_e9ed_d781_7eeb, 89_296);
}
