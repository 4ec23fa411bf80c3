//! The rising **Bubble** benchmark (paper §4.2, §6.2, Fig. 1): an air
//! bubble of diameter 1 centered at the origin rises through quiescent
//! water; the interface deforms and eventually splits. The AMR hierarchy
//! follows the interface (Ω_M nearest, Ω_(M-1), Ω_(M-2) in distance
//! bands), which is what the level-cutoff truncation strategies key on.
//!
//! The flow itself is computed on the uniform finest grid (the composite
//! of the deepest AMR level); an AMR *shadow mesh* tracks the interface
//! and provides the per-cell level map used for dynamic truncation —
//! the same information Flash-X's real octree provides. Every step passes
//! the map to [`step`], whose batch tier groups cells by truncation
//! decision: the whole interior is one class unless the session has a
//! level cutoff, which makes each AMR level its own class.
//!
//! lint: allow(native-float, benchmark driver: initial geometry and shadow-mesh banding plus diagnostics (centroid/area/interface sampling); all truncation-targeted flow math lives in solver::step)

use crate::solver::{compute_dt, reinitialize, step, Grid, InsParams};
use amr::{adapt_with, BcSpec, Decision, Mesh, MeshParams};
use raptor_core::{Real, Session};

/// The bubble simulation.
pub struct Bubble {
    /// Flow state on the uniform finest grid.
    pub grid: Grid,
    /// Flow parameters.
    pub params: InsParams,
    /// AMR shadow mesh over the level set.
    pub shadow: Mesh,
    /// Per-interior-cell AMR level.
    pub level_map: Vec<u8>,
    /// Current time.
    pub t: f64,
    /// Steps taken.
    pub nstep: usize,
    /// Shadow/regrid cadence.
    pub regrid_every: usize,
}

/// Build the benchmark: domain `[-1, 1] x [-1, 2]`, bubble radius 0.5 at
/// the origin, `n` cells across the width (must be divisible by
/// `2^(max_level+1)`).
pub fn setup_bubble(n: usize, max_level: u32, params: InsParams) -> Bubble {
    let h = 2.0 / n as f64;
    let ny = (3 * n) / 2;
    let mut grid = Grid::new(n, ny, h, (-1.0, -1.0));
    for j in 0..ny {
        for i in 0..n {
            let (x, y) = grid.xy(i, j);
            let d = (x * x + y * y).sqrt();
            let c = grid.at(i as isize, j as isize);
            grid.phi[c] = 0.5 - d;
        }
    }
    grid.apply_bcs();
    // Shadow mesh: one variable (phi). Block size 8, top-level grid shaped
    // to the domain so the finest level matches the flow grid when
    // 8 * nbx * 2^(M-1) = n.
    let nbx = (n / (8 << (max_level - 1) as usize)).max(1);
    let nby = (ny / (8 << (max_level - 1) as usize)).max(1);
    let shadow = Mesh::new(MeshParams {
        nx: 8,
        ny: 8,
        ng: 2,
        nvar: 1,
        nbx,
        nby,
        max_level,
        domain: (-1.0, 1.0, -1.0, 2.0),
    });
    let mut b = Bubble {
        grid,
        params,
        shadow,
        level_map: vec![1; n * ny],
        t: 0.0,
        nstep: 0,
        regrid_every: 5,
    };
    b.update_shadow();
    b
}

impl Bubble {
    /// Rebuild the shadow mesh around the current interface and refresh
    /// the level map.
    pub fn update_shadow(&mut self) {
        let bc = BcSpec::all_outflow(1);
        // Push phi into the shadow's leaves.
        for _ in 0..self.shadow.params.max_level + 1 {
            self.fill_shadow();
            let grid = &self.grid;
            let changes = adapt_with(&mut self.shadow, &bc, |mesh, idx| {
                let b = mesh.block(idx);
                let (wx, wy) = mesh.block_size(b.pos.level);
                // Distance-band criterion: refine when the block is close
                // to the interface relative to its own size.
                let mut dmin = f64::MAX;
                for j in 0..mesh.params.ny {
                    for i in 0..mesh.params.nx {
                        let (x, y) = mesh.cell_center(b.pos, i, j);
                        // Sample phi from the flow grid.
                        let v = sample_grid_phi(grid, x, y);
                        dmin = dmin.min(v.abs());
                    }
                }
                // Refine blocks whose cells come within a few of their own
                // cell widths of the interface (PARAMESH-style banding).
                let dcell = (wx / mesh.params.nx as f64).max(wy / mesh.params.ny as f64);
                if dmin < 3.0 * dcell {
                    Decision::Refine
                } else if dmin > 6.0 * dcell {
                    Decision::Derefine
                } else {
                    Decision::Keep
                }
            });
            if changes.refined == 0 && changes.coarsened == 0 {
                break;
            }
        }
        self.fill_shadow();
        // Level map from containing leaves.
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        for j in 0..ny {
            for i in 0..nx {
                let (x, y) = self.grid.xy(i, j);
                self.level_map[j * nx + i] = leaf_level(&self.shadow, x, y) as u8;
            }
        }
    }

    fn fill_shadow(&mut self) {
        let grid = &self.grid;
        let leaves = self.shadow.leaves();
        for idx in leaves {
            let pos = self.shadow.block(idx).pos;
            for j in 0..self.shadow.params.ny {
                for i in 0..self.shadow.params.nx {
                    let (x, y) = self.shadow.cell_center(pos, i, j);
                    let v = sample_grid_phi(grid, x, y);
                    let f = self.shadow.index_int(0, i, j);
                    self.shadow.block_mut(idx).data[f] = v;
                }
            }
        }
    }

    /// Advance to `t_end` (bounded by `max_steps`). Reference runs pass
    /// [`Session::passthrough`].
    pub fn run<R: Real>(&mut self, t_end: f64, max_steps: usize, session: &Session) {
        while self.t < t_end && self.nstep < max_steps {
            let dt = compute_dt(&self.grid, &self.params).min(t_end - self.t);
            step::<R>(&mut self.grid, &self.params, dt, Some(&self.level_map), session);
            self.t += dt;
            self.nstep += 1;
            if self.nstep % self.params.reinit_every == 0 {
                reinitialize::<R>(&mut self.grid, 8, session);
            }
            if self.nstep % self.regrid_every == 0 {
                self.update_shadow();
            }
        }
    }

    /// Bubble centroid (area-weighted center of the `phi > 0` region).
    pub fn centroid(&self) -> (f64, f64) {
        let mut area = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for j in 0..self.grid.ny {
            for i in 0..self.grid.nx {
                let c = self.grid.at(i as isize, j as isize);
                if self.grid.phi[c] > 0.0 {
                    let (x, y) = self.grid.xy(i, j);
                    area += 1.0;
                    cx += x;
                    cy += y;
                }
            }
        }
        if area > 0.0 {
            (cx / area, cy / area)
        } else {
            (0.0, 0.0)
        }
    }

    /// Bubble area (cells with `phi > 0`, times cell area).
    pub fn area(&self) -> f64 {
        let mut n = 0usize;
        for j in 0..self.grid.ny {
            for i in 0..self.grid.nx {
                if self.grid.phi[self.grid.at(i as isize, j as isize)] > 0.0 {
                    n += 1;
                }
            }
        }
        n as f64 * self.grid.h * self.grid.h
    }

    /// Number of connected air components (detects bubble splitting,
    /// Fig. 1's "parent and satellite bubbles").
    pub fn component_count(&self) -> usize {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let mut seen = vec![false; nx * ny];
        let inside =
            |i: usize, j: usize| self.grid.phi[self.grid.at(i as isize, j as isize)] > 0.0;
        let mut count = 0;
        let mut stack = Vec::new();
        for j0 in 0..ny {
            for i0 in 0..nx {
                let k0 = j0 * nx + i0;
                if seen[k0] || !inside(i0, j0) {
                    continue;
                }
                count += 1;
                stack.push((i0, j0));
                seen[k0] = true;
                while let Some((i, j)) = stack.pop() {
                    let mut push = |ii: usize, jj: usize| {
                        let k = jj * nx + ii;
                        if !seen[k] && inside(ii, jj) {
                            seen[k] = true;
                            stack.push((ii, jj));
                        }
                    };
                    if i > 0 {
                        push(i - 1, j);
                    }
                    if i + 1 < nx {
                        push(i + 1, j);
                    }
                    if j > 0 {
                        push(i, j - 1);
                    }
                    if j + 1 < ny {
                        push(i, j + 1);
                    }
                }
            }
        }
        count
    }

    /// Extract the zero level set as a polyline point cloud (marching-
    /// squares edge crossings) — the Fig. 1 contour.
    pub fn interface_points(&self) -> Vec<(f64, f64)> {
        let mut pts = Vec::new();
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        for j in 0..ny {
            for i in 0..nx {
                let (ii, jj) = (i as isize, j as isize);
                let c = self.grid.phi[self.grid.at(ii, jj)];
                let (x, y) = self.grid.xy(i, j);
                if i + 1 < nx {
                    let e = self.grid.phi[self.grid.at(ii + 1, jj)];
                    if c * e < 0.0 {
                        let f = c / (c - e);
                        pts.push((x + f * self.grid.h, y));
                    }
                }
                if j + 1 < ny {
                    let n = self.grid.phi[self.grid.at(ii, jj + 1)];
                    if c * n < 0.0 {
                        let f = c / (c - n);
                        pts.push((x, y + f * self.grid.h));
                    }
                }
            }
        }
        pts
    }
}

/// Sample the flow grid's phi at a physical point (nearest cell).
fn sample_grid_phi(grid: &Grid, x: f64, y: f64) -> f64 {
    let i = (((x - grid.origin.0) / grid.h - 0.5).round() as isize)
        .clamp(0, grid.nx as isize - 1);
    let j = (((y - grid.origin.1) / grid.h - 0.5).round() as isize)
        .clamp(0, grid.ny as isize - 1);
    grid.phi[grid.at(i, j)]
}

/// Leaf level of the shadow mesh at a point.
fn leaf_level(mesh: &Mesh, x: f64, y: f64) -> u32 {
    let (x0, x1, y0, y1) = mesh.params.domain;
    let xc = x.clamp(x0, x1 - 1e-12);
    let yc = y.clamp(y0, y1 - 1e-12);
    let fx = (xc - x0) / (x1 - x0) * mesh.params.nbx as f64;
    let fy = (yc - y0) / (y1 - y0) * mesh.params.nby as f64;
    let mut pos = amr::BlockPos { level: 1, ix: fx as u32, iy: fy as u32 };
    let mut idx = mesh.find(pos).expect("root exists");
    loop {
        let b = mesh.block(idx);
        match b.children {
            None => return b.pos.level,
            Some(kids) => {
                let (ox, oy) = mesh.block_origin(pos);
                let (wx, wy) = mesh.block_size(pos.level);
                let k = ((yc - oy >= wy * 0.5) as usize) * 2 + ((xc - ox >= wx * 0.5) as usize);
                idx = kids[k];
                pos = mesh.block(idx).pos;
            }
        }
    }
}

/// Mean distance from each point of `a` to the nearest point of `b` —
/// the interface-deviation metric reported in EXPERIMENTS.md for Fig. 1.
pub fn interface_deviation(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::NAN;
    }
    let mut total = 0.0;
    for &(x, y) in a {
        let mut best = f64::MAX;
        for &(bx, by) in b {
            let d = (x - bx).powi(2) + (y - by).powi(2);
            if d < best {
                best = d;
            }
        }
        total += best.sqrt();
    }
    total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_produces_round_bubble() {
        let b = setup_bubble(32, 2, InsParams::default());
        let (cx, cy) = b.centroid();
        assert!(cx.abs() < 0.05 && cy.abs() < 0.05, "centroid ({cx},{cy})");
        let area = b.area();
        let want = std::f64::consts::PI * 0.25;
        assert!((area - want).abs() / want < 0.1, "area {area} vs {want}");
        assert_eq!(b.component_count(), 1);
    }

    #[test]
    fn shadow_refines_at_interface() {
        let b = setup_bubble(64, 3, InsParams::default());
        // A point on the interface is at the max level.
        assert_eq!(leaf_level(&b.shadow, 0.5, 0.0), 3);
        // The hierarchy is *selective*: a meaningful share of cells sits
        // below the max level (quadtree granularity keeps sibling blocks
        // refined, so we assert on the distribution, not single corners).
        let coarse = b.level_map.iter().filter(|&&l| (l as u32) < 3).count();
        assert!(
            coarse * 4 > b.level_map.len(),
            "at least 25% of cells below max level: {}/{}",
            coarse,
            b.level_map.len()
        );
        // The level map reflects the interface band.
        let (nx, _) = (b.grid.nx, b.grid.ny);
        let j_mid = ((0.0 - b.grid.origin.1) / b.grid.h) as usize;
        let i_edge = ((0.5 - b.grid.origin.0) / b.grid.h) as usize;
        assert_eq!(b.level_map[j_mid * nx + i_edge], 3);
    }

    #[test]
    fn bubble_rises() {
        let mut b = setup_bubble(32, 2, InsParams::default());
        let (_, y0) = b.centroid();
        b.run::<f64>(0.5, 400, &Session::passthrough());
        let (_, y1) = b.centroid();
        assert!(y1 > y0 + 0.02, "bubble rose: {y0} -> {y1}");
        // Area approximately conserved (level-set drift bounded).
        let area = b.area();
        let want = std::f64::consts::PI * 0.25;
        assert!((area - want).abs() / want < 0.35, "area drift {area}");
    }

    #[test]
    fn truncated_advection_diffusion_changes_interface() {
        use bigfloat::Format;
        use raptor_core::Config;
        let params = InsParams::default();
        let mut reference = setup_bubble(32, 2, params);
        reference.run::<f64>(0.15, 120, &Session::passthrough());
        let ref_pts = reference.interface_points();
        assert!(!ref_pts.is_empty(), "reference keeps an interface");
        let mut coarse = setup_bubble(32, 2, params);
        let sess = Session::new(Config::op_files(
            Format::new(11, 6),
            ["INS/advection", "INS/diffusion"],
        ))
        .unwrap();
        coarse.run::<raptor_core::Tracked>(0.15, 120, &sess);
        let pts = coarse.interface_points();
        assert!(!pts.is_empty(), "6-bit run keeps an interface");
        let dev = interface_deviation(&pts, &ref_pts);
        assert!(dev.is_finite());
        assert!(dev > 1e-7, "6-bit interface must deviate: {dev}");
        assert!(dev < 0.5, "but not blow up: {dev}");
        assert!(sess.counters().trunc.total() > 100_000);
    }

    #[test]
    fn interface_deviation_metric() {
        let a = vec![(0.0, 0.0), (1.0, 0.0)];
        let b = vec![(0.0, 0.1), (1.0, 0.1)];
        let d = interface_deviation(&a, &b);
        assert!((d - 0.1).abs() < 1e-12);
        assert_eq!(interface_deviation(&a, &a), 0.0);
    }
}
