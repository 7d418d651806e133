"""
Bloch phase and density of optical states
=========================================

One unit cell (layer + gap) determines the infinite lattice: the Bloch phase
theta per cell follows from cos(theta) = Tr(M)/2.  Where theta picks up an
imaginary part the lattice supports no propagating mode (a stop band) and the
density of states d(Re theta)/d(detuning) collapses, spiking at the band
edges.
"""

from pathlib import Path

import math
import numpy as np

import braggstack as bs
from braggstack.svgplot import Series, render_svg
from braggstack.tableio import write_blocks, write_csv

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

geom = bs.bragg_matched_geometry()
k_z = geom.k_brg * math.cos(geom.beta_i)

# %%
# Lossless cell with a fixed real layer strength, scanning the cell length
# through the half-wave (pi) condition: the textbook gap at the zone edge.
zeta_r = 0.02
eps = np.linspace(-0.08, 0.04, 801)
cells = np.stack([
    bs.matmul2(bs.layer_matrix(zeta_r),
               bs.gap_matrix((math.pi + e) / k_z, geom.k_brg, geom.beta_i))
    for e in eps])
theta = bs.bloch_phase(cells)
rho = bs.density_of_states(eps, theta)
write_csv(out / "bands_lossless.csv",
          {"cell_phase_offset": eps, "re_theta": theta.real,
           "im_theta": theta.imag, "dos": rho})
write_blocks(out / "bands_lossless.svg", [render_svg(
    [Series(eps, theta.real, "Re theta"),
     Series(eps, 10 * theta.imag, "10 x Im theta")],
    "gap phase - pi", "Bloch phase (rad)")])
write_blocks(out / "dos_lossless.svg", [render_svg(
    [Series(eps, rho, "DOS")], "gap phase - pi", "|d Re theta / d eps|")])
ingap = theta.imag > 1e-9
print(f"stop band spans eps in [{eps[ingap].min():.4f}, {eps[ingap].max():.4f}]"
      f" (expected [-2 zeta, 0] = [{-2 * zeta_r:.4f}, 0])")
print(f"DOS vanishes on {int(np.sum(rho[ingap] == 0))} of {int(ingap.sum())} "
      f"in-gap points")

# %%
# A physical (absorbing) chain: every Bloch mode decays a little, so the
# imaginary part is finite everywhere and peaks at the atomic resonance.
cfg = bs.single_line_config()
grid = bs.detuning_grid(-10, 10, 401)
chain = bs.perfect_lattice(3e17, 1, geom.with_lattice_mismatch(0.8e-9))
theta_p, _ = bs.band_structure(chain, grid, cfg,
                               geom.with_lattice_mismatch(0.8e-9))
write_blocks(out / "bands_physical.svg", [render_svg(
    [Series(grid, theta_p.real, "Re theta"),
     Series(grid, theta_p.imag, "Im theta")],
    "delta / Gamma", "Bloch phase (rad)")])
print(f"physical cell: max Im theta = {theta_p.imag.max():.4f} at "
      f"delta/Gamma = {grid[np.argmax(theta_p.imag)]:.2f}")
print(f"outputs in {out}")
