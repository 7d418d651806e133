"""
Saturation with atom number and double reflection dips
======================================================

Two signatures separate simple Bragg scattering from the multiple-reflection
regime.  First, the peak reflectivity stops growing quadratically with atom
number and saturates.  Second, for a slightly detuned lattice constant the
reflection dip can split in two: one notch from diffuse absorption at the
line center, one from destructive interference between reflection paths.
"""

from pathlib import Path

import numpy as np

import braggstack as bs
from braggstack.svgplot import Series, render_svg
from braggstack.tableio import write_blocks, write_csv

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

cfg = bs.default_config()
geom = bs.bragg_matched_geometry()

# %%
# Peak reflection vs atom number (atoms spread over ~10^4 filled wells).
numbers = np.logspace(5, np.log10(4e7), 17)
numbers, max_r = bs.saturation_scan(numbers, geom, cfg, n_s=400, f_dw=0.2,
                                    n_ss=10)
write_csv(out / "saturation.csv", {"atom_number": numbers, "max_R": max_r})
write_blocks(out / "saturation.svg", [render_svg(
    [Series(np.log10(numbers), max_r, "max R")], "log10 atom number", "max R")])
_, pair = bs.saturation_scan([1e4, 1e5], geom, cfg, n_s=400, f_dw=0.2, n_ss=10)
print(f"low-N decade ratio R(10N)/R(N) = {pair[1] / pair[0]:.1f} (quadratic: 100)")
print(f"high-N saturation: R({numbers[-5]:.1e}) = {max_r[-5]:.3f} -> "
      f"R({numbers[-1]:.1e}) = {max_r[-1]:.3f}")

# %%
# Double dip: shallow trap (0.6 linewidths), 90 uK cloud, lattice stretched
# by 0.08 nm, full sinusoidal potential for the Stark sampling.
gamma = cfg.gamma
u0 = 0.6 * gamma
g8 = bs.bragg_matched_geometry(U0=u0, T=90e-6).with_lattice_mismatch(0.08e-9)
mc = bs.ThermalModelConfig(n=3e17, n_s=520, n_ss=20, T=90e-6, U0=u0,
                           stark_enabled=True, potential_form="sinusoidal")
table = bs.spectrum(bs.sequential_lattice(mc, g8), bs.detuning_grid(), cfg, g8)
idx = bs.reflection_minima(table.delta_over_gamma, table.R, prominence=1e-3,
                           window=(-6, 6))
print(f"reflection minima at delta/Gamma = "
      f"{np.round(table.delta_over_gamma[idx], 2).tolist()}")
write_blocks(out / "double_dip.svg", [render_svg(
    [Series(table.delta_over_gamma, table.R, "R")], "delta / Gamma", "R")])
print(f"outputs in {out}")
