"""
What disorder does to reflection and absorption
===============================================

Splitting the cloud into an ordered lattice (fraction f_dw) plus a
homogeneous background shows the two faces of thermal disorder: the ordered
part Bragg-reflects, the background absorbs.  Absorption stays low only when
the lattice is perfect AND the angle is matched; either kind of imperfection
fills the absorption back in.
"""

from pathlib import Path

import numpy as np

import braggstack as bs
from braggstack.svgplot import Series, render_svg
from braggstack.tableio import write_blocks

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

cfg = bs.default_config()
grid = bs.detuning_grid(-8, 8, 641)
center = np.argmin(np.abs(grid))

for dl_nm, tag in ((0.0, "matched"), (0.8, "detuned")):
    geom = bs.bragg_matched_geometry().with_lattice_mismatch(dl_nm * 1e-9)
    r_series, a_series = [], []
    for f_dw in (1.0, 0.7, 0.4, 0.2):
        chain = bs.two_component_lattice(3e17, f_dw, 600, 10, geom)
        res = bs.sweep_scatter(chain, grid * cfg.gamma, cfg, geom)
        r_series.append(Series(grid, res.big_r, f"f_dw={f_dw}"))
        a_series.append(Series(grid, res.big_a, f"f_dw={f_dw}"))
        if f_dw in (1.0, 0.2):
            print(f"{tag} lattice, f_dw={f_dw}: A(0)={res.big_a[center]:.3f} "
                  f"max R={res.big_r.max():.3f}")
    write_blocks(out / f"reflection_{tag}.svg",
                 [render_svg(r_series, "delta / Gamma", "R")])
    write_blocks(out / f"absorption_{tag}.svg",
                 [render_svg(a_series, "delta / Gamma", "A")])

# %%
# Erasing order monotonically kills the coherent reflection.
geom = bs.bragg_matched_geometry()
f_values = np.linspace(0, 1, 11)
r_on = [bs.scatter(bs.chain_matrix(
    bs.two_component_lattice(3e17, f, 600, 10, geom), 0.0, cfg, geom)).big_r
    for f in f_values]
write_blocks(out / "reflection_vs_fdw.svg", [render_svg(
    [Series(f_values, np.array(r_on), "R(0)")], "f_dw", "R on resonance")])
print(f"outputs in {out}")
