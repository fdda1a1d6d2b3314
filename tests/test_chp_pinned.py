"""Pinned CHP reports.

``TestBatchedBootstrap`` compares ``chp_bootstrap_test`` with a per-sample
oracle to 1e-12, which a last-bit change of the kernel would pass.  These
tests pin the reports themselves: every statistic and p-value below was
recorded before the data became row 0 of the bootstrap pass (when it had a
kernel call of its own) and must not move.  The one exception is expTS,
recorded again when the Psi weight came from the package's own erfcx in
place of scipy's: six of the eleven moved by one or two ulps (at most 3.4e-16
relative), while supTS and every p-value kept their bits.
"""

from __future__ import annotations

import pytest

from regimetest._seeding import DOMAIN_CELL, DOMAIN_DGP, derive_seed, substream
from regimetest.chp import chp_bootstrap_test
from regimetest.harness import default_study_grid
from regimetest.msar import simulate_msar

#: (desk cell, supTS, expTS, bootstrap_p_sup, bootstrap_p_exp) of replication
#: 0 of the cell under study seed 0, at B=50 and the cell's 200 nuisance draws
PINNED = [
    (0, 0.013415833108975634, 0.6564782902094213, 0.39215686274509803, 0.27450980392156865),
    (4, 0.028709895947205022, 0.6595506748549722, 0.11764705882352941, 0.17647058823529413),
    (10, 0.011595771100909653, 0.6608193151038333, 0.17647058823529413, 0.1568627450980392),
    (14, 0.013898685146755773, 0.6834888302561981, 0.09803921568627451, 0.0196078431372549),
    (20, 0.016656025767232723, 0.6922875558126591, 0.29411764705882354, 0.0196078431372549),
    (27, 0.03397986494349387, 0.7126061520490741, 0.13725490196078433, 0.0196078431372549),
    (30, 0.010534164145988147, 0.6702711019977055, 0.23529411764705882, 0.058823529411764705),
    (38, 0.024312347026434544, 0.6860350971309586, 0.0392156862745098, 0.0196078431372549),
]


@pytest.mark.parametrize("cell, supTS, expTS, p_sup, p_exp", PINNED, ids=[str(c[0]) for c in PINNED])
def test_desk_case_is_pinned(cell, supTS, expTS, p_sup, p_exp):
    cfg = default_study_grid("desk")[cell]
    assert (cfg.T, cfg.dgp.phi[0]) == ((100, 200)[cell // 10 % 2], (0.1, 0.9)[cell // 20])
    y = simulate_msar(cfg.dgp, cfg.T, substream(0, DOMAIN_DGP, cell, 0))
    report = chp_bootstrap_test(
        y, B=50, draws=cfg.chp_draws, master_seed=derive_seed(0, DOMAIN_CELL, cell, 0)
    )
    assert (report.supTS, report.expTS) == (supTS, expTS)
    assert (report.bootstrap_p_sup, report.bootstrap_p_exp) == (p_sup, p_exp)


#: the same fields at the desk profile's B=200, for one T=100 and one T=200
#: cell, recorded while every row still had its own series set-up and
#: finishing step; the row-chunked pass must reproduce them
PINNED_DESK_B = [
    (4, 0.028709895947205022, 0.6595506748549722, 0.0945273631840796, 0.21393034825870647),
    (14, 0.013898685146755773, 0.6834888302561981, 0.09950248756218906, 0.009950248756218905),
]


@pytest.mark.parametrize("cell, supTS, expTS, p_sup, p_exp", PINNED_DESK_B, ids=["T100", "T200"])
def test_desk_case_at_desk_B_is_pinned(cell, supTS, expTS, p_sup, p_exp):
    cfg = default_study_grid("desk")[cell]
    assert (cfg.T, cfg.B) == ((100, 200)[cell // 10 % 2], 200)
    y = simulate_msar(cfg.dgp, cfg.T, substream(0, DOMAIN_DGP, cell, 0))
    report = chp_bootstrap_test(
        y, B=cfg.B, draws=cfg.chp_draws, master_seed=derive_seed(0, DOMAIN_CELL, cell, 0)
    )
    assert (report.supTS, report.expTS) == (supTS, expTS)
    assert (report.bootstrap_p_sup, report.bootstrap_p_exp) == (p_sup, p_exp)


def test_gnp_report_is_pinned(hamilton_growth):
    # `regimetest chp --transform logdiff100 --reps 200 --draws 200 --seed 7`
    # on the vendored Hamilton series; CI's console-script step requires the
    # same p-values from the installed entry point.  At T = 135 the 201 rows
    # span several row chunks, and the last kernel block holds one row.
    report = chp_bootstrap_test(hamilton_growth, B=200, draws=200, master_seed=7)
    assert (report.supTS, report.expTS) == (0.013835487661668398, 0.6565848008086484)
    assert (report.bootstrap_p_sup, report.bootstrap_p_exp) == (
        0.2835820895522388, 0.3283582089552239,
    )
