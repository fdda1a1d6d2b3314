"""The exact text of every file a run writes: a ``# regimetest=... seed=...
config_sha=...`` line (none in the simulated path and the coefficient
table), the header, the rows, every line ended in ``\\n``.  The texts are
pinned as recorded; only the study's ``wall_time_s`` column is masked.  The
``fit-table`` text was recorded again when the statistic kernel's sums
became row dot products: its fits moved by about 3e-10 relative, the
statistics under them by a few ulps.  Its S row was recorded again, moving
by about 1.4e-10 relative, when the skewness denominator became
``sig2 * sqrt(sig2)`` in place of ``sig2**1.5``, whose bits depend on the CPU.
The ``chp`` text's expTS was recorded again, one ulp up, when the Psi weight
came from the package's own erfcx in place of scipy's.  The CHP-only
study text, recorded before a study replication stopped its bootstrap pass
at the first row chunk where both decisions are final, shows that the stop
moves no reject rate."""

from __future__ import annotations

import re
import shutil
from importlib.resources import files

import pytest

from regimetest.cli import main

RUNS = {
    "study": ["study", "--reps", "2", "--mc", "20", "--methods", "LMC_min", "--seed", "5"],
    "study-chp": ["study", "--reps", "1", "--methods", "supTS,expTS", "--seed", "5"],
    "test": ["test", "--series", "gnp.csv", "--transform", "logdiff100", "--lags", "2",
             "--mc", "20", "--grid-points", "3", "--seed", "7"],
    "chp": ["chp", "--series", "gnp.csv", "--transform", "logdiff100", "--reps", "20",
            "--draws", "20", "--seed", "1"],
    "simulate": ["simulate", "--T", "20", "--mu", "0,2", "--phi", "0.3", "--seed", "4"],
    "fit-table": ["fit-table", "--sizes", "50", "--draws", "10000"],
}

EXPECTED = {
    "study": """\
# regimetest=0.1.0 seed=5 config_sha=739ab3ffdcc5
label,method,T,replications,reject_rate,mc_se,wall_time_s,failed,error
"null,phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"null,phi=0.1,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.1,T=200",LMC_min,200,2,0.5,0.3535533905932738,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.1,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.1,T=200",LMC_min,200,2,0.5,0.3535533905932738,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=200",LMC_min,200,2,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200",LMC_min,200,2,0.5,0.3535533905932738,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=200",LMC_min,200,2,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200",LMC_min,200,2,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=200",LMC_min,200,2,1.0,0.0,X,0,
"null,phi=0.9,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.9,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.9,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.9,T=100",LMC_min,100,2,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=100",LMC_min,100,2,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=100",LMC_min,100,2,0.5,0.3535533905932738,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=100",LMC_min,100,2,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=100",LMC_min,100,2,0.0,0.0,X,0,
"null,phi=0.9,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.9,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.9,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.9,T=200",LMC_min,200,2,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=200",LMC_min,200,2,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=200",LMC_min,200,2,0.5,0.3535533905932738,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200",LMC_min,200,2,0.5,0.3535533905932738,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=200",LMC_min,200,2,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=200",LMC_min,200,2,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200",LMC_min,200,2,1.0,0.0,X,0,
""",
    "study-chp": """\
# regimetest=0.1.0 seed=5 config_sha=a91ec92e9e09
label,method,T,replications,reject_rate,mc_se,wall_time_s,failed,error
"null,phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"null,phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=100",expTS,100,1,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=100",expTS,100,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=100",supTS,100,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=100",expTS,100,1,1.0,0.0,X,0,
"null,phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"null,phi=0.1,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.1,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.1,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.1,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=200",expTS,200,1,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200",expTS,200,1,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.1,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200",expTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.1,T=200",expTS,200,1,1.0,0.0,X,0,
"null,phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"null,phi=0.9,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.9,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.9,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.9,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=100",supTS,100,1,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=100",expTS,100,1,1.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=100",expTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=100",expTS,100,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=100",supTS,100,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=100",expTS,100,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=100",supTS,100,1,0.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=100",expTS,100,1,1.0,0.0,X,0,
"null,phi=0.9,T=200",supTS,200,1,0.0,0.0,X,0,
"null,phi=0.9,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.9,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.9),phi=0.9,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.9,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.5),phi=0.9,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.9,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=2.0,dsig=0.0,p=(0.9,0.1),phi=0.9,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=200",expTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200",supTS,200,1,0.0,0.0,X,0,
"dmu=0.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200",expTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.9),phi=0.9,T=200",expTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.9,T=200",expTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200",supTS,200,1,1.0,0.0,X,0,
"dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200",expTS,200,1,1.0,0.0,X,0,
""",
    "test": """\
# regimetest=0.1.0 seed=7 config_sha=4d9826a70a00
method,p_value,phi_1,phi_2,min_root_modulus,N,seed,grid_points
LMC_min,0.55,0.30412281659418083,0.0649743214069919,2.227802695033246,20,7,1
LMC_prod,0.65,0.30412281659418083,0.0649743214069919,2.227802695033246,20,7,1
MMC_min,0.8,0.1294160909429788,0.23774960707282128,1.7966911142740671,20,7,9
MMC_prod,0.8,0.1294160909429788,0.23774960707282128,1.7966911142740671,20,7,9
""",
    "chp": """\
# regimetest=0.1.0 seed=1 config_sha=fff38aa1272b
method,statistic,p_value,B,draws,seed
supTS,0.01159625066251797,0.09523809523809523,20,20,1
expTS,0.6715624704434552,0.14285714285714285,20,20,1
""",
    "simulate": """\
value
1.779236141840053
3.229104823146762
-0.3076598177756857
-0.34409002945616685
-1.9286980737730572
0.26851284523315955
0.07180276228663965
1.0913239441805644
1.0366618416784696
0.4104696213333322
0.289147839773233
1.2888140232404979
0.23183216842323728
-0.07272913531374214
0.058368783548574
0.8362469390175252
1.1890587175729774
2.2912148327990343
0.6284225103249131
1.4769921897678187
""",
    "fit-table": """\
statistic,T,gamma0,gamma1
M,50,-15.883690118449547,8.241243193732354
V,50,-7.705011875472708,0.8842670507494637
S,50,-2.0694958716311764,8.92096683352183
K,50,-2.200658706469812,5.220895052431014
""",
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_run_writes_the_pinned_file(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(files("regimetest").joinpath("data/gnp_hamilton_levels.csv"), "gnp.csv")
    assert main([*RUNS[command], "--out", "out.csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# wrote out.csv"
    with open("out.csv", newline="") as fh:
        text = fh.read()
    assert "\r" not in text
    if command.startswith("study"):
        text, masked = re.subn(r",\d+\.\d{3},([01]),$", r",X,\1,", text, flags=re.M)
        assert masked == text.count("\n") - 2  # every row below the meta line and header
    assert text == EXPECTED[command]
