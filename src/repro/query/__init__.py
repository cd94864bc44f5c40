"""Query processing substrate: BRS top-k and BBS skyline over the R*-tree.

* :mod:`repro.query.brs` — Branch-and-bound Ranked Search [Tao et al.], the
  I/O-optimal top-k algorithm the paper uses. Retains its search heap and
  the set ``T`` of encountered non-result records for the GIR phases.
* :mod:`repro.query.bbs` — Branch-and-Bound Skyline [Papadias et al.],
  modified per the paper to pop entries in decreasing maxscore order and to
  continue from the BRS leftovers of the same GIR computation.
* :mod:`repro.query.linear_scan` — brute-force oracles used in tests.
"""

from repro.query.bbs import bbs_skyline, skyline_of_points
from repro.query.brs import BRSRun, brs_topk
from repro.query.linear_scan import scan_skyline, scan_topk
from repro.query.topk import TopKResult

__all__ = [
    "TopKResult",
    "BRSRun",
    "brs_topk",
    "bbs_skyline",
    "skyline_of_points",
    "scan_topk",
    "scan_skyline",
]
