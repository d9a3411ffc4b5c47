"""Network substrate: DSRC channel, HTB shaping, wired inter-RSU links.

The paper's testbed emulates the DSRC medium with ``tc``/netem
hierarchical token buckets over Ethernet and backs its scalability
claims with the analytic CSMA/CA model of Eq. 5-6.  This package
implements both:

- :mod:`repro.net.dsrc` — the 802.11p MCS table, the analytic
  medium-access model (Eq. 5-6), and a discrete-event shared-channel
  simulation used by the latency experiments.
- :mod:`repro.net.htb` — hierarchical token bucket shaping (the
  ``tc htb`` analogue: 100 Kb/s assured per vehicle, 27 Mb/s shared
  ceiling).
- :mod:`repro.net.link` — point-to-point wired links for RSU-to-RSU
  collaboration traffic.
"""

from repro.net.cellular import (
    LTE_PROFILE,
    NR_5G_PROFILE,
    CellularLink,
    CellularProfile,
)
from repro.net.dsrc import (
    DSRC_BANDWIDTH_BPS,
    MCS_TABLE,
    PAPER_MCS_3,
    PAPER_MCS_8,
    DsrcChannel,
    DsrcMacModel,
    McsScheme,
)
from repro.net.htb import HtbClass, HtbShaper
from repro.net.link import WiredLink

__all__ = [
    "CellularLink",
    "CellularProfile",
    "DSRC_BANDWIDTH_BPS",
    "DsrcChannel",
    "DsrcMacModel",
    "HtbClass",
    "HtbShaper",
    "LTE_PROFILE",
    "MCS_TABLE",
    "McsScheme",
    "NR_5G_PROFILE",
    "PAPER_MCS_3",
    "PAPER_MCS_8",
    "WiredLink",
]
