"""CAD3 reproduction (ICDCS 2021).

Edge-facilitated real-time collaborative abnormal driving distributed
detection — a full-stack, from-scratch Python reproduction.  See the
README for the map of subpackages:

- :mod:`repro.simkernel` — deterministic discrete-event simulation
  (one heap of timed callbacks).
- :mod:`repro.geo` — geography, road networks, HMM map matching.
- :mod:`repro.dataset` — synthetic Shenzhen-like driving data.
- :mod:`repro.ml` — Naive Bayes / decision tree / logistic / forest.
- :mod:`repro.streaming` — Kafka-like partitioned pub/sub.
- :mod:`repro.microbatch` — the 50 ms micro-batch executor Spark
  Streaming plays in the paper: one batch callback per interval.
- :mod:`repro.net` — DSRC MAC, HTB shaping, wired/cellular links,
  channel management.
- :mod:`repro.core` — the CAD3 system itself.
- :mod:`repro.deploy` — city-scale deployment planning.
- :mod:`repro.experiments` — one harness per paper table/figure.
"""

__version__ = "1.0.0"

#: The paper this repository reproduces.
PAPER = (
    "Alhilal, Braud, Su, Al Asadi, Hui. "
    "CAD3: Edge-facilitated Real-time Collaborative Abnormal Driving "
    "Distributed Detection. ICDCS 2021. DOI 10.1109/ICDCS51616.2021.00074"
)
