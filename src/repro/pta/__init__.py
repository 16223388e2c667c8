"""The Program Trading Application (paper sections 3 and 4).

The PTA maintains three kinds of prices: stock prices (base data, driven by
a market feed), composite index prices (derived, incrementally maintainable,
high fan-in) and theoretical Black-Scholes option prices (derived,
non-incremental, high fan-out).  This package provides:

* :mod:`repro.pta.blackscholes` — the Appendix B pricing model;
* :mod:`repro.pta.trace` — a synthetic NYSE TAQ-style quote trace with
  Zipf-skewed per-stock activity and bursty arrivals (the substitution for
  the proprietary TAQ file; see DESIGN.md);
* :mod:`repro.pta.tables` — the six tables of section 3 populated per
  section 4.2, parameterized by :class:`~repro.pta.tables.Scale`;
* :mod:`repro.pta.rules` — the rule families ``do_comps1/2/3`` and
  ``do_options1/2/3`` with their user functions;
* :mod:`repro.pta.workload` — the run harness (:class:`RunSpec` and
  :func:`run`) that drives a full experiment and collects the quantities
  reported in Figures 9-14.
"""

from repro.pta.blackscholes import call_price
from repro.pta.tables import Scale, populate
from repro.pta.trace import QuoteEvent, TaqTraceGenerator
from repro.pta.workload import RunResult, RunSpec, Trade, TradeResult, run, run_experiment

__all__ = [
    "QuoteEvent",
    "RunResult",
    "RunSpec",
    "Scale",
    "TaqTraceGenerator",
    "Trade",
    "TradeResult",
    "call_price",
    "populate",
    "run",
    "run_experiment",
]
