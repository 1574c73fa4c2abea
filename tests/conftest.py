"""Suite-wide hypothesis settings.

Hypothesis's explain phase re-runs a failing example under many variations
and keeps what each run touched.  A failing reader differential grew one
pytest process to 1.7-3.1 GB that way, so a regression could take the
memory of a shared machine.  Every other phase runs, and example counts,
deadlines and strategies stay hypothesis's defaults or the test's own.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "tpcbed", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("tpcbed")
