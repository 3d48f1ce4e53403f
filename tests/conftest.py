"""One hypothesis profile for every property test: derandomized, so each
run draws the same examples, with no example database and no deadline,
since a CLI or optimizer example may take tens of milliseconds."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1",
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tier1")
