import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help=(
            "run the opt-in slow checks: the pinned n=24 codebooks of every "
            "family, and noncons4 at n=24 (criterion 12 and 1,000 seeded "
            "search decodes per burst size)"
        ),
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
